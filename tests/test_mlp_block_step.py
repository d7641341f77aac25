"""The MLP block step against the longer code it replaced.

``relu._loss_block_gradient`` used to unwind the output layer apart from the
hidden ones, and ``MlpTaskProblem.minimize_block_surrogate`` used to track
whether a step moved with a flag.  Copies of both are kept here as
references: the sweep must give the same bits for every block, and the
solver the same point and count, on kinks and ties included.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bdcopt import relu
from bdcopt.model import SampleHandle
from bdcopt.problems.mlp import MlpTaskProblem
from bdcopt.relu import _as_batch, _output_adjoints, _relu, _relu_deriv

from test_mlp_memo import build_task, tie_case


def reference_sweep(params, x, y, loss, part, block):
    """The reverse sweep with the output layer unwound on its own."""
    L = params.n_layers
    X = _as_batch(x, params.input_dim)
    state = relu.forward_split(params, X)
    dA, dB = _output_adjoints(state, np.atleast_1d(np.asarray(y)), loss, part)
    lowest = 0 if block is None else block
    grads = [None] * L

    WL, bL = params.layers[-1]
    if block is None or block == L - 1:
        Zp, Zm = state.z_plus[-1], state.z_minus[-1]
        dW = (_relu_deriv(WL) * (dA.T @ Zp + dB.T @ Zm)
              - _relu_deriv(-WL) * (dA.T @ Zm + dB.T @ Zp))
        db = _relu_deriv(bL) * dA.sum(axis=0) - _relu_deriv(-bL) * dB.sum(axis=0)
        grads[L - 1] = (dW, db)

    if lowest < L - 1:
        WLp, WLm = _relu(WL), _relu(-WL)
        dZp = dA @ WLp + dB @ WLm
        dZm = dA @ WLm + dB @ WLp
        for l in range(L - 2, max(lowest, 1) - 1, -1):
            mask = (state.pre[l] >= state.z_minus[l]).astype(float)
            dp = mask * dZp
            dzm = dZm + (1.0 - mask) * dZp
            W = params.layers[l][0]
            if block is None or block == l:
                Zp_in, Zm_in = state.z_plus[l - 1], state.z_minus[l - 1]
                dW = (_relu_deriv(W) * (dp.T @ Zp_in + dzm.T @ Zm_in)
                      - _relu_deriv(-W) * (dp.T @ Zm_in + dzm.T @ Zp_in))
                grads[l] = (dW, dp.sum(axis=0))
            if l > lowest:
                Wp, Wm = _relu(W), _relu(-W)
                dZp = dp @ Wp + dzm @ Wm
                dZm = dp @ Wm + dzm @ Wp
        if lowest == 0:
            dp = _relu_deriv(state.pre[0]) * dZp
            grads[0] = (dp.T @ X, dp.sum(axis=0))

    return grads if block is None else grads[block]


def reference_minimize(prob, i, theta, u, rho, budget, tol, sample=None):
    """The block solver as it was, with a ``moved`` flag between the line
    search, the kink probe and the hop."""
    theta = np.asarray(theta, dtype=float)
    sl = prob.partition.slice_of(i)
    x0 = theta[sl].copy()
    trial = theta.copy()

    def value(x):
        trial[sl] = x
        val = prob.eval_g(i, trial, sample=sample) - float(np.dot(u, x))
        if rho:
            val += 0.5 * rho * float(np.sum((x - x0) ** 2))
        return val

    def gradient(x):
        trial[sl] = x
        grad = prob.grad_g_block(i, trial, sample=sample) - u
        if rho:
            grad = grad + rho * (x - x0)
        return grad

    x = x0.copy()
    val = value(x)
    best_x, best_val = x.copy(), val
    tol_eff = tol * (1.0 + abs(val))
    step = 1.0 / (1.0 + rho)
    escape = step
    evals = 0

    def probe_kinks(x, val):
        for j in np.flatnonzero(x == 0.0):
            for direction in (1.0, -1.0):
                probe = step
                for _ in range(8):
                    cand = x.copy()
                    cand[j] = direction * probe
                    cand_val = value(cand)
                    if cand_val <= val - 1e-12 * (1 + abs(val)):
                        return cand, cand_val
                    probe *= 0.25
        return None

    while evals < budget:
        grad = gradient(x)
        evals += 1
        gnorm = float(np.linalg.norm(grad))
        moved = False
        if gnorm > tol_eff:
            s = step
            for _ in range(20):
                cand = x - s * grad
                cand_val = value(cand)
                if cand_val <= val - 1e-12 * (1 + abs(val)):
                    x, val, step = cand, cand_val, s * 1.5
                    moved = True
                    break
                s *= 0.5
        if not moved:
            hit = probe_kinks(x, val)
            if hit is not None:
                x, val = hit
                moved = True
        if not moved:
            if gnorm <= tol_eff:
                break
            if escape * gnorm <= 1e-14 * (1.0 + float(np.linalg.norm(x))):
                break
            x = x - escape * grad
            val = value(x)
            escape *= 0.5
        if val < best_val:
            best_x, best_val = x.copy(), val
    return best_x, max(evals, 1)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 4), st.sampled_from(["mse", "ce"]), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_one_loop_sweep_matches_reference(depth, loss, grid, seed):
    task, _ = build_task(np.random.default_rng(seed), depth, loss, grid)
    params, x, y = task.net, task.inputs, task.labels
    for part, fn in (("g", relu.block_grad_g), ("h", relu.block_grad_h)):
        want_all = reference_sweep(params, x, y, loss, part, None)
        for l, pair in enumerate(fn(params, x, y, loss, None)):
            np.testing.assert_array_equal(pair[0], want_all[l][0])
            np.testing.assert_array_equal(pair[1], want_all[l][1])
        for l in range(params.n_layers):
            want = reference_sweep(params, x, y, loss, part, l)
            got = fn(params, x, y, loss, l)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])


def check_solver(task, theta, rng, budget=6):
    """Every block, three proximal weights, the full data and one handle:
    the solver and its reference return the same point and count."""
    prob, ref = MlpTaskProblem(task), MlpTaskProblem(task)
    handle = SampleHandle(key=1, indices=rng.integers(0, len(task.labels), size=4))
    for sample in (None, handle):
        for i in range(prob.n_blocks):
            u = prob.subgrad_h_block(i, theta, sample=sample)
            for rho in (0.0, 0.5, 2.0):
                got = prob.minimize_block_surrogate(i, theta, u, rho, budget,
                                                    1e-8, sample=sample)
                want = reference_minimize(ref, i, theta, u, rho, budget, 1e-8,
                                          sample=sample)
                np.testing.assert_array_equal(got[0], want[0])
                assert got[1] == want[1]


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.sampled_from(["mse", "ce"]), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_solver_matches_reference(depth, loss, grid, seed):
    rng = np.random.default_rng(seed)
    task, theta = build_task(rng, depth, loss, grid)
    check_solver(task, theta, rng)


@pytest.mark.parametrize("loss", ["mse", "ce"])
def test_solver_matches_reference_on_ties(loss):
    task, theta = tie_case(loss)
    check_solver(task, theta, np.random.default_rng(23), budget=10)


def test_kink_probe_frees_a_block_the_line_search_cannot_move():
    # grid net and inputs: block 0 starts on a tie where neither a step
    # along -grad nor the hop lowers the minibatch surrogate; only the probe
    # of a zero weight does
    rng = np.random.default_rng(68)
    task, theta = build_task(rng, 4, "mse", grid=True)
    prob = MlpTaskProblem(task)
    handle = SampleHandle(key=1, indices=rng.integers(0, len(task.labels), size=4))
    sl = prob.partition.slice_of(0)
    x0 = theta[sl]
    assert np.count_nonzero(x0 == 0.0) > 0
    u = prob.subgrad_h_block(0, theta, sample=handle)

    def surrogate(x):
        trial = theta.copy()
        trial[sl] = x
        return prob.eval_g(0, trial, sample=handle) - float(np.dot(u, x))

    x, _ = prob.minimize_block_surrogate(0, theta, u, 0.0, 6, 1e-8, sample=handle)
    assert surrogate(x) < surrogate(x0) - 1e-3
