"""The MLP block step against the longer code it replaced.

``relu._loss_block_gradient`` used to unwind the output layer apart from the
hidden ones, and ``MlpTaskProblem.minimize_block_surrogate`` used to track
whether a step moved with a flag, to evaluate every trial point through the
public oracles, and to evaluate trial points that convexity rules out.
Copies of both are kept here as references: the sweep must give the same
bits for every block, and the solver the same point and count, on kinks and
ties included, with its trial points a subsequence of the reference's.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bdcopt import relu
from bdcopt.model import SampleHandle
from bdcopt.experiments import run_relu_experiment
from bdcopt.problems.mlp import MlpTask, MlpTaskProblem, gaussian_blobs
from bdcopt.relu import _as_batch, _output_adjoints, _relu, _relu_deriv

from test_mlp_memo import ORACLES, build_task, tie_case


def reference_sweep(params, x, y, loss, part, block):
    """The reverse sweep with the output layer unwound on its own."""
    L = params.n_layers
    X = _as_batch(x, params.input_dim)
    state = relu.forward_split(params, X)
    dA, dB = _output_adjoints(state, np.atleast_1d(np.asarray(y)), loss, part)

    WL, bL = params.layers[-1]
    if block == L - 1:
        Zp, Zm = state.z_plus[-1], state.z_minus[-1]
        dW = (_relu_deriv(WL) * (dA.T @ Zp + dB.T @ Zm)
              - _relu_deriv(-WL) * (dA.T @ Zm + dB.T @ Zp))
        db = _relu_deriv(bL) * dA.sum(axis=0) - _relu_deriv(-bL) * dB.sum(axis=0)
        return dW, db

    WLp, WLm = _relu(WL), _relu(-WL)
    dZp = dA @ WLp + dB @ WLm
    dZm = dA @ WLm + dB @ WLp
    for l in range(L - 2, max(block, 1) - 1, -1):
        mask = (state.pre[l] >= state.z_minus[l]).astype(float)
        dp = mask * dZp
        dzm = dZm + (1.0 - mask) * dZp
        W = params.layers[l][0]
        if block == l:
            Zp_in, Zm_in = state.z_plus[l - 1], state.z_minus[l - 1]
            dW = (_relu_deriv(W) * (dp.T @ Zp_in + dzm.T @ Zm_in)
                  - _relu_deriv(-W) * (dp.T @ Zm_in + dzm.T @ Zp_in))
            return dW, dp.sum(axis=0)
        Wp, Wm = _relu(W), _relu(-W)
        dZp = dp @ Wp + dzm @ Wm
        dZm = dp @ Wm + dzm @ Wp
    dp = _relu_deriv(state.pre[0]) * dZp
    return dp.T @ X, dp.sum(axis=0)


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


def traced_reference(ref, i, theta, u, rho, budget, tol, sample):
    """``reference_minimize`` with its trial points.  Returns its result,
    one ``(vector, search)`` per forward pass in call order, where ``search``
    is the point whose gradient the trial point follows, and the surrogate
    value at every point, keyed by vector.

    The problem keeps one point, so a pass is made whenever an oracle call's
    vector differs from the one before; the first call, at ``theta``, is a
    hit when the caller has just taken ``u`` there."""
    sl = ref.partition.slice_of(i)
    x0 = theta[sl].copy()
    eval_g, grad_g_block = ref.eval_g, ref.grad_g_block
    calls, values = [], {}

    def spy_value(i, trial, sample=None):
        g = eval_g(i, trial, sample=sample)
        x = trial[sl]
        val = g - float(np.dot(u, x))  # the reference's own expression
        if rho:
            val += 0.5 * rho * float(np.sum((x - x0) ** 2))
        values[trial.tobytes()] = val
        calls.append((False, trial.tobytes()))
        return g

    def spy_gradient(i, trial, sample=None):
        calls.append((True, trial.tobytes()))
        return grad_g_block(i, trial, sample=sample)

    ref.eval_g, ref.grad_g_block = spy_value, spy_gradient
    try:
        want = reference_minimize(ref, i, theta, u, rho, budget, tol, sample=sample)
    finally:
        del ref.eval_g, ref.grad_g_block
    trials, last, search = [], theta.tobytes(), None
    for is_gradient, key in calls:
        if is_gradient:
            search = key
        if key != last:
            trials.append((key, search))
            last = key
    return want, trials, values


def skipped_trials(points, trials, values):
    """Check that the solver's ``points`` are an ordered subsequence of the
    reference's ``trials`` and that every trial point it skipped fails the
    acceptance test ``value <= val - need`` of its search; return those."""
    kept, k = set(), 0
    for point in points:
        while k < len(trials) and trials[k][0] != point:
            k += 1
        assert k < len(trials), "a pass the reference did not make"
        kept.add(k)
        k += 1
    skipped = [t for k, t in enumerate(trials) if k not in kept]
    for key, search in skipped:
        assert search is not None and key != search
        val = values[search]
        assert values[key] > val - 1e-12 * (1 + abs(val))
    return skipped


def counting_passes(monkeypatch):
    passes = []
    forward = relu.forward_split

    def counting(params, x, start=0, lower=None):
        passes.append((start, params.to_vector().tobytes()))
        return forward(params, x, start, lower)

    monkeypatch.setattr(relu, "forward_split", counting)
    return passes


@pytest.mark.parametrize("loss", ["mse", "ce"])
def test_block_solve_makes_one_tail_pass_per_trial_point(loss, monkeypatch):
    # one minibatch solve per block, started as bdca_step starts it: no
    # public oracle, and a pass from layer i at trial points the reference,
    # through the oracles' memo, also made a full pass at, skipping only
    # points that could not be accepted; no vector is passed twice within
    # one gradient's search and hop; theta and u stay as they were, and the
    # step's descent check at theta is then a memo hit
    task, theta = tie_case(loss)
    rng = np.random.default_rng(25)
    handle = SampleHandle(key=1, indices=rng.integers(0, len(task.labels), size=3))
    passes = counting_passes(monkeypatch)

    def forbidden(*args, **kwargs):
        raise AssertionError("the block solver called a public oracle")

    for i in range(task.net.n_layers):
        ref = MlpTaskProblem(task)
        u = ref.subgrad_h_block(i, theta, sample=handle)
        del passes[:]
        want, trials, values = traced_reference(ref, i, theta, u, 0.5, 6, 1e-8,
                                                handle)
        assert all(start == 0 for start, _ in passes)
        assert [key for key, _ in trials] == [vector for _, vector in passes]

        prob = MlpTaskProblem(task)
        prob.subgrad_h_block(i, theta, sample=handle)
        theta_in, u_in = theta.copy(), u.copy()
        gradient_at, searches = prob._gradient_at, []

        def marking(*args, **kwargs):
            searches.append(len(passes))  # a new search starts here
            return gradient_at(*args, **kwargs)

        del passes[:]
        with monkeypatch.context() as m:
            for name in ORACLES:
                m.setattr(prob, name, forbidden)
            m.setattr(prob, "_gradient_at", marking)
            got = prob.minimize_block_surrogate(i, theta, u, 0.5, 6, 1e-8,
                                                sample=handle)
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1] == want[1]
        np.testing.assert_array_equal(theta, theta_in)
        np.testing.assert_array_equal(u, u_in)
        assert all(start == i for start, _ in passes)
        points = [vector for _, vector in passes]
        skipped_trials(points, trials, values)
        assert len(points) > 1
        # a value and a gradient at one point share its pass, and a hop onto
        # a candidate of the search before shares that candidate's
        bounds = searches + [len(points)]
        for start, stop in zip(bounds, bounds[1:]):
            assert len(set(points[start:stop])) == stop - start

        del passes[:]
        prob.eval_g(i, theta, sample=handle)
        assert passes == []


def zero_bias_case():
    # a blobs net with zero biases and a fifth of its weights at zero: the
    # kink probe has many candidates, and near a solve's end the gradient is
    # too small for any line-search step to be accepted
    rng = np.random.default_rng(0)
    x, y = gaussian_blobs(40, 3, seed=0)
    net = relu.random_params((2, 6, 5, 3), rng)
    theta = net.to_vector()
    part = net.partition()
    for l, (_, b) in enumerate(net.layers):
        sl = part.slice_of(l)
        weights = theta[sl.start:sl.stop - b.size]
        weights[rng.random(weights.size) < 0.2] = 0.0
        theta[sl.stop - b.size:sl.stop] = 0.0
    task = MlpTask(inputs=x, labels=y, net=net.with_vector(theta.copy()), loss="ce")
    handle = SampleHandle(key=1, indices=rng.integers(0, len(y), size=8))
    return task, theta, handle


def test_convexity_cuts_skip_trial_points_near_stationarity(monkeypatch):
    # block 2 solved twice on one minibatch, the second time from the first
    # solve's output: both cuts skip trial points there, and the point and
    # count are still the reference's, with fewer tail passes
    task, theta, handle = zero_bias_case()
    i, rho, budget = 2, 0.5, 25
    sl = task.net.partition().slice_of(i)
    prob = MlpTaskProblem(task)
    u = prob.subgrad_h_block(i, theta, sample=handle)
    x, _ = prob.minimize_block_surrogate(i, theta, u, rho, budget, 1e-8,
                                         sample=handle)
    theta = theta.copy()
    theta[sl] = x
    passes = counting_passes(monkeypatch)

    ref = MlpTaskProblem(task)
    u = ref.subgrad_h_block(i, theta, sample=handle)
    del passes[:]
    want, trials, values = traced_reference(ref, i, theta, u, rho, budget, 1e-8,
                                            handle)
    prob = MlpTaskProblem(task)
    prob.subgrad_h_block(i, theta, sample=handle)
    del passes[:]
    got = prob.minimize_block_surrogate(i, theta, u, rho, budget, 1e-8,
                                        sample=handle)
    np.testing.assert_array_equal(got[0], want[0])
    assert got[1] == want[1]
    assert len(passes) < len(trials)

    probes = line_steps = 0
    for key, search in skipped_trials([v for _, v in passes], trials, values):
        moved = np.frombuffer(key) != np.frombuffer(search)
        if np.count_nonzero(moved) == 1 and np.frombuffer(search)[moved][0] == 0.0:
            probes += 1
        else:
            line_steps += 1
    assert probes > 0 and line_steps > 0


def check_subgradient(task, theta, rng):
    """``g_i(x + t d) >= g_i(x) + t <grad, d>`` along every block ``i``, on
    the full data and on a minibatch, for ``d`` in ``-grad``, ``+-e_j`` and a
    random direction, over four step lengths."""
    prob = MlpTaskProblem(task)
    handle = SampleHandle(key=1, indices=rng.integers(0, len(task.labels), size=3))
    for sample in (None, handle):
        for i in range(prob.n_blocks):
            sl = prob.partition.slice_of(i)
            g = prob.eval_g(i, theta, sample=sample)
            grad = prob.grad_g_block(i, theta, sample=sample)
            eye = np.eye(grad.size)
            for d in [-grad, *eye, *-eye, rng.standard_normal(grad.size)]:
                for t in (1.0, 0.1, 1e-3, 1e-6):
                    trial = theta.copy()
                    trial[sl] += t * d
                    bound = g + t * float(np.dot(grad, d))
                    assert (prob.eval_g(i, trial, sample=sample)
                            >= bound - 1e-13 * (1 + abs(g))), (i, t)


# the premise of the block solver's cuts: the selected gradient of g is a
# subgradient along its own block, at zero weights and ties included

@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.sampled_from(["mse", "ce"]), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_block_gradient_is_a_subgradient_of_g(depth, loss, grid, seed):
    rng = np.random.default_rng(seed)
    task, theta = build_task(rng, depth, loss, grid)
    check_subgradient(task, theta, rng)


@pytest.mark.parametrize("loss", ["mse", "ce"])
def test_block_gradient_is_a_subgradient_of_g_on_ties(loss):
    task, theta = tie_case(loss)
    check_subgradient(task, theta, np.random.default_rng(26))


SOLVE = dict(task="blobs", layer_dims=(16, 8), n_classes=3, theory_preset=True,
             n_data=200, batch_size=16, epochs=1)


def test_block_solver_tail_passes_per_gradient(monkeypatch):
    # a bound on the block solver's work: with both cuts the theory-preset
    # runs below make about 2.4 tail passes per gradient (seeds 0-2 pooled),
    # where the solver without them made about 4.5
    counts = {"passes": 0, "gradients": 0, "solving": False}
    forward = relu.forward_split
    solve = MlpTaskProblem.minimize_block_surrogate

    def counting(*args, **kwargs):
        if counts["solving"]:
            counts["passes"] += 1
        return forward(*args, **kwargs)

    def solving(self, *args, **kwargs):
        counts["solving"] = True
        try:
            x, n = solve(self, *args, **kwargs)
        finally:
            counts["solving"] = False
        counts["gradients"] += n
        return x, n

    monkeypatch.setattr(relu, "forward_split", counting)
    monkeypatch.setattr(MlpTaskProblem, "minimize_block_surrogate", solving)
    for seed in range(3):
        run_relu_experiment(seed=seed, **SOLVE)
    assert counts["passes"] <= 3.0 * counts["gradients"]
