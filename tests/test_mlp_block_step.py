"""The MLP block step against the longer code it replaced, and the block
solver's own properties.

``relu._loss_block_gradient`` used to unwind the output layer apart from the
hidden ones.  A copy is kept here as a reference: the sweep must give the
same bits for every block.

``MlpTaskProblem.minimize_block_surrogate`` is a two-cut proximal bundle
method whose trial points are evaluated on the block's tail, one
``relu.BlockTail`` call each.  That call gives the bits of the full pass
``forward_split``, ``loss_part`` and ``block_grad_g`` on the trial point.
The solver's reference is the same bundle written over the public oracles on a
full ``theta``: the two return the same point and count, on kinks and ties
included, and the solver makes one tail call at each of the reference's
trial points, in its order.  The bundle also never raises the surrogate,
keeps the proximal step bound, holds at most two evaluated points and fails
loudly on a non-finite value.

The trial-point pass used to recompute every layer's ``relu(W)`` and
``relu(-W)`` and the output's ``exp`` at every use.  Copies of that forward
pass, loss part and output adjoint are kept too, and the pass that reuses
them must give their bits on fresh parameters, on a trial point's
``with_block`` parameters and, as the unchecked pass ``relu._pass`` that
``BlockTail`` runs, from every start layer.

Layer 0's ``z-`` is zero by construction, and the pass keeps it as a
read-only zero view that no product reads: layer 1's forward products (the
output's, with one hidden layer), block 1's weight gradient, layer 1's
``z-`` adjoint and ``residual_grads``'s ``z+ - z-`` at layer 1 are dropped.
Each dropped term is an exact ``+0.0`` added to a BLAS product, which is
never ``-0.0``.  That argument rests on signed zeros, so the view, the
pass, both parts' sweeps and ``residual_grads`` (against the difference
sweep written over the reference pass) are checked on weights and inputs
that hold both ``-0.0`` and ``+0.0``.

``residual_grads`` reads each row's label entry by flat index, as the loss
parts do: the same bits as the reference's pair-of-arrays form on valid
labels, and a ``ValueError`` on a cross-entropy label outside ``[0, C)``,
which a pair of index arrays would wrap (``-1`` to the last class).
"""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings

from bdcopt import relu
from bdcopt.model import InnerSolverDivergence, SampleHandle
from bdcopt.experiments import run_relu_experiment
from bdcopt.problems.mlp import MlpTaskProblem
from bdcopt.relu import _as_batch, _output_adjoints, _relu, _relu_deriv
from cases import (GRID, MLP_CASES, ORACLES, assert_same, blobs, build_task,
                   tie_case)


def reference_forward(params, x):
    """The split forward pass with each layer's ``relu(+-W)`` recomputed."""
    X = _as_batch(x, params.input_dim)
    W0, b0 = params.layers[0]
    pre = [X @ W0.T + b0]
    z_plus = [_relu(pre[0])]
    z_minus = [np.zeros_like(pre[0])]
    for l in range(1, params.n_layers - 1):
        W, b = params.layers[l]
        Wp, Wm = _relu(W), _relu(-W)
        p = z_plus[-1] @ Wp.T + z_minus[-1] @ Wm.T + b
        zm = z_minus[-1] @ Wp.T + z_plus[-1] @ Wm.T
        pre.append(p)
        z_minus.append(zm)
        z_plus.append(np.maximum(p, zm))
    WL, bL = params.layers[-1]
    WLp, WLm = _relu(WL), _relu(-WL)
    a_out = z_plus[-1] @ WLp.T + z_minus[-1] @ WLm.T + _relu(bL)
    b_out = z_minus[-1] @ WLp.T + z_plus[-1] @ WLm.T + _relu(-bL)
    return relu.SplitState(pre=pre, z_plus=z_plus, z_minus=z_minus, a_out=a_out,
                           b_out=b_out)


def reference_log_sum_exp(t):
    t = np.asarray(t, dtype=float)
    m = np.max(t, axis=-1, keepdims=True)
    return (m + np.log(np.sum(np.exp(t - m), axis=-1, keepdims=True)))[..., 0]


def reference_softmax(t):
    e = np.exp(t - np.max(t, axis=1, keepdims=True))
    return e / np.sum(e, axis=1, keepdims=True)


def reference_loss_part(state, y, loss, part):
    A, B = state.a_out, state.b_out
    if loss == "mse":
        A, B = A[:, 0], B[:, 0]
        if part == "g":
            return float(np.sum(2.0 * (A ** 2 + (B + y) ** 2)))
        return float(np.sum((A + B + y) ** 2))
    rows = np.arange(A.shape[0])
    sum_b = np.sum(B, axis=1)
    if part == "g":
        F = state.a_out - state.b_out
        return float(np.sum(reference_log_sum_exp(F) + sum_b + B[rows, y]))
    return float(np.sum(A[rows, y] + sum_b))


def reference_adjoints(state, y, loss, part):
    """d(part)/dA and d(part)/dB with the softmax computed afresh."""
    A, B = state.a_out, state.b_out
    N = A.shape[0]
    if loss == "mse":
        y = np.asarray(y, dtype=float).reshape(N, 1)
        if part == "g":
            return 4.0 * A, 4.0 * (B + y)
        s = 2.0 * (A + B + y)
        return s, s.copy()
    rows = np.arange(N)
    if part == "g":
        S = reference_softmax(state.a_out - state.b_out)
        dB = 1.0 - S
        dB[rows, y] += 1.0
        return S, dB
    dA = np.zeros_like(A)
    dA[rows, y] = 1.0
    return dA, np.ones_like(B)


def reference_sweep(params, x, y, loss, part, block):
    """The reverse sweep with the output layer unwound on its own, over the
    reference forward pass and output adjoints."""
    L = params.n_layers
    X = _as_batch(x, params.input_dim)
    state = reference_forward(params, X)
    dA, dB = reference_adjoints(state, np.atleast_1d(np.asarray(y)), loss, part)

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


def reference_minimize(prob, i, theta, u, rho, budget, tol):
    """The two-cut proximal bundle over the public oracles on a full
    ``theta``: cuts ``(subgradient, linearization error at the center)``,
    the aggregate first."""
    theta = np.asarray(theta, dtype=float)
    sl = prob.partition.slice_of(i)
    x0 = theta[sl].copy()
    trial = theta.copy()

    def surrogate(x):
        trial[sl] = x
        val = prob.eval_g(i, trial) - float(np.dot(u, x))
        grad = prob.grad_g_block(i, trial) - u
        if rho:
            val += 0.5 * rho * float(np.sum((x - x0) ** 2))
            grad = grad + rho * (x - x0)
        return val, grad

    center = x0
    f_center, grad = surrogate(x0)
    stop = tol * (1.0 + abs(f_center))
    t = 1.0 / (1.0 + rho)
    cuts = [(grad, 0.0), (grad, 0.0)]
    iters = 1
    while iters < budget:
        (s_a, e_a), (s_n, e_n) = cuts
        # lam minimizes t/2 ||s(lam)||^2 + e(lam) over [0, 1], a quadratic
        d = s_a - s_n
        if float(np.dot(d, d)) > 0.0:
            lam = -(t * float(np.dot(s_n, d)) + e_a - e_n) / (t * float(np.dot(d, d)))
            lam = min(1.0, max(0.0, lam))
        else:
            lam = 1.0 if e_a <= e_n else 0.0
        s = lam * s_a + (1.0 - lam) * s_n
        e = lam * e_a + (1.0 - lam) * e_n
        predicted = -(t * float(np.dot(s, s)) + e)
        if -predicted <= stop:
            break
        y = center - t * s
        iters += 1
        f_y, grad = surrogate(y)
        if f_y <= f_center + 0.1 * predicted:
            cuts = [(s, max(0.0, f_y - f_center - predicted)), (grad, 0.0)]
            center, f_center = y, f_y
            t *= 1.5
        else:
            e_y = max(0.0, f_center - f_y - t * float(np.dot(grad, s)))
            cuts = [(s, e), (grad, e_y)]
            if e_y > -10.0 * predicted:
                t = max(t / 100.0,
                        min(t, t / (2.0 * (1.0 - (f_y - f_center) / predicted))))
    return center, iters


@settings(max_examples=80, deadline=None)
@given(*MLP_CASES)
def test_one_loop_sweep_matches_reference(depth, loss, grid, seed):
    task, _ = build_task(np.random.default_rng(seed), depth, loss, grid)
    params, x, y = task.net, task.inputs, task.labels
    for part, fn in (("g", relu.block_grad_g), ("h", relu.block_grad_h)):
        for l in range(params.n_layers):
            want = reference_sweep(params, x, y, loss, part, l)
            got = fn(params, x, y, loss, l)
            assert_same(got[0], want[0], "dW%d" % l)
            assert_same(got[1], want[1], "db%d" % l)


def check_fast_path(task, theta, rng):
    """The pass with kept split weights and ``exp`` against the reference on
    fresh parameters and on every block's ``with_block`` child (grid values,
    zeros included), each from every start layer of the unchecked pass
    (``relu._pass``, which ``BlockTail`` runs): the states, both loss
    parts and both parts' output adjoints have the reference's bits, taken
    in either order, and so do both parts' block gradients."""
    loss, X = task.loss, task.inputs
    fresh = task.net.with_vector(theta.copy())
    y = relu.loss_labels(fresh, task.labels, loss)
    below = relu.forward_split(fresh, X)
    nets = [(fresh, None)]
    for l, (W, b) in enumerate(fresh.layers):
        nets.append((fresh.with_block(l, rng.choice(GRID, size=W.shape),
                                      rng.choice(GRID, size=b.shape)), l))
    for params, block in nets:
        want = reference_forward(params, X)
        full = relu.forward_split(params, X)
        for start in range(params.n_layers):
            # a child's tail may start on the parent's pass up to its block
            lower = below if block is not None and start <= block else full
            state = relu._pass(params, X, start, lower)
            for name in ("pre", "z_plus", "z_minus"):
                for l, (a, b) in enumerate(zip(getattr(state, name),
                                               getattr(want, name))):
                    assert_same(a, b, "%s[%d]" % (name, l))
            assert_same(state.a_out, want.a_out, "a_out")
            assert_same(state.b_out, want.b_out, "b_out")
            order = ("value", "adjoint")[::1 if start % 2 else -1]
            for part in ("g", "h"):
                for kind in order:
                    if kind == "value":
                        assert (relu.loss_part(state, y, loss, part)
                                == reference_loss_part(want, y, loss, part))
                    else:
                        got = _output_adjoints(state, y, loss, part)
                        ref = reference_adjoints(want, y, loss, part)
                        assert_same(got[0], ref[0], "dA")
                        assert_same(got[1], ref[1], "dB")
        for part, fn in (("g", relu.block_grad_g), ("h", relu.block_grad_h)):
            for l in range(params.n_layers):
                got = fn(params, X, y, loss, l, state=full)
                ref = reference_sweep(params, X, y, loss, part, l)
                assert_same(got[0], ref[0], "dW%d" % l)
                assert_same(got[1], ref[1], "db%d" % l)


@settings(max_examples=60, deadline=None)
@given(*MLP_CASES)
def test_fast_path_matches_reference(depth, loss, grid, seed):
    rng = np.random.default_rng(seed)
    task, theta = build_task(rng, depth, loss, grid)
    check_fast_path(task, theta, rng)


@pytest.mark.parametrize("loss", ["mse", "ce"])
def test_fast_path_matches_reference_on_ties(loss):
    task, theta = tie_case(loss)
    check_fast_path(task, theta, np.random.default_rng(27))


SIGNED_GRID = np.array([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])


def reference_residual(params, x, y, loss):
    """``residual_grads`` with layer 1's input activation formed as ``z+ -
    z-`` over the reference pass, whose layer-0 ``z-`` is an array of
    zeros."""
    X = _as_batch(x, params.input_dim)
    state = reference_forward(params, X)
    F = state.a_out - state.b_out
    if loss == "mse":
        d = 2.0 * (F - y.reshape(-1, 1))
    else:
        d = reference_softmax(F)
        d[np.arange(F.shape[0]), y] -= 1.0
    L = params.n_layers
    grads = [None] * L
    for l in range(L - 1, 0, -1):
        W, b = params.layers[l]
        if l < L - 1:
            d = (state.pre[l] >= state.z_minus[l]) * e
        dW = (W != 0.0) * (d.T @ (state.z_plus[l - 1] - state.z_minus[l - 1]))
        db = d.sum(axis=0)
        if l == L - 1:
            db = (b != 0.0) * db
        grads[l] = (dW, db)
        e = d @ W
    d = _relu_deriv(state.pre[0]) * e
    grads[0] = (d.T @ X, d.sum(axis=0))
    return grads


def signed_zero_task(depth, loss, grid, seed):
    """A ``build_task`` net and its inputs with signed zeros: on the grid,
    every value is drawn from ``SIGNED_GRID``; off it, each zero of the
    Gaussian draw gets a random sign."""
    rng = np.random.default_rng(seed)
    task, theta = build_task(rng, depth, loss, grid)
    x = np.array(task.inputs, dtype=float)
    if grid:
        theta = rng.choice(SIGNED_GRID, size=theta.size)
        x = rng.choice(SIGNED_GRID, size=x.shape)
    else:
        for v in (theta, x):
            zero = v == 0.0
            v[zero] = np.where(rng.random(int(zero.sum())) < 0.5, -0.0, 0.0)
    params = task.net.with_vector(theta)
    return params, x, relu.loss_labels(params, task.labels, loss)


@settings(max_examples=150, deadline=None)
@given(*MLP_CASES)
def test_layer0_z_minus_is_a_read_only_zero_view(depth, loss, grid, seed):
    params, x, y = signed_zero_task(depth, loss, grid, seed)
    state = relu.forward_split(params, x)
    zero = state.z_minus[0]
    assert zero.shape == state.pre[0].shape and zero.dtype == np.float64
    assert all(s == 0 for s in zero.strides)
    assert not zero.flags.writeable
    assert zero.tobytes() == np.zeros_like(state.pre[0]).tobytes()
    for start in range(1, params.n_layers):  # BlockTail's pass shares it
        assert relu._pass(params, x, start, state).z_minus[0] is zero

    want = reference_forward(params, x)
    for name in ("pre", "z_plus", "z_minus"):
        for l, (a, b) in enumerate(zip(getattr(state, name), getattr(want, name))):
            assert_same(a, b, "%s[%d]" % (name, l))
    assert_same(state.a_out, want.a_out, "a_out")
    assert_same(state.b_out, want.b_out, "b_out")
    for part, fn in (("g", relu.block_grad_g), ("h", relu.block_grad_h)):
        for l in range(params.n_layers):
            assert_same(fn(params, x, y, loss, l, state),
                        reference_sweep(params, x, y, loss, part, l),
                        "%s block %d" % (part, l))
    got = relu.residual_grads(params, x, y, loss, state)
    for l, ref in enumerate(reference_residual(params, x, y, loss)):
        assert_same(got[l], ref, "residual block %d" % l)


def check_residual_labels(task):
    """``residual_grads`` against :func:`reference_residual`, whose label
    read is the pair-of-arrays form, bit for bit; a cross-entropy label of
    ``-1`` or ``C`` raises."""
    params, x = task.net, task.inputs
    y = relu.loss_labels(params, task.labels, task.loss)
    state = relu.forward_split(params, x)
    got = relu.residual_grads(params, x, y, task.loss, state)
    for l, ref in enumerate(reference_residual(params, x, y, task.loss)):
        assert_same(got[l], ref, "residual block %d" % l)
    if task.loss == "ce":
        for label in (-1, params.class_count):
            bad = y.copy()
            bad[-1] = label
            with pytest.raises(ValueError):
                relu.residual_grads(params, x, bad, "ce", state)


@settings(max_examples=60, deadline=None)
@given(*MLP_CASES)
def test_residual_grads_reads_labels_by_flat_index(depth, loss, grid, seed):
    task, _ = build_task(np.random.default_rng(seed), depth, loss, grid)
    check_residual_labels(task)


@pytest.mark.parametrize("loss", ["mse", "ce"])
def test_residual_grads_reads_labels_by_flat_index_on_ties(loss):
    check_residual_labels(tie_case(loss)[0])


def counting_tails(monkeypatch):
    """Log each :class:`relu.BlockTail` call as its block and the full
    parameter vector it evaluates."""
    calls = []
    call = relu.BlockTail.__call__

    def counting(self, W, b):
        params = self.params.with_block(self.block, W, b)
        calls.append((self.block, params.to_vector().tobytes()))
        return call(self, W, b)

    monkeypatch.setattr(relu.BlockTail, "__call__", counting)
    return calls


def test_block_solve_computes_frozen_split_weights_at_most_once(monkeypatch):
    # per block solve of a (2, 5, 4, 3) net on its 40 rows (its weight
    # shapes differ, so a spied shape names its layer): a
    # frozen layer's split weights are computed at most once, and the
    # block's own once per trial point's tail call (never for layer 0, whose
    # pass reads W directly); the anchor is the memo's, so the solve makes
    # no forward_split pass
    prob0 = blobs(40, 4, (2, 5, 4, 3), 5)
    theta = prob0.initial_point()
    shapes = [W.shape for W, _ in prob0.template.layers]
    out_bias = prob0.template.layers[-1][1].shape
    pairs = []
    split_pair = relu._split_pair

    def spy_pair(x):
        # the output bias is split with the output layer's weights
        pairs.append(len(shapes) - 1 if x.shape == out_bias else shapes.index(x.shape))
        return split_pair(x)

    monkeypatch.setattr(relu, "_split_pair", spy_pair)
    passes = counting_passes(monkeypatch)
    calls = counting_tails(monkeypatch)
    for i in range(len(shapes)):
        prob = MlpTaskProblem(prob0.task)
        u = prob.subgrad_h_block(i, theta)
        del pairs[:], passes[:], calls[:]
        prob.minimize_block_surrogate(i, theta, u, 0.5, 6, 1e-8)
        assert passes == []
        assert len(calls) > 1 and {block for block, _ in calls} == {i}
        per_layer = [pairs.count(l) for l in range(len(shapes))]
        own = 0 if i == 0 else len(calls) * (2 if i == len(shapes) - 1 else 1)
        assert per_layer[i] == own
        frozen = [n for l, n in enumerate(per_layer) if l != i]
        assert max(frozen) <= (2 if i < len(shapes) - 1 else 1)
        assert sum(frozen) == 0  # the anchor's full pass computed them


def check_block_tail(task, theta, rng):
    """Every block: a :class:`relu.BlockTail` call on the layer's own
    weights and on grid and Gaussian draws (zeros included) gives the bits
    of the full pass ``forward_split`` from layer 0, ``loss_part``'s ``g``
    and ``block_grad_g`` on the trial's ``with_block`` parameters, and so
    does a repeat of the first call after the others: a call keeps
    nothing."""
    loss, X = task.loss, task.inputs
    params = task.net.with_vector(theta.copy())
    y = relu.loss_labels(params, task.labels, loss)
    lower = relu.forward_split(params, X)
    for i, (W, b) in enumerate(params.layers):
        tail = relu.BlockTail(params, X, task.labels, loss, i, lower)
        trials = [(W, b),
                  (rng.choice(GRID, size=W.shape), rng.choice(GRID, size=b.shape)),
                  (rng.standard_normal(W.shape), rng.standard_normal(b.shape))]
        for Wt, bt in trials + trials[:1]:
            g, dW, db = tail(Wt, bt)
            child = params.with_block(i, Wt, bt)
            state = relu.forward_split(child, X)
            assert_same(g, relu.loss_part(state, y, loss, "g"), "g, block %d" % i)
            assert_same((dW, db), relu.block_grad_g(child, X, y, loss, i, state=state),
                        "gradient, block %d" % i)


@settings(max_examples=60, deadline=None)
@given(*MLP_CASES)
def test_block_tail_matches_the_public_pass_value_and_sweep(depth, loss, grid, seed):
    rng = np.random.default_rng(seed)
    task, theta = build_task(rng, depth, loss, grid)
    check_block_tail(task, theta, rng)


@pytest.mark.parametrize("loss", ["mse", "ce"])
def test_block_tail_matches_the_public_pass_value_and_sweep_on_ties(loss):
    task, theta = tie_case(loss)
    check_block_tail(task, theta, np.random.default_rng(31))


def test_block_tail_checks_what_it_binds():
    task, _ = tie_case("ce")
    net, x, y = task.net, task.inputs, task.labels
    lower = relu.forward_split(net, x)
    for block in (-1, net.n_layers):
        with pytest.raises(IndexError):
            relu.BlockTail(net, x, y, "ce", block, lower)
    with pytest.raises(ValueError, match="layer 1 .* 6 rows, the lower pass "
                       "is missing"):
        relu.BlockTail(net, x, y, "ce", 1)
    with pytest.raises(ValueError, match="layer 2 .* 5 rows, the lower pass "
                       "has 6"):
        relu.BlockTail(net, x[:5], y[:5], "ce", 2, lower)
    with pytest.raises(ValueError, match="5 labels for 6 rows"):
        relu.BlockTail(net, x, y[:5], "ce", 2, lower)
    with pytest.raises(ValueError, match="loss must be"):
        relu.BlockTail(net, x, y, "hinge", 0)
    relu.BlockTail(net, x, y, "ce", 0)  # block 0 reads no lower pass


def check_solver(task, theta, rng, budget=6):
    """Every block, three proximal weights, the full data and one handle:
    the solver and its reference return the same point and count."""
    prob, ref = MlpTaskProblem(task), MlpTaskProblem(task)
    handle = SampleHandle(key=1, indices=rng.integers(0, len(task.labels), size=4))
    for rows, ref_rows in ((prob, ref), (prob.on(handle), ref.on(handle))):
        for i in range(prob.n_blocks):
            u = rows.subgrad_h_block(i, theta)
            for rho in (0.0, 0.5, 2.0):
                got = rows.minimize_block_surrogate(i, theta, u, rho, budget, 1e-8)
                want = reference_minimize(ref_rows, i, theta, u, rho, budget, 1e-8)
                assert_same(got[0], want[0])
                assert got[1] == want[1]


@settings(max_examples=40, deadline=None)
@given(*MLP_CASES)
def test_solver_matches_reference(depth, loss, grid, seed):
    rng = np.random.default_rng(seed)
    task, theta = build_task(rng, depth, loss, grid)
    check_solver(task, theta, rng)


@pytest.mark.parametrize("loss", ["mse", "ce"])
def test_solver_matches_reference_on_ties(loss):
    task, theta = tie_case(loss)
    check_solver(task, theta, np.random.default_rng(23), budget=10)


def test_bundle_frees_a_block_stuck_on_a_kink():
    # grid net and inputs: block 0 starts on a tie where steps along the
    # selected -grad do not lower the minibatch surrogate; the bundle's null
    # steps add cuts from the other side of the kink and shrink t until a
    # step descends
    rng = np.random.default_rng(68)
    task, theta = build_task(rng, 4, "mse", grid=True)
    prob = MlpTaskProblem(task)
    handle = SampleHandle(key=1, indices=rng.integers(0, len(task.labels), size=4))
    batch = prob.on(handle)
    sl = prob.partition.slice_of(0)
    x0 = theta[sl]
    assert np.count_nonzero(x0 == 0.0) > 0
    u = batch.subgrad_h_block(0, theta)

    def surrogate(x):
        trial = theta.copy()
        trial[sl] = x
        return batch.eval_g(0, trial) - float(np.dot(u, x))

    x, _ = batch.minimize_block_surrogate(0, theta, u, 0.0, 6, 1e-8)
    assert surrogate(x) < surrogate(x0) - 1e-3


def counting_passes(monkeypatch):
    """Log each full pass as its start layer, 0, and its parameter vector."""
    passes = []
    forward = relu.forward_split

    def counting(params, x):
        passes.append((0, params.to_vector().tobytes()))
        return forward(params, x)

    monkeypatch.setattr(relu, "forward_split", counting)
    return passes


def traced(log, solve):
    """``solve()``'s result and the ``(layer, vector)`` entries it logs."""
    del log[:]
    got = solve()
    return got, [layer for layer, _ in log], [vector for _, vector in log]


@pytest.mark.parametrize("loss", ["mse", "ce"])
def test_block_solve_makes_one_tail_pass_per_trial_point(loss, monkeypatch):
    # one minibatch solve per block, started as bdca_step starts it: no
    # public oracle and no forward_split pass, and one tail call on block i
    # at each trial point at which the reference, through the oracles' memo,
    # made a full pass, in its order and with none skipped; theta and u
    # stay as they were, and the step's descent check at theta is then a
    # memo hit
    task, theta = tie_case(loss)
    rng = np.random.default_rng(25)
    handle = SampleHandle(key=1, indices=rng.integers(0, len(task.labels), size=3))
    passes = counting_passes(monkeypatch)
    calls = counting_tails(monkeypatch)

    def forbidden(*args, **kwargs):
        raise AssertionError("the block solver called a public oracle")

    for i in range(task.net.n_layers):
        ref = MlpTaskProblem(task).on(handle)
        u = ref.subgrad_h_block(i, theta)
        want, _, trials = traced(
            passes, lambda: reference_minimize(ref, i, theta, u, 0.5, 6, 1e-8))

        prob = MlpTaskProblem(task).on(handle)
        prob.subgrad_h_block(i, theta)
        theta_in, u_in = theta.copy(), u.copy()
        del passes[:]
        with monkeypatch.context() as m:
            for name in ORACLES:
                m.setattr(prob, name, forbidden)
            got, blocks, points = traced(
                calls, lambda: prob.minimize_block_surrogate(i, theta, u, 0.5, 6, 1e-8))
        assert passes == []
        assert_same(got[0], want[0])
        assert got[1] == want[1]
        assert_same(theta, theta_in)
        assert_same(u, u_in)
        assert set(blocks) == {i}
        assert points == trials and len(points) == got[1] - 1 > 0

        del passes[:]
        prob.eval_g(i, theta)
        assert passes == []


def check_descent_and_bound(task, theta, rng, budget=10):
    """Every block, three proximal weights, the full data and one handle:
    the returned surrogate value is never above the start's, and for
    ``rho > 0`` the point lies within ``(2 / rho) ||grad phi(x0)||`` of the
    start, the bound ``bdca_step`` documents."""
    prob = MlpTaskProblem(task)
    handle = SampleHandle(key=1, indices=rng.integers(0, len(task.labels), size=4))
    for rows in (prob, prob.on(handle)):
        for i in range(prob.n_blocks):
            sl = prob.partition.slice_of(i)
            x0 = theta[sl]
            u = rows.subgrad_h_block(i, theta)
            slope = float(np.linalg.norm(rows.grad_g_block(i, theta) - u))
            start = rows.eval_g(i, theta) - float(np.dot(u, x0))
            for rho in (0.0, 0.5, 2.0):
                x, _ = rows.minimize_block_surrogate(i, theta, u, rho, budget, 1e-8)
                trial = theta.copy()
                trial[sl] = x
                value = rows.eval_g(i, trial) - float(np.dot(u, x))
                if rho:
                    value += 0.5 * rho * float(np.sum((x - x0) ** 2))
                    assert np.linalg.norm(x - x0) <= (2.0 / rho) * slope, (i, rho)
                assert value <= start, (i, rho)


@settings(max_examples=40, deadline=None)
@given(*MLP_CASES)
def test_solver_descends_within_the_proximal_bound(depth, loss, grid, seed):
    rng = np.random.default_rng(seed)
    task, theta = build_task(rng, depth, loss, grid)
    check_descent_and_bound(task, theta, rng)


@pytest.mark.parametrize("loss", ["mse", "ce"])
def test_solver_descends_within_the_proximal_bound_on_ties(loss):
    task, theta = tie_case(loss)
    check_descent_and_bound(task, theta, np.random.default_rng(29))


def test_block_solver_holds_at_most_two_evaluated_points(monkeypatch):
    # every evaluated point's forward pass, tail passes included, is
    # tracked by a weak reference: while a block solve runs, the memo's
    # point at theta (the anchor) and the current trial point are the only
    # ones alive
    live, peak = weakref.WeakValueDictionary(), [0]

    class Tracked(relu.SplitState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            live[id(self)] = self
            peak[0] = max(peak[0], len(live))

    monkeypatch.setattr(relu, "SplitState", Tracked)
    prob0 = blobs(40, 4, (2, 5, 4, 3), 5)
    theta = prob0.initial_point()
    handle = SampleHandle(key=1, indices=np.arange(0, 40, 3))
    counts = []
    for rows_of in (lambda prob: prob, lambda prob: prob.on(handle)):
        rows = rows_of(MlpTaskProblem(prob0.task))  # the one memo alive
        for i in range(rows.n_blocks):
            u = rows.subgrad_h_block(i, theta)
            peak[0] = len(live)
            _, iters = rows.minimize_block_surrogate(i, theta, u, 0.5, 25, 1e-8)
            assert peak[0] == (2 if iters > 1 else 1)
            counts.append(iters)
    assert max(counts) == 25


@pytest.mark.parametrize("poisoned", ["value", "gradient"])
def test_non_finite_trial_point_fails_loudly(poisoned, monkeypatch):
    # the third value (or gradient) of a block solve is NaN: the start's
    # comes from the memo, so the poisoned one is the second tail call's;
    # the solver raises at its third iteration, naming the block and the
    # value
    prob = blobs(40, 4, (2, 5, 4, 3), 5)
    theta = prob.initial_point()
    u = prob.subgrad_h_block(1, theta)
    honest, calls = relu.BlockTail.__call__, []

    def nan_on_second(self, W, b):
        calls.append(1)
        g, dW, db = honest(self, W, b)
        if len(calls) == 2:
            if poisoned == "value":
                g = g * np.nan
            else:
                dW = dW * np.nan
        return g, dW, db

    monkeypatch.setattr(relu.BlockTail, "__call__", nan_on_second)
    value = "nan" if poisoned == "value" else r"-?\d"
    with pytest.raises(InnerSolverDivergence,
                       match=r"block 1 at bundle iteration 3: value %s" % value):
        prob.minimize_block_surrogate(1, theta, u, 0.5, 25, 1e-8)


def check_subgradient(task, theta, rng):
    """``g_i(x + t d) >= g_i(x) + t <grad, d>`` along every block ``i``, on
    the full data and on a minibatch, for ``d`` in ``-grad``, ``+-e_j`` and a
    random direction, over four step lengths."""
    prob = MlpTaskProblem(task)
    handle = SampleHandle(key=1, indices=rng.integers(0, len(task.labels), size=3))
    for rows in (prob, prob.on(handle)):
        for i in range(prob.n_blocks):
            sl = prob.partition.slice_of(i)
            g = rows.eval_g(i, theta)
            grad = rows.grad_g_block(i, theta)
            eye = np.eye(grad.size)
            for d in [-grad, *eye, *-eye, rng.standard_normal(grad.size)]:
                for t in (1.0, 0.1, 1e-3, 1e-6):
                    trial = theta.copy()
                    trial[sl] += t * d
                    bound = g + t * float(np.dot(grad, d))
                    assert (rows.eval_g(i, trial)
                            >= bound - 1e-13 * (1 + abs(g))), (i, t)


# the premise of the bundle's cutting planes: the selected gradient of g is
# a subgradient along its own block, at zero weights and ties included

@settings(max_examples=60, deadline=None)
@given(*MLP_CASES)
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
    # a bound on the block solver's work: one tail pass per iteration, and
    # none for the start's gradient, which is the anchor's, on the
    # theory-preset runs below (seeds 0-2 pooled); a pass is a
    # forward_split call or a BlockTail call made while a solve runs
    counts = {"passes": 0, "tails": 0, "gradients": 0, "solving": False}
    forward, tail = relu.forward_split, relu.BlockTail.__call__
    solve = MlpTaskProblem.minimize_block_surrogate

    def counting(*args, **kwargs):
        if counts["solving"]:
            counts["passes"] += 1
        return forward(*args, **kwargs)

    def counting_tail(self, W, b):
        if counts["solving"]:
            counts["passes"] += 1
            counts["tails"] += 1
        return tail(self, W, b)

    def solving(self, *args, **kwargs):
        counts["solving"] = True
        try:
            x, n = solve(self, *args, **kwargs)
        finally:
            counts["solving"] = False
        counts["gradients"] += n
        return x, n

    monkeypatch.setattr(relu, "forward_split", counting)
    monkeypatch.setattr(relu.BlockTail, "__call__", counting_tail)
    monkeypatch.setattr(MlpTaskProblem, "minimize_block_surrogate", solving)
    for seed in range(3):
        run_relu_experiment(seed=seed, **SOLVE)
    assert 0 < counts["tails"] <= counts["passes"] <= 1.0 * counts["gradients"]
