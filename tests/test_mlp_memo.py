"""The MLP problem's one-evaluation-per-point memo against the per-call
computation it replaced.

``MlpTaskProblem`` keeps the last point it evaluated (its split forward pass,
loss parts and block gradients).  Every oracle result must stay bit-identical
to evaluating that call alone, whatever came before it: other minibatches,
other points, a ``theta`` array edited in place between calls, or a caller
that wrote into a returned gradient.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bdcopt import relu
from bdcopt.model import SampleHandle
from bdcopt.problems.mlp import MlpTask, MlpTaskProblem, gaussian_blobs
from bdcopt.solvers import SolverConfig, run

ORACLES = ("eval_f", "eval_g", "eval_h", "grad_g_block", "subgrad_h_block")
GRID = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])


def build_task(rng, depth, loss, grid, n_rows=6):
    """Random task whose parameters and inputs hit the split's kinks: zero
    weights and biases, and (on the grid) exact ties ``pre == z_minus``."""
    dims = [int(rng.integers(1, 4))] + [int(rng.integers(1, 5))
                                        for _ in range(depth - 1)]
    dims.append(1 if loss == "mse" else int(rng.integers(2, 4)))
    net = relu.random_params(dims, rng)
    if grid:
        x = rng.choice(GRID, size=(n_rows, dims[0]))
        theta = rng.choice(GRID, size=net.partition().total_dim)
    else:
        x = rng.standard_normal((n_rows, dims[0]))
        theta = rng.standard_normal(net.partition().total_dim)
        theta[rng.random(theta.size) < 0.2] = 0.0
    x[0] = 0.0
    if loss == "mse":
        y = rng.choice(GRID[2:], size=n_rows)
    else:
        y = rng.integers(0, dims[-1], size=n_rows)
    task = MlpTask(inputs=x, labels=y, net=net.with_vector(theta.copy()), loss=loss)
    return task, theta


def reference(task, name, i, theta, sample):
    """One oracle call computed alone, as the problem did before the memo:
    its own forward pass, and a reverse sweep that stops at block ``i``."""
    X, y = task.inputs, task.labels
    if sample is not None:
        idx = list(sample.indices)
        X, y = X[idx], y[idx]
    params = task.net.with_vector(theta)
    if name.startswith("eval"):
        split = relu.mse_bdc if task.loss == "mse" else relu.ce_bdc
        g, h = split(params, X, y)
        g, h = g / len(y), h / len(y)
        return {"eval_f": g - h, "eval_g": g, "eval_h": h}[name]
    grad = relu.block_grad_g if name == "grad_g_block" else relu.block_grad_h
    dW, db = grad(params, X, y, task.loss, i)
    return np.concatenate([dW.ravel(), db]) / len(y)


def call(prob, name, i, theta, sample):
    if name == "eval_f":
        return getattr(prob, name)(theta)
    return getattr(prob, name)(i, theta, sample=sample)


def replay(task, theta0, rng, n_calls=40):
    """Interleaved oracle calls on one problem, each checked against the
    reference and against a fresh problem that evaluates it first."""
    prob = MlpTaskProblem(task)
    n = len(task.labels)
    h1 = SampleHandle(key=1, indices=rng.integers(0, n, size=3))
    samples = [None, h1, SampleHandle(key=2, indices=h1.indices),
               SampleHandle(key=3, indices=rng.integers(0, n, size=4))]
    other = theta0 + rng.choice(GRID, size=theta0.size)
    trial = theta0.copy()  # edited in place, as the inner solver's trial vector
    points = [theta0, other, trial]
    for _ in range(n_calls):
        if rng.random() < 0.3:
            sl = prob.partition.slice_of(int(rng.integers(prob.n_blocks)))
            trial[sl] = rng.choice(GRID, size=sl.stop - sl.start)
        name = ORACLES[int(rng.integers(len(ORACLES)))]
        i = int(rng.integers(prob.n_blocks))
        theta = points[int(rng.integers(len(points)))]
        sample = None if name == "eval_f" else samples[int(rng.integers(len(samples)))]
        got = call(prob, name, i, theta, sample)
        want = reference(task, name, i, theta, sample)
        fresh = call(MlpTaskProblem(task), name, i, theta, sample)
        if name.startswith("eval"):
            assert got == want and fresh == want, (name, i)
        else:
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(fresh, want)
            got[...] = np.nan  # must not reach later results


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 4), st.sampled_from(["mse", "ce"]), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_memo_matches_reference(depth, loss, grid, seed):
    rng = np.random.default_rng(seed)
    task, theta0 = build_task(rng, depth, loss, grid)
    replay(task, theta0, rng)


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 4), st.sampled_from(["mse", "ce"]), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_one_sweep_matches_each_block(depth, loss, grid, seed):
    rng = np.random.default_rng(seed)
    task, theta = build_task(rng, depth, loss, grid)
    params = task.net
    x, y = task.inputs, task.labels
    state = relu.forward_split(params, x)
    for fn in (relu.block_grad_g, relu.block_grad_h):
        sweep = fn(params, x, y, loss, None)
        shared = fn(params, x, y, loss, None, state=state)
        assert len(sweep) == params.n_layers
        for l in range(params.n_layers):
            dW, db = fn(params, x, y, loss, l)
            for pair in (sweep[l], shared[l], fn(params, x, y, loss, l, state=state)):
                np.testing.assert_array_equal(pair[0], dW)
                np.testing.assert_array_equal(pair[1], db)


def check_tails(task, theta, rng):
    """From every start layer, a tail pass over the lower layers of another
    network with the same layers below the start gives the full pass's bits,
    and shares those lower layers' arrays."""
    net, x = task.net, task.inputs
    lower = relu.forward_split(net, x)
    for start in range(net.n_layers):
        other = theta.copy()
        above = slice(net.partition().slice_of(start).start, other.size)
        other[above] = rng.permutation(other[above])  # same kinks and ties
        params = net.with_vector(other)
        full = relu.forward_split(params, x)
        tail = relu.forward_split(params, x, start, lower)
        for name in ("pre", "z_plus", "z_minus"):
            got, want = getattr(tail, name), getattr(full, name)
            assert len(got) == len(want)
            for l, (a, b) in enumerate(zip(got, want)):
                np.testing.assert_array_equal(a, b, err_msg="%s[%d]" % (name, l))
                if l < start:
                    assert a is getattr(lower, name)[l]
        np.testing.assert_array_equal(tail.a_out, full.a_out)
        np.testing.assert_array_equal(tail.b_out, full.b_out)


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 4), st.sampled_from(["mse", "ce"]), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_tail_pass_matches_full_pass(depth, loss, grid, seed):
    rng = np.random.default_rng(seed)
    task, theta = build_task(rng, depth, loss, grid)
    check_tails(task, theta, rng)


def tie_case(loss):
    # zero input row and zero biases: every hidden layer above the first
    # sees pre == z_minus == 0 on that row, and the zero biases are kinks
    rng = np.random.default_rng(21)
    task, theta = build_task(rng, 4, loss, grid=True)
    part = task.net.partition()
    for l, (W, b) in enumerate(task.net.layers):
        sl = part.slice_of(l)
        theta[sl.stop - b.size:sl.stop] = 0.0
    task.net = task.net.with_vector(theta.copy())
    st_ = relu.forward_split(task.net, task.inputs)
    assert any(np.any(st_.pre[l] == st_.z_minus[l]) for l in range(1, len(st_.pre)))
    return task, theta


@pytest.mark.parametrize("loss", ["mse", "ce"])
def test_memo_on_ties_and_kinks(loss):
    task, theta = tie_case(loss)
    replay(task, theta, np.random.default_rng(22), n_calls=200)


@pytest.mark.parametrize("loss", ["mse", "ce"])
def test_tail_pass_on_ties_and_kinks(loss):
    task, theta = tie_case(loss)
    check_tails(task, theta, np.random.default_rng(24))
    lower = relu.forward_split(task.net, task.inputs)
    for start in (-1, task.net.n_layers):
        with pytest.raises(IndexError):
            relu.forward_split(task.net, task.inputs, start, lower)


@pytest.mark.parametrize("loss", ["mse", "ce"])
def test_block_range_checked(loss):
    task, theta = tie_case(loss)
    prob = MlpTaskProblem(task)
    for i in (-1, prob.n_blocks):
        for name in ("grad_g_block", "subgrad_h_block"):
            with pytest.raises(IndexError):
                call(prob, name, i, theta, None)


def blobs_problem(n=40):
    x, y = gaussian_blobs(n, 3, seed=4)
    net = relu.random_params((2, 5, 4, 3), np.random.default_rng(5))
    return MlpTaskProblem(MlpTask(inputs=x, labels=y, net=net, loss="ce"))


def test_stochastic_step_reuses_the_noise_subgradient(monkeypatch):
    # run() takes the minibatch subgradient for the noise norm, then the
    # step asks for it again at the same point: the repeat is a memo hit
    prob = blobs_problem()
    counts = {"forward": 0, "sweep": 0}

    def counting(fn, kind):
        def wrapped(*args, **kwargs):
            counts[kind] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(relu, "forward_split", counting(relu.forward_split, "forward"))
    monkeypatch.setattr(relu, "block_grad_g", counting(relu.block_grad_g, "sweep"))
    monkeypatch.setattr(relu, "block_grad_h", counting(relu.block_grad_h, "sweep"))
    log = []
    for name in ORACLES:
        def logged(*args, _fn=getattr(prob, name), _name=name, **kwargs):
            before = dict(counts)
            out = _fn(*args, **kwargs)
            log.append((_name, kwargs.get("sample") is not None,
                        counts["forward"] - before["forward"],
                        counts["sweep"] - before["sweep"]))
            return out
        monkeypatch.setattr(prob, name, logged)

    run(prob, SolverConfig(n_iters=1, rho=2.0, inner_budget=3, batch_size=4))
    repeats = [e for e in log if e[0] == "subgrad_h_block" and e[1]]
    assert len(repeats) == 2
    assert repeats[1][2:] == (0, 0)
    # the record's full-data oracles at theta_0 share one forward pass and
    # one sweep per part, however many blocks they ask for
    first_sampled = next(k for k, e in enumerate(log) if e[1])
    diag = log[:first_sampled]
    assert len(diag) == 2 * prob.n_blocks + 3
    assert sum(e[2] for e in diag) == 1 and sum(e[3] for e in diag) == 2


def test_minibatch_block0_pair_sweeps_only_block0():
    # on a minibatch a block-0 pair stops at block 0; on the full data the
    # block-0 sweep keeps every layer for the record's other blocks
    prob = blobs_problem()
    theta = prob.initial_point()
    handle = SampleHandle(key=1, indices=np.arange(8))
    prob.subgrad_h_block(0, theta, sample=handle)
    prob.grad_g_block(0, theta, sample=handle)
    assert {part: sorted(pairs) for part, pairs in prob._last.grads.items()} == {
        "g": [0], "h": [0]}
    prob.grad_g_block(0, theta)
    assert sorted(prob._last.grads["g"]) == list(range(prob.n_blocks))


def test_task_arrays_are_read_only():
    prob = blobs_problem(10)
    before = prob.eval_f(prob.initial_point())
    with pytest.raises(ValueError):
        prob.task.inputs[0, 0] = 100.0
    with pytest.raises(ValueError):
        prob.task.labels[0] = 1 - prob.task.labels[0]
    assert prob.eval_f(prob.initial_point()) == before


def test_reassigned_task_arrays_are_not_read():
    # the problem keeps the inputs and labels it was built with; new arrays
    # assigned to the task afterwards reach no oracle, memoized or not
    prob, ref = blobs_problem(), blobs_problem()
    theta0 = prob.initial_point()
    handle = SampleHandle(key=1, indices=np.arange(0, 40, 3))
    prob.eval_f(theta0)  # a point evaluated before the reassignment
    x, y = gaussian_blobs(40, 3, seed=9)
    prob.task.inputs, prob.task.labels = x, y
    other = theta0 + 0.1 * np.random.default_rng(2).standard_normal(theta0.size)
    for theta in (theta0, other, theta0):
        for sample in (None, handle, None):
            assert prob.eval_f(theta) == ref.eval_f(theta)
            for i in range(prob.n_blocks):
                for name in ORACLES[1:]:
                    np.testing.assert_array_equal(
                        getattr(prob, name)(i, theta, sample=sample),
                        getattr(ref, name)(i, theta, sample=sample), err_msg=name)
                u = ref.subgrad_h_block(i, theta, sample=sample)
                got = prob.minimize_block_surrogate(i, theta, u, 1.0, 3, 1e-8,
                                                    sample=sample)
                want = ref.minimize_block_surrogate(i, theta, u, 1.0, 3, 1e-8,
                                                    sample=sample)
                np.testing.assert_array_equal(got[0], want[0])
                assert got[1] == want[1]
