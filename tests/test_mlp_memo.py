"""The MLP problem's one-evaluation-per-point memo and its one-sweep
stationarity vectors, on hypothesis-drawn tasks and at ties and kinks.

The contract suite's replay (``cases.replay``) drives the memo with four
minibatches and compares every call with ``reference``, the call computed
alone.  What stays here is the MLP's own: the unchecked pass
(``relu._pass``) that ``relu.BlockTail`` runs, from any start layer, the
records' one reverse sweep against the generic body (``1e-12`` of
``|g| + |h|`` per block, ``cases.check_residual_blocks``), the block range,
the sweeps and loss parts a stochastic step makes, and the task arrays the
problem reads.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from bdcopt import relu
from bdcopt.model import SampleHandle
from bdcopt.problems.mlp import MlpTaskProblem, gaussian_blobs
from bdcopt.solvers import SolverConfig, run
from cases import (CALLS, MLP_CASES, ORACLES, assert_same, blobs, build_task,
                   check_residual_blocks, on, replay, tie_case)


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


def replay_task(task, rng, n_calls=40):
    """The contract suite's replay on one task, with the reference as an
    extra bit-for-bit comparison; every call but ``eval_f`` takes one of
    four minibatches, two of them with the same rows under other keys."""
    n = len(task.labels)
    h1 = SampleHandle(key=1, indices=rng.integers(0, n, size=3))
    samples = [None, h1, SampleHandle(key=2, indices=h1.indices),
               SampleHandle(key=3, indices=rng.integers(0, n, size=4))]
    replay(lambda: MlpTaskProblem(task), rng, ORACLES, samples, n_calls,
           lambda got, name, i, theta, sample=None: assert_same(
               got, reference(task, name, i, theta, sample)))


@settings(max_examples=120, deadline=None)
@given(*MLP_CASES)
def test_memo_matches_reference(depth, loss, grid, seed):
    rng = np.random.default_rng(seed)
    replay_task(build_task(rng, depth, loss, grid)[0], rng)


def check_tails(task, theta, rng):
    """From every start layer, the unchecked pass over the lower layers of
    another network with the same layers below the start gives the full
    pass's bits, and shares those lower layers' arrays."""
    net, x = task.net, task.inputs
    lower = relu.forward_split(net, x)
    for start in range(net.n_layers):
        other = theta.copy()
        above = slice(net.partition().slice_of(start).start, other.size)
        other[above] = rng.permutation(other[above])  # same kinks and ties
        params = net.with_vector(other)
        full = relu.forward_split(params, x)
        tail = relu._pass(params, x, start, lower)
        for name in ("pre", "z_plus", "z_minus"):
            got, want = getattr(tail, name), getattr(full, name)
            assert len(got) == len(want)
            for l, (a, b) in enumerate(zip(got, want)):
                assert_same(a, b, "%s[%d]" % (name, l))
                if l < start:
                    assert a is getattr(lower, name)[l]
        assert_same(tail.a_out, full.a_out, "a_out")
        assert_same(tail.b_out, full.b_out, "b_out")


@settings(max_examples=120, deadline=None)
@given(*MLP_CASES)
def test_tail_pass_matches_full_pass(depth, loss, grid, seed):
    rng = np.random.default_rng(seed)
    task, theta = build_task(rng, depth, loss, grid)
    check_tails(task, theta, rng)


@pytest.mark.parametrize("loss", ["mse", "ce"])
def test_memo_on_ties_and_kinks(loss):
    replay_task(tie_case(loss)[0], np.random.default_rng(22), n_calls=200)


@pytest.mark.parametrize("loss", ["mse", "ce"])
def test_tail_pass_on_ties_and_kinks(loss):
    task, theta = tie_case(loss)
    check_tails(task, theta, np.random.default_rng(24))


def check_residual(task, theta, rng):
    """The contract suite's check of the one-sweep stationarity vectors
    against the generic body, on the full data and on minibatch handles (one
    with a repeated row), and a repeat at the same point is an equal, fresh
    copy."""
    prob = MlpTaskProblem(task)
    n = len(task.labels)
    handles = [SampleHandle(key=1, indices=rng.integers(0, n, size=3)),
               SampleHandle(key=2, indices=[0, 0, n - 1])]
    for sample in [None] + handles:
        check_residual_blocks(prob, theta, sample)
        rows = on(prob, sample)
        got = rows.residual_blocks(theta)
        first = [z.copy() for z in got]
        for z in got:
            z[...] = np.nan  # must not reach the repeat
        for z, w in zip(rows.residual_blocks(theta), first):
            np.testing.assert_array_equal(z, w)


@settings(max_examples=120, deadline=None)
@given(*MLP_CASES)
def test_residual_sweep_matches_split_sweeps(depth, loss, grid, seed):
    rng = np.random.default_rng(seed)
    task, theta = build_task(rng, depth, loss, grid)
    check_residual(task, theta, rng)


@pytest.mark.parametrize("loss", ["mse", "ce"])
def test_residual_sweep_on_ties_and_kinks(loss):
    task, theta = tie_case(loss)
    check_residual(task, theta, np.random.default_rng(25))


@pytest.mark.parametrize("loss", ["mse", "ce"])
def test_block_range_checked(loss):
    task, theta = tie_case(loss)
    prob = MlpTaskProblem(task)
    for i in (-1, prob.n_blocks):
        for name in ("grad_g_block", "subgrad_h_block"):
            with pytest.raises(IndexError):
                getattr(prob, name)(i, theta)


def test_stochastic_step_reuses_the_noise_subgradient(monkeypatch):
    # run() takes the minibatch subgradient for the noise norm, then the
    # step asks for it again at the same point: the repeat is a memo hit
    prob = blobs(40, 4, (2, 5, 4, 3), 5)
    counts = {"forward": 0, "sweep": 0, "residual": 0}

    def counting(fn, kind):
        def wrapped(*args, **kwargs):
            counts[kind] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(relu, "forward_split", counting(relu.forward_split, "forward"))
    monkeypatch.setattr(relu, "block_grad_g", counting(relu.block_grad_g, "sweep"))
    monkeypatch.setattr(relu, "block_grad_h", counting(relu.block_grad_h, "sweep"))
    monkeypatch.setattr(relu, "residual_grads",
                        counting(relu.residual_grads, "residual"))
    log = []
    # logged on the class: the step's calls go to the minibatch problem
    for name in ORACLES + ("residual_blocks",):
        def logged(self, *args, _fn=getattr(MlpTaskProblem, name), _name=name,
                   **kwargs):
            before = dict(counts)
            out = _fn(self, *args, **kwargs)
            log.append((_name, self is not prob,
                        *(counts[k] - before[k] for k in counts)))
            return out
        monkeypatch.setattr(MlpTaskProblem, name, logged)

    run(prob, SolverConfig(n_iters=1, rho=2.0, inner_budget=3, batch_size=4))
    repeats = [e for e in log if e[0] == "subgrad_h_block" and e[1]]
    assert len(repeats) == 2
    assert repeats[1][2:] == (0, 0, 0)
    # the record at theta_0 makes one forward pass and one residual sweep
    # for every block's stationarity vector, and no sweep of either part
    first_sampled = next(k for k, e in enumerate(log) if e[1])
    diag = log[:first_sampled]
    assert [e[0] for e in diag] == ["residual_blocks", "eval_f", "eval_g", "eval_h"]
    assert [sum(e[k] for e in diag) for k in (2, 3, 4)] == [1, 0, 1]


def test_minibatch_step_forms_no_h_part(monkeypatch):
    # a stochastic iteration's step reads g alone on its 4 rows: the
    # bundle's start keeps g at theta on the memo point, the descent check
    # reads it there and forms g once more at theta_new, and h is formed on
    # the full data's 40 rows only (the record at theta_0, the final f);
    # this net's first step moves (net seed 5's stops at its start)
    prob = blobs(40, 4, (2, 5, 4, 3), 0)
    parts, tails = [], [0]
    loss_part, tail = relu.loss_part, relu.BlockTail.__call__

    def counting(state, y, loss, part, picks=None):
        parts.append((part, state.a_out.shape[0]))
        return loss_part(state, y, loss, part, picks)

    def counting_tail(self, W, b):
        tails[0] += 1
        return tail(self, W, b)

    monkeypatch.setattr(relu, "loss_part", counting)
    monkeypatch.setattr(relu.BlockTail, "__call__", counting_tail)
    run(prob, SolverConfig(n_iters=1, rho=2.0, inner_budget=3, batch_size=4))
    assert tails[0] > 0
    assert parts.count(("h", 4)) == 0
    assert parts.count(("g", 4)) == tails[0] + 2
    assert parts.count(("h", 40)) == parts.count(("g", 40)) == 2


def test_minibatch_block0_pair_sweeps_only_block0():
    # a block-0 pair keeps block 0 only, on a minibatch and on the full data
    # alike: the records take every block from the residual sweep instead
    prob = blobs(40, 4, (2, 5, 4, 3), 5)
    theta = prob.initial_point()
    batch = prob.on(SampleHandle(key=1, indices=np.arange(8)))
    batch.subgrad_h_block(0, theta)
    batch.grad_g_block(0, theta)
    assert {part: sorted(pairs) for part, pairs in batch._last.grads.items()} == {
        "g": [0], "h": [0]}
    prob.grad_g_block(0, theta)
    assert {part: sorted(pairs) for part, pairs in prob._last.grads.items()} == {
        "g": [0]}


def test_minibatch_step_keeps_the_full_data_point(monkeypatch):
    # the step runs on prob.on(handle), whose memo is its own: after it the
    # full-data point of the record at theta_0 is still kept, and calls on
    # another minibatch problem leave it in place
    prob = blobs(40, 4, (2, 5, 4, 3), 5)
    theta0 = prob.initial_point()
    passes = []
    forward_split = relu.forward_split

    def counting(*args, **kwargs):
        passes.append(args[1].shape[0])
        return forward_split(*args, **kwargs)

    monkeypatch.setattr(relu, "forward_split", counting)
    new_passes = []

    def callback(k, theta, theta_next, record):
        # theta is the point the step started from: theta_0
        kept, before = prob._last, len(passes)
        prob.grad_g_block(record.block, theta)
        new_passes.append(passes[before:])
        batch = prob.on(SampleHandle(key=1, indices=np.arange(8)))
        for name in ORACLES[1:]:
            getattr(batch, name)(record.block, theta_next)
        batch.residual_blocks(theta)
        assert prob._last is kept and kept.key == theta0.tobytes() == theta.tobytes()

    run(prob, SolverConfig(n_iters=1, rho=2.0, inner_budget=3, batch_size=4),
        callback=callback)
    assert new_passes == [[]]


def test_task_arrays_are_read_only():
    prob = blobs(10, 4, (2, 5, 4, 3), 5)
    before = prob.eval_f(prob.initial_point())
    with pytest.raises(ValueError):
        prob.task.inputs[0, 0] = 100.0
    with pytest.raises(ValueError):
        prob.task.labels[0] = 1 - prob.task.labels[0]
    assert prob.eval_f(prob.initial_point()) == before


def test_kept_point_parameters_are_read_only():
    # the split weights kept on a point's parameters cannot go stale: its
    # weights and biases are views into a private read-only vector
    prob = blobs(10, 4, (2, 5, 4, 3), 5)
    theta = prob.initial_point()
    before = prob.eval_f(theta)
    params = prob._last.params
    with pytest.raises(ValueError, match="assignment destination is read-only"):
        params.layers[0][0][0, 0] = 1.0
    with pytest.raises(ValueError, match="assignment destination is read-only"):
        params.layers[-1][1][0] = 1.0
    theta[-1] += 1.0  # the caller's vector stays writable and its own
    assert prob.eval_f(theta) != before
    assert prob.eval_f(prob.initial_point()) == before


def test_reassigned_task_arrays_are_not_read():
    # the problem keeps the inputs and labels it was built with; new arrays
    # assigned to the task afterwards reach no oracle, memoized or not
    prob = blobs(40, 4, (2, 5, 4, 3), 5)
    prob.eval_f(prob.initial_point())  # a point evaluated before the reassignment
    prob.task.inputs, prob.task.labels = gaussian_blobs(40, 3, seed=9)
    samples = [None, SampleHandle(key=1, indices=np.arange(0, 40, 3))]
    replay(lambda: blobs(40, 4, (2, 5, 4, 3), 5), np.random.default_rng(2),
           CALLS + ("minimize_block_surrogate",), samples, n_calls=100, prob=prob)
