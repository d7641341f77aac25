"""One oracle-contract suite for every ``BdcProblem`` in the library.

Each ``FIXTURES`` entry builds one problem afresh.  Each check is written
once and runs on every fixture it applies to, at the fixture's start (its
zeros, ties and kinks), at grid moves of it and at Gaussian points:

A. ``f = g_i - h_i`` on every block, within ``1e-10 (1 + |f|)``;
B. ``g_i`` and ``h_i`` midpoint convex along the block, within 1e-9;
C. the subgradient inequality of ``h_i``, within 1e-9;
D. ``residual_blocks`` equal to the generic body: exactly, or within
   ``1e-12 (max|grad g_i| + max|grad h_i|)`` per block for the MLP's sweep
   (``cases.check_residual_blocks``);
E. ``cases.replay``, bit for bit against fresh problems;
F. with an inner solver, ``bdca_step`` at ``rho`` 0 and 0.5 does not raise
   ``f`` and leaves the other blocks' bits alone;
G. with a sampler, the oracles of ``prob.on(handle)`` equal, bit for bit,
   those of a problem built on the handle's rows;
H. ``grad_g_block`` and ``subgrad_h_block`` equal central differences of
   ``eval_g`` and ``eval_h`` (step 1e-6) within ``1e-5 max(1, max|fd|)``,
   at the Gaussian points only: the start and the grid moves sit on kinks;
I. the gradient inequality of ``g_i``, within 1e-9, written with C.

A new problem or fast path gets them all from one line in ``FIXTURES``.
The builders, the replay harness and check D live in ``cases.py``, which
the memo modules share; no test module imports another.
"""

import importlib
import itertools
import pkgutil

import numpy as np
import pytest

import bdcopt
from bdcopt.blocks import BlockPartition
from bdcopt.model import (AffineBdcMap, BdcProblem, LogSumExpOracle, combine_linear,
                          combine_max, combine_min, conjugate_compose)
from bdcopt.problems.cp import CpProblem
from bdcopt.problems.mlp import MlpTask, MlpTaskProblem
from bdcopt.problems.synthetic import QuadraticDcProblem, QuadraticMinusL1Problem
from bdcopt.solvers import bdca_step
from cases import (CALLS, GRID, assert_same, blobs, build_instance, build_task,
                   call, check_residual_blocks, declares, leaves, replay, sdl,
                   start, tie_case)

PART = BlockPartition([3, 2, 4])
PARTS = (("eval_g", "grad_g_block"), ("eval_h", "subgrad_h_block"))


def quadratics():
    rng = np.random.default_rng(42)
    return [QuadraticDcProblem.random(PART, rng), QuadraticMinusL1Problem(
        PART, rng.standard_normal((12, 9)), rng.standard_normal(12), 0.4)]


def log_sum_exp():
    rng = np.random.default_rng(44)
    emap = AffineBdcMap(PART, rng.standard_normal((4, 9)), rng.standard_normal(4))
    return conjugate_compose(emap, LogSumExpOracle(), (np.zeros(4), np.ones(4)))


FIXTURES = {
    "quadratic": lambda: quadratics()[0],
    "quadratic_minus_l1": lambda: quadratics()[1],
    "sdl_l1": lambda: sdl("l1"),
    "sdl_l1_lq": lambda: sdl("l1_lq"),
    "cp_zero_column": lambda: CpProblem(build_instance(np.random.default_rng(7), 3, 2, False)),
    "cp_grid": lambda: CpProblem(build_instance(np.random.default_rng(8), 4, 3, True)),
    "mlp_mse": lambda: MlpTaskProblem(build_task(np.random.default_rng(9), 3, "mse", False)[0]),
    "mlp_ce": lambda: MlpTaskProblem(build_task(np.random.default_rng(10), 2, "ce", True)[0]),
    "mlp_tie_mse": lambda: MlpTaskProblem(tie_case("mse")[0]),
    "mlp_tie_ce": lambda: MlpTaskProblem(tie_case("ce")[0]),
    "mlp_blobs": lambda: blobs(30, 1, (2, 5, 3), 2),
    "mlp_blobs_deep": lambda: blobs(20, 3, (2, 6, 4, 3), 15),
    "combine_linear": lambda: combine_linear(quadratics(), [0.7, -1.3]),
    "combine_max": lambda: combine_max(quadratics()),
    "combine_min": lambda: combine_min(quadratics()),
    "conjugate_compose": log_sum_exp,
}


SOLVERS = [n for n, build in FIXTURES.items() if declares(build(), "minimize_block_surrogate")]
SAMPLERS = [n for n, build in FIXTURES.items() if declares(build(), "sample")]


def points(prob, rng, n):
    theta0 = start(prob)
    return [theta0] + [theta0 + rng.choice(GRID, size=theta0.size) if k % 2
                       else rng.standard_normal(theta0.size) for k in range(1, n)]


def handles(prob, rng):
    """The full data and, for a sampler, minibatches of 3 and 8 draws."""
    return [None] + ([prob.sample(rng, 3), prob.sample(rng, 8)]
                     if declares(prob, "sample") else [])


def check_dc_split(prob, thetas, rng):
    """A, B, C and I at every point, block by block, towards grid moves of
    the block at odd points and Gaussian ones at even points."""
    for k, theta in enumerate(thetas):
        f = prob.eval_f(theta)
        for i in range(prob.n_blocks):
            gap = prob.eval_g(i, theta) - prob.eval_h(i, theta) - f
            assert abs(gap) <= 1e-10 * (1 + abs(f)), (k, i)
            sl, dim = prob.partition.slice_of(i), prob.partition.block_dims[i]
            t1, t2, mid = theta.copy(), theta.copy(), theta.copy()
            t1[sl], t2[sl] = (rng.choice(GRID, size=(2, dim)) if k % 2
                              else rng.standard_normal((2, dim)))
            mid[sl] = 0.5 * (t1[sl] + t2[sl])
            for value, grad in PARTS:
                part = getattr(prob, value)
                assert part(i, mid) <= 0.5 * part(i, t1) + 0.5 * part(i, t2) + 1e-9, (k, i)
                u = getattr(prob, grad)(i, theta)
                bound = part(i, theta) + float(u @ (t1[sl] - theta[sl]))
                assert part(i, t1) >= bound - 1e-9, (k, i, grad)


@pytest.mark.parametrize("name", FIXTURES)
def test_parts_are_a_convex_split_of_f(name):
    prob, rng = FIXTURES[name](), np.random.default_rng(0)
    check_dc_split(prob, points(prob, rng, 20), rng)


@pytest.mark.parametrize("name", FIXTURES)
def test_gradients_match_central_differences(name):
    prob, rng = FIXTURES[name](), np.random.default_rng(1)
    for theta in points(prob, rng, 7)[2::2]:  # the Gaussian points
        for i, (value, grad) in itertools.product(range(prob.n_blocks), PARTS):
            part, sl = getattr(prob, value), prob.partition.slice_of(i)
            fd = np.empty(sl.stop - sl.start)
            for j in range(fd.size):
                up, down = theta.copy(), theta.copy()
                up[sl.start + j] += 1e-6
                down[sl.start + j] -= 1e-6
                fd[j] = (part(i, up) - part(i, down)) / 2e-6
            err = np.max(np.abs(getattr(prob, grad)(i, theta) - fd))
            assert err <= 1e-5 * max(1.0, np.max(np.abs(fd))), (i, grad, err)


@pytest.mark.parametrize("name", FIXTURES)
def test_residual_blocks_match_the_generic_body(name):
    prob, rng = FIXTURES[name](), np.random.default_rng(2)
    for theta in points(prob, rng, 5):
        for sample in handles(prob, rng):
            check_residual_blocks(prob, theta, sample)


@pytest.mark.parametrize("name", FIXTURES)
def test_replay_matches_fresh_problems(name):
    prob, rng = FIXTURES[name](), np.random.default_rng(3)
    names = CALLS + (("minimize_block_surrogate",) if name in SOLVERS else ())
    replay(FIXTURES[name], rng, names, handles(prob, rng), n_calls=60)


@pytest.mark.parametrize("name", SOLVERS)
def test_block_step_descends_and_moves_one_block(name):
    prob = FIXTURES[name]()
    theta = start(prob)
    f = prob.eval_f(theta)
    for i in range(prob.n_blocks):
        others = np.ones(theta.size, dtype=bool)
        others[prob.partition.slice_of(i)] = False
        for rho in (0.0, 0.5):
            new, _ = bdca_step(prob, theta, i, rho=rho, budget=5)
            assert prob.eval_f(new) <= f + 1e-9 * (1 + abs(f)), (i, rho)
            assert new[others].tobytes() == theta[others].tobytes(), (i, rho)


@pytest.mark.parametrize("name", SAMPLERS)
def test_handle_equals_a_problem_on_its_rows(name):
    prob, rng = FIXTURES[name](), np.random.default_rng(4)
    task = prob.task
    for theta in points(prob, rng, 3):
        handle = prob.sample(rng, batch_size=8)
        idx = list(handle.indices)
        rows = MlpTaskProblem(MlpTask(inputs=task.inputs[idx], labels=task.labels[idx],
                                      net=task.net, loss=task.loss))
        for oracle in CALLS[1:]:
            for i in range(prob.n_blocks):
                got = np.hstack(leaves(call(prob.on(handle), oracle, i, theta)))
                want = np.hstack(leaves(call(rows, oracle, i, theta)))
                assert_same(got, want, oracle)


def test_every_library_problem_has_a_fixture():
    for module in pkgutil.walk_packages(bdcopt.__path__, "bdcopt."):
        importlib.import_module(module.name)

    def leaf_classes(cls):
        subs = [c for c in cls.__subclasses__() if c.__module__.startswith("bdcopt")]
        return set().union(*map(leaf_classes, subs)) if subs else {cls}

    covered = {type(build()) for build in FIXTURES.values()}
    assert {c.__qualname__ for c in leaf_classes(BdcProblem) - covered} == set()
