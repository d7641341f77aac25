"""One oracle-contract suite for every ``BdcProblem`` in the library.

Each ``FIXTURES`` entry builds one problem afresh.  Each check is written
once and runs on every fixture it applies to, at the fixture's start (its
zeros, ties and kinks), at grid moves of it and at Gaussian points:

A. ``f = g_i - h_i`` on every block, within ``1e-10 (1 + |f|)``;
B. ``g_i`` and ``h_i`` midpoint convex along the block, within 1e-9;
C. the subgradient inequality of ``h_i``, within 1e-9;
D. ``residual_blocks`` equal to the generic body: exactly, or within
   ``1e-12 (max|grad g_i| + max|grad h_i|)`` per block for the MLP's sweep;
E. :func:`replay`, bit for bit against fresh problems;
F. with an inner solver, ``bdca_step`` at ``rho`` 0 and 0.5 does not raise
   ``f`` and leaves the other blocks' bits alone;
G. with a sampler, the oracles of ``prob.on(handle)`` equal, to 1e-12
   relative, those of a problem built on the handle's rows;
H. ``grad_g_block`` and ``subgrad_h_block`` equal central differences of
   ``eval_g`` and ``eval_h`` (step 1e-6) within ``1e-5 max(1, max|fd|)``,
   at the Gaussian points only: the start and the grid moves sit on kinks;
I. the gradient inequality of ``g_i``, within 1e-9, written with C.

A new problem or fast path gets them all from one line in ``FIXTURES``.
"""

import importlib
import itertools
import pkgutil

import numpy as np
import pytest

import bdcopt
from bdcopt import relu
from bdcopt.blocks import BlockPartition
from bdcopt.model import (AffineBdcMap, BdcProblem, LogSumExpOracle, combine_linear,
                          combine_max, combine_min, conjugate_compose)
from bdcopt.problems import (CpProblem, MlpTask, MlpTaskProblem, QuadraticDcProblem,
                             QuadraticMinusL1Problem, SdlInstance, SdlProblem,
                             gaussian_blobs, sdl_synthetic)
from bdcopt.solvers import bdca_step
from test_cp_memo import build_instance
from test_mlp_memo import build_task, tie_case

GRID = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
PART = BlockPartition([3, 2, 4])
CALLS = ("eval_f", "eval_g", "eval_h", "grad_g_block", "subgrad_h_block",
         "residual_blocks")
PARTS = (("eval_g", "grad_g_block"), ("eval_h", "subgrad_h_block"))


def quadratics():
    rng = np.random.default_rng(42)
    return [QuadraticDcProblem.random(PART, rng), QuadraticMinusL1Problem(
        PART, rng.standard_normal((12, 9)), rng.standard_normal(12), 0.4)]


def sdl(variant):
    Y, D, X = sdl_synthetic(6, 8, 12, 3, seed=0)
    X = X + 0.3 * np.random.default_rng(100).standard_normal(X.shape)
    return SdlProblem(SdlInstance(Y=Y, D=D, X=X, alpha=0.2, Q=3, variant=variant))


def blobs(n, data_seed, dims, net_seed):
    x, y = gaussian_blobs(n, 3, seed=data_seed)
    net = relu.random_params(dims, np.random.default_rng(net_seed))
    return MlpTaskProblem(MlpTask(inputs=x, labels=y, net=net, loss="ce"))


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


def declares(prob, method):
    return getattr(type(prob), method) is not getattr(BdcProblem, method)


SOLVERS = [n for n, build in FIXTURES.items() if declares(build(), "minimize_block_surrogate")]
SAMPLERS = [n for n, build in FIXTURES.items() if declares(build(), "sample")]


def start(prob):  # the combinators declare no initial point
    if declares(prob, "initial_point"):
        return prob.initial_point()
    return np.zeros(prob.partition.total_dim)


def points(prob, rng, n):
    theta0 = start(prob)
    return [theta0] + [theta0 + rng.choice(GRID, size=theta0.size) if k % 2
                       else rng.standard_normal(theta0.size) for k in range(1, n)]


def handles(prob, rng):
    """The full data and, for a sampler, minibatches of 3 and 8 draws."""
    return [None] + ([prob.sample(rng, 3), prob.sample(rng, 8)]
                     if declares(prob, "sample") else [])


def on(prob, sample):
    """``prob`` on the full data (``sample`` None) or on a handle's rows."""
    return prob if sample is None else prob.on(sample)


def call(prob, name, i, theta, u=None, rho=0.0):
    """One oracle call by name; the block solver's result is its pair."""
    if name in ("eval_f", "relative_error"):
        return getattr(prob, name)(theta)
    if name == "residual_blocks":
        return prob.residual_blocks(theta)
    if name == "minimize_block_surrogate":
        return prob.minimize_block_surrogate(i, theta, u, rho, 10, 1e-8)
    return getattr(prob, name)(i, theta)


def leaves(result):
    return list(result) if isinstance(result, (list, tuple)) else [result]


def assert_same(got, want):
    """Oracle results (numbers, arrays, or lists and pairs of them) equal
    bit for bit."""
    got, want = leaves(got), leaves(want)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b, strict=True)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def replay(build, rng, names, samples=(None,), n_calls=40, reference=None, prob=None):
    """(E) Interleaved calls on ``prob`` (default: a built one) at its start,
    a grid move of it and a trial vector edited in place between calls.
    Every call but ``eval_f`` goes to ``prob`` on one of ``samples`` (one
    minibatch problem per handle, kept for the whole replay), and the block
    solver takes a ``rho`` and a ``u``.  Each call gives the bits of the same
    call on a fresh problem (and of ``reference``, if given), leaves
    ``theta`` as it was, and NaN written into what it returned must reach no
    later result."""
    prob = build() if prob is None else prob
    views = [on(prob, sample) for sample in samples]
    dims = prob.partition.block_dims
    theta0 = start(prob)
    trial = theta0.copy()
    at = [theta0, theta0 + rng.choice(GRID, size=theta0.size), trial]
    for _ in range(n_calls):
        if rng.random() < 0.3:
            sl = prob.partition.slice_of(int(rng.integers(prob.n_blocks)))
            trial[sl] = rng.choice(GRID, size=sl.stop - sl.start)
        name = names[int(rng.integers(len(names)))]
        i = int(rng.integers(prob.n_blocks))
        theta = at[int(rng.integers(len(at)))]
        kwargs, sample, view = {}, None, prob
        if name != "eval_f":
            k = int(rng.integers(len(samples)))
            sample, view = samples[k], views[k]
        if name == "minimize_block_surrogate":
            rho = float(rng.choice([0.0, 0.5, 2.0]))
            # u = 0 at rho = 0, where K^T K may be singular (a zero CP factor column)
            u = rng.choice(GRID, size=dims[i]) if rho else np.zeros(dims[i])
            kwargs.update(rho=rho, u=u)
        before = theta.tobytes()
        got = call(view, name, i, theta, **kwargs)
        assert theta.tobytes() == before, name
        assert_same(got, call(on(build(), sample), name, i, theta, **kwargs))
        if reference is not None:
            assert_same(got, reference(name, i, theta, sample=sample, **kwargs))
        for a in leaves(got):
            if isinstance(a, np.ndarray):
                a[...] = np.nan  # must not reach later results


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


def check_residual_blocks(prob, theta, sample=None):
    """D at one point, on the full data or one minibatch."""
    prob = on(prob, sample)
    got = prob.residual_blocks(theta)
    want = BdcProblem.residual_blocks(prob, theta)
    assert len(got) == len(want) == prob.n_blocks
    tol = 1e-12 if isinstance(prob, MlpTaskProblem) else 0.0
    for i, (z, w) in enumerate(zip(got, want)):
        scale = (np.max(np.abs(prob.grad_g_block(i, theta)))
                 + np.max(np.abs(prob.subgrad_h_block(i, theta))))
        assert z.shape == w.shape and np.max(np.abs(z - w)) <= tol * scale, (i, sample)


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
                np.testing.assert_allclose(got, want, rtol=1e-12, err_msg=oracle)


def test_every_library_problem_has_a_fixture():
    for module in pkgutil.walk_packages(bdcopt.__path__, "bdcopt."):
        importlib.import_module(module.name)

    def leaf_classes(cls):
        subs = [c for c in cls.__subclasses__() if c.__module__.startswith("bdcopt")]
        return set().union(*map(leaf_classes, subs)) if subs else {cls}

    covered = {type(build()) for build in FIXTURES.values()}
    assert {c.__qualname__ for c in leaf_classes(BdcProblem) - covered} == set()
