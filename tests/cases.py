"""What two or more test modules share: the random problem builders, the
hypothesis strategies for MLP tasks and SDL codes, the bit-for-bit
comparison and the one within a bound, the Frank-Wolfe reference of the SDL
dictionary solver, and the replay harness of the oracle contract (check E
of ``test_oracle_contract.py``) with its check D.

A plain module: it holds no tests and no ``@given``, so every test module
imports it at its top and runs alone.
"""

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bdcopt import relu
from bdcopt.model import BdcProblem
from bdcopt.problems.cp import CpInstance
from bdcopt.problems.mlp import MlpTask, MlpTaskProblem, gaussian_blobs
from bdcopt.problems.sdl import SdlInstance, SdlProblem, sdl_synthetic

GRID = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
ORACLES = ("eval_f", "eval_g", "eval_h", "grad_g_block", "subgrad_h_block")
CALLS = ORACLES + ("residual_blocks",)
# (depth, loss, grid, seed) of a build_task draw
MLP_CASES = (st.integers(2, 4), st.sampled_from(["mse", "ce"]), st.booleans(),
             st.integers(0, 2 ** 32 - 1))


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


def blobs(n, data_seed, dims, net_seed):
    """A cross-entropy problem on ``n`` rows of three Gaussian blobs."""
    x, y = gaussian_blobs(n, 3, seed=data_seed)
    net = relu.random_params(dims, np.random.default_rng(net_seed))
    return MlpTaskProblem(MlpTask(inputs=x, labels=y, net=net, loss="ce"))


def build_instance(rng, n_modes, rank, grid):
    """Random CP instance whose factors hit ties and zeros: grid values or
    Gaussians with zeroed entries, and one all-zero factor column."""
    shape = tuple(int(m) for m in rng.integers(1, 5, size=n_modes))
    draw = ((lambda size: rng.choice(GRID, size=size)) if grid
            else (lambda size: rng.standard_normal(size)))
    T = draw(shape)
    T.flat[0] = 1.0  # a nonzero tensor, so relative_error is defined
    factors = [draw((m, rank)) for m in shape]
    if not grid:
        for F in factors:
            F[rng.random(F.shape) < 0.2] = 0.0
    factors[int(rng.integers(n_modes))][:, int(rng.integers(rank))] = 0.0
    return CpInstance(tensor=T, rank=rank, factors=factors)


# entries with many exact ties in |x|, signed zeros included
TIED = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0])
SPREAD = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)


@st.composite
def codes_and_q(draw):
    """SDL codes ``X`` (tied, spread or mixed entries, maybe an all-zero
    column) and a largest-Q count in ``[1, l]``."""
    l = draw(st.integers(1, 20))
    n = draw(st.integers(1, 12))
    elements = draw(st.sampled_from([TIED, SPREAD, st.one_of(TIED, SPREAD)]))
    X = draw(hnp.arrays(float, (l, n), elements=elements))
    if draw(st.booleans()):
        X[:, draw(st.integers(0, n - 1))] = 0.0
    return X, draw(st.integers(1, l))


def sdl(variant="l1_lq", alpha=0.2, seed=0):
    """A small SDL problem whose codes are noisy copies of the true ones."""
    Y, D, X = sdl_synthetic(6, 8, 12, 3, seed=seed)
    X = X + 0.3 * np.random.default_rng(seed + 100).standard_normal(X.shape)
    return SdlProblem(SdlInstance(Y=Y, D=D, X=X, alpha=alpha, Q=3, variant=variant))


def declares(prob, method):
    return getattr(type(prob), method) is not getattr(BdcProblem, method)


def start(prob):  # the combinators declare no initial point
    if declares(prob, "initial_point"):
        return prob.initial_point()
    return np.zeros(prob.partition.total_dim)


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


def assert_same(got, want, what=""):
    """Oracle results (numbers, arrays, or lists and pairs of them) equal
    bit for bit: the same shape, dtype and bytes, so ``-0.0`` is not
    ``0.0``.  ``what`` names the compared value in a failure."""
    got, want = leaves(got), leaves(want)
    assert len(got) == len(want), what
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b, err_msg=what, strict=True)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), what


def assert_near(got, want, bound, what="", zeros=True, scale=None):
    """Arrays of the same shape and dtype whose largest entrywise difference
    is at most ``bound`` times ``scale`` (by default the largest ``|want|``),
    and, with ``zeros``, whose exact zeros lie in the same places.  ``what``
    names the compared value in a failure."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype, what
    if zeros:
        np.testing.assert_array_equal(got == 0, want == 0, err_msg=what)
    if scale is None:
        scale = np.max(np.abs(want), initial=0.0)
    diff = np.max(np.abs(got - want), initial=0.0)
    assert diff <= bound * scale, "%s: difference %r, bound %r" % (
        what, diff, bound * scale)


# The Gram-form Frank-Wolfe keeps its gradient by the update ``G += step
# (Delta P + rho Delta)`` instead of forming it from the residual, so it
# rounds differently.  Unlike a prox-gradient step, Frank-Wolfe does not
# damp such a difference: the vertex ``-G_j / ||G_j||`` divides a column's
# rounding by its gradient norm, which shrinks as the solve converges, and
# the step divides by the curvature.  (Where that norm is zero in exact
# arithmetic the vertex is set by rounding alone, and no bound holds; see
# test_sdl_fast_paths.)  So the bound is set from measurement, on the scale
# of the unit column balls (an entry whose exact value is 0 can round to
# 1e-16): the worst of the 192 reference solves of test_sdl_inner_solvers
# measured 2.8e-11, and 1e-9 leaves a factor of 35.
FRANK_WOLFE_BOUND = 1e-9


def reference_frank_wolfe(Y, X, D0, budget, rho=0.0, tol=0.0, record=None):
    """Frank-Wolfe over the unit column balls as the SDL dictionary solver
    used to run it before its Gram form: the gradient formed from the
    residual ``Y - D X`` each iteration and the vertex written through a
    mask of the nonzero gradient columns.  Its gap ``-sum(G * Delta)`` has
    the bits of ``sum(G * (D - S))``, and forming ``Delta @ X`` once or
    twice gives the same bits, so this one copy stands for the older
    forms.  A ``record`` list gets each iteration's column gradient norms,
    gap, curvature and move ``Delta``."""
    D = np.array(D0, dtype=float, copy=True)
    R = Y - D @ X
    iters = 0
    for _ in range(budget):
        iters += 1
        G = -(R @ X.T)
        if rho:
            G = G + rho * (D - D0)
        norms = np.linalg.norm(G, axis=0)
        S = D.copy()
        nz = norms > 0
        S[:, nz] = -G[:, nz] / norms[nz]
        Delta = S - D
        DX = Delta @ X
        gap = -float(np.sum(G * Delta))
        curv = float(np.sum(DX ** 2))
        if rho:
            curv += rho * float(np.sum(Delta * Delta))
        if record is not None:
            record.append((norms, gap, curv, Delta))
        if curv <= 0 or gap <= tol:
            break
        step = min(max(gap / curv, 0.0), 1.0)
        if step == 0.0:
            break
        D = D + step * Delta
        R = R - step * DX
    return D, iters


def replay(build, rng, names, samples=(None,), n_calls=40, check=None, prob=None):
    """(E) Interleaved calls on ``prob`` (default: a built one) at its start,
    a grid move of it and a trial vector edited in place between calls.
    Every call but ``eval_f`` goes to ``prob`` on one of ``samples`` (one
    minibatch problem per handle, kept for the whole replay), and the block
    solver takes a ``rho`` and a ``u``.  Each call gives the bits of the same
    call on a fresh problem, leaves ``theta`` as it was, and NaN written
    into what it returned must reach no later result.  ``check``, if given,
    is called with each result, the oracle's name, block and point, and the
    call's ``sample`` and keywords, to compare the result with a reference."""
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
        if check is not None:
            check(got, name, i, theta, sample=sample, **kwargs)
        for a in leaves(got):
            if isinstance(a, np.ndarray):
                a[...] = np.nan  # must not reach later results


def check_residual_blocks(prob, theta, sample=None):
    """(D) ``residual_blocks`` against the generic body at one point, on the
    full data or one minibatch: exactly, or within ``1e-12 (max|grad g_i| +
    max|grad h_i|)`` per block for the MLP's sweep."""
    prob = on(prob, sample)
    got = prob.residual_blocks(theta)
    want = BdcProblem.residual_blocks(prob, theta)
    assert len(got) == len(want) == prob.n_blocks
    tol = 1e-12 if isinstance(prob, MlpTaskProblem) else 0.0
    for i, (z, w) in enumerate(zip(got, want)):
        scale = (np.max(np.abs(prob.grad_g_block(i, theta)))
                 + np.max(np.abs(prob.subgrad_h_block(i, theta))))
        assert z.shape == w.shape and np.max(np.abs(z - w)) <= tol * scale, (i, sample)
