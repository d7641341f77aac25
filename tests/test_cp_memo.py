"""The CP problem's one-residual-per-point memo against the per-call
computation it replaced.

The contract suite's replay (``cases.replay``) drives the memo and compares
every call with the same call on a fresh problem, bit for bit, and here also
with ``reference``, the call computed alone by the formulas the problem used
before its Gram form.  What stays here is the CP's own: the repeated-rows
Khatri-Rao product and the ``rho = 0`` update against the broadcast and
``+ rho F_i`` forms they replaced, one reconstruction per update, four
Khatri-Rao products per 3-mode sweep, the data the problem keeps from its
tensor, and the tensor it reads.
"""

import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bdcopt import experiments
from bdcopt.solvers import bdca_step
from bdcopt.problems import cp
from bdcopt.problems.cp import CpInstance, CpProblem, cp_reconstruct
from cases import assert_near, assert_same, build_instance, replay

CP_ORACLES = ("eval_f", "eval_g", "eval_h", "grad_g_block", "relative_error",
              "minimize_block_surrogate")

# The objective is one sum of the same squares as the reference's
# ``np.sum(R * R)``, accumulated in another order: both sums of n >= 0 terms
# lie within (n - 1) 2^-53 of the exact sum relative to it, so they differ
# by at most 2 (n - 1) 2^-53, below 6e-14 for the at most 4^4 = 256
# entries of a ``build_instance`` tensor (the relative error, a square
# root, by half as much).  Measured worst: 7.2e-16.
OBJECTIVE_BOUND = 1e-13
# The block update solves the normal equations of the Hadamard Gram by
# ``eigh`` where the reference solves those of ``K^T K`` by ``lstsq``.  The
# two matrices differ by rounding of order 1e-16 of their largest entry
# (``test_problems.py``), and a solve passes that on multiplied by the
# condition number over the kept eigenvalues, which rounding bounds only by
# 1 / (r eps).  So the bound is set from measurement, on the scale of the
# largest reference entry: over 136,425 systems at the points of this
# replay on ``build_instance`` draws, the worst was 5.7e-10, and 1e-8 leaves
# a factor of 17.
# Exact zeros are not compared: on a singular system neither solve keeps a
# zero column exactly zero.
SOLVE_BOUND = 1e-8


def reference(inst, name, i, theta, u, rho):
    """One oracle call computed alone, as the problem did before the memo
    and before its Gram form: ``K^T K`` solved by ``lstsq`` and the
    objective by ``np.sum(R * R)``."""
    prob = CpProblem(inst)
    factors = prob.unpack(theta)
    T = inst.tensor
    if name in ("eval_f", "eval_g"):
        R = cp_reconstruct(factors) - T
        return 0.5 * float(np.sum(R * R))
    if name == "eval_h":
        return 0.0
    if name == "relative_error":
        R = cp_reconstruct(factors) - T
        return math.sqrt(float(np.sum(R * R))) / math.sqrt(float(np.sum(T * T)))
    K = cp._khatri_rao_others(factors, i)
    if name == "grad_g_block":
        R = cp._unfold(cp_reconstruct(factors) - T, i)
        return (R @ K).ravel()
    M = K.T @ K + rho * np.eye(inst.rank)
    rhs = cp._unfold(T, i) @ K + u.reshape(factors[i].shape) + rho * factors[i]
    return np.linalg.lstsq(M, rhs.T, rcond=None)[0].T.ravel(), 1


def near_reference(inst, got, name, i, theta, sample=None, u=None, rho=0.0):
    """``got`` against ``reference``: the objective and the relative error
    within ``OBJECTIVE_BOUND``, the block update within ``SOLVE_BOUND``, and
    the gradient and ``eval_h`` bit for bit."""
    want = reference(inst, name, i, theta, u, rho)
    if name in ("eval_f", "eval_g", "relative_error"):
        assert_near(got, want, OBJECTIVE_BOUND, name)
    elif name == "minimize_block_surrogate":
        assert got[1] == want[1]
        assert_near(got[0], want[0], SOLVE_BOUND, name, zeros=False)
    else:
        assert_same(got, want, name)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 4), st.integers(1, 4), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_memo_matches_reference(n_modes, rank, grid, seed):
    # the contract suite's replay, with the reference as an extra
    # comparison within the bounds above
    rng = np.random.default_rng(seed)
    inst = build_instance(rng, n_modes, rank, grid)
    replay(lambda: CpProblem(inst), rng, CP_ORACLES,
           check=lambda *args, **kwargs: near_reference(inst, *args, **kwargs))


# Signed zeros, subnormals (whose products underflow to a signed zero) and
# +-1e200 (whose products overflow to +-inf, and then to NaN against a zero)
SIGNED_GRID = np.array([-1e200, -3.0, -1.0, -0.5, -1e-310, -5e-324, -0.0,
                        0.0, 5e-324, 1e-310, 0.5, 1.0, 3.0, 1e200])


def broadcast_khatri_rao(a, b):
    """The Khatri-Rao product as the problem built it before: one broadcast
    multiply, ``I J`` numpy loops of length ``R``."""
    return (a[:, None, :] * b[None, :, :]).reshape(-1, a.shape[1])


def broadcast_others(factors, mode):
    return reduce(broadcast_khatri_rao,
                  [F for j, F in enumerate(factors) if j != mode])


def rhs_before_rho(T, factors, i, u):
    return cp._unfold(T, i) @ broadcast_others(factors, i) + u.reshape(
        factors[i].shape)


def broadcast_update(T, factors, i, u, rho):
    """The block update as built before the ``rho = 0`` skip: both ``rho``
    terms added whatever ``rho`` is, on the broadcast product's MTTKRP."""
    M = cp._hadamard_gram(factors, i)
    M.reshape(-1)[::factors[i].shape[1] + 1] += rho
    rhs = rhs_before_rho(T, factors, i, u) + rho * factors[i]
    return cp._min_norm_solve(M, rhs).ravel(), 1


def outcome(f, *args):
    """``f(*args)``, or the type of the ``LinAlgError`` it raises: an
    ``eigh`` of a Gram that overflowed may not converge."""
    try:
        return f(*args)
    except np.linalg.LinAlgError as e:
        return type(e)


@st.composite
def signed_factors(draw):
    """2-4 factors of 1-40 rows and rank 1-6 on ``SIGNED_GRID`` (the tensor
    they span kept to at most 4096 entries), with or without +-1e200, a
    tensor and a ``u`` on the same grid, and a ``rho > 0``."""
    rank = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(2, 4))):
        rows.append(draw(st.integers(1, min(40, 4096 // math.prod(rows)))))
    grid = SIGNED_GRID if draw(st.booleans()) else SIGNED_GRID[1:-1]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    factors = [rng.choice(grid, size=(m, rank)) for m in rows]
    return (factors, rng.choice(grid, size=rows),
            rng.choice(grid, size=max(rows) * rank),
            draw(st.sampled_from([5e-324, 0.5, 1.0, 3.0, 1e200])))


@settings(max_examples=150, deadline=None)
@given(signed_factors())
def test_khatri_rao_and_update_keep_every_bit(case):
    # the repeated-rows Khatri-Rao product, the reconstruction, each MTTKRP
    # and the block update against the broadcast and ``+ rho F_i`` forms
    # they replaced, byte for byte.  The one exception is the rho = 0
    # update where ``T_(i) K + u`` holds a -0.0 (a -0.0 of u where the
    # MTTKRP underflowed to -0.0, as a fused multiply-add rounds a tiny
    # negative sum): the old ``+ 0 F_i`` could make it +0.0, so only the
    # values must agree there.  +-1e200 overflows, and the solve then
    # meets NaN and zero divisions, alike on both sides; the test settings
    # would make each warning an error.
    factors, T, u, rho = case
    with np.errstate(all="ignore"):
        K = factors[0]
        for F in factors[1:]:
            got, K = cp._khatri_rao(K, F), broadcast_khatri_rao(K, F)
            assert_same(got, K, "Khatri-Rao product")
        assert_same(cp_reconstruct(factors),
                    (factors[0] @ broadcast_others(factors, 0).T).reshape(T.shape),
                    "cp_reconstruct")
        for i in range(len(factors)):
            T_i = cp._unfold(T, i)
            assert_same(T_i @ cp._khatri_rao_others(factors, i),
                        T_i @ broadcast_others(factors, i), "MTTKRP %d" % i)
        inst = CpInstance(tensor=T, rank=factors[0].shape[1], factors=factors)
        theta = CpProblem(inst).initial_point()
        for i, F in enumerate(factors):
            u_i = u[:F.size].copy()
            for r in (0.0, rho):
                what = "update %d at rho %r" % (i, r)
                got = outcome(CpProblem(inst).minimize_block_surrogate,
                              i, theta, u_i, r, 1, 0.0)
                want = outcome(broadcast_update, T, factors, i, u_i, r)
                s = rhs_before_rho(T, factors, i, u_i)
                exact = r > 0 or not np.any(np.signbit(s) & (s == 0))
                if exact or isinstance(want, type):
                    assert_same(got, want, what)
                else:
                    assert got[1] == want[1]
                    assert np.array_equal(got[0], want[0], equal_nan=True), what


def test_khatri_rao_warns_on_overflow_like_the_broadcast():
    a = np.array([[1e200, 1.0]])
    for kr in (cp._khatri_rao, broadcast_khatri_rao):
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert np.array_equal(kr(a, a), [[np.inf, 1.0]])


@pytest.mark.parametrize("sweeps", [1, 4])
def test_one_reconstruction_per_update(monkeypatch, sweeps):
    # per update, the step's two descent checks and the driver's objective
    # share one reconstruction, and the sweep's relative error reads it too;
    # the starting point costs one more
    count = [0]
    reconstruct = CpProblem._reconstruct

    def counting(self, theta):
        count[0] += 1
        return reconstruct(self, theta)

    monkeypatch.setattr(CpProblem, "_reconstruct", counting)
    rows, per_update, _, _ = experiments.run_tensor_experiment(
        dims=(3, 4, 5), rank=2, sweeps=sweeps, seed=3)
    assert len(rows) == sweeps + 1
    assert count[0] == 3 * sweeps + 1


@pytest.mark.parametrize("sweeps", [1, 4])
def test_sweep_builds_four_khatri_rao_products_and_no_unfolding(monkeypatch, sweeps):
    # the first factor's update and the reconstruction after it read the
    # product of factors 2 and 3 that the last reconstruction kept; the
    # other two updates build their own product and the reconstruction at
    # their new point one more (6 per sweep when nothing is kept).  The
    # block updates multiply unfoldings of T built with the problem.
    rng = np.random.default_rng(5)
    prob = CpProblem(CpInstance(tensor=rng.standard_normal((3, 4, 5)), rank=2,
                                factors=[rng.standard_normal((m, 2)) for m in (3, 4, 5)]))
    theta = prob.initial_point()
    prob.eval_f(theta)
    counts = {"khatri_rao": 0, "unfold_T": 0}
    khatri_rao, unfold = cp._khatri_rao, cp._unfold

    def counting_khatri_rao(a, b):
        counts["khatri_rao"] += 1
        return khatri_rao(a, b)

    def counting_unfold(T, mode):
        counts["unfold_T"] += np.shares_memory(T, prob.tensor)
        return unfold(T, mode)

    monkeypatch.setattr(cp, "_khatri_rao", counting_khatri_rao)
    monkeypatch.setattr(cp, "_unfold", counting_unfold)
    for _ in range(sweeps):
        for i in range(3):
            theta, _ = bdca_step(prob, theta, i)
            prob.eval_f(theta)
        prob.relative_error(theta)
    assert counts == {"khatri_rao": 4 * sweeps, "unfold_T": 0}


def test_kept_unfoldings_are_the_unfoldings_read_only():
    inst = build_instance(np.random.default_rng(13), 4, 2, grid=False)
    prob = CpProblem(inst)
    for i, T_i in enumerate(prob._unfolded):
        want = cp._unfold(inst.tensor, i)
        assert T_i.shape == want.shape and T_i.dtype == want.dtype
        assert T_i.tobytes() == want.tobytes()
        assert not T_i.flags.writeable
        with pytest.raises(ValueError):
            T_i[0, 0] = 100.0
    assert np.shares_memory(prob._unfolded[0], prob.tensor)  # a view, no copy


def test_two_mode_product_is_not_the_callers_factor():
    # with two modes the Khatri-Rao product of the factors after the first
    # is the second factor itself; the kept product must not follow an
    # in-place edit of the theta it came from
    rng = np.random.default_rng(17)
    inst = CpInstance(tensor=rng.standard_normal((3, 4)), rank=2,
                      factors=[rng.standard_normal((3, 2)),
                               rng.standard_normal((4, 2))])
    prob = CpProblem(inst)
    theta = prob.initial_point()
    old = theta.copy()
    prob.grad_g_block(0, theta)
    theta[-8:] = rng.standard_normal(8)  # the second factor, edited in place
    u = np.zeros(6)
    for at in (old, theta, old):
        fresh = CpProblem(inst)
        assert prob.grad_g_block(0, at).tobytes() == fresh.grad_g_block(0, at).tobytes()
        assert (prob.minimize_block_surrogate(0, at, u, 0.5, 1, 0)[0].tobytes()
                == fresh.minimize_block_surrogate(0, at, u, 0.5, 1, 0)[0].tobytes())
        assert prob.eval_f(at) == fresh.eval_f(at)


def test_relative_error_of_zero_tensor_raises():
    # ||T|| = 0 leaves the relative error undefined; the oracles still work
    rng = np.random.default_rng(19)
    factors = [rng.standard_normal((m, 2)) for m in (3, 4, 5)]
    prob = CpProblem(CpInstance(tensor=np.zeros((3, 4, 5)), rank=2,
                                factors=factors))
    theta = prob.initial_point()
    with pytest.raises(ValueError, match="all-zero tensor is undefined"):
        prob.relative_error(theta)
    R = cp_reconstruct(factors)
    assert_near(prob.eval_f(theta), 0.5 * float(np.sum(R * R)), OBJECTIVE_BOUND)
    assert prob.eval_g(1, theta) == prob.eval_f(theta)
    np.testing.assert_array_equal(
        prob.grad_g_block(2, theta),
        (cp._unfold(R, 2) @ cp._khatri_rao_others(factors, 2)).ravel())
    theta_new, _ = bdca_step(prob, theta, 0)
    assert prob.eval_f(theta_new) <= prob.eval_f(theta)


def test_tensor_is_read_only():
    inst = build_instance(np.random.default_rng(7), 3, 2, grid=False)
    prob = CpProblem(inst)
    theta = prob.initial_point()
    before = prob.eval_f(theta)
    with pytest.raises(ValueError):
        inst.tensor[(0,) * inst.tensor.ndim] = 100.0
    assert prob.eval_f(theta) == before


def test_reassigned_tensor_is_not_read():
    # the problem keeps the tensor it was built with; a new array assigned
    # to the instance afterwards reaches no oracle, memoized or not
    rng = np.random.default_rng(11)
    inst = build_instance(rng, 3, 2, grid=False)
    original = CpInstance(tensor=inst.tensor.copy(), rank=inst.rank,
                          factors=[F.copy() for F in inst.factors])
    prob = CpProblem(inst)
    prob.eval_f(prob.initial_point())  # a point evaluated before the reassignment
    inst.tensor = rng.standard_normal(inst.tensor.shape)
    replay(lambda: CpProblem(original), rng, CP_ORACLES, n_calls=60, prob=prob)
