"""The CP problem's one-residual-per-point memo against the per-call
computation it replaced.

``CpProblem`` keeps the residual ``reconstruction - T`` of the last point it
evaluated.  Every oracle result must stay bit-identical to evaluating that
call alone, whatever came before it: other points, a ``theta`` array edited
in place between calls, or a caller that wrote into a returned gradient.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bdcopt import experiments
from bdcopt.problems import cp
from bdcopt.problems.cp import CpInstance, CpProblem, cp_reconstruct

GRID = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
ORACLES = ("eval_f", "eval_g", "eval_h", "grad_g_block", "relative_error",
           "minimize_block_surrogate")


def build_instance(rng, n_modes, rank, grid):
    """Random instance whose factors hit ties and zeros: grid values or
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


def reference(inst, name, i, theta, u, rho):
    """One oracle call computed alone, as the problem did before the memo."""
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
        return float(np.linalg.norm(R) / np.linalg.norm(T))
    K = cp._khatri_rao_others(factors, i)
    if name == "grad_g_block":
        R = cp._unfold(cp_reconstruct(factors) - T, i)
        return (R @ K).ravel()
    M = K.T @ K + rho * np.eye(inst.rank)
    rhs = cp._unfold(T, i) @ K + u.reshape(factors[i].shape) + rho * factors[i]
    return np.linalg.lstsq(M, rhs.T, rcond=None)[0].T.ravel()


def call(prob, name, i, theta, u, rho):
    if name in ("eval_f", "relative_error"):
        return getattr(prob, name)(theta)
    if name == "minimize_block_surrogate":
        x, iters = prob.minimize_block_surrogate(i, theta, u, rho, 10, 1e-8)
        assert iters == 1
        return x
    return getattr(prob, name)(i, theta)


def replay(inst, rng, n_calls=40):
    """Interleaved oracle calls on one problem over three points, each
    checked against the reference and a fresh problem that evaluates it
    first."""
    prob = CpProblem(inst)
    theta0 = prob.initial_point()
    other = theta0 + rng.choice(GRID, size=theta0.size)
    trial = theta0.copy()  # edited in place, as an inner solver's trial vector
    points = [theta0, other, trial]
    for _ in range(n_calls):
        if rng.random() < 0.3:
            sl = prob.partition.slice_of(int(rng.integers(prob.n_blocks)))
            trial[sl] = rng.choice(GRID, size=sl.stop - sl.start)
        name = ORACLES[int(rng.integers(len(ORACLES)))]
        i = int(rng.integers(prob.n_blocks))
        theta = points[int(rng.integers(len(points)))]
        dim = prob.partition.block_dims[i]
        rho = float(rng.choice([0.0, 0.5, 2.0]))
        # rho = 0 with u != 0 may face a singular K^T K (the zero column)
        u = rng.choice(GRID, size=dim) if rho and rng.random() < 0.5 else np.zeros(dim)
        got = call(prob, name, i, theta, u, rho)
        want = reference(inst, name, i, theta, u, rho)
        fresh = call(CpProblem(inst), name, i, theta, u, rho)
        if isinstance(want, float):
            assert got == want and fresh == want, (name, i)
        else:
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(fresh, want)
            got[...] = np.nan  # must not reach later results


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 4), st.integers(1, 4), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_memo_matches_reference(n_modes, rank, grid, seed):
    rng = np.random.default_rng(seed)
    replay(build_instance(rng, n_modes, rank, grid), rng)


@pytest.mark.parametrize("sweeps", [1, 4])
def test_one_reconstruction_per_update(monkeypatch, sweeps):
    # per update, the step's two descent checks and the driver's objective
    # share one reconstruction, and the sweep's relative error reads it too;
    # the starting point costs one more
    count = [0]

    def counting(factors):
        count[0] += 1
        return cp_reconstruct(factors)

    monkeypatch.setattr(cp, "cp_reconstruct", counting)
    rows, per_update, _, _ = experiments.run_tensor_experiment(
        dims=(3, 4, 5), rank=2, sweeps=sweeps, seed=3)
    assert len(rows) == sweeps + 1
    assert count[0] == 3 * sweeps + 1


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
    prob, ref = CpProblem(inst), CpProblem(original)
    theta0 = prob.initial_point()
    prob.eval_f(theta0)  # a point evaluated before the reassignment
    inst.tensor = rng.standard_normal(inst.tensor.shape)
    other = theta0 + rng.standard_normal(theta0.size)
    for theta in (theta0, other, theta0):
        for name in ORACLES:
            for i in range(prob.n_blocks):
                u = np.zeros(prob.partition.block_dims[i])
                got = call(prob, name, i, theta, u, 0.5)
                want = call(ref, name, i, theta, u, 0.5)
                np.testing.assert_array_equal(got, want, err_msg=name)
