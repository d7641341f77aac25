"""The CP problem's one-residual-per-point memo against the per-call
computation it replaced.

The contract suite's replay (``cases.replay``) drives the memo and compares
every call with ``reference``, the call computed alone.  What stays here is
the CP's own: one reconstruction per update, and the tensor the problem
reads.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bdcopt import experiments
from bdcopt.problems import cp
from bdcopt.problems.cp import CpInstance, CpProblem, cp_reconstruct
from cases import build_instance, replay

CP_ORACLES = ("eval_f", "eval_g", "eval_h", "grad_g_block", "relative_error",
              "minimize_block_surrogate")


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
    return np.linalg.lstsq(M, rhs.T, rcond=None)[0].T.ravel(), 1


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 4), st.integers(1, 4), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_memo_matches_reference(n_modes, rank, grid, seed):
    # the contract suite's replay, with the reference as an extra
    # bit-for-bit comparison
    rng = np.random.default_rng(seed)
    inst = build_instance(rng, n_modes, rank, grid)
    replay(lambda: CpProblem(inst), rng, CP_ORACLES,
           reference=lambda name, i, theta, sample=None, u=None, rho=0.0:
           reference(inst, name, i, theta, u, rho))


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
    prob = CpProblem(inst)
    prob.eval_f(prob.initial_point())  # a point evaluated before the reassignment
    inst.tensor = rng.standard_normal(inst.tensor.shape)
    replay(lambda: CpProblem(original), rng, CP_ORACLES, n_calls=60, prob=prob)
