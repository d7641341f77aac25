"""Canonical polyadic tensor factorization as an all-convex-blocks problem.

One block per factor matrix; the concave side is identically zero and the
block surrogate has a closed-form least-squares solution, so block steps are
exact minimizations (the alternating least-squares update).  Both hot paths
are in Gram form (Kolda & Bader, SIAM Review 51(3), 2009, section 3.4): the
reconstruction is one matrix product ``theta_1 @ K.T`` with the Khatri-Rao
product ``K`` of the other factors, and the block update solves the
``r x r`` normal equations whose matrix is the elementwise (Hadamard)
product of the other factors' Grams ``F_j^T F_j`` (``K^T K`` up to
rounding), with ``K`` used only for the MTTKRP ``T_(i) K``.  The solve is
the minimum-norm one, through ``eigh``: eigenvalues at or below
``eps r w_max``, the cutoff ``lstsq`` applies, are dropped.  ALS steps have
``rho = 0``, and then the update adds nothing to the Gram's diagonal and
forms no ``rho theta_i``.  Each Khatri-Rao product repeats the rows of its
first operand and multiplies them in place by the second: one numpy loop
per row of the first, over contiguous entries, and the products of the
broadcast ``a[:, None, :] * b[None, :, :]`` bit for bit.  The objective is
``0.5 r . r`` over the flat residual, one ``einsum`` pass with no
temporary and no BLAS.  The oracles share one residual per point:
``eval_f``, ``eval_g``, ``grad_g_block`` and ``relative_error`` read the
last point's ``reconstruction - T`` instead of rebuilding the tensor.  What
the solve cannot change is computed once: the mode unfoldings ``T_(i)`` and
``||T||``.  The Khatri-Rao product of the factors after the first, which
the reconstruction and the first factor's update both use, is kept for the
last factors it was built from, so a 3-mode sweep builds 4 products instead
of 6.  Every output is a function of the point alone, bit for bit what a
fresh problem gives, whichever memo is warm.  Against the formulas used
before the Gram form (``lstsq`` on ``K^T K`` and ``np.sum(R * R)``) the
objective differs by rounding, at most 1e-13 of itself on the tests'
instances, and the block update by at most 1e-8 of its largest entry (see
``tests/test_cp_memo.py``).  The data must be finite.  The problem reads
only the tensor it was built with, which it makes read-only.
"""

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from ..model import BdcProblem
from ..blocks import BlockPartition, all_finite

__all__ = ["cp_reconstruct", "CpInstance", "CpProblem"]

_EPS = np.finfo(float).eps


def cp_reconstruct(factors):
    """Full tensor ``sum_r outer(theta_1[:, r], ..., theta_n[:, r])`` of two
    or more factors, as ``theta_1 @ K.T`` with ``K`` the Khatri-Rao product of
    the others: row-major, like ``_unfold`` and ``_khatri_rao``."""
    shape = tuple(F.shape[0] for F in factors)
    return (factors[0] @ reduce(_khatri_rao, factors[1:]).T).reshape(shape)


def _unfold(T, mode):
    """Mode unfolding consistent with row-major flattening of the other axes."""
    return np.moveaxis(T, mode, 0).reshape(T.shape[mode], -1)


def _khatri_rao(a, b):
    """Column-wise Kronecker product of ``(I, R)`` and ``(J, R)`` matrices,
    row ``i J + j`` holding ``a[i] * b[j]``.  Each row of ``a`` is repeated
    ``J`` times and multiplied in place by ``b``, broadcast over the leading
    axis, so numpy runs ``I`` loops over ``J R`` contiguous entries where
    the broadcast ``a[:, None, :] * b[None, :, :]`` runs ``I J`` loops of
    length ``R``.  The products are the broadcast's, bit for bit: signed
    zeros and an overflow's warning included."""
    out = np.repeat(a, b.shape[0], axis=0).reshape(a.shape[0], *b.shape)
    out *= b
    return out.reshape(-1, a.shape[1])


def _khatri_rao_others(factors, mode):
    others = [factors[j] for j in range(len(factors)) if j != mode]
    return reduce(_khatri_rao, others)


def _hadamard_gram(factors, mode):
    """``K^T K`` for the Khatri-Rao product ``K`` of all factors but
    ``mode``, as the elementwise product of the ``r x r`` Grams ``F_j^T F_j``
    of those factors (Kolda & Bader, 2009, section 3.4): a new array, equal
    to ``K^T K`` up to rounding, built without ``K``."""
    return reduce(np.multiply, [F.T @ F for j, F in enumerate(factors) if j != mode])


def _min_norm_solve(M, rhs):
    """Minimum-norm ``X`` minimizing ``||X M - rhs||`` for a symmetric
    positive semidefinite ``M``, through ``M``'s eigendecomposition ``V diag(w)
    V^T``: ``X = rhs (V diag(1/w)) V^T`` over the eigenvalues above ``eps r
    w_max``, the others dropped (set to infinity, so ``1/w = 0``).  That is
    the cutoff ``lstsq(M, rhs.T, rcond=None)`` applies to ``M``'s singular
    values, which are its eigenvalues; a rounding-level negative eigenvalue
    is dropped too, and an all-zero ``M`` gives ``X = 0``."""
    w, V = np.linalg.eigh(M)
    w[w <= _EPS * M.shape[0] * w[-1]] = np.inf
    return (rhs @ (V / w)) @ V.T


@dataclass
class CpInstance:
    """A tensor, the rank and the starting factors, one ``(I_i, rank)``
    matrix per mode.  The tensor and the factors must be finite: a NaN or
    infinity raises, naming the array and its first bad index."""

    tensor: np.ndarray
    rank: int
    factors: list

    def __post_init__(self):
        if self.tensor.ndim != len(self.factors):
            raise ValueError("one factor matrix per tensor mode required")
        for ax, F in enumerate(self.factors):
            if F.shape != (self.tensor.shape[ax], self.rank):
                raise ValueError("factor %d has shape %r, want %r"
                                 % (ax, F.shape, (self.tensor.shape[ax], self.rank)))
        all_finite("tensor", self.tensor)
        for ax, F in enumerate(self.factors):
            all_finite("factor %d" % ax, F)


class CpProblem(BdcProblem):
    """0.5 ||T - reconstruction||_F^2; convex in each factor, zero concave side.

    The last point evaluated is kept: its residual ``R = reconstruction - T``
    and ``f = 0.5 ||R||^2``, keyed by the ``theta`` bytes, so the step's
    descent checks, the driver's per-update objective and the per-sweep
    relative error at one point share one reconstruction.  ``R`` never
    leaves the problem.  So is the last Khatri-Rao product ``K_0`` of the
    factors after the first, keyed by their bytes: the reconstruction and
    block 0's update and gradient read it, and it is a private read-only
    array, never a view of a caller's ``theta``.

    Built once: the read-only mode unfoldings ``T_(i)`` that the block
    updates multiply (mode 0 is a view of ``T``; each other mode is a
    permuted copy, so ``n - 1`` copies of ``T`` in all, 384 KB at
    20 x 30 x 40) and ``||T||``.  Every output is bit for bit what a fresh
    problem gives at the same point.  Neither norm of the relative error is
    ``np.linalg.norm``, whose BLAS ``dot`` rounds differently with the BLAS
    thread count: ``||T||`` is numpy's pairwise sum of squares and ``||R||``
    comes from the ``einsum`` objective.  The instance's
    ``tensor`` is made read-only here, so an in-place edit raises instead of
    leaving a stale residual behind, and the problem keeps that array:
    assigning a new ``instance.tensor`` later changes nothing here.
    """

    def __init__(self, instance):
        tensor = np.asarray(instance.tensor)
        tensor.flags.writeable = False
        instance.tensor = tensor
        self.instance = instance
        self.tensor = tensor
        self.shape = tensor.shape
        self.rank = instance.rank
        self.partition = BlockPartition([m * instance.rank for m in self.shape])
        self._unfolded = [_unfold(tensor, i) for i in range(tensor.ndim)]
        for T_i in self._unfolded:
            T_i.flags.writeable = False
        self._norm = math.sqrt(float(np.sum(tensor * tensor)))
        self._kr0 = None
        self._last = None

    def unpack(self, theta):
        theta = np.asarray(theta, dtype=float)
        factors = []
        pos = 0
        for m in self.shape:
            factors.append(theta[pos:pos + m * self.rank].reshape(m, self.rank))
            pos += m * self.rank
        return factors

    def pack(self, factors):
        return np.concatenate([F.ravel() for F in factors])

    def initial_point(self):
        return self.pack(self.instance.factors)

    def _factors_kr(self, theta, i):
        """``(factors, K)``: the factors at ``theta`` and the Khatri-Rao
        product of all but factor ``i``; for ``i = 0`` the kept ``K_0`` when
        the other factors' bytes match.  With two modes ``K_0`` is the second
        factor itself, so it is copied before it is kept."""
        theta = np.asarray(theta, dtype=float)
        factors = self.unpack(theta)
        if i:
            return factors, _khatri_rao_others(factors, i)
        key = theta[self.partition.slice_of(0).stop:].tobytes()
        if self._kr0 is None or self._kr0[0] != key:
            self._kr0 = None  # free the old product before the new one
            K = reduce(_khatri_rao, factors[2:], factors[1].copy())
            K.flags.writeable = False
            self._kr0 = (key, K)
        return factors, self._kr0[1]

    def _reconstruct(self, theta):
        """The full tensor at ``theta``, as ``cp_reconstruct`` builds it."""
        factors, K = self._factors_kr(theta, 0)
        return (factors[0] @ K.T).reshape(self.shape)

    def _residual(self, theta):
        """``(R, f)`` at ``theta``, from the memo when its bytes match."""
        theta = np.asarray(theta, dtype=float)
        key = theta.tobytes()
        if self._last is None or self._last[0] != key:
            self._last = None  # free the old residual before the new one
            R = self._reconstruct(theta)
            R -= self.tensor
            r = R.reshape(-1)
            self._last = (key, R, 0.5 * float(np.einsum("i,i", r, r)))
        return self._last[1:]

    def eval_f(self, theta):
        return self._residual(theta)[1]

    def eval_g(self, i, theta):
        return self.eval_f(theta)

    def eval_h(self, i, theta):
        return 0.0

    def grad_g_block(self, i, theta):
        K = self._factors_kr(theta, i)[1]
        return (_unfold(self._residual(theta)[0], i) @ K).ravel()

    def subgrad_h_block(self, i, theta):
        return np.zeros(self.partition.block_dims[i])

    def minimize_block_surrogate(self, i, theta, u, rho, budget, tol):
        """Exact block minimizer of ``0.5 ||T - recon||^2 - <u, F_i> +
        rho/2 ||F_i - theta_i||^2``: the ``r x r`` normal equations
        ``F_i M = T_(i) K + u + rho theta_i`` with ``M`` the Hadamard Gram
        of the other factors plus ``rho I`` (``K^T K`` in exact arithmetic).
        At ``rho = 0``, an ALS step, neither ``rho`` term is formed.  Adding
        them at a finite ``theta_i`` could change a bit only by turning a ``-0.0`` of ``T_(i) K + u``
        into ``+0.0``, and that sum is ``-0.0`` only where ``u`` is ``-0.0``
        and the MTTKRP's sum underflowed to ``-0.0``; the step's ``u``, the
        subgradient of the zero concave side, has no ``-0.0``.  The system
        is solved for its minimum-norm solution by ``_min_norm_solve``, so
        an exactly singular ``M`` (a zero factor column at ``rho = 0``)
        gives the minimum-norm minimizer, as ``lstsq(K, T_(i)^T)`` would.  A
        nearly singular ``K`` does not: the cutoff acts on ``K^T K``, whose
        condition number is that of ``K`` squared, so singular values of
        ``K`` below about ``sqrt(r eps)`` of the largest are dropped where
        ``lstsq(K)`` keeps them.  On the test suite's ``build_instance``
        draw 1056 (4 modes, rank 4), where ``K`` has singular values 0.079
        and 8.7e-11, this solve gives entries of at most 11 and
        ``lstsq(K)`` entries up to 5.8e9."""
        factors, K = self._factors_kr(theta, i)
        M = _hadamard_gram(factors, i)
        rhs = self._unfolded[i] @ K
        rhs += np.asarray(u).reshape(rhs.shape)
        if rho > 0:
            M.reshape(-1)[::self.rank + 1] += rho  # on the diagonal
            rhs += rho * factors[i]
        return _min_norm_solve(M, rhs).ravel(), 1

    def relative_error(self, theta):
        """``||R|| / ||T||`` as ``sqrt(2 f) / ||T||``, from the memo's ``f``;
        undefined, so a ``ValueError``, when ``T`` is all zeros."""
        if not self._norm:
            raise ValueError("the relative error of an all-zero tensor is "
                             "undefined")
        return math.sqrt(2.0 * self._residual(theta)[1]) / self._norm
