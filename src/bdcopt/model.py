"""The multi-block DC problem abstraction and constructive combinators.

A problem exposes, for every coordinate block ``i``, a decomposition
``f(theta) = g_i(theta_i; rest) - h_i(theta_i; rest)`` with both parts convex
in block ``i`` while the remaining coordinates are frozen.  Solvers only ever
touch problems through this capability surface:

* scalar evaluations ``eval_f``, ``eval_g(i, .)``, ``eval_h(i, .)``,
* first-order oracles ``grad_g_block`` and ``subgrad_h_block``,
* an optional per-block domain, ``None`` or an object whose ``project(x)``
  projects onto the block's constraint set (:class:`BallProductDomain`),
* an optional replayable sampling interface for stochastic variants:
  ``sample(rng, batch_size)`` draws a :class:`SampleHandle`, and
  ``on(handle)`` is the problem on that draw's rows, so the stochastic step
  is the plain step on the minibatch problem,
  ``bdca_step(problem.on(handle), ...)``.

``subgrad_h_block`` must return one *deterministic* element of the convex
subdifferential; any fixed selection is valid for the majorization step, and
determinism is what makes runs replayable.
"""

import numpy as np

from .blocks import BlockPartition

__all__ = [
    "BdcProblem",
    "SampleHandle",
    "InnerSolverDivergence",
    "BallProductDomain",
    "residual_blocks",
    "residual_upper",
    "combine_linear",
    "combine_max",
    "combine_min",
    "AffineBdcMap",
    "LogSumExpOracle",
    "SingletonConjugate",
    "conjugate_compose",
]


class InnerSolverDivergence(RuntimeError):
    """Inner solver failed to descend on the block surrogate within budget,
    or met a non-finite value on the way."""


class SampleHandle:
    """Replayable identifier of one stochastic draw (e.g. a minibatch).

    Two evaluations with the same handle must return identical values.
    """

    __slots__ = ("key", "indices")

    def __init__(self, key, indices=()):
        self.key = int(key)
        self.indices = tuple(int(j) for j in indices)

    def __repr__(self):
        return "SampleHandle(key=%d, n=%d)" % (self.key, len(self.indices))


class BallProductDomain:
    """Constraint set of one block: the columns of an ``m x l`` matrix
    (stored flat), each in the unit 2-ball."""

    def __init__(self, m, l):
        self.m = int(m)
        self.l = int(l)

    def project(self, x):
        """A new flat array: each column of norm above 1 times the
        reciprocal of its norm, every other column times exactly 1.

        The norms are summed as ``np.linalg.norm(D, axis=0)`` sums them, and
        a column is multiplied by ``1 / norm``, not divided by the norm: the
        emitted CSVs depend on these bits.
        """
        D = np.asarray(x, dtype=float).reshape(self.m, self.l)
        norms = np.sqrt(np.add.reduce(D * D, axis=0))
        scale = np.divide(1.0, norms, out=np.ones_like(norms), where=norms > 1.0)
        return (D * scale).ravel()


class BdcProblem:
    """Abstract capability for multi-block DC objectives.

    Implementors set ``partition`` (a :class:`BlockPartition`) and provide the
    oracles below.  All oracles receive the full parameter vector ``theta`` as
    a flat 1-D array of length ``partition.total_dim``.

    A stochastic problem draws minibatch handles with :meth:`sample`, and
    :meth:`on` gives the problem on a handle's rows, whose oracles are the
    minibatch estimates; it must be replayable: identical handles yield
    identical values.  A deterministic problem is its own minibatch problem.
    """

    partition: BlockPartition

    @property
    def n_blocks(self):
        return self.partition.n_blocks

    # -- scalar oracles ----------------------------------------------------
    def eval_f(self, theta):
        raise NotImplementedError

    def eval_g(self, i, theta):
        raise NotImplementedError

    def eval_h(self, i, theta):
        raise NotImplementedError

    # -- first-order oracles (length d_i arrays) ---------------------------
    def grad_g_block(self, i, theta):
        raise NotImplementedError

    def subgrad_h_block(self, i, theta):
        raise NotImplementedError

    # -- structure ----------------------------------------------------------
    def block_domain(self, i):
        """Constraint set of block ``i`` (an object with ``project(x)``) or
        ``None`` when unconstrained."""
        return None

    def initial_point(self):
        """The problem's natural starting vector (flat, length ``total_dim``)."""
        raise NotImplementedError("problem declares no initial point")

    def sample(self, rng, batch_size):
        """Draw a replayable :class:`SampleHandle` of ``batch_size`` rows;
        stochastic problems only."""
        raise NotImplementedError("problem has no stochastic oracle")

    def on(self, handle):
        """The problem on the rows of ``handle``; a deterministic problem has
        no rows to pick and is its own minibatch problem."""
        return self

    def minimize_block_surrogate(self, i, theta, u, rho, budget, tol):
        """Approximately minimize the block surrogate

            g_i(x; rest) - <u, x> + rho/2 ||x - theta_i||^2   over the block domain,

        warm-started at the current block value.  Must not increase the
        surrogate.  Returns ``(x_new, inner_iterations)``; may raise
        :class:`InnerSolverDivergence`.
        """
        raise NotImplementedError("problem declares no inner solver")

    def residual_blocks(self, theta):
        """Per-block stationarity vectors ``z_i = grad g_i - chosen subgrad
        h_i``, one oracle pair per block; a problem that can form the
        differences more cheaply overrides this."""
        return [
            self.grad_g_block(i, theta) - self.subgrad_h_block(i, theta)
            for i in range(self.n_blocks)
        ]


def residual_blocks(problem, theta):
    """Per-block stationarity vectors ``z_i = grad g_i - chosen subgrad h_i``
    (:meth:`BdcProblem.residual_blocks`)."""
    return problem.residual_blocks(theta)


def residual_upper(problem, theta):
    """Upper bound on the Clarke stationarity residual at ``theta``.

    Stacks the per-block vectors ``grad g_i - u_i`` built from the problem's
    deterministic subgradient selection and returns the 2-norm.  The bound is
    tight whenever every ``h_i`` is differentiable at ``theta``.  The vectors
    come from the problem's own ``residual_blocks``, which may form the
    differences directly (``MlpTaskProblem`` does, in one reverse sweep), so
    they can differ from the oracle pairs' difference by rounding.
    """
    z = np.concatenate(residual_blocks(problem, theta))
    return float(np.linalg.norm(z))


def _check_shared_partition(problems):
    if not problems:
        raise ValueError("need at least one problem")
    part = problems[0].partition
    for p in problems[1:]:
        if p.partition != part:
            raise ValueError("all problems must share one block partition")
    return part


class _LinearCombination(BdcProblem):
    """Signed linear combination with the sign-split decomposition.

    Writing each weight as ``a = a+ - a-``, the positive parts keep the
    (g, h) roles and the negative parts swap them, so both sides stay convex.
    """

    def __init__(self, problems, weights):
        self.partition = _check_shared_partition(problems)
        if len(weights) != len(problems):
            raise ValueError("one weight per problem required")
        self.problems = list(problems)
        self.weights = [float(a) for a in weights]
        for j, a in enumerate(self.weights):
            if not np.isfinite(a):
                raise ValueError("weight %d must be finite, got %r" % (j, a))

    def on(self, handle):
        return _LinearCombination([p.on(handle) for p in self.problems],
                                  self.weights)

    def eval_f(self, theta):
        return sum(a * p.eval_f(theta) for a, p in zip(self.weights, self.problems))

    def _signed_sum(self, same, swapped, i, theta, total=0.0):
        """``total + sum a+ p.same(...) + a- p.swapped(...)``: the named
        block oracles, each part weighted and the negative ones swapped."""
        for a, p in zip(self.weights, self.problems):
            if a > 0:
                total = total + a * getattr(p, same)(i, theta)
            elif a < 0:
                total = total + -a * getattr(p, swapped)(i, theta)
        return total

    def eval_g(self, i, theta):
        return self._signed_sum("eval_g", "eval_h", i, theta)

    def eval_h(self, i, theta):
        return self._signed_sum("eval_h", "eval_g", i, theta)

    def grad_g_block(self, i, theta):
        return self._signed_sum("grad_g_block", "subgrad_h_block", i, theta,
                                np.zeros(self.partition.block_dims[i]))

    def subgrad_h_block(self, i, theta):
        return self._signed_sum("subgrad_h_block", "grad_g_block", i, theta,
                                np.zeros(self.partition.block_dims[i]))


def combine_linear(problems, weights):
    """Weighted sum of multi-block DC problems, again multi-block DC."""
    return _LinearCombination(problems, weights)


class _PointwiseMax(BdcProblem):
    """Pointwise maximum: g_i = max_r (g_i^r + sum_{s != r} h_i^s), h_i = sum h_i^s."""

    def __init__(self, problems):
        self.partition = _check_shared_partition(problems)
        self.problems = list(problems)

    def on(self, handle):
        return _PointwiseMax([p.on(handle) for p in self.problems])

    def eval_f(self, theta):
        return max(p.eval_f(theta) for p in self.problems)

    def _pieces(self, i, theta):
        """The values ``g_r + sum_s h_s - h_r`` whose maximum is ``g_i``."""
        hs = [p.eval_h(i, theta) for p in self.problems]
        total_h = sum(hs)
        gs = [p.eval_g(i, theta) for p in self.problems]
        return [g + total_h - h for g, h in zip(gs, hs)]

    def eval_g(self, i, theta):
        return max(self._pieces(i, theta))

    def eval_h(self, i, theta):
        return sum(p.eval_h(i, theta) for p in self.problems)

    def grad_g_block(self, i, theta):
        # the active piece of the same values eval_g maximizes; the lowest
        # index wins a tie
        r = int(np.argmax(self._pieces(i, theta)))
        out = self.problems[r].grad_g_block(i, theta).copy()
        for s, p in enumerate(self.problems):
            if s != r:
                out += p.subgrad_h_block(i, theta)
        return out

    def subgrad_h_block(self, i, theta):
        out = np.zeros(self.partition.block_dims[i])
        for p in self.problems:
            out += p.subgrad_h_block(i, theta)
        return out


def combine_max(problems):
    """Pointwise maximum of multi-block DC problems."""
    return _PointwiseMax(problems)


def combine_min(problems):
    """Pointwise minimum, realized as the negated maximum of negations."""
    negated = [combine_linear([p], [-1.0]) for p in problems]
    return combine_linear([combine_max(negated)], [-1.0])


class AffineBdcMap:
    """Affine map ``M theta + q`` split entrywise into positive/negative
    parts: a componentwise-split map for :func:`conjugate_compose`."""

    def __init__(self, partition, M, q=None):
        self.partition = partition
        M = np.asarray(M, dtype=float)
        if M.shape[1] != partition.total_dim:
            raise ValueError("matrix width must match partition dimension")
        self.M = M
        self.q = np.zeros(M.shape[0]) if q is None else np.asarray(q, dtype=float)
        self.n_components = M.shape[0]
        self._Mp = np.maximum(M, 0.0)
        self._Mm = np.maximum(-M, 0.0)

    def value(self, theta):
        return self.M @ np.asarray(theta, dtype=float) + self.q

    def pos_part(self, i, theta):
        return self._Mp @ np.asarray(theta, dtype=float) + self.q

    def neg_part(self, i, theta):
        return self._Mm @ np.asarray(theta, dtype=float)

    def pos_jacobian(self, i, theta):
        return self._Mp[:, self.partition.slice_of(i)]

    def neg_jacobian(self, i, theta):
        return self._Mm[:, self.partition.slice_of(i)]


class LogSumExpOracle:
    """log-sum-exp as the conjugate of negative entropy over the simplex."""

    def value(self, t):
        t = np.asarray(t, dtype=float)
        m = float(np.max(t))
        return m + float(np.log(np.sum(np.exp(t - m))))

    def maximizer(self, t):
        t = np.asarray(t, dtype=float)
        e = np.exp(t - np.max(t))
        return e / e.sum()


class SingletonConjugate:
    """Conjugate over a one-point set ``U = {u0}``: an affine function of ``t``."""

    def __init__(self, u0, f0=0.0):
        self.u0 = np.asarray(u0, dtype=float)
        self.f0 = float(f0)

    def value(self, t):
        return float(np.dot(self.u0, t)) - self.f0

    def maximizer(self, t):
        return self.u0


class _ConjugateComposition(BdcProblem):
    def __init__(self, emap, fstar, u_bounds):
        lower, upper = (np.asarray(b, dtype=float) for b in u_bounds)
        if lower.shape != (emap.n_components,) or upper.shape != (emap.n_components,):
            raise ValueError("one (lower, upper) pair per map component required")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("coordinate bounds of U must be finite (U compact)")
        self.partition = emap.partition
        self.emap = emap
        self.fstar = fstar
        self.c_plus = np.maximum(-lower, 0.0)
        self.d_plus = np.maximum(upper, 0.0)

    def eval_f(self, theta):
        return float(self.fstar.value(self.emap.value(theta)))

    def eval_h(self, i, theta):
        return float(
            self.c_plus @ self.emap.pos_part(i, theta)
            + self.d_plus @ self.emap.neg_part(i, theta)
        )

    def eval_g(self, i, theta):
        return self.eval_f(theta) + self.eval_h(i, theta)

    def subgrad_h_block(self, i, theta):
        Ja = self.emap.pos_jacobian(i, theta)
        Jb = self.emap.neg_jacobian(i, theta)
        return Ja.T @ self.c_plus + Jb.T @ self.d_plus

    def grad_g_block(self, i, theta):
        # Danskin direction through the achieving maximizer u*, plus grad h.
        u_star = self.fstar.maximizer(self.emap.value(theta))
        Ja = self.emap.pos_jacobian(i, theta)
        Jb = self.emap.neg_jacobian(i, theta)
        return Ja.T @ (u_star + self.c_plus) + Jb.T @ (self.d_plus - u_star)


def conjugate_compose(emap, fstar, u_bounds):
    """Compose a conjugate-function oracle with a componentwise-split map.

    Builds the multi-block DC problem representing ``t -> fstar(t)`` evaluated
    at ``E(theta)``: with per-coordinate bounds ``lower <= u <= upper`` on the
    conjugate's feasible set, the concave side is

        h_i = <max(-lower, 0), a_i> + <max(upper, 0), b_i>

    and ``g_i = fstar(E(theta)) + h_i``, both convex per block.

    Parameters
    ----------
    emap : componentwise-split map, e.g. :class:`AffineBdcMap`
        A vector map ``E(theta)`` whose components split as
        ``a_ij - b_ij``, both convex in block ``i`` with the other blocks
        frozen.  It has ``partition`` (a :class:`BlockPartition`),
        ``n_components`` (``m``), ``value(theta)`` (all ``m`` component
        values), ``pos_part(i, theta)`` and ``neg_part(i, theta)`` (the
        ``a_i`` and ``b_i`` values, shape ``(m,)``), and
        ``pos_jacobian(i, theta)`` and ``neg_jacobian(i, theta)``, whose
        rows are (sub)gradients of ``a_ij`` and ``b_ij`` with respect to
        block ``i``, shape ``(m, d_i)``.
    fstar : conjugate oracle, e.g. :class:`LogSumExpOracle`
        ``value(t) = max_{u in U} <u, t> - f(u)``, and ``maximizer(t)``
        returns a ``u*`` attaining it, so ``value(t) == <maximizer(t), t> -
        f(maximizer(t))``.
    u_bounds : (lower, upper)
        Arrays of per-coordinate extremes of the conjugate's feasible set.
    """
    return _ConjugateComposition(emap, fstar, u_bounds)
