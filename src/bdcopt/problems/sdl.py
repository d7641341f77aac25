"""Sparse dictionary learning as a two-block DC problem.

Data ``Y`` (m x n) is approximated by ``D X`` with dictionary columns in the
unit 2-ball and either a plain ``l1`` code penalty or the tighter nonconvex
surrogate ``l1 - largest_Q``.  Both blocks share the convex side
``0.5 ||Y - D X||_F^2 + alpha ||X||_1``; the concave side is the columnwise
largest-Q norm (zero for the plain variant, and constant in ``D``).

The block surrogates' inner solvers live here too, both in Gram form so
that an iteration makes few numpy calls.  On the code block, soft-threshold
proximal gradient at the fixed step ``1/L``, ``L = ||D||_2^2 + rho`` (from
the small Gram matrix, as the GD baseline takes it): the forward step is
the affine map ``A x + c`` with ``A = I - (D^T D + rho I)/L``, one GEMM and
one add, and the soft-threshold is ``v - clip(v, -alpha t, alpha t)``.  On
the dictionary block, Frank-Wolfe with exact line search over the
column-ball product, on ``X X^T`` and ``Y X^T`` formed once per solve, with
the gradient updated along each step instead of a residual.

The columnwise largest-Q terms share one top-Q kernel, :func:`_top_q`:
``Q`` argmax passes over a scratch ``|X|``, which give the same indices as
a stable descending sort, bit for bit, at ``O(Q l n)`` cost.  The sums and
sign patterns read and write the selected entries by plain fancy indexing,
and the public 1-D :func:`lq_norm` and :func:`lq_subgrad` run the same
kernel on one column.  The data of an :class:`SdlInstance` must be finite.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..model import BallProductDomain, BdcProblem
from ..blocks import BlockPartition, all_finite, at_least, count

__all__ = [
    "sdl_synthetic",
    "lq_norm",
    "lq_subgrad",
    "check_lq_q",
    "SdlInstance",
    "SdlProblem",
    "gd_baseline_sdl",
    "inner_prox_gradient",
    "inner_frank_wolfe_ball_product",
]

VARIANTS = ("l1", "l1_lq")


def sdl_synthetic(m=10, l=32, n=100, k_nonzero=5, seed=0):
    """Planted dictionary-learning data ``Y = D* X*``.

    ``D*`` has i.i.d. standard normal entries with unit-normalized columns;
    every column of ``X*`` has exactly ``k_nonzero`` standard normal entries
    at uniformly chosen positions.  Deterministic given ``seed``.
    """
    count("k_nonzero", k_nonzero, 1)
    if k_nonzero > l:
        raise ValueError("k_nonzero cannot exceed the number of atoms")
    rng = np.random.default_rng(seed)
    D = rng.standard_normal((m, l))
    D /= np.linalg.norm(D, axis=0)
    X = np.zeros((l, n))
    for j in range(n):
        rows = rng.choice(l, size=k_nonzero, replace=False)
        X[rows, j] = rng.standard_normal(k_nonzero)
    return D @ X, D, X


def _top_q(X, Q):
    """Row indices of the Q largest absolute entries of each column of the
    matrix ``X``, as a ``(Q, n)`` array: largest first, ties to the lowest
    index, exact zeros (of either sign) included.

    Q passes of ``argmax`` along the rows of a scratch ``|X|^T`` (a column
    of ``X`` per contiguous row); each pass marks its picks with -1, below
    every ``|x|``, so no entry is picked twice.  ``argmax`` returns the
    first of equal maxima, so the indices are those of the stable
    descending sort, bit for bit.  The cost is ``O(Q l n)``.  Only NaN
    orders differently (``argmax`` takes it first, the sort puts it last);
    :class:`SdlInstance` rejects non-finite data.
    """
    l, n = X.shape
    A = np.abs(X.T, order="C")
    flat = A.reshape(-1)
    starts = np.arange(0, n * l, l)
    top = np.empty((Q, n), dtype=np.intp)
    for k in range(Q):
        A.argmax(axis=1, out=top[k])
        flat[starts + top[k]] = -1.0
    return top


def _lq_sums(X, top):
    """Largest-Q norm of each column of ``X``, given ``top = _top_q(X, Q)``.

    A column's Q entries are summed as one contiguous row, which rounds as
    ``np.sum`` does on the 1-D column (pairwise once Q >= 8); a sum down
    axis 0 would add them in plain order instead.
    """
    picked = X[top, np.arange(X.shape[1])]
    return np.abs(picked.T, order="C").sum(axis=-1)


def _lq_signs(X, top):
    """The sign pattern of ``X`` on ``top = _top_q(X, Q)``, zero elsewhere;
    a selected zero entry contributes +1."""
    cols = np.arange(X.shape[1])
    S = np.zeros_like(X)
    S[top, cols] = np.where(X[top, cols] >= 0, 1.0, -1.0)
    return S


def _column(x, Q):
    """``x`` as a one-column float matrix, with Q checked against its length."""
    x = np.asarray(x, dtype=float)
    if not 1 <= Q <= x.size:
        raise ValueError("Q must lie in [1, len(x)]")
    return x[:, None]


def lq_norm(x, Q):
    """Sum of the Q largest absolute entries."""
    X = _column(x, Q)
    return float(_lq_sums(X, _top_q(X, Q))[0])


def lq_subgrad(x, Q):
    """One subgradient of the largest-Q norm: the sign pattern on the top-Q
    set, zero elsewhere.  Ties break to the lowest index; a selected zero
    entry contributes +1."""
    X = _column(x, Q)
    return _lq_signs(X, _top_q(X, Q))[:, 0]


def check_lq_q(Q, l):
    """Reject a largest-Q count that is not an integer in ``[1, l]``."""
    count("Q", Q)
    if not 1 <= Q <= l:
        raise ValueError("Q must lie in [1, l] for the l1_lq variant, "
                         "got Q=%r with l=%d" % (Q, l))


@dataclass
class SdlInstance:
    """Problem data plus the current (D, X) state used as the initial point.

    ``Y``, ``D`` and ``X`` must be finite: a NaN or infinity raises, naming
    the array and its first bad index.  Once they pass their checks they
    are made read-only, so no later write can bypass them.
    """

    Y: np.ndarray
    D: np.ndarray
    X: np.ndarray
    alpha: float = 0.1
    Q: int = 5
    variant: str = "l1_lq"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError("variant must be one of %r" % (VARIANTS,))
        m, l = self.D.shape
        if self.Y.shape[0] != m or self.X.shape != (l, self.Y.shape[1]):
            raise ValueError("inconsistent Y/D/X shapes")
        if self.variant == "l1_lq":
            check_lq_q(self.Q, l)
        at_least("alpha", self.alpha, 0)
        for name in ("Y", "D", "X"):
            all_finite(name, getattr(self, name))
        norms = np.linalg.norm(self.D, axis=0)
        if np.any(norms > 1.0 + 1e-10):
            raise ValueError("dictionary columns must satisfy ||d_j|| <= 1")
        for data in (self.Y, self.D, self.X):
            data.flags.writeable = False


class SdlProblem(BdcProblem):
    """Two blocks: 0 = dictionary (flat m*l), 1 = codes (flat l*n)."""

    def __init__(self, instance):
        self.instance = instance
        m, l = instance.D.shape
        n = instance.Y.shape[1]
        self.m, self.l, self.n = m, l, n
        self.partition = BlockPartition([m * l, l * n])
        self._domain = BallProductDomain(m, l)

    # -- packing -------------------------------------------------------------
    def unpack(self, theta):
        theta = np.asarray(theta, dtype=float)
        D = theta[: self.m * self.l].reshape(self.m, self.l)
        X = theta[self.m * self.l:].reshape(self.l, self.n)
        return D, X

    def pack(self, D, X):
        return np.concatenate([D.ravel(), X.ravel()])

    def initial_point(self):
        return self.pack(self.instance.D, self.instance.X)

    def block_domain(self, i):
        return self._domain if i == 0 else None

    # -- oracles ---------------------------------------------------------------
    def _top(self, X):
        """The columnwise top-Q ordering of the codes; None for plain l1."""
        inst = self.instance
        return None if inst.variant == "l1" else _top_q(X, inst.Q)

    def _lq(self, X, top):
        """Sum of the columnwise largest-Q norms, added column by column."""
        return 0.0 if top is None else sum(_lq_sums(X, top).tolist())

    def _objective(self, X, R, top):
        """f from the codes, the residual ``D X - Y`` and ``self._top(X)``."""
        fit = 0.5 * float(np.sum(R * R))
        l1 = float(np.sum(np.abs(X)))
        return fit + self.instance.alpha * (l1 - self._lq(X, top))

    def eval_f(self, theta):
        D, X = self.unpack(theta)
        return self._objective(X, D @ X - self.instance.Y, self._top(X))

    def eval_g(self, i, theta):
        D, X = self.unpack(theta)
        return self._objective(X, D @ X - self.instance.Y, None)

    def eval_h(self, i, theta):
        _, X = self.unpack(theta)
        return self.instance.alpha * self._lq(X, self._top(X))

    def grad_g_block(self, i, theta):
        D, X = self.unpack(theta)
        R = D @ X - self.instance.Y
        if i == 0:
            return (R @ X.T).ravel()
        return (D.T @ R + self.instance.alpha * np.sign(X)).ravel()

    def subgrad_h_block(self, i, theta):
        if i == 0 or self.instance.variant == "l1":
            return np.zeros(self.partition.block_dims[i])
        _, X = self.unpack(theta)
        S = _lq_signs(X, _top_q(X, self.instance.Q))
        return (self.instance.alpha * S).ravel()

    # -- inner solvers ---------------------------------------------------------
    def minimize_block_surrogate(self, i, theta, u, rho, budget, tol):
        D, X = self.unpack(theta)
        Y = self.instance.Y
        alpha = self.instance.alpha
        if i == 0:
            # u == 0 on this block; Frank-Wolfe over the column balls
            D_new, iters = inner_frank_wolfe_ball_product(
                Y, X, D, budget, rho=rho, tol=tol)
            return D_new.ravel(), iters

        U = np.asarray(u).reshape(self.l, self.n)
        X0 = X
        # the gradient's Lipschitz constant ||D||_2^2 + rho; a zero
        # dictionary with rho = 0 leaves the gradient constant, and any
        # positive value holds
        lip = float(_sq_spectral_norm(D)) + rho or 1.0
        # the forward step x - grad(x)/L is the affine map A x + c, with the
        # gradient (D^T D + rho I) x - (D^T Y + U + rho X0)
        H = D.T @ D
        H.flat[::self.l + 1] += rho
        A = np.eye(self.l) - H / lip
        c = (D.T @ Y + U + rho * X0) / lip

        def forward(x):
            V = A @ x.reshape(self.l, self.n)
            V += c
            return V.ravel()

        def prox(v, t):
            return _soft_threshold(v, alpha * t)

        return inner_prox_gradient(forward, prox, X0.ravel(), budget, tol, lip)


def _soft_threshold(v, tau):
    """``sign(v) max(|v| - tau, 0)`` for ``tau >= 0``, as ``v - clip(v, -tau,
    tau)``: the same values, but every zero is ``+0.0``."""
    return v - v.clip(-tau, tau)


def inner_prox_gradient(forward, prox, x0, budget, tol, lipschitz):
    """Proximal-gradient descent from the vector ``x0`` at the fixed step
    ``1/lipschitz``.

    ``forward(x)`` gives the forward (gradient) step ``x - grad(x) /
    lipschitz`` of the smooth part, and ``prox(v, t)`` the nonsmooth part's
    prox with step ``t``; each iteration calls each once.  ``lipschitz``
    must be a positive Lipschitz constant of ``grad``; then every step
    descends (the descent lemma), and the caller's descent check catches
    one that is not.  Stops after ``budget`` iterations or once the
    prox-gradient mapping norm is at most ``tol``; the norm's square is one
    ``np.einsum`` sum, not a BLAS dot.  Returns ``(x, iterations)``.
    """
    if not lipschitz > 0:
        raise ValueError("lipschitz must be > 0, got %r" % (lipschitz,))
    x = np.array(x0, dtype=float, copy=True)
    L = float(lipschitz)
    t = 1.0 / L
    iters = 0
    for _ in range(budget):
        iters += 1
        z = prox(forward(x), t)
        dz = z - x
        x = z
        if L * math.sqrt(np.einsum("i,i", dz, dz)) <= tol:
            break
    return x, iters


def inner_frank_wolfe_ball_product(Y, X, D0, budget, rho=0.0, tol=0.0):
    """Frank-Wolfe from ``D0`` over a product of unit column balls for

        0.5 ||Y - D X||_F^2 + rho/2 ||D - D0||_F^2 .

    The solve is in Gram form: ``P = X X^T`` and ``Y X^T`` are formed once,
    and the gradient ``G = D P - Y X^T + rho (D - D0)`` is kept and updated
    along each step, ``G += step (Delta P + rho Delta)``, with the curvature
    ``<Delta P + rho Delta, Delta>``; no residual ``Y - D X`` is formed.
    The linear minimization oracle is columnwise ``-G / ||G||``, one
    division over the columns of nonzero norm (a zero-gradient column keeps
    its current value; the norms are the sums ``np.linalg.norm`` forms), and
    the step exactly minimizes the one-dimensional quadratic, clamped to
    [0, 1].  Stops after ``budget`` iterations or once the Frank-Wolfe gap
    is at most ``tol``.  Returns ``(D, iterations)``.
    """
    D = np.array(D0, dtype=float, copy=True)
    P = X @ X.T
    G = D @ P - Y @ X.T
    iters = 0
    for _ in range(budget):
        iters += 1
        norms = np.sqrt(np.add.reduce(G * G, axis=0))
        S = D.copy()
        np.divide(-G, norms, out=S, where=norms > 0)
        Delta = S - D
        H = Delta @ P
        if rho:
            H += rho * Delta
        gap = -float(np.sum(G * Delta))
        curv = float(np.sum(H * Delta))
        if curv <= 0 or gap <= tol:
            break
        step = min(max(gap / curv, 0.0), 1.0)
        if step == 0.0:
            break
        D = D + step * Delta
        G += step * H
    return D, iters


def _sq_spectral_norm(A):
    """``||A||_2^2`` as the largest eigenvalue of the Gram matrix on the
    smaller side of ``A`` (``A A^T`` when ``A`` has no more rows than columns,
    else ``A^T A``)."""
    G = A @ A.T if A.shape[0] <= A.shape[1] else A.T @ A
    return np.linalg.eigvalsh(G)[-1]


def gd_baseline_sdl(instance, n_steps):
    """Joint full-batch subgradient descent baseline.

    Every step updates D and X together with the adaptive step size
    ``1 / (||D||_2^2 + ||X||_2^2)`` and re-projects dictionary columns onto
    the unit ball.  Each squared spectral norm is the largest eigenvalue of
    the Gram matrix on the smaller side (the 10 x 10 ``D D^T`` and the
    32 x 32 ``X X^T`` at the protocol sizes), not an SVD; the two agree to
    rounding.  Returns the objective value before each step plus the final
    one (length ``n_steps + 1``), equal bit for bit to ``eval_f``.
    Each iterate forms one residual ``D X - Y`` and one top-Q ordering of X,
    shared by its objective value and its step; the concave side has no
    dictionary part.  A non-finite objective raises, naming the step, before
    the step size is formed from it.
    """
    prob = SdlProblem(instance)
    Y, alpha = instance.Y, instance.alpha
    dom = prob.block_domain(0)
    D, X = prob.unpack(prob.initial_point())
    vals = []
    for k in range(n_steps + 1):
        R = D @ X - Y
        top = prob._top(X)
        vals.append(prob._objective(X, R, top))
        if not np.isfinite(vals[-1]):
            raise ValueError("non-finite objective at GD step %d: %r"
                             % (k, vals[-1]))
        if k == n_steps:
            break
        eta = 1.0 / (_sq_spectral_norm(D) + _sq_spectral_norm(X))
        gx = D.T @ R + alpha * np.sign(X)
        if top is not None:
            gx = gx - alpha * _lq_signs(X, top)
        D = dom.project(D - eta * (R @ X.T)).reshape(D.shape)
        X = X - eta * gx
    return np.array(vals)
