"""Block DC solvers and their supporting machinery.

One block step, ``bdca_step``, serves every loop: take one deterministic
subgradient of the concave part on the chosen block, minimize the resulting
convex surrogate over that block, and check that it descended.  The step is
plain when rho = 0 and proximal when rho > 0; the stochastic step is the same
step on the minibatch problem, ``bdca_step(problem.on(handle), ...)``.
``run`` picks the blocks and records each iteration; the experiment drivers
call the step directly.
Each problem supplies its own inner solver.  The module also houses the
rho/E planning utility, the local smoothness estimator, and the projected
stationarity gap.
"""

import math
import sys
import zlib
from dataclasses import dataclass, field

import numpy as np

from .blocks import at_least, write_csv
from .model import InnerSolverDivergence, residual_blocks

__all__ = [
    "SolverConfig",
    "IterRecord",
    "IterTrace",
    "RhoPlan",
    "InnerSolverDivergence",
    "substream",
    "bdca_step",
    "run",
    "compute_E",
    "rho_from",
    "plan_rho",
    "sqrt_k_preset",
    "smoothness_estimate",
    "gap_L",
    "audit_step_bound",
]


def substream(master_seed, name):
    """Named, replayable random substream derived from one master seed."""
    at_least("seed", master_seed, 0)
    return np.random.default_rng([int(master_seed), zlib.crc32(name.encode())])


@dataclass
class SolverConfig:
    """Outer-loop configuration.

    ``rho`` is the proximal weight (0 disables the proximal term);
    ``batch_size`` switches on minibatch sampling through the problem's
    stochastic oracle.  Every iteration draws its block uniformly with
    replacement.
    """

    n_iters: int
    rho: float = 0.0
    inner_budget: int = 100
    inner_tol: float = 1e-8
    seed: int = 0
    batch_size: int | None = None

    def __post_init__(self):
        at_least("n_iters", self.n_iters, 0)
        at_least("rho", self.rho, 0)
        at_least("inner_budget", self.inner_budget, 1)
        at_least("inner_tol", self.inner_tol, 0)
        if self.batch_size is not None:
            at_least("batch_size", self.batch_size, 1)


@dataclass
class IterRecord:
    k: int
    block: int
    f: float
    g_block: float
    h_block: float
    residual_upper: float
    step_norm: float
    inner_iters: int
    block_grad_gap: float
    noise_norm: float | None = None
    sample_key: int | None = None


@dataclass
class IterTrace:
    """Per-iteration record of one solver run plus the final state."""

    records: list = field(default_factory=list)
    final_theta: np.ndarray | None = None
    final_f: float | None = None

    def __len__(self):
        return len(self.records)

    def column(self, name):
        return np.array([getattr(r, name) for r in self.records], dtype=float)

    def write_csv(self, path):
        """Write the trace; reruns of the same configuration are
        byte-identical."""
        columns = ("k", "block", "f", "g_block", "h_block", "residual_upper",
                   "step_norm", "inner_iters")
        write_csv(path, columns,
                  ([getattr(r, c) for c in columns] for r in self.records))


def bdca_step(problem, theta, i, rho=0.0, budget=100, tol=1e-8):
    """One block-DC step on block ``i``: take one subgradient ``u`` of h_i,
    minimize the convex surrogate ``g_i - <u, .> + rho/2 ||. - theta_i||^2``
    over the block, and check that the surrogate descended.

    ``rho = 0`` is the plain step.  ``rho > 0`` is the proximal step, which
    also guarantees ``||theta_new - theta|| <= (2/rho) ||grad g_i - u_i||``.
    On a minibatch problem ``problem.on(handle)`` it is the stochastic step:
    every oracle of the step is evaluated on that minibatch.  Returns
    ``(theta_new, inner_iters)`` and raises ``InnerSolverDivergence`` when
    the surrogate did not descend or either surrogate value is NaN.  A
    ``rho`` or ``tol`` that is negative or not finite, or a ``budget`` below
    1, raises ``ValueError``.
    """
    at_least("rho", rho, 0)
    at_least("inner budget", budget, 1)
    at_least("tol", tol, 0)
    theta = np.asarray(theta, dtype=float)
    sl = problem.partition.slice_of(i)
    x0 = theta[sl].copy()
    u = problem.subgrad_h_block(i, theta)
    x_new, inner = problem.minimize_block_surrogate(i, theta, u, rho, budget, tol)
    theta_new = theta.copy()
    theta_new[sl] = x_new
    s_old = problem.eval_g(i, theta) - float(np.dot(u, x0))
    s_new = problem.eval_g(i, theta_new) - float(np.dot(u, x_new))
    if rho:
        s_new += 0.5 * rho * float(np.sum((x_new - x0) ** 2))
    if not s_new <= s_old + max(tol, 1e-12) * (1.0 + abs(s_old)):
        raise InnerSolverDivergence(
            "no surrogate descent on block %d (%.6g -> %.6g)" % (i, s_old, s_new))
    return theta_new, inner


def run(problem, config, theta0=None, callback=None):
    """Run the configured solver and return the iteration trace.

    The run is deterministic given the config: block choices and minibatch
    draws flow from named substreams of ``config.seed``.  A stochastic
    iteration draws a handle and steps on the minibatch problem
    ``problem.on(handle)``, which keeps its own evaluations, so the
    full-data point of the records outlives the step.  Each record holds
    the state *before* the step (f, per-block g/h, residual) plus the step
    itself (norm, inner iterations: the problem's own count, for the MLP
    problems the bundle iterations).  ``callback(k, theta_next, record)`` is
    invoked after every iteration.  A non-finite ``f`` or step norm raises
    ``ValueError`` naming the iteration, the block and the value, and so
    does a non-finite ``final_f``, at ``k = n_iters``.
    """
    theta = np.array(
        theta0 if theta0 is not None else problem.initial_point(), dtype=float)
    rng_blocks = substream(config.seed, "blocks")
    rng_batches = substream(config.seed, "minibatches")
    stochastic = config.batch_size is not None

    trace = IterTrace()
    for k in range(config.n_iters):
        i = int(rng_blocks.integers(problem.n_blocks))
        zs = residual_blocks(problem, theta)
        resid = float(np.linalg.norm(np.concatenate(zs)))
        block_gap = float(np.linalg.norm(zs[i]))
        f_val = float(problem.eval_f(theta))
        if not math.isfinite(f_val):
            raise ValueError("non-finite f at k=%d, block %d: %r" % (k, i, f_val))
        g_val = float(problem.eval_g(i, theta))
        h_val = float(problem.eval_h(i, theta))

        step, handle, noise_norm = problem, None, None
        if stochastic:
            handle = problem.sample(rng_batches, config.batch_size)
            step = problem.on(handle)
            z_hat = step.grad_g_block(i, theta) - step.subgrad_h_block(i, theta)
            noise_norm = float(np.linalg.norm(z_hat - zs[i]))

        theta_next, inner = bdca_step(
            step, theta, i, config.rho, config.inner_budget, config.inner_tol)
        step_norm = float(np.linalg.norm(theta_next - theta))
        if not math.isfinite(step_norm):
            raise ValueError(
                "non-finite step norm at k=%d, block %d: %r" % (k, i, step_norm))

        trace.records.append(IterRecord(
            k=k, block=i, f=f_val, g_block=g_val, h_block=h_val,
            residual_upper=resid, step_norm=step_norm,
            inner_iters=inner,
            block_grad_gap=block_gap, noise_norm=noise_norm,
            sample_key=None if handle is None else handle.key))
        theta = theta_next
        if callback is not None:
            callback(k, theta, trace.records[-1])

    trace.final_theta = theta
    trace.final_f = float(problem.eval_f(theta))
    if not math.isfinite(trace.final_f):
        raise ValueError("non-finite final f at k=%d: %r"
                         % (config.n_iters, trace.final_f))
    return trace


def audit_step_bound(trace, rho):
    """Check ``step_norm <= (2/rho)(||grad g - u|| + ||noise||) + 1e-9`` on
    every record; the noise term is zero for deterministic runs and 1e-9
    absorbs rounding.  Returns the worst margin (nonnegative means the audit
    passed everywhere); a NaN margin on any record makes it NaN, which
    fails.  A ``rho`` that is not positive and finite raises ``ValueError``:
    the bound exists only for such a weight."""
    if not 0 < rho < math.inf:
        raise ValueError("rho must be positive and finite, got %r" % (rho,))
    # divide last: 2 / rho overflows for a subnormal rho, and inf * 0 is NaN
    margins = [2.0 * (r.block_grad_gap + (r.noise_norm or 0.0)) / rho + 1e-9
               - r.step_norm for r in trace.records]
    return float(np.min(margins, initial=np.inf))  # np.min keeps a NaN


# ---------------------------------------------------------------------------
# rho / E planning
# ---------------------------------------------------------------------------

@dataclass
class RhoPlan:
    """Proximal-weight plan from a gap bound and a smoothness growth function.

    ``E`` solves ``u^2 = 2 ell(2u) G`` (gradient-norm bound along the run),
    ``L_eff = ell(2E)`` is the effective smoothness, and
    ``rho_min = 2 L_eff (1 + R / E)`` is the weight that keeps every update
    inside the validity ball.  ``E * E <= 2 L_eff G`` and ``rho_min >= 2
    L_eff`` hold in floating point by construction (see ``plan_rho``).  These
    constants are conservative planning aids, not enforced at run time.
    """

    E: float
    L_eff: float
    rho_min: float


def compute_E(ell, G):
    """Largest ``u`` with ``u^2 <= 2 ell(2u) G`` via doubling plus bisection
    to a relative width of 1e-10.

    ``ell`` must be continuous, nondecreasing and positive, and subquadratic
    (``ell(t)/t^2 -> 0``); the caller asserts this.  When ``2 ell(2u) G``
    overflows before ``u^2`` passes it, the error says ``E exceeds the float
    range`` if ``ell(2u)/u^2`` was still falling at the last probes (an
    ``ell`` that looks subquadratic, such as a huge slope), else ``ell not
    subquadratic on probed range``.  An ``ell`` that vanishes on the
    bracket raises ``no positive solution``, and one for which ``u^2``
    underflows before it falls to ``2 ell(2u) G`` raises ``E lies below the
    float range``.
    """
    if not 0 < G < math.inf:
        raise ValueError("G must be positive and finite, got %r" % (G,))

    def excess(u):
        return u * u - 2.0 * float(ell(2.0 * u)) * G

    hi, last, ratio = 1.0, math.inf, math.inf
    while True:
        rhs = 2.0 * float(ell(2.0 * hi)) * G
        if hi * hi - rhs > 0:
            break
        if not math.isfinite(rhs):
            # 2 ell(2u) G overflows before u^2 passes it, so no E can be
            # bracketed.  If 2 ell(2u) G / u^2 was still falling at the
            # last finite probe, ell looks subquadratic there and E lies
            # beyond the float range; otherwise ell does not look
            # subquadratic at all.
            if rhs == math.inf and ratio < last:
                raise ValueError("E exceeds the float range: 2 ell(2u) G "
                                 "overflows at u=%r while ell(2u)/u^2 still "
                                 "falls" % hi)
            raise ValueError("ell not subquadratic on probed range")
        last, ratio = ratio, rhs / hi / hi
        hi *= 2.0
    if not rhs > 0:  # a nondecreasing ell then vanishes on [0, 2 hi]
        raise ValueError("no positive solution: ell(0+) * G vanishes")
    lo = hi / 2.0
    while excess(lo) > 0:
        lo /= 2.0
        if lo * lo < sys.float_info.min:
            # u^2 underflows, so excess(lo) can no longer decide the bracket
            raise ValueError("E lies below the float range: u^2 underflows "
                             "at u=%r before it meets 2 ell(2u) G" % lo)
    while hi - lo > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if excess(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return lo


def rho_from(E, L_eff, R):
    """Minimal proximal weight ``2 L_eff (1 + R / E)``.  The factor
    ``1 + R / E`` rounds to at least 1 for ``R >= 0`` and rounding is
    monotone, so the result is never below ``2 L_eff``."""
    if not 0 < E < math.inf:
        raise ValueError("E must be positive and finite, got %r" % (E,))
    return 2.0 * L_eff * (1.0 + R / E)


def plan_rho(ell, G, R):
    """The ``RhoPlan`` of growth ``ell``, gap bound ``G`` and ``R >= 0``.
    Its invariants hold by construction: ``compute_E`` returns only a ``u``
    with ``u * u - 2 ell(2u) G <= 0`` and ``L_eff`` is that ``ell(2u)``, so
    ``E * E <= 2 L_eff G``; ``rho_from`` keeps ``rho_min >= 2 L_eff``."""
    at_least("R", R, 0)
    E = compute_E(ell, G)
    L_eff = float(ell(2.0 * E))
    return RhoPlan(E=E, L_eff=L_eff, rho_min=rho_from(E, L_eff, R))


def sqrt_k_preset(n_iters, rho_coeff=0.5, batch_coeff=0.5):
    """sqrt(K)-scaled proximal weight and minibatch size for stochastic runs."""
    root = float(np.sqrt(n_iters))
    return rho_coeff * root, max(1, int(np.ceil(batch_coeff * root)))


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def smoothness_estimate(problem, theta_k, theta_next, i, delta=0.25):
    """Secant estimate of the local smoothness of g_i along the last update.

    Probes ``gamma = k delta`` for ``k = 1, ..., floor(1 / delta)`` along
    ``d = block update`` and returns the largest gradient-variation ratio
    ``||grad g_i(theta + gamma d) - grad g_i(theta)|| / (gamma ||d||)``.
    Returns 0 when the block did not move.  A non-finite ratio raises
    ``ValueError`` naming the block, ``gamma`` and the value.
    """
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1], got %r" % (delta,))
    theta_k = np.asarray(theta_k, dtype=float)
    sl = problem.partition.slice_of(i)
    d = np.asarray(theta_next, dtype=float)[sl] - theta_k[sl]
    dnorm = float(np.linalg.norm(d))
    if dnorm == 0.0:
        return 0.0
    g0 = problem.grad_g_block(i, theta_k)
    best = 0.0
    n_steps = int(np.floor(1.0 / delta + 1e-12))
    for step in range(1, n_steps + 1):
        gamma = step * delta
        trial = theta_k.copy()
        trial[sl] = theta_k[sl] + gamma * d
        g1 = problem.grad_g_block(i, trial)
        ratio = float(np.linalg.norm(g1 - g0)) / (gamma * dnorm)
        if not math.isfinite(ratio):
            raise ValueError("non-finite smoothness ratio for block %d at "
                             "gamma=%r: %r" % (i, gamma, ratio))
        best = max(best, ratio)
    return best


def gap_L(problem, theta, z, L):
    """Projected stationarity gap ``max_x <z, theta - x> - L/2 ||x - theta||^2``
    over the problem's (block-separable) domain.

    The maximizer is the blockwise projection of ``theta - z / L``; without
    constraints the gap equals ``||z||^2 / (2 L)``.
    """
    if not 0 < L < math.inf:
        raise ValueError("L must be positive and finite, got %r" % (L,))
    theta = np.asarray(theta, dtype=float)
    z = np.asarray(z, dtype=float)
    x_star = theta - z / L
    for i in range(problem.n_blocks):
        dom = problem.block_domain(i)
        if dom is not None:
            sl = problem.partition.slice_of(i)
            x_star[sl] = dom.project(x_star[sl])
    diff = theta - x_star
    return float(np.dot(z, diff) - 0.5 * L * np.dot(diff, diff))
