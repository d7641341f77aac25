"""Reproducible desk-scale experiment drivers.

Every driver is deterministic given its master seed: data generation,
initialization, block choices and minibatches each draw from a named
substream, so component-level replay is possible.  Drivers return plain
arrays/rows; CSV emission lives with the command-line harness.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import relu
from .blocks import at_least, count
from .model import residual_upper
from .problems.mlp import MlpTask, MlpTaskProblem, gaussian_blobs, sine_regression
from .problems.sdl import (VARIANTS, SdlInstance, SdlProblem, check_lq_q,
                           gd_baseline_sdl, sdl_synthetic)
from .problems.cp import CpInstance, CpProblem, cp_reconstruct
from .solvers import SolverConfig, bdca_step, run, smoothness_estimate, sqrt_k_preset, substream

__all__ = [
    "SdlExperimentResult",
    "run_sdl_experiment",
    "sdl_band_columns",
    "run_sdl_gd_comparison",
    "ReluRunResult",
    "TASKS",
    "run_relu_experiment",
    "run_tensor_experiment",
    "tensor_stalled",
]


# ---------------------------------------------------------------------------
# sparse dictionary learning
# ---------------------------------------------------------------------------

@dataclass
class SdlExperimentResult:
    true_sparsity: float
    rec: dict      # variant -> (n_seeds, outer iterations + 1)
    sparsity: dict # variant -> (n_seeds, outer iterations + 1)


def _check_sdl_settings(m, l, n, alpha, n_outer, n_seeds, inner_x, inner_d,
                        inner_tol):
    for name, value in (("m", m), ("l", l), ("n", n), ("n_seeds", n_seeds),
                        ("inner_x", inner_x), ("inner_d", inner_d)):
        count(name, value, 1)
    count("n_outer", n_outer, 0)
    for name, value in (("alpha", alpha), ("inner_tol", inner_tol)):
        at_least(name, value, 0)


def _sdl_seed_data(seed, j, m, l, n, k_nonzero):
    """Seed ``j``'s planted data ``Y`` and unit-column start dictionary
    ``D0``, from the ``data<j>`` and ``init<j>`` substreams of ``seed``; every
    run on seed ``j`` shares them (the instances make them read-only)."""
    Y, _, _ = sdl_synthetic(m, l, n, k_nonzero, seed=substream(seed, "data%d" % j))
    D0 = substream(seed, "init%d" % j).standard_normal((m, l))
    D0 /= np.linalg.norm(D0, axis=0)
    return Y, D0


def _sdl_single_run(variant, Y, D0, alpha, q, n_outer, inner_x, inner_d, inner_tol):
    l, n = D0.shape[1], Y.shape[1]
    inst = SdlInstance(Y=Y, D=D0, X=np.zeros((l, n)), alpha=alpha, Q=q, variant=variant)
    prob = SdlProblem(inst)
    theta = prob.initial_point()
    # pairwise numpy sums, not BLAS dots, so the error does not follow the
    # BLAS thread count
    y_norm = math.sqrt(float(np.sum(Y * Y)))

    def metrics(th):
        D, X = prob.unpack(th)
        R = Y - D @ X
        return math.sqrt(float(np.sum(R * R))) / y_norm, float(np.mean(X == 0.0))

    recs, spars = [], []
    r, s = metrics(theta)
    recs.append(r); spars.append(s)
    oracle_calls = 0
    for _ in range(n_outer):
        # codes first, then the dictionary, matching the alternating protocol
        theta, inner = bdca_step(prob, theta, 1, budget=inner_x, tol=inner_tol)
        oracle_calls += inner
        theta, inner = bdca_step(prob, theta, 0, budget=inner_d, tol=inner_tol)
        oracle_calls += inner
        r, s = metrics(theta)
        recs.append(r); spars.append(s)
    return np.array(recs), np.array(spars), prob, theta, oracle_calls


def run_sdl_experiment(m=10, l=32, n=100, k_nonzero=5, alpha=0.1, q=5,
                       n_outer=700, n_seeds=10, seed=0,
                       inner_x=10, inner_d=5, inner_tol=1e-8,
                       variants=("l1", "l1_lq")):
    """Alternating block-DC runs of both code penalties over a seed sweep.

    Reconstruction error is ``||Y - D X||_F / ||Y||_F``; sparsity counts exact
    zeros in the code matrix (the soft-threshold step produces exact zeros).
    A non-integer count, an ``m``, ``l``, ``n``, ``n_seeds``, ``inner_x`` or
    ``inner_d`` below 1, a negative ``n_outer``, a negative or non-finite
    ``alpha`` or ``inner_tol``, ``variants`` empty or naming anything but
    ``"l1"`` and ``"l1_lq"``, or a ``q`` that is not an integer in
    ``[1, l]`` for the ``l1_lq`` variant raises before any data is drawn.
    """
    _check_sdl_settings(m, l, n, alpha, n_outer, n_seeds, inner_x, inner_d,
                        inner_tol)
    if not variants or not set(variants) <= set(VARIANTS):
        raise ValueError("variants must name one or more of %s, got %r"
                         % (", ".join(map(repr, VARIANTS)), variants))
    if "l1_lq" in variants:
        check_lq_q(q, l)
    rec = {v: [] for v in variants}
    spars = {v: [] for v in variants}
    for j in range(n_seeds):
        Y, D0 = _sdl_seed_data(seed, j, m, l, n, k_nonzero)
        for v in variants:
            r, s, *_ = _sdl_single_run(v, Y, D0, alpha, q, n_outer,
                                       inner_x, inner_d, inner_tol)
            rec[v].append(r)
            spars[v].append(s)
    return SdlExperimentResult(
        true_sparsity=1.0 - k_nonzero / l,
        rec={v: np.array(a) for v, a in rec.items()},
        sparsity={v: np.array(a) for v, a in spars.items()})


def sdl_band_columns(arr):
    """Seed-sweep summary: mean, min/max band, and mean +/- 2 sd band."""
    mean = arr.mean(axis=0)
    sd = arr.std(axis=0)
    return {
        "mean": mean,
        "lower_minmax": arr.min(axis=0),
        "upper_minmax": arr.max(axis=0),
        "lower_2sd": mean - 2.0 * sd,
        "upper_2sd": mean + 2.0 * sd,
    }


def run_sdl_gd_comparison(m=10, l=32, n=100, k_nonzero=5, alpha=0.1, q=5,
                          n_outer=300, n_seeds=3, seed=0,
                          inner_x=10, inner_d=5, inner_tol=1e-8):
    """Block-DC against joint adaptive-step gradient descent on the nonconvex
    code penalty, at equal first-order oracle budgets.

    One oracle call is one block-gradient evaluation: block-DC spends its
    inner iterations, the baseline spends one call per joint step.  Returns
    per-seed final objectives and the call budget.  A non-integer count, an
    ``m``, ``l``, ``n``, ``n_seeds``, ``inner_x`` or ``inner_d`` below 1, a
    negative ``n_outer``, a negative or non-finite ``alpha`` or
    ``inner_tol``, or a ``q`` that is not an integer in ``[1, l]`` (the
    ``l1_lq`` penalty always runs) raises before any data is drawn.
    """
    _check_sdl_settings(m, l, n, alpha, n_outer, n_seeds, inner_x, inner_d,
                        inner_tol)
    check_lq_q(q, l)
    rows = []
    for j in range(n_seeds):
        Y, D0 = _sdl_seed_data(seed, j, m, l, n, k_nonzero)
        _, _, prob, theta, calls = _sdl_single_run(
            "l1_lq", Y, D0, alpha, q, n_outer, inner_x, inner_d, inner_tol)
        gd_vals = gd_baseline_sdl(prob.instance, calls)
        rows.append({"seed": j, "oracle_calls": calls,
                     "bdca_final": float(prob.eval_f(theta)),
                     "gd_final": float(gd_vals[-1])})
    return rows


# ---------------------------------------------------------------------------
# toy network training
# ---------------------------------------------------------------------------

@dataclass
class ReluRunResult:
    trace: object
    loss_rows: list      # (k, loss, residual_upper)
    scatter_rows: list   # (logG, logLhat, t, block)
    problem: MlpTaskProblem
    rho: float
    batch_size: int


TASKS = ("blobs", "sine")  # the tasks run_relu_experiment trains on


def _build_task(task, layer_dims, n_data, n_classes, rng_data, rng_init):
    if task == "blobs":
        x, y = gaussian_blobs(n_data, n_classes, seed=rng_data)
        dims = (2,) + tuple(layer_dims) + (n_classes,)
        loss = "ce"
    elif task == "sine":
        x, y = sine_regression(n_data, seed=rng_data)
        dims = (1,) + tuple(layer_dims) + (1,)
        loss = "mse"
    else:
        raise ValueError("task must be one of %s, got %r"
                         % (", ".join(map(repr, TASKS)), task))
    net = relu.random_params(dims, rng_init)
    return MlpTask(inputs=x, labels=y, net=net, loss=loss)


def run_relu_experiment(task="blobs", layer_dims=(16, 8), n_data=200, n_classes=3,
                        epochs=5, batch_size=16, rho=1.0, theory_preset=False,
                        inner_budget=25, stride=10, seed=0):
    """Stochastic proximal block-DC training of a toy network.

    Records the loss curve and, every ``stride`` iterations, the local
    smoothness estimate of the convex side along the realized update of the
    selected block (log gradient norm vs log estimate scatter).
    With ``theory_preset`` the proximal weight and minibatch size follow
    ``sqrt_k_preset`` of the total iteration count.  A non-integer count or
    ``layer_dims`` entry, an ``n_data``, ``batch_size`` or ``inner_budget``
    below 1, a negative ``epochs`` or ``stride`` (0 records no estimates), a
    negative or non-finite ``rho`` or, for ``blobs``, ``n_classes`` below 2
    raises before any solve, with or without the preset.  A non-finite gradient
    norm or smoothness ratio at a recorded point raises ``ValueError``
    naming the iteration, the block and the value, and for the ratio the
    probe's ``gamma``.
    """
    for k, d in enumerate(layer_dims):
        count("layer_dims[%d]" % k, d)
    count("n_data", n_data, 1)
    if task == "blobs":  # sine regression has no classes
        count("n_classes", n_classes, 2)
    count("epochs", epochs, 0)
    count("batch_size", batch_size, 1)
    count("stride", stride, 0)
    at_least("rho", rho, 0)  # as given: the preset replaces it
    mlp_task = _build_task(task, layer_dims, n_data, n_classes,
                           substream(seed, "data"), substream(seed, "init"))
    problem = MlpTaskProblem(mlp_task)
    n_iters = epochs * max(1, int(np.ceil(n_data / batch_size)))
    if theory_preset and n_iters > 0:
        rho, batch_size = sqrt_k_preset(n_iters)

    scatter = []

    def callback(k, theta, theta_next, record):
        if stride > 0 and k % stride == 0:
            i = record.block
            # the gradient at theta first: the estimate's base gradient is then a hit
            gnorm = float(np.linalg.norm(problem.grad_g_block(i, theta)))
            if not math.isfinite(gnorm):
                raise ValueError("non-finite gradient norm at k=%d, block %d: %r"
                                 % (k, i, gnorm))
            try:
                lhat = smoothness_estimate(problem, theta, theta_next, i)
            except ValueError as err:  # it names the block, gamma and value
                raise ValueError("at k=%d, %s" % (k, err)) from None
            if lhat > 0 and gnorm > 0:
                scatter.append((float(np.log(gnorm)), float(np.log(lhat)), k, i))

    cfg = SolverConfig(n_iters=n_iters, rho=rho, inner_budget=inner_budget,
                       seed=seed, batch_size=batch_size)
    trace = run(problem, cfg, callback=callback)
    loss_rows = [(r.k, r.f, r.residual_upper) for r in trace.records]
    if trace.records:
        loss_rows.append((len(trace.records), trace.final_f,
                          residual_upper(problem, trace.final_theta)))
    return ReluRunResult(trace=trace, loss_rows=loss_rows, scatter_rows=scatter,
                         problem=problem, rho=rho, batch_size=batch_size)


# ---------------------------------------------------------------------------
# tensor factorization
# ---------------------------------------------------------------------------

def run_tensor_experiment(dims=(4, 5, 6), rank=2, sweeps=200, seed=0, noise=0.0):
    """Alternating exact block minimization on a planted low-rank tensor.

    Returns per-sweep rows ``(sweep, objective, rel_error)``, the per-block
    objective values (for monotonicity audits), and the problem.

    Plain ALS can stall in a swamp far from the planted tensor, and nothing
    here escapes it: at 40 sweeps on dims (20, 30, 40) with rank 5, about one
    seed in six (seeds 8, 12, 28, 32, 34, 35 and 36 of 0-40) ends at relative
    error 0.26-0.47.  ``tensor_stalled(rows, noise)`` gives the verdict.
    Bad ``dims``, a non-integer ``rank`` or ``sweeps``, a ``rank`` below 1,
    negative ``sweeps``, or a negative, NaN or infinite ``noise`` raise
    before any solve.  So does a noise large enough to overflow the tensor,
    which ``CpInstance`` rejects as non-finite data, or one that leaves the
    tensor finite but makes the starting objective overflow.
    """
    for k, d in enumerate(dims):
        count("dims[%d]" % k, d)
    if len(dims) < 2 or len(dims) > 4 or any(d < 1 for d in dims):
        raise ValueError("dims must be 2 to 4 positive mode sizes, got %r"
                         % (dims,))
    count("rank", rank, 1)
    count("sweeps", sweeps, 0)
    at_least("noise", noise, 0)
    rng_data = substream(seed, "data")
    true = [rng_data.standard_normal((m, rank)) for m in dims]
    T = cp_reconstruct(true)
    rng_init = substream(seed, "init")
    factors = [rng_init.standard_normal((m, rank)) for m in dims]
    with np.errstate(over="ignore"):  # an overflow fails as inf, just below
        if noise:
            T = T + noise * rng_data.standard_normal(T.shape)
        prob = CpProblem(CpInstance(tensor=T, rank=rank, factors=factors))
        theta = prob.initial_point()
        f0 = prob.eval_f(theta)
    if not np.isfinite(f0):
        raise ValueError("non-finite objective at sweep 0: %r" % (f0,))
    rows = [(0, f0, prob.relative_error(theta))]
    per_update = [f0]
    for sweep in range(1, sweeps + 1):
        for i in range(len(dims)):
            theta, _ = bdca_step(prob, theta, i)
            per_update.append(prob.eval_f(theta))
        rows.append((sweep, per_update[-1], prob.relative_error(theta)))
    return rows, per_update, prob, theta


STALL_WINDOW = 10        # sweeps over which the objective must still fall
STALL_REL_ERROR = 1e-3   # converged noise-free runs end at <= 9e-9
STALL_DROP = 1e-2        # swamps fall by <= 7e-4 of f over the last window


def tensor_stalled(rows, noise):
    """Stall verdict of a ``run_tensor_experiment`` run from its rows
    ``(sweep, objective, rel_error)``: True when the run ends far from the
    planted tensor (``rel_error > STALL_REL_ERROR``) and its objective fell
    by less than ``STALL_DROP`` of itself over the last ``STALL_WINDOW``
    sweeps.  None when noise sets the error floor or the run is shorter
    than the window."""
    if noise > 0 or len(rows) <= STALL_WINDOW:
        return None
    f_then, f_end, rel = rows[-1 - STALL_WINDOW][1], rows[-1][1], rows[-1][2]
    return bool(rel > STALL_REL_ERROR and (f_then - f_end) < STALL_DROP * f_then)
