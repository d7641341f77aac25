"""The benchmark's workloads: one fixed solve each, plus its correctness checks.

Each workload has ``solve(seed)``, which calls the public experiment
functions of ``bdcopt.experiments`` at protocol shapes, ``fingerprint(out)``,
which reduces the outputs to a number so that repeats can be compared
exactly, ``check(out, seed)``, which returns a list of the checks the outputs
fail, and the number of program seeds in one round.  The checks recompute
what they can with the benchmark's own numpy code, or test a property the
method must have.

How much work one solve does depends on its seed: the inner solvers stop
early or backtrack by different amounts (on ``relu_sqrtk`` the surrogate
evaluations per step range from about 118 to 174).  A round therefore
solves several seeds, so that runs with different ``--seed`` do about the
same work.
"""

import zlib

import numpy as np

from bdcopt import experiments

# --- shapes ------------------------------------------------------------------

SDL = dict(m=10, l=32, n=100, k_nonzero=5, alpha=0.1, q=5,
           inner_x=10, inner_d=5, inner_tol=1e-8)
SDL_OUTER = 20      # alternating iterations of `bdc sdl` (protocol: 700)
SDL_GD_OUTER = 8    # alternating iterations of the GD comparison (protocol: 300)

RELU = dict(task="blobs", layer_dims=(16, 8), n_classes=3, theory_preset=True,
            n_data=3000, batch_size=100, epochs=1)
RELU_WINDOW = 5     # records averaged at each end of the loss curve

TENSOR = dict(dims=(20, 30, 40), rank=5, sweeps=40, noise=0.0)

REL_TOL = 1e-9
GRAD_TOL = 1e-10    # tensor_als: last-factor gradient over its scale


def _substream(seed, name):
    # the program's seeding rule, restated: one generator per named stream
    return np.random.default_rng([int(seed), zlib.crc32(name.encode())])


def _rel_close(a, b, tol=REL_TOL):
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def _digest(*arrays):
    h = zlib.crc32(b"")
    for a in arrays:
        a = np.ascontiguousarray(np.asarray(a, dtype=float))
        h = zlib.crc32(a.tobytes(), h)
    return h


# --- sdl ---------------------------------------------------------------------

def sdl_solve(seed):
    res = experiments.run_sdl_experiment(
        n_outer=SDL_OUTER, n_seeds=1, seed=seed, variants=("l1", "l1_lq"), **SDL)
    gd_rows = experiments.run_sdl_gd_comparison(
        n_outer=SDL_GD_OUTER, n_seeds=1, seed=seed, **SDL)
    return {"res": res, "gd": gd_rows}


def sdl_fingerprint(out):
    res = out["res"]
    rows = [(r["oracle_calls"], r["bdca_final"], r["gd_final"]) for r in out["gd"]]
    return _digest(res.rec["l1"], res.rec["l1_lq"], res.sparsity["l1"],
                   res.sparsity["l1_lq"], [res.true_sparsity], rows)


def top_q_sum(X, Q):
    """Columnwise sum of the Q largest |entries|, ties to the lowest index."""
    idx = np.argsort(-np.abs(X), axis=0, kind="stable")[:Q]
    return float(np.sum(np.abs(np.take_along_axis(X, idx, axis=0))))


def top_q_sign(X, Q):
    """Columnwise largest-Q subgradient: signs on the top-Q set, zero elsewhere."""
    idx = np.argsort(-np.abs(X), axis=0, kind="stable")[:Q]
    S = np.zeros_like(X)
    vals = np.take_along_axis(X, idx, axis=0)
    np.put_along_axis(S, idx, np.where(vals >= 0, 1.0, -1.0), axis=0)
    return S


def sdl_gd_reference(seed, n_steps, data_index=0):
    """Joint subgradient descent on ``0.5||Y - DX||^2 + alpha(|X|_1 - top_Q)``,
    as the program's GD baseline defines it, on the same planted data."""
    from bdcopt.problems.sdl import sdl_synthetic

    p = SDL
    Y, _, _ = sdl_synthetic(p["m"], p["l"], p["n"], p["k_nonzero"],
                            seed=_substream(seed, "data%d" % data_index))
    D = _substream(seed, "init%d" % data_index).standard_normal((p["m"], p["l"]))
    D /= np.linalg.norm(D, axis=0)
    X = np.zeros((p["l"], p["n"]))
    alpha, Q = p["alpha"], p["q"]

    def objective(D, X):
        fit = 0.5 * float(np.sum((Y - D @ X) ** 2))
        return fit + alpha * (float(np.sum(np.abs(X))) - top_q_sum(X, Q))

    val = objective(D, X)
    for _ in range(n_steps):
        eta = 1.0 / (np.linalg.norm(D, 2) ** 2 + np.linalg.norm(X, 2) ** 2)
        R = D @ X - Y
        gD = R @ X.T
        gX = D.T @ R + alpha * np.sign(X) - alpha * top_q_sign(X, Q)
        D = D - eta * gD
        X = X - eta * gX
        norms = np.linalg.norm(D, axis=0)
        D = D / np.maximum(norms, 1.0)
        val = objective(D, X)
    return val


def sdl_check(out, seed):
    res, rows = out["res"], out["gd"]
    bad = []
    for v in ("l1", "l1_lq"):
        if res.rec[v][0, 0] != 1.0 or res.sparsity[v][0, 0] != 1.0:
            bad.append("sdl: iteration 0 of %s is not (error 1, sparsity 1)" % v)
    if not (res.rec["l1_lq"][0, -1] < res.rec["l1"][0, -1]
            and res.sparsity["l1_lq"][0, -1] > res.sparsity["l1"][0, -1]):
        bad.append("sdl: l1_lq does not beat l1 on final error and sparsity")
    if res.true_sparsity != 1.0 - SDL["k_nonzero"] / SDL["l"]:
        bad.append("sdl: true_sparsity is not 1 - k/l")
    for r in rows:
        ref = sdl_gd_reference(seed, r["oracle_calls"], r["seed"])
        if not _rel_close(r["gd_final"], ref):
            bad.append("sdl: gd_final %r differs from the recomputed %r"
                       % (r["gd_final"], ref))
        if not 0.0 <= r["bdca_final"] <= r["gd_final"]:
            bad.append("sdl: bdca_final %r is not in [0, gd_final]" % r["bdca_final"])
    return bad


# --- relu_sqrtk ----------------------------------------------------------------

def relu_solve(seed):
    return experiments.run_relu_experiment(seed=seed, **RELU)


def relu_fingerprint(res):
    t = res.trace
    cols = [t.column(c) for c in ("f", "step_norm", "inner_iters", "block_grad_gap",
                                  "noise_norm", "block")]
    return _digest(np.array(res.loss_rows), np.array(res.scatter_rows).ravel(),
                   t.final_theta, [res.rho, res.batch_size], *cols)


def plain_ce_loss(layers, x, labels):
    """Mean cross-entropy of a plain ReLU network ``layers = [(W, b), ...]``."""
    a = x
    for W, b in layers[:-1]:
        a = np.maximum(a @ W.T + b, 0.0)
    W, b = layers[-1]
    logits = a @ W.T + b
    m = logits.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
    return float(np.mean(lse - logits[np.arange(len(labels)), labels]))


def relu_check(res, seed):
    bad = []
    prob = res.problem
    x, y = prob.task.inputs, prob.task.labels
    first = plain_ce_loss(prob.params(prob.initial_point()).layers, x, y)
    final = plain_ce_loss(prob.params(res.trace.final_theta).layers, x, y)
    if not _rel_close(res.loss_rows[0][1], first):
        bad.append("relu: first loss %r differs from the plain forward pass %r"
                   % (res.loss_rows[0][1], first))
    if not _rel_close(res.loss_rows[-1][1], final):
        bad.append("relu: final loss %r differs from the plain forward pass %r"
                   % (res.loss_rows[-1][1], final))
    losses = [r[1] for r in res.loss_rows]
    if not np.mean(losses[-RELU_WINDOW:]) < np.mean(losses[:RELU_WINDOW]):
        bad.append("relu: end-window mean loss is not below the start-window mean")
    for r in res.trace.records:
        # the same 1e-9 rounding slack as the program's audit_step_bound
        bound = (2.0 / res.rho) * (r.block_grad_gap + (r.noise_norm or 0.0)) + 1e-9
        if not r.step_norm <= bound:
            bad.append("relu: step %d has norm %r above its bound %r"
                       % (r.k, r.step_norm, bound))
    return bad


# --- tensor_als ------------------------------------------------------------------

def tensor_solve(seed):
    rows, per_update, _, theta = experiments.run_tensor_experiment(seed=seed, **TENSOR)
    return {"rows": rows, "per_update": per_update, "theta": theta}


def tensor_fingerprint(out):
    return _digest(np.array(out["rows"]), out["per_update"], out["theta"])


def outer_sum(factors):
    """``sum_r a_r (x) b_r (x) c_r`` by rank-one outer products."""
    T = 0.0
    for cols in zip(*(F.T for F in factors)):
        T = T + np.multiply.outer(np.multiply.outer(cols[0], cols[1]), cols[2])
    return T


def tensor_check(out, seed):
    bad = []
    dims, rank = TENSOR["dims"], TENSOR["rank"]
    rng = _substream(seed, "data")
    T = outer_sum([rng.standard_normal((m, rank)) for m in dims])
    init = _substream(seed, "init")
    f0 = 0.5 * float(np.sum((outer_sum([init.standard_normal((m, rank))
                                        for m in dims]) - T) ** 2))
    if not _rel_close(out["rows"][0][1], f0):
        bad.append("tensor: initial objective %r differs from the recomputed %r"
                   % (out["rows"][0][1], f0))
    theta, pos, factors = np.asarray(out["theta"]), 0, []
    for m in dims:
        factors.append(theta[pos:pos + m * rank].reshape(m, rank))
        pos += m * rank
    rel = float(np.linalg.norm(outer_sum(factors) - T) / np.linalg.norm(T))
    reported = out["rows"][-1][2]
    if not abs(rel - reported) <= REL_TOL * max(rel, reported) + 1e-12:
        bad.append("tensor: final relative error %r differs from the recomputed %r"
                   % (reported, rel))
    # the last update is an exact minimisation over the last factor, so the
    # gradient there is rounding: at most 1.1e-15 of this scale over seeds
    # 0-399, stalled ones included, and 0.14-0.29 at the start factors
    A, B, C = factors
    G = np.einsum("ijk,ir,jr->kr", outer_sum(factors) - T, A, B)
    scale = np.linalg.norm(T) * np.linalg.norm(A) * np.linalg.norm(B)
    if not np.linalg.norm(G) <= GRAD_TOL * scale:
        bad.append("tensor: gradient in the last factor is %r of its scale, not 0"
                   % (np.linalg.norm(G) / scale))
    pu = np.asarray(out["per_update"])
    updates = len(dims) * TENSOR["sweeps"]
    if len(out["rows"]) != TENSOR["sweeps"] + 1 or len(pu) != updates + 1:
        bad.append("tensor: %d rows and %d objectives, not %d and %d"
                   % (len(out["rows"]), len(pu), TENSOR["sweeps"] + 1, updates + 1))
    if not pu[-1] < pu[0]:
        bad.append("tensor: final objective %r is not below the start %r"
                   % (pu[-1], pu[0]))
    # exact block minimisation never raises the objective; rises below
    # 1e-12 of the start are rounding at a converged point (seen: 1e-26
    # against a start near 1e4)
    rises = np.flatnonzero(np.diff(pu) > 1e-12 * pu[0])
    if rises.size:
        k = int(rises[0])
        bad.append("tensor: objective rises at update %d (%r -> %r)"
                   % (k + 1, pu[k], pu[k + 1]))
    return bad


# name -> (solve, fingerprint, check, program seeds per round); relu_sqrtk's
# solve time varies most with the seed (11 % standard deviation over 48
# seeds), so its round is the longest: one untraced round nearly fills a
# 20 s run
WORKLOADS = {
    "sdl": (sdl_solve, sdl_fingerprint, sdl_check, 4),
    "relu_sqrtk": (relu_solve, relu_fingerprint, relu_check, 12),
    "tensor_als": (tensor_solve, tensor_fingerprint, tensor_check, 4),
}


def program_seeds(workload, seed):
    """The program seeds of one round: ``k * seed`` to ``k * seed + k - 1``."""
    k = WORKLOADS[workload][3]
    return [k * seed + j for j in range(k)]
