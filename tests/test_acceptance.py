"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report.  Tolerances and runtime limits are pinned in the assertions.
"""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from bdcopt import relu
from bdcopt.blocks import BlockPartition
from bdcopt.cli import main as cli_main
from bdcopt.experiments import (run_relu_experiment, run_sdl_experiment,
                                run_sdl_gd_comparison, run_tensor_experiment)
from bdcopt.monomials import (Atom, AtomDecomposition, BlockDecomposition,
                              Monomial, bdc_block_decompose, dc_atom_bounds,
                              polarize, verify_identity)
from bdcopt.problems import (MlpTask, MlpTaskProblem, QuadraticMinusL1Problem,
                             SdlInstance, SdlProblem, gaussian_blobs,
                             sdl_synthetic)
from bdcopt.solvers import (SolverConfig, audit_step_bound, compute_E,
                            plan_rho, rho_from, run, substream)


def report(num, label, passed, elapsed, limit, detail=""):
    status = "PASS" if passed else "FAIL"
    print("[criterion %02d] %s (%.2fs/%ds): %s %s"
          % (num, status, elapsed, limit, label, detail))
    assert passed, "[criterion %02d] %s %s" % (num, label, detail)
    assert elapsed < limit, "[criterion %02d] runtime %.1fs over %ds" % (num, elapsed, limit)


def test_criterion_01_monomial_bounds_and_block_count():
    t0 = time.perf_counter()
    bounds = dc_atom_bounds(Monomial((1, 1, 2, 4)))
    dec = bdc_block_decompose(Monomial((1, 1, 2, 4)), [(0, 1), (2, 3)])
    ok = bounds == (30, 30) and dec.total_atoms == 9 and dec.atom_counts == (2, 7)
    report(1, "atom-count bounds (30, 30) and 2+7=9 block split", ok,
           time.perf_counter() - t0, 1,
           "bounds=%r counts=%r" % (bounds, dec.atom_counts))


def test_criterion_02_explicit_nine_atom_identity():
    t0 = time.perf_counter()
    F = Fraction
    pair = AtomDecomposition(
        atoms=[Atom(F(1), (1, 1), 0, 2), Atom(F(-1), (1, -1), 0, 2)],
        target=Monomial((1, 1)), scale=F(1, 4))
    six = AtomDecomposition(
        atoms=[Atom(F(5), (1, 1), 0, 6), Atom(F(5), (1, -1), 0, 6),
               Atom(F(3), (1, 3), 0, 6), Atom(F(3), (1, -3), 0, 6),
               Atom(F(-8), (1, 2), 0, 6), Atom(F(-8), (1, -2), 0, 6),
               Atom(F(-3360), (0, 1), 0, 6)],
        target=Monomial((2, 4)), scale=F(1, 3600))
    dec = BlockDecomposition(parts=[((0, 1), pair), ((2, 3), six)],
                             target=Monomial((1, 1, 2, 4)))
    ok, err = verify_identity(dec, Monomial((1, 1, 2, 4)), trials=1000, tol=1e-6)
    ok = ok and dec.total_atoms == 9 and pair.scale * six.scale == F(1, 14400)
    report(2, "nine-atom 1/14400 product identity at 1000 points", ok,
           time.perf_counter() - t0, 1, "max_rel_err=%.3g" % err)


def test_criterion_03_polarization_soundness():
    t0 = time.perf_counter()
    worst = 0.0
    count_ok = True
    for n in range(1, 5):
        for exps in itertools.product(range(9), repeat=n):
            if not 0 < sum(exps) <= 8:
                continue
            m = Monomial(exps)
            dec = polarize(m)
            ok, err = verify_identity(dec, m, trials=40, tol=1e-6)
            worst = max(worst, err)
            full = int(np.prod([b + 1 for b in exps]))
            if m.degree % 2 == 0:
                count_ok &= dec.n_atoms <= full // 2
            else:
                count_ok &= dec.n_atoms == full
            if not ok:
                count_ok = False
                break
    report(3, "polarization verifies for all monomials n<=4, s<=8", count_ok,
           time.perf_counter() - t0, 10, "max_rel_err=%.3g" % worst)


def test_criterion_04_split_equivalence():
    t0 = time.perf_counter()
    rng = substream(104, "nets")
    worst_out = 0.0
    worst_act = 0.0
    for _ in range(200):
        depth = int(rng.integers(2, 5))
        dims = [int(rng.integers(1, 17)) for _ in range(depth + 1)]
        p = relu.random_params(dims, rng)
        x = rng.standard_normal((50, dims[0]))
        st = relu.forward_split(p, x)
        worst_out = max(worst_out, float(np.max(np.abs(
            st.output - relu.forward_standard(p, x)))))
        a = x
        for l, (W, b) in enumerate(p.layers[:-1]):
            a = np.maximum(a @ W.T + b, 0.0)
            worst_act = max(worst_act, float(np.max(np.abs(
                st.z_plus[l] - st.z_minus[l] - a))))
    ok = worst_out <= 1e-10 and worst_act <= 1e-10
    report(4, "split forward equals standard forward (200 nets x 50 inputs)",
           ok, time.perf_counter() - t0, 30,
           "out_err=%.3g act_err=%.3g" % (worst_out, worst_act))


def test_criterion_05_loss_identities():
    t0 = time.perf_counter()
    rng = substream(105, "cases")
    worst = 0.0
    for _ in range(100):
        dims_r = [2, int(rng.integers(2, 9)), 1]
        p = relu.random_params(dims_r, rng)
        x = rng.standard_normal((50, 2))
        y = np.abs(rng.standard_normal(50))
        st = relu.forward_split(p, x)
        F = st.output[:, 0]
        for k in range(50):
            g, h = relu.mse_bdc(p, x[k:k + 1], y[k:k + 1])
            want = (F[k] - y[k]) ** 2
            worst = max(worst, abs(g - h - want) / (1 + abs(want)))
        dims_c = [2, int(rng.integers(2, 9)), 3]
        pc = relu.random_params(dims_c, rng)
        yc = rng.integers(0, 3, size=50)
        Fc = relu.forward_standard(pc, x)
        lse = relu.log_sum_exp(Fc)
        for k in range(50):
            g, h = relu.ce_bdc(pc, x[k:k + 1], yc[k:k + 1])
            want = lse[k] - Fc[k, yc[k]]
            worst = max(worst, abs(g - h - want) / (1 + abs(want)))
    ok = worst <= 1e-9
    report(5, "loss split identities on 10^4 cases", ok,
           time.perf_counter() - t0, 10, "max_rel_err=%.3g" % worst)


def test_criterion_06_blockwise_convexity():
    t0 = time.perf_counter()
    rng = substream(106, "triples")
    worst = -np.inf
    for case in range(250):
        classify = case % 2 == 0
        dims = (3, int(rng.integers(2, 7)), int(rng.integers(2, 7)),
                3 if classify else 1)
        p = relu.random_params(dims, rng)
        x = rng.standard_normal((2, 3))
        y = rng.integers(0, 3, size=2) if classify else np.abs(rng.standard_normal(2))
        loss = relu.ce_bdc if classify else relu.mse_bdc
        theta = p.to_vector()
        part = p.partition()
        for _ in range(40):
            i = int(rng.integers(p.n_layers))
            sl = part.slice_of(i)
            t1, t2 = theta.copy(), theta.copy()
            t1[sl] += rng.standard_normal(sl.stop - sl.start)
            t2[sl] += rng.standard_normal(sl.stop - sl.start)
            mid = theta.copy()
            mid[sl] = 0.5 * (t1[sl] + t2[sl])
            s1 = relu.forward_split(p.with_vector(t1), x)
            s2 = relu.forward_split(p.with_vector(t2), x)
            sm = relu.forward_split(p.with_vector(mid), x)
            for get in (lambda s: s.a_out, lambda s: s.b_out):
                worst = max(worst, float(np.max(
                    get(sm) - 0.5 * (get(s1) + get(s2)))))
            g1, h1 = loss(p.with_vector(t1), x, y, state=s1)
            g2, h2 = loss(p.with_vector(t2), x, y, state=s2)
            gm, hm = loss(p.with_vector(mid), x, y, state=sm)
            worst = max(worst, gm - 0.5 * (g1 + g2), hm - 0.5 * (h1 + h2))
    ok = worst <= 1e-9
    report(6, "blockwise midpoint convexity of A, B, g, h on 10^4 triples",
           ok, time.perf_counter() - t0, 60, "max_violation=%.3g" % worst)


def _kink_free(params, x, margin=1e-3):
    st = relu.forward_split(params, x)
    gaps = [np.min(np.abs(st.pre[0]))]
    for l in range(1, len(st.pre)):
        gaps.append(np.min(np.abs(st.pre[l] - st.z_minus[l])))
    for W, b in params.layers:
        gaps.extend([np.min(np.abs(W)), np.min(np.abs(b))])
    return min(gaps) > margin


def test_criterion_07_gradient_checks():
    t0 = time.perf_counter()
    rng = substream(107, "cases")
    step = 1e-5
    worst = 0.0
    cases = 0
    while cases < 500:
        classify = cases % 2 == 0
        dims = (2, int(rng.integers(2, 6)), int(rng.integers(2, 5)),
                3 if classify else 1)
        layers = []
        for d_in, d_out in zip(dims[:-1], dims[1:]):
            W = rng.uniform(0.1, 1.0, (d_out, d_in)) * rng.choice([-1.0, 1.0], (d_out, d_in))
            b = rng.uniform(0.1, 0.5, d_out) * rng.choice([-1.0, 1.0], d_out)
            layers.append((W, b))
        p = relu.MlpParams(layers)
        x = rng.standard_normal((3, 2))
        if not _kink_free(p, x):
            continue
        y = (rng.integers(0, 3, size=3) if classify
             else np.abs(rng.standard_normal(3)) + 0.5)
        loss = "ce" if classify else "mse"
        obj = relu.ce_bdc if classify else relu.mse_bdc
        block = int(rng.integers(p.n_layers))
        part_name = "g" if cases % 4 < 2 else "h"
        fn = relu.block_grad_g if part_name == "g" else relu.block_grad_h
        idx = 0 if part_name == "g" else 1
        dW, db = fn(p, x, y, loss, block)
        got = np.concatenate([dW.ravel(), db])
        theta = p.to_vector()
        off = sum(W.size + b.size for W, b in p.layers[:block])
        fd = np.zeros(got.size)
        for j in range(got.size):
            tp, tm = theta.copy(), theta.copy()
            tp[off + j] += step
            tm[off + j] -= step
            fd[j] = (obj(p.with_vector(tp), x, y)[idx]
                     - obj(p.with_vector(tm), x, y)[idx]) / (2 * step)
        scale = max(1.0, float(np.max(np.abs(fd))))
        worst = max(worst, float(np.max(np.abs(got - fd))) / scale)
        cases += 1
    ok = worst <= 1e-5
    report(7, "block gradients match central differences on 500 cases", ok,
           time.perf_counter() - t0, 60, "max_rel_err=%.3g" % worst)


def test_criterion_08_proximal_step_bound():
    t0 = time.perf_counter()
    Y, D, X = sdl_synthetic(8, 12, 20, 4, seed=8)
    sdl = SdlProblem(SdlInstance(Y=Y, D=D, X=np.zeros_like(X), alpha=0.12,
                                 Q=4, variant="l1_lq"))
    rho_sdl = 0.8
    tr_sdl = run(sdl, SolverConfig(n_iters=120, rho=rho_sdl, seed=1,
                                   inner_budget=25))
    xs, ys = gaussian_blobs(80, 3, seed=2)
    net = relu.random_params((2, 10, 3), substream(108, "init"))
    mlp = MlpTaskProblem(MlpTask(inputs=xs, labels=ys, net=net, loss="ce"))
    rho_mlp = 2.0
    tr_det = run(mlp, SolverConfig(n_iters=60, rho=rho_mlp, seed=3,
                                   inner_budget=15))
    tr_sto = run(mlp, SolverConfig(n_iters=60, rho=rho_mlp, seed=4,
                                   inner_budget=15, batch_size=16))
    margins = (audit_step_bound(tr_sdl, rho_sdl),
               audit_step_bound(tr_det, rho_mlp),
               audit_step_bound(tr_sto, rho_mlp))
    ok = all(m >= 0 for m in margins)
    report(8, "every iteration satisfies the (2/rho) step bound", ok,
           time.perf_counter() - t0, 120,
           "worst margins=%s" % (tuple("%.2g" % m for m in margins),))


def test_criterion_09_sdl_ordering():
    t0 = time.perf_counter()
    res = run_sdl_experiment()  # protocol defaults: 10 seeds, 700 iterations
    med_rec = {v: float(np.median(res.rec[v][:, -1])) for v in res.rec}
    med_sp = {v: float(np.median(res.sparsity[v][:, -1])) for v in res.sparsity}
    ok = (med_rec["l1_lq"] < med_rec["l1"] and med_sp["l1_lq"] > med_sp["l1"]
          and res.true_sparsity == pytest.approx(0.84375))
    report(9, "sparse coding: nonconvex penalty wins on error and sparsity",
           ok, time.perf_counter() - t0, 300,
           "rec=%.4f/%.4f spars=%.4f/%.4f true=%.5f"
           % (med_rec["l1_lq"], med_rec["l1"], med_sp["l1_lq"], med_sp["l1"],
              res.true_sparsity))


def test_criterion_10_bdca_vs_gd():
    t0 = time.perf_counter()
    rows = run_sdl_gd_comparison()  # 3 seeds, equal oracle budgets
    bd = float(np.median([r["bdca_final"] for r in rows]))
    gd = float(np.median([r["gd_final"] for r in rows]))
    ok = bd <= gd
    report(10, "block-DC beats joint GD at equal oracle budget", ok,
           time.perf_counter() - t0, 300, "bdca=%.4f gd=%.4f" % (bd, gd))


def test_criterion_11_rate_audit():
    t0 = time.perf_counter()
    rng = substream(111, "problem")
    part = BlockPartition([3, 3, 3, 3])
    prob = QuadraticMinusL1Problem(part, rng.standard_normal((16, 12)),
                                   rng.standard_normal(16), 0.3)
    L_hat = max(prob.block_smoothness(i) for i in range(4))
    theta0 = rng.standard_normal(12)
    ok = True
    detail = []
    for K in (100, 400):
        mins, drops = [], []
        for seed in range(20):
            tr = run(prob, SolverConfig(n_iters=K + 1, seed=seed), theta0=theta0)
            resid = tr.column("residual_upper")
            mins.append(float(np.min(resid[1:K + 1]) ** 2))
            drops.append(tr.records[1].f - tr.final_f)
        lhs = float(np.mean(mins))
        rhs = 1.1 * (2.0 * L_hat * 4 / K) * float(np.mean(drops))
        ok &= lhs <= rhs
        detail.append("K=%d ratio=%.3f" % (K, lhs / rhs))
    report(11, "averaged min residual^2 within the 2Ln/K envelope", ok,
           time.perf_counter() - t0, 120, " ".join(detail))


def test_criterion_12_planner_formulas():
    t0 = time.perf_counter()
    G, L0 = 2.0, 3.0
    e_const = compute_E(lambda u: L0, G)
    a, c = 0.8, 0.6
    e_affine = compute_E(lambda u: a + c * u, G)
    want_affine = 2 * G * c + np.sqrt(4 * G * G * c * c + 2 * a * G)
    plan = plan_rho(lambda u: L0, G, 0.0)
    ok = (abs(e_const - np.sqrt(2 * L0 * G)) <= 1e-8 * e_const
          and abs(e_affine - want_affine) <= 1e-8 * e_affine
          and plan.rho_min == pytest.approx(2 * plan.L_eff)
          and rho_from(e_const, L0, 0.0) == pytest.approx(2 * L0))
    report(12, "gradient-bound and proximal-weight planner closed forms", ok,
           time.perf_counter() - t0, 1,
           "E_const=%.6g E_affine=%.6g" % (e_const, e_affine))


def test_criterion_13_unbiasedness_and_variance():
    t0 = time.perf_counter()
    xs, ys = gaussian_blobs(120, 3, seed=21)
    net = relu.random_params((2, 8, 3), substream(113, "init"))
    prob = MlpTaskProblem(MlpTask(inputs=xs, labels=ys, net=net, loss="ce"))
    theta = prob.initial_point() + 0.1 * substream(113, "perturb").standard_normal(
        prob.partition.total_dim)
    i = 1
    u_full = prob.subgrad_h_block(i, theta)
    z_full = prob.grad_g_block(i, theta) - u_full
    rng = substream(113, "resample")

    M = 10_000
    us = np.empty((M, u_full.size))
    vs = np.empty((M, u_full.size))
    for m in range(M):
        h = prob.sample(rng, batch_size=8)
        batch = prob.on(h)
        us[m] = batch.subgrad_h_block(i, theta)
        vs[m] = batch.grad_g_block(i, theta) - us[m]
    err_u = float(np.linalg.norm(us.mean(0) - u_full))
    env_u = 3.0 * float(np.sqrt(np.mean(np.sum((us - us.mean(0)) ** 2, 1)))) / np.sqrt(M)
    err_z = float(np.linalg.norm(vs.mean(0) - z_full))
    env_z = 3.0 * float(np.sqrt(np.mean(np.sum((vs - vs.mean(0)) ** 2, 1)))) / np.sqrt(M)

    batches = np.array([1, 2, 4, 8, 16, 32])
    sig2 = []
    for b in batches:
        acc = 0.0
        for _ in range(1500):
            h = prob.sample(rng, batch_size=int(b))
            batch = prob.on(h)
            vh = batch.grad_g_block(i, theta) - batch.subgrad_h_block(i, theta)
            acc += float(np.sum((vh - z_full) ** 2))
        sig2.append(acc / 1500)
    sig2 = np.array(sig2)
    pred = np.polyval(np.polyfit(1.0 / batches, sig2, 1), 1.0 / batches)
    r2 = 1.0 - np.sum((sig2 - pred) ** 2) / np.sum((sig2 - sig2.mean()) ** 2)
    ok = err_u <= env_u and err_z <= env_z and r2 >= 0.95
    report(13, "minibatch oracles unbiased; variance scales as 1/batch", ok,
           time.perf_counter() - t0, 120,
           "err/env=%.3g/%.3g R2=%.4f" % (err_u, env_u, r2))


def test_criterion_14_stochastic_training_descent():
    t0 = time.perf_counter()
    ok = True
    details = []
    for seed in range(5):
        res = run_relu_experiment(task="blobs", layer_dims=(16, 8), n_data=200,
                                  n_classes=3, epochs=8, batch_size=16,
                                  theory_preset=True, inner_budget=20,
                                  stride=10, seed=seed)
        losses = np.array([r[1] for r in res.loss_rows])
        resid = np.array([r[2] for r in res.loss_rows])
        w = max(3, (len(losses) - 1) // 10)
        start, end = losses[:w].mean(), losses[-w:].mean()
        slope = float(np.polyfit(np.arange(resid.size), resid, 1)[0])
        ok &= end < start and slope < 0
        details.append("s%d %.2f->%.2f m=%.4f" % (seed, start, end, slope))
    report(14, "sqrt(K)-preset stochastic training descends on all 5 seeds",
           ok, time.perf_counter() - t0, 300, "; ".join(details))


def test_criterion_15_cp_als_recovery():
    t0 = time.perf_counter()
    rows, per_update, prob, theta = run_tensor_experiment(
        dims=(4, 5, 6), rank=2, sweeps=200, seed=15)
    rel = prob.relative_error(theta)
    reached = next((sweep for sweep, _, r in rows if r <= 1e-6), None)
    per_update = np.array(per_update)
    monotone = bool(np.all(np.diff(per_update) <= 1e-9 * (1 + np.abs(per_update[:-1]))))
    ok = rel <= 1e-6 and monotone
    report(15, "exact-rank tensor recovered with monotone block updates", ok,
           time.perf_counter() - t0, 30, "rel_err=%.2e sweeps=%s" % (rel, reached))


def test_criterion_16_smoothness_scatter(tmp_path):
    t0 = time.perf_counter()
    code = cli_main(["relu", "--epochs", "6", "--n-data", "120",
                     "--widths", "8,6", "--stride", "1", "--batch-size", "12",
                     "--outdir", str(tmp_path)])
    rows = np.genfromtxt(tmp_path / "relu_smoothness_seed0.csv", delimiter=",",
                         names=True)
    blocks = set(int(b) for b in np.atleast_1d(rows["block"]))
    lhat = np.exp(np.atleast_1d(rows["logLhat"]))
    fit = np.polyfit(np.atleast_1d(rows["logG"]), np.atleast_1d(rows["logLhat"]), 1)
    ok = (code == 0 and blocks == {0, 1, 2}
          and bool(np.all(np.isfinite(lhat)) and np.all(lhat > 0))
          and bool(np.all(np.isfinite(fit))))
    report(16, "smoothness scatter produced with finite estimates per block",
           ok, time.perf_counter() - t0, 120,
           "rows=%d slope=%.3f" % (rows.size, fit[0]))


def test_criterion_17_determinism(tmp_path):
    t0 = time.perf_counter()
    commands = {
        "monomial": ["monomial", "--b", "2,4", "--csv", "atoms.csv"],
        "sdl": ["sdl", "--iters", "12", "--seeds", "2"],
        "relu": ["relu", "--epochs", "1", "--n-data", "40", "--widths", "5,4"],
        "tensor": ["tensor", "--sweeps", "15"],
    }
    ok = True
    for name, argv in commands.items():
        dirs = [tmp_path / ("%s_%d" % (name, j)) for j in (0, 1)]
        outputs = []
        for d in dirs:
            assert cli_main(argv + ["--outdir", str(d)]) == 0
            outputs.append(sorted(p for p in d.iterdir() if p.suffix == ".csv"))
        names0 = [p.name for p in outputs[0]]
        names1 = [p.name for p in outputs[1]]
        ok &= bool(names0) and names0 == names1
        for p0, p1 in zip(outputs[0], outputs[1]):
            ok &= p0.read_bytes() == p1.read_bytes()
    report(17, "rerun with identical config is byte-identical", ok,
           time.perf_counter() - t0, 300, "")
