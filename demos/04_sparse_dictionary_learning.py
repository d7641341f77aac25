"""Sparse dictionary learning with an l1 penalty vs the sharper l1 - largest_Q.

Planted data Y = D* X* with exactly five nonzeros per code column.  Both
penalties run the same alternating block scheme: a soft-threshold proximal
gradient step on the codes, then a Frank-Wolfe step keeping dictionary
columns inside the unit ball.  The nonconvex penalty leaves the largest five
coefficients unshrunk, so it reconstructs better AND zeroes out more of the
rest (right against the planted sparsity 1 - 5/32 = 0.84375).
"""

import numpy as np

from bdcopt.experiments import run_sdl_experiment, run_sdl_gd_comparison

N_OUTER = 250
res = run_sdl_experiment(n_seeds=3, n_outer=N_OUTER)

print("planted sparsity: %.5f" % res.true_sparsity)
print("\n%-8s %-26s %-26s" % ("", "rec error (median)", "sparsity (median)"))
for v, tag in (("l1", "l1"), ("l1_lq", "l1 - largest_Q")):
    rec = np.median(res.rec[v][:, -1])
    sp = np.median(res.sparsity[v][:, -1])
    print("%-16s %-26.4f %-26.4f" % (tag, rec, sp))

iters = np.linspace(0, N_OUTER, 6).astype(int)
print("\nreconstruction error along the run (seed mean):")
print("iter    " + "".join("%10d" % k for k in iters))
for v in ("l1", "l1_lq"):
    mean = res.rec[v].mean(axis=0)
    print("%-8s" % v + "".join("%10.4f" % mean[k] for k in iters))
print("sparsity along the run (seed mean):")
for v in ("l1", "l1_lq"):
    mean = res.sparsity[v].mean(axis=0)
    print("%-8s" % v + "".join("%10.4f" % mean[k] for k in iters))

# ---------------------------------------------------------------------------
# Against joint gradient descent at the same first-order oracle budget the
# block scheme wins: its code step actually solves the shrinkage subproblem.
# ---------------------------------------------------------------------------
rows = run_sdl_gd_comparison(n_outer=150, n_seeds=3)
print("\nblock-DC vs joint adaptive-step GD (equal oracle budget):")
for r in rows:
    print("  seed %d: %6d calls   block-DC %8.4f   GD %8.4f"
          % (r["seed"], r["oracle_calls"], r["bdca_final"], r["gd_final"]))
