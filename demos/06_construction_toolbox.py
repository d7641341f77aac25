"""Building new block-DC problems from old ones.

Weighted sums, pointwise maxima/minima, and conjugate-function compositions
all preserve the blockwise difference-of-convex structure, with explicit
(g, h) formulas rather than existence arguments.  This script builds a few
and checks the invariants that make them usable by the solvers.
"""

import numpy as np

from bdcopt.blocks import BlockPartition
from bdcopt.model import (AffineBdcMap, LogSumExpOracle, combine_linear,
                          combine_max, combine_min, conjugate_compose,
                          residual_upper)
from bdcopt.problems.synthetic import QuadraticDcProblem

rng = np.random.default_rng(7)
part = BlockPartition([2, 3])
p1 = QuadraticDcProblem.random(part, rng)
p2 = QuadraticDcProblem.random(part, rng)
theta = rng.standard_normal(5)

# ---------------------------------------------------------------------------
# Signed combinations: negative weights swap the convex and concave roles.
# ---------------------------------------------------------------------------
combo = combine_linear([p1, p2], [2.0, -3.0])
print("2 f1 - 3 f2:", combo.eval_f(theta),
      "=", 2 * p1.eval_f(theta) - 3 * p2.eval_f(theta))
for i in range(2):
    gap = combo.eval_g(i, theta) - combo.eval_h(i, theta) - combo.eval_f(theta)
    print("  block %d consistency gap: %.2e" % (i, gap))

# ---------------------------------------------------------------------------
# Pointwise max and min.
# ---------------------------------------------------------------------------
mx, mn = combine_max([p1, p2]), combine_min([p1, p2])
print("\nmax:", mx.eval_f(theta), "min:", mn.eval_f(theta),
      "(f1=%0.4f, f2=%0.4f)" % (p1.eval_f(theta), p2.eval_f(theta)))
print("residual bound at theta for the max problem:", residual_upper(mx, theta))

# ---------------------------------------------------------------------------
# Conjugate composition: log-sum-exp of an affine map of theta.  The
# simplex's coordinate bounds [0, 1] supply the explicit concave side.
# ---------------------------------------------------------------------------
M = rng.standard_normal((4, 5))
q = rng.standard_normal(4)
lse_of_affine = conjugate_compose(AffineBdcMap(part, M, q), LogSumExpOracle(),
                                  (np.zeros(4), np.ones(4)))
t = M @ theta + q
print("\nLSE(M theta + q):", lse_of_affine.eval_f(theta),
      "=", np.log(np.sum(np.exp(t))))
for i in range(2):
    got = lse_of_affine.eval_g(i, theta) - lse_of_affine.eval_h(i, theta)
    print("  block %d: g - h = %.12f" % (i, got))

# h is a nonnegative combination of the map's split parts, hence convex;
# a midpoint probe on block 1:
a, b = rng.standard_normal(5), rng.standard_normal(5)
a[:2] = b[:2] = theta[:2]
mid = 0.5 * (a + b)
print("midpoint check on h:",
      lse_of_affine.eval_h(1, mid)
      <= 0.5 * (lse_of_affine.eval_h(1, a) + lse_of_affine.eval_h(1, b)) + 1e-12)
