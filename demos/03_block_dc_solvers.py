"""The deterministic block-DC solver variants on one nonsmooth test problem.

f(theta) = 0.5 ||A theta - b||^2 - mu ||theta||_1 over four coordinate
blocks: the convex side is smooth, the concave side is piecewise linear.
The plain variant linearizes the concave part and minimizes each block
surrogate exactly; the proximal variant adds rho/2 ||. - theta_k||^2, which
buys the step-size bound ||theta_{k+1} - theta_k|| <= (2/rho) ||grad g - u||.
The stochastic variant takes the same step on minibatch surrogates; this
problem has no minibatch sampler, so it is not run here (``bdc relu
--batch-size 16`` runs it on a split ReLU network).  The demo ends with the
rho planner, the secant smoothness estimate and the per-iteration trace CSV.
"""

import os
import tempfile

import numpy as np

from bdcopt.blocks import BlockPartition
from bdcopt.problems import QuadraticMinusL1Problem
from bdcopt.solvers import (SolverConfig, audit_step_bound, plan_rho, run,
                            smoothness_estimate, substream)

rng = substream(0, "demo")
part = BlockPartition([3, 3, 3, 3])
prob = QuadraticMinusL1Problem(part, rng.standard_normal((16, 12)),
                               rng.standard_normal(16), mu=0.3)
theta0 = rng.standard_normal(12)

# ---------------------------------------------------------------------------
# Plain block DCA: monotone descent, residual shrinks.
# ---------------------------------------------------------------------------
trace = run(prob, SolverConfig(n_iters=150, seed=1), theta0=theta0)
f = trace.column("f")
resid = trace.column("residual_upper")
print("plain block DCA: f %0.4f -> %0.4f, residual %0.4f -> %0.6f"
      % (f[0], trace.final_f, resid[0], resid[-1]))
print("monotone:", bool(np.all(np.diff(np.append(f, trace.final_f)) <= 1e-10)))

# ---------------------------------------------------------------------------
# Proximal variant: every step obeys the (2/rho) bound (audited from the
# recorded block gradient gaps).
# ---------------------------------------------------------------------------
rho = 1.5
trace_prox = run(prob, SolverConfig(n_iters=150, rho=rho, seed=1), theta0=theta0)
print("\nproximal variant: f -> %0.4f, worst step-bound margin %.2e"
      % (trace_prox.final_f, audit_step_bound(trace_prox, rho)))

# ---------------------------------------------------------------------------
# Planning rho from a smoothness growth function: if the local smoothness of
# g grows at most like ell(gradient norm), the weight below keeps iterates
# inside the region where that bound is valid.
# ---------------------------------------------------------------------------
L0 = max(prob.block_smoothness(i) for i in range(4))
plan = plan_rho(lambda u: L0, G=10.0, R=0.3 * np.sqrt(12))
print("\nplanner with constant growth %0.2f: E=%0.4f, rho_min=%0.4f"
      % (L0, plan.E, plan.rho_min))

# The estimator recovers the quadratic's exact curvature along any update:
theta1 = trace.final_theta
theta2 = theta1.copy()
theta2[part.slice_of(0)] += rng.standard_normal(3)
print("secant smoothness estimate on block 0: %0.4f (exact %0.4f)"
      % (smoothness_estimate(prob, theta1, theta2, 0),
         prob.block_smoothness(0)))

# ---------------------------------------------------------------------------
# Trace CSV: the per-iteration record every experiment persists.
# ---------------------------------------------------------------------------
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "trace.csv")
    trace_prox.write_csv(path)
    with open(path) as fh:
        lines = fh.read().splitlines()
print("\ntrace rows (first 3 of %d):" % (len(lines) - 1))
for line in lines[:4]:
    print("  ", line[:100])
