"""Tensor factorization as the all-convex-blocks special case.

With one block per factor matrix the concave side vanishes and each block
surrogate is a linear least-squares problem solved exactly, which is the
classical alternating least-squares sweep.  The solve is in Gram form: the
rank-by-rank normal equations ``F (K^T K) = T_(i) K``, with ``K`` the
Khatri-Rao product of the other factors, solved by minimum-norm least
squares, and the tensor is rebuilt as one matrix product ``F_1 @ K.T``.
On a planted rank-2 tensor the
sweeps drive the relative error to numerical zero, and the objective cannot
increase at any block update because each update is an exact minimization.
"""

import numpy as np

from bdcopt.experiments import run_tensor_experiment

rows, per_update, prob, theta = run_tensor_experiment(
    dims=(4, 5, 6), rank=2, sweeps=100, seed=3)

print("sweep   objective      rel. error")
for sweep, obj, rel in rows[:8]:
    print("%4d    %10.3e    %10.3e" % (sweep, obj, rel))
print(" ...")
sweep, obj, rel = rows[-1]
print("%4d    %10.3e    %10.3e" % (sweep, obj, rel))

diffs = np.diff(per_update)
print("\nobjective increases across %d block updates: %d"
      % (len(diffs), int(np.sum(diffs > 1e-12))))

# A noisy target stops at the noise floor instead:
rows_n, _, _, _ = run_tensor_experiment(dims=(4, 5, 6), rank=2, sweeps=100,
                                        seed=3, noise=0.05)
print("with 5%% noise the error floor is %.4f" % rows_n[-1][2])
