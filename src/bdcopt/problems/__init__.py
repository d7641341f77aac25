"""Concrete multi-block DC problems, one module each; import every name
from the module that defines it:

- ``bdcopt.problems.sdl``: sparse dictionary learning, its inner solvers
  and its synthetic data;
- ``bdcopt.problems.cp``: canonical polyadic tensor factorization;
- ``bdcopt.problems.mlp``: toy network-training tasks on the split ReLU
  network, whose labels are checked: a label outside the loss's range
  raises ``ValueError``;
- ``bdcopt.problems.synthetic``: small quadratic DC problems for audits.

No problem module imports ``bdcopt.solvers``.
"""
