"""Multi-block difference-of-convex modeling, decompositions, and solvers."""

from .blocks import BlockPartition
from .model import (
    BdcProblem,
    SampleHandle,
    combine_linear,
    combine_max,
    combine_min,
    conjugate_compose,
    residual_upper,
)
from .monomials import (
    Atom,
    AtomDecomposition,
    Monomial,
    bdc_block_decompose,
    dc_atom_bounds,
    polarize,
    verify_identity,
)

__version__ = "0.1.0"
