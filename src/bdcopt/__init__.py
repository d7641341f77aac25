"""Multi-block difference-of-convex modeling, decompositions, and solvers.

Import each name from the module that defines it (``bdcopt.model``,
``bdcopt.monomials``, ...): the package root loads none of them.
"""

__version__ = "0.1.0"
