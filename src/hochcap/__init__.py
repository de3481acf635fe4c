"""Exact Hochschild homology, cohomology and cap products.

The package computes over Q or F_p with exact arithmetic throughout.
See the README for the input format and the command line interface.
"""

from .fields import GF, QQ
from .linalg import SparseMat, Solver, kernel_basis, rank, subquotient

__version__ = "0.1.0"

__all__ = [
    "GF",
    "QQ",
    "SparseMat",
    "Solver",
    "kernel_basis",
    "rank",
    "subquotient",
    "__version__",
]
