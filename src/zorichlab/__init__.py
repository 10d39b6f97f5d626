"""Numerical laboratory for a piecewise-exponential map of R^3.

The package evaluates the map and its second iterate exactly, enumerates its
inverse branches and deck-transformation group, builds the preimage cones of
horizontal planes, estimates pointwise Lipschitz constants and relative
distortion, and runs the line-image density experiments (voxel coverage and
ball-hitting fractions).
"""

__version__ = "0.1.0"

from .density import adaptive_trace
from .errors import (
    DegenerateError,
    DomainError,
    ExponentOverflowError,
    NoIntersectionError,
    ParityMismatchError,
)
from .zorich import (
    Beam,
    branch_distance,
    fold,
    h_extended,
    h_inverse,
    h_square,
    unfold,
    zorich,
    zorich_inverse,
    zorich_second,
)

__all__ = [
    "__version__",
    "Beam",
    "DegenerateError",
    "DomainError",
    "ExponentOverflowError",
    "NoIntersectionError",
    "ParityMismatchError",
    "adaptive_trace",
    "branch_distance",
    "fold",
    "h_extended",
    "h_inverse",
    "h_square",
    "unfold",
    "zorich",
    "zorich_inverse",
    "zorich_second",
]
