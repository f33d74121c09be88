"""Exact homological algebra over Artinian local algebras.

Computes minimal free resolutions of modules over finite-dimensional local
algebras, the linear part of a resolution, linearity defect profiles, and
the ladder of maps Tor_i(M, R/m^{n+1}) -> Tor_i(M, R/m^n), entirely in
exact arithmetic over GF(p) or the rationals.
"""

from .fields import Field
from .errors import (
    LindefError,
    ParseError,
    AlgebraError,
    ResourceLimitError,
)

__version__ = "0.1.0"

__all__ = [
    "Field",
    "LindefError",
    "ParseError",
    "AlgebraError",
    "ResourceLimitError",
    "__version__",
]
