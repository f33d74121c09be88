"""Exact homological algebra over Artinian local algebras.

Computes the minimal free resolution of the residue field k of a
finite-dimensional local algebra, its linear part, linearity defect
profiles, and the ladder of maps Tor_i(k, R/m^{n+1}) -> Tor_i(k, R/m^n),
entirely in exact arithmetic over GF(p) or the rationals.
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
