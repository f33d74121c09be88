"""Sparse multivariate polynomials with the degrevlex term order.

Monomials are exponent tuples. Comparison is degree reverse
lexicographic: higher total degree wins, ties are broken by the last
differing exponent being smaller. This is the only order used by the
Groebner machinery.

A Polynomial is immutable: nothing mutates `terms` after construction.
Its leading term is computed at most once and cached, and arithmetic
builds its results from terms that are already clean (tuple monomials
of length nvars, nonzero reduced coefficients) without validating them
again; only terms given to the constructor from outside are validated.
"""

from __future__ import annotations

from operator import add, le, neg, sub

from .errors import LindefError
from .fields import Field

Monomial = tuple


def degrevlex_key(m: Monomial):
    """Sort key realizing degrevlex: max() of keys picks the leading term."""
    return (sum(m), tuple(map(neg, reversed(m))))


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


def monomial_quotient(a: Monomial, b: Monomial) -> Monomial:
    """a / b, assuming b divides a."""
    return tuple(map(sub, a, b))


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def monomial_degree(m: Monomial) -> int:
    return sum(m)


def scalar_inverse(field: Field, c):
    """1 / c for a nonzero coefficient c of the field."""
    return pow(c, -1, field.p) if field.p else 1 / c


def format_monomial(m: Monomial, varnames) -> str:
    parts = []
    for e, name in zip(m, varnames):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


class Polynomial:
    """Immutable sparse polynomial over a Field (see the module docstring)."""

    __slots__ = ("field", "nvars", "terms", "_lead")

    def __init__(self, field: Field, nvars: int, terms=None):
        self.field = field
        self.nvars = nvars
        clean = {}
        for mon, c in (terms or {}).items():
            c = field.scalar(c)
            if c != field.scalar(0):
                if len(mon) != nvars or any(e < 0 for e in mon):
                    raise LindefError(f"bad monomial {mon} for {nvars} variables")
                clean[tuple(mon)] = c
        self.terms = clean
        self._lead = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field: Field, nvars: int):
        return cls(field, nvars, {})

    @classmethod
    def from_monomial(cls, field: Field, nvars: int, mon: Monomial, c=1):
        return cls(field, nvars, {tuple(mon): c})

    @classmethod
    def from_clean(cls, field: Field, nvars: int, terms: dict, lead=None):
        """Wrap clean terms without validating them; the caller hands over
        `terms` and does not mutate it. `lead`, when given, is the
        degrevlex-largest monomial of terms."""
        self = object.__new__(cls)
        self.field = field
        self.nvars = nvars
        self.terms = terms
        self._lead = lead
        return self

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def leading_term(self):
        """(monomial, coefficient) of the degrevlex-largest term."""
        if self._lead is None:
            if not self.terms:
                raise LindefError("zero polynomial has no leading term")
            self._lead = max(self.terms, key=degrevlex_key)
        return self._lead, self.terms[self._lead]

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.field != other.field or self.nvars != other.nvars:
            raise LindefError("polynomials over different rings")

    def _result(self, terms, lead=None):
        return Polynomial.from_clean(self.field, self.nvars, terms, lead)

    def __add__(self, other: "Polynomial"):
        self._check(other)
        scalar = self.field.scalar
        terms = dict(self.terms)
        for m, c in other.terms.items():
            c = scalar(terms.get(m, 0) + c)
            if c:
                terms[m] = c
            else:
                del terms[m]
        return self._result(terms)

    def __neg__(self):
        scalar = self.field.scalar
        return self._result({m: scalar(-c) for m, c in self.terms.items()}, self._lead)

    def __sub__(self, other: "Polynomial"):
        return self + (-other)

    def __mul__(self, other):
        scalar = self.field.scalar
        if not isinstance(other, Polynomial):
            c = scalar(other)
            if not c:
                return self._result({})
            # a field has no zero divisors: the lead stays
            return self._result(
                {m: scalar(c * v) for m, v in self.terms.items()}, self._lead
            )
        self._check(other)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = monomial_mul(m1, m2)
                terms[m] = scalar(terms.get(m, 0) + c1 * c2)
        return self._result({m: c for m, c in terms.items() if c})

    __rmul__ = __mul__

    def monic(self):
        _, lc = self.leading_term()
        if lc == self.field.scalar(1):
            return self
        return self * scalar_inverse(self.field, lc)

    # -- printing ------------------------------------------------------------

    def to_string(self, varnames) -> str:
        if not self.terms:
            return "0"
        one = self.field.scalar(1)
        out = []
        ordered = sorted(self.terms, key=degrevlex_key, reverse=True)
        for mon in ordered:
            c = self.terms[mon]
            mono = format_monomial(mon, varnames)
            sign = " + "
            if not self.field.p and c < 0:
                sign = " - "
                c = -c
            if mono == "1":
                piece = self.field.format_scalar(c)
            elif c == one:
                piece = mono
            else:
                piece = f"{self.field.format_scalar(c)}*{mono}"
            if not out:
                out.append(piece if sign == " + " else f"-{piece}")
            else:
                out.append(sign + piece)
        return "".join(out)

    def __repr__(self):
        names = [f"x{i}" for i in range(self.nvars)]
        return f"Polynomial({self.to_string(names)})"
