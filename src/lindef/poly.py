"""Sparse multivariate polynomials with the degrevlex term order.

Monomials are exponent tuples. Comparison is degree reverse
lexicographic: higher total degree wins, ties are broken by the last
differing exponent being smaller. This is the only order used by the
Groebner machinery.
"""

from __future__ import annotations

from .errors import LindefError
from .fields import Field

Monomial = tuple


def degrevlex_key(m: Monomial):
    """Sort key realizing degrevlex: max() of keys picks the leading term."""
    return (sum(m), tuple(-e for e in reversed(m)))


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def monomial_quotient(a: Monomial, b: Monomial) -> Monomial:
    """a / b, assuming b divides a."""
    return tuple(x - y for x, y in zip(a, b))


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def monomial_degree(m: Monomial) -> int:
    return sum(m)


def format_monomial(m: Monomial, varnames) -> str:
    parts = []
    for e, name in zip(m, varnames):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


class Polynomial:
    """Immutable-by-convention sparse polynomial over a Field."""

    __slots__ = ("field", "nvars", "terms")

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

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field: Field, nvars: int):
        return cls(field, nvars, {})

    @classmethod
    def from_monomial(cls, field: Field, nvars: int, mon: Monomial, c=1):
        return cls(field, nvars, {tuple(mon): c})

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def leading_term(self):
        """(monomial, coefficient) of the degrevlex-largest term."""
        if not self.terms:
            raise LindefError("zero polynomial has no leading term")
        mon = max(self.terms, key=degrevlex_key)
        return mon, self.terms[mon]

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

    def __add__(self, other: "Polynomial"):
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = self.field.scalar(terms.get(m, 0) + c)
        return Polynomial(self.field, self.nvars, terms)

    def __neg__(self):
        zero = self.field.scalar(0)
        return Polynomial(
            self.field, self.nvars, {m: zero - c for m, c in self.terms.items()}
        )

    def __sub__(self, other: "Polynomial"):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = self.field.scalar(other)
            return Polynomial(
                self.field, self.nvars, {m: c * v for m, v in self.terms.items()}
            )
        self._check(other)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = monomial_mul(m1, m2)
                terms[m] = self.field.scalar(terms.get(m, 0) + c1 * c2)
        return Polynomial(self.field, self.nvars, terms)

    __rmul__ = __mul__

    def monic(self):
        _, lc = self.leading_term()
        if lc == self.field.scalar(1):
            return self
        if self.field.p:
            inv = pow(int(lc), -1, self.field.p)
        else:
            inv = 1 / lc
        return self * inv

    def shift_by_monomial(self, mon: Monomial, c):
        """self * c * x^mon without building a Polynomial for the factor."""
        c = self.field.scalar(c)
        return Polynomial(
            self.field,
            self.nvars,
            {monomial_mul(m, mon): v * c for m, v in self.terms.items()},
        )

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
