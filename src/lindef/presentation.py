"""Ring presentations k[x1..xn]/I: parsing, Groebner bases, and the
construction of finite-dimensional local quotient algebras.

The text format is line oriented:

    # comment
    char 101
    vars x y
    ideal x^2 + y^2, x*y

`char` is optional (default 101; 0 selects the rationals). Keywords may
not be reused as variable names. Polynomials use integer coefficients
(a/b fractions over the rationals), `*` for products, `^` for powers.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .algebra import FiniteLocalAlgebra
from .errors import AlgebraError, LindefError, ParseError, ResourceLimitError
from .fields import Field
from .poly import (
    Polynomial,
    degrevlex_key,
    format_monomial,
    monomial_degree,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    monomial_quotient,
    scalar_inverse,
)

DEFAULT_CHARACTERISTIC = 101
KEYWORDS = ("char", "vars", "ideal")

# ResourceLimitError caps of the ring build: Groebner pair reductions,
# quotient dimension, and the staircase's enumeration box. The table and
# the law check hold a few d x d x d arrays: d = 361 (x^19, y^19) peaks
# at 1.9 GB resident and builds under a 2 GiB address space, d = 366
# runs out of it.
PAIR_CAP = 20000
DIM_CAP = 361
BOX_CAP = 50 * DIM_CAP


# ---------------------------------------------------------------------------
# parsing


@dataclass
class _Token:
    kind: str  # INT, IDENT, SYM, EOF
    value: str
    line: int
    col: int


def _tokenize(text: str):
    tokens = []
    line = 1
    col = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            try:
                int(text[i:j])
            except ValueError:  # past Python's limit on int-string digits
                raise ParseError(
                    f"integer of {j - i} digits is too long", line, col
                ) from None
            tokens.append(_Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*^,/":
            tokens.append(_Token("SYM", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


class _PolyParser:
    """Recursive descent over the token list for one statement."""

    def __init__(self, tokens, pos, field: Field, varnames):
        self.tokens = tokens
        self.pos = pos
        self.field = field
        self.varnames = list(varnames)
        self.var_index = {v: i for i, v in enumerate(varnames)}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def at_statement_end(self) -> bool:
        t = self.peek()
        return t.kind == "EOF" or (t.kind == "IDENT" and t.value in KEYWORDS)

    def parse_poly_list(self):
        polys = [self.parse_poly()]
        while self.peek().kind == "SYM" and self.peek().value == ",":
            self.next()
            polys.append(self.parse_poly())
        return polys

    def parse_poly(self) -> Polynomial:
        n = len(self.varnames)
        poly = Polynomial.zero(self.field, n)
        sign = 1
        t = self.peek()
        if t.kind == "SYM" and t.value in "+-":
            self.next()
            sign = -1 if t.value == "-" else 1
        while True:
            poly = poly + self.parse_term() * self.field.scalar(sign)
            t = self.peek()
            if t.kind == "SYM" and t.value in "+-":
                self.next()
                sign = -1 if t.value == "-" else 1
                continue
            break
        return poly

    def parse_term(self) -> Polynomial:
        n = len(self.varnames)
        t = self.peek()
        if t.kind not in ("INT", "IDENT"):
            raise ParseError(
                f"expected a coefficient or variable, got {t.value!r}", t.line, t.col
            )
        coeff = self.field.scalar(1)
        factors = []
        first = True
        while True:
            t = self.peek()
            if t.kind == "INT":
                self.next()
                value = int(t.value)
                if (
                    self.field.p == 0
                    and self.peek().kind == "SYM"
                    and self.peek().value == "/"
                ):
                    self.next()
                    den = self.next()
                    if den.kind != "INT" or int(den.value) == 0:
                        raise ParseError(
                            "expected a nonzero integer denominator",
                            den.line,
                            den.col,
                        )
                    coeff = coeff * self.field.scalar(value) / int(den.value)
                else:
                    coeff = coeff * self.field.scalar(value)
            elif t.kind == "IDENT":
                if t.value in KEYWORDS:
                    if first:
                        raise ParseError(
                            f"unexpected keyword {t.value!r} in polynomial",
                            t.line,
                            t.col,
                        )
                    break
                self.next()
                if t.value not in self.var_index:
                    raise ParseError(f"unknown variable {t.value!r}", t.line, t.col)
                exp = 1
                if self.peek().kind == "SYM" and self.peek().value == "^":
                    self.next()
                    e = self.next()
                    if e.kind != "INT":
                        raise ParseError(
                            f"expected an integer exponent, got {e.value!r}",
                            e.line,
                            e.col,
                        )
                    exp = int(e.value)
                factors.append((self.var_index[t.value], exp))
            else:
                raise ParseError(
                    f"expected a coefficient or variable, got {t.value or 'end of input'!r}",
                    t.line,
                    t.col,
                )
            first = False
            nxt = self.peek()
            if nxt.kind == "SYM" and nxt.value == "*":
                self.next()
                continue
            break
        mon = [0] * n
        for idx, e in factors:
            mon[idx] += e
        return Polynomial.from_monomial(self.field, n, tuple(mon), coeff)


@dataclass
class Presentation:
    """A parsed ring presentation k[vars]/(gens)."""

    field: Field
    varnames: list
    gens: list

    def to_text(self) -> str:
        lines = [f"char {self.field.p}", "vars " + " ".join(self.varnames)]
        if self.gens:
            lines.append(
                "ideal " + ", ".join(g.to_string(self.varnames) for g in self.gens)
            )
        return "\n".join(lines) + "\n"

    def describe(self) -> dict:
        return {
            "char": self.field.p,
            "vars": list(self.varnames),
            "ideal": [g.to_string(self.varnames) for g in self.gens],
        }


def parse_presentation(text: str) -> Presentation:
    tokens = _tokenize(text)
    pos = 0
    char = None
    varnames = None
    gens = None
    while tokens[pos].kind != "EOF":
        t = tokens[pos]
        if t.kind != "IDENT" or t.value not in KEYWORDS:
            raise ParseError(
                f"expected a statement keyword, got {t.value!r}", t.line, t.col
            )
        pos += 1
        if t.value == "char":
            if char is not None:
                raise ParseError("duplicate char statement", t.line, t.col)
            if varnames is not None or gens is not None:
                raise ParseError("char must precede vars and ideal", t.line, t.col)
            num = tokens[pos]
            if num.kind != "INT":
                raise ParseError("char expects an integer", num.line, num.col)
            char = int(num.value)
            pos += 1
        elif t.value == "vars":
            if varnames is not None:
                raise ParseError("duplicate vars statement", t.line, t.col)
            varnames = []
            while tokens[pos].kind == "IDENT" and tokens[pos].value not in KEYWORDS:
                name = tokens[pos]
                if name.value in varnames:
                    raise ParseError(
                        f"duplicate variable {name.value!r}", name.line, name.col
                    )
                varnames.append(name.value)
                pos += 1
            if not varnames:
                raise ParseError("vars expects at least one name", t.line, t.col)
        else:  # ideal
            if gens is not None:
                raise ParseError("duplicate ideal statement", t.line, t.col)
            if varnames is None:
                raise ParseError("ideal requires a preceding vars statement", t.line, t.col)
            field = Field(DEFAULT_CHARACTERISTIC if char is None else char)
            pp = _PolyParser(tokens, pos, field, varnames)
            gens = pp.parse_poly_list()
            pos = pp.pos
            if not pp.at_statement_end():
                bad = tokens[pos]
                raise ParseError(
                    f"unexpected token {bad.value!r} after ideal", bad.line, bad.col
                )
    if varnames is None:
        raise ParseError("missing vars statement", 1, 1)
    field = Field(DEFAULT_CHARACTERISTIC if char is None else char)
    return Presentation(field, varnames, gens or [])


# ---------------------------------------------------------------------------
# Groebner bases


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Remainder of f under multivariate division by `basis`.

    Deterministic: always reduces the current leading term, using the
    first divisor in list order. Every monomial of the result is
    irreducible against the basis. The work is one dict reduced in
    place; each divisor's leading monomial, inverse leading coefficient
    and tail are read once per call.
    """
    p = f.field.p
    divisors = []
    for g in basis:
        gm, gc = g.leading_term()
        tail = [(m, c) for m, c in g.terms.items() if m != gm]
        divisors.append((gm, scalar_inverse(f.field, gc), tail))
    work = dict(f.terms)
    rem = {}
    while work:
        lm = max(work, key=degrevlex_key)
        lc = work.pop(lm)
        for gm, ginv, tail in divisors:
            if monomial_divides(gm, lm):
                q = monomial_quotient(lm, gm)
                factor = lc * ginv % p if p else lc * ginv
                for m, c in tail:
                    m = monomial_mul(m, q)
                    c = work.get(m, 0) - factor * c
                    if p:
                        c %= p
                    if c:
                        work[m] = c
                    else:
                        del work[m]
                break
        else:
            rem[lm] = lc
    # terms leave `work` largest first, so the first one kept leads
    return Polynomial.from_clean(f.field, f.nvars, rem, next(iter(rem), None))


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    p = f.field.p
    fm, fc = f.leading_term()
    gm, gc = g.leading_term()
    lcm = monomial_lcm(fm, gm)
    qf, qg = monomial_quotient(lcm, fm), monomial_quotient(lcm, gm)
    finv, ginv = scalar_inverse(f.field, fc), scalar_inverse(f.field, gc)
    terms = {}
    for m, c in f.terms.items():
        terms[monomial_mul(m, qf)] = c * finv % p if p else c * finv
    for m, c in g.terms.items():
        m = monomial_mul(m, qg)
        c = terms.get(m, 0) - c * ginv
        if p:
            c %= p
        if c:
            terms[m] = c
        else:
            del terms[m]
    return Polynomial.from_clean(f.field, f.nvars, terms)


def buchberger(gens):
    """Reduced Groebner basis (degrevlex) of the ideal generated by gens.

    Processes S-pairs in order of (lcm degree, lcm, index); pairs with
    coprime leading terms are skipped. Raises ResourceLimitError after
    PAIR_CAP pair reductions.
    """
    basis = []
    for g in gens:
        if not g.is_zero:
            basis.append(g.monic())
    if not basis:
        return []
    heap = []

    def push_pairs(new_index):
        gm = basis[new_index].leading_term()[0]
        for i in range(new_index):
            im = basis[i].leading_term()[0]
            lcm = monomial_lcm(im, gm)
            if lcm == monomial_mul(im, gm):
                continue  # coprime leading terms: S-pair reduces to zero
            heapq.heappush(
                heap,
                (monomial_degree(lcm), degrevlex_key(lcm), i, new_index),
            )

    for idx in range(len(basis)):
        push_pairs(idx)
    processed = 0
    while heap:
        _, _, i, j = heapq.heappop(heap)
        processed += 1
        if processed > PAIR_CAP:
            raise ResourceLimitError(
                f"Groebner pair limit {PAIR_CAP} exceeded; ideal too complex"
            )
        s = s_polynomial(basis[i], basis[j])
        r = normal_form(s, basis)
        if not r.is_zero:
            basis.append(r.monic())
            push_pairs(len(basis) - 1)
    return _interreduce(basis)


def _interreduce(basis):
    """Minimalize leading terms, tail-reduce, sort by leading term."""
    basis = sorted(basis, key=lambda g: degrevlex_key(g.leading_term()[0]))
    minimal = []
    seen = set()
    for g in basis:
        gm = g.leading_term()[0]
        if gm in seen:
            continue
        if any(monomial_divides(h.leading_term()[0], gm) for h in minimal):
            continue
        minimal.append(g)
        seen.add(gm)
    reduced = []
    for idx, g in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1 :]
        r = normal_form(g, others) if others else g
        reduced.append(r.monic())
    reduced.sort(key=lambda g: degrevlex_key(g.leading_term()[0]))
    return reduced


def quotient_basis(gb, nvars: int):
    """Standard monomials of a zero-dimensional leading-term staircase.

    Raises AlgebraError when the quotient is not finite dimensional
    (some variable admits no pure power among the leading terms).
    """
    lts = [g.leading_term()[0] for g in gb]
    if any(monomial_degree(m) == 0 for m in lts):
        return []  # ideal contains a unit: zero ring
    bounds = []
    for i in range(nvars):
        pure = [
            m[i]
            for m in lts
            if m[i] > 0 and all(e == 0 for j, e in enumerate(m) if j != i)
        ]
        if not pure:
            raise AlgebraError(
                f"quotient is not finite dimensional: no pure power of "
                f"variable {i} among the leading terms"
            )
        bounds.append(min(pure))
    total = 1
    for b in bounds:
        total *= b
        if total > BOX_CAP:
            raise ResourceLimitError("staircase enumeration box too large")
    out = []
    import itertools

    for mon in itertools.product(*(range(b) for b in bounds)):
        if not any(monomial_divides(lt, mon) for lt in lts):
            out.append(mon)
            if len(out) > DIM_CAP:
                raise ResourceLimitError(
                    f"quotient dimension exceeds cap {DIM_CAP}"
                )
    out.sort(key=degrevlex_key)
    return out


# ---------------------------------------------------------------------------
# algebra construction


def build_algebra(pres: Presentation):
    """Quotient algebra k[vars]/I as a structure-constant table.

    The basis consists of the standard monomials sorted by degrevlex
    (degree first), so the unit is basis element 0 and the maximal
    ideal is spanned by the non-constant basis monomials.

    The table comes from the multiplication matrices X_v of the
    variables, row j = NF(x_v * e_j) (Faugere, Gianni, Lazard and Mora,
    JSC 16, 1993). A product x_v * e_j that is itself a standard
    monomial is its own normal form and is written into X_v directly;
    only the border monomials, the products outside the staircase, are
    divided by the Groebner basis. The standard monomials form
    an order ideal, so every e_i other than 1 is e_i' * x_v for some
    variable v and an earlier basis element e_i', and
    table[i] = table[i'] @ X_v. Normal forms are unique, so this is the
    table of the pairwise products NF(e_i * e_j).
    """
    field = pres.field
    n = len(pres.varnames)
    gb = buchberger(pres.gens)
    qb = quotient_basis(gb, n)
    if not qb:
        raise AlgebraError("the ideal contains a unit; the quotient is the zero ring")
    d = len(qb)
    index = {m: i for i, m in enumerate(qb)}
    xs = [tuple(int(u == v) for u in range(n)) for v in range(n)]
    xmats = field.zeros((n, d, d))
    for v, x in enumerate(xs):
        for j, mj in enumerate(qb):
            mon = monomial_mul(x, mj)
            if mon in index:  # a standard monomial is its own normal form
                xmats[v, j, index[mon]] = field.scalar(1)
                continue
            prod = Polynomial.from_monomial(field, n, mon, 1)
            for mon, c in normal_form(prod, gb).terms.items():
                xmats[v, j, index[mon]] = c
    one = index[(0,) * n]
    table = field.zeros((d, d, d))
    table[one] = field.eye(d)
    for i, mi in enumerate(qb):
        if i != one:
            v = next(u for u, e in enumerate(mi) if e)
            prev = index[monomial_quotient(mi, xs[v])]
            table[i] = field.matmul(table[prev], xmats[v])
    unit = field.zeros((d,))
    unit[one] = field.scalar(1)
    labels = [format_monomial(m, pres.varnames) for m in qb]
    return FiniteLocalAlgebra(
        field,
        table,
        unit,
        xmats[:, one],  # row v: NF(x_v * 1)
        labels=labels,
        presentation=pres.describe(),
    )


def algebra_from_text(text: str):
    return build_algebra(parse_presentation(text))


def _integer(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise AlgebraError(f"{key} must be an integer, got {value!r}")
    return value


def _list(value, key: str) -> list:
    if not isinstance(value, list):
        raise AlgebraError(f"{key} must be a list, got {type(value).__name__}")
    return value


def load_structure_constants(data: dict):
    """Algebra from an explicit structure-constant table.

    Expected keys: char, dim, basis (labels), unit (basis index),
    m_generators (list of basis indices), table (dim x dim nested lists,
    table[i][j] = coefficient vector of e_i * e_j). A value of the wrong
    shape or type raises AlgebraError naming its key, and a dim over
    DIM_CAP raises ResourceLimitError, both before the d x d x d table
    is allocated. The
    FiniteLocalAlgebra constructor checks commutativity and the unit on
    the basis, associativity on the slabs of the n generators of m, and
    locality; the last two together prove associativity on all of R.
    """
    if not isinstance(data, dict):
        raise AlgebraError("structure constants must be a JSON object")
    required = ("char", "dim", "basis", "unit", "m_generators", "table")
    for key in required:
        if key not in data:
            raise AlgebraError(f"structure constants missing key {key!r}")
    field = Field(_integer(data["char"], "char"))
    d = _integer(data["dim"], "dim")
    if d < 1:
        raise AlgebraError("dim must be at least 1")
    if d > DIM_CAP:
        raise ResourceLimitError(f"dim {d} exceeds cap {DIM_CAP}")
    labels = [str(s) for s in _list(data["basis"], "basis")]
    if len(labels) != d:
        raise AlgebraError(f"expected {d} basis labels, got {len(labels)}")

    def basis_vector(idx, what):
        idx = _integer(idx, what)
        if not 0 <= idx < d:
            raise AlgebraError(f"{what} index {idx} out of range 0..{d - 1}")
        v = field.zeros((d,))
        v[idx] = field.scalar(1)
        return v

    def coeff_vector(v, what):
        try:
            return field.asarray([field.parse_scalar(str(c)) for c in v])
        except (ValueError, ZeroDivisionError):
            raise AlgebraError(f"{what} is not a {field!r} vector: {v!r}") from None

    unit = basis_vector(data["unit"], "unit")
    mg = _list(data["m_generators"], "m_generators")
    if not mg:
        raise AlgebraError("m_generators must be nonempty")
    mgens = np.stack([basis_vector(i, "m_generator") for i in mg])
    table_data = _list(data["table"], "table")
    if len(table_data) != d or any(len(_list(r, "table row")) != d for r in table_data):
        raise AlgebraError(f"table must be {d}x{d} vectors of length {d}")
    for i, row in enumerate(table_data):
        for j, v in enumerate(row):
            if len(_list(v, f"table[{i}][{j}]")) != d:
                raise AlgebraError(f"table[{i}][{j}] must have length {d}")
    table = field.zeros((d, d, d))
    for i in range(d):
        for j in range(d):
            table[i, j] = coeff_vector(table_data[i][j], f"table[{i}][{j}]")
    return FiniteLocalAlgebra(field, table, unit, mgens, labels=labels)
