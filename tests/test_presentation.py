"""Parsing, Groebner bases, and algebra construction from presentations."""

import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lindef
from lindef.algebra import FiniteLocalAlgebra
from lindef import presentation
from lindef.errors import AlgebraError, LindefError, ParseError, ResourceLimitError
from lindef.fields import Field
from lindef.lab import ScanConfig, random_algebra
from lindef.poly import Polynomial, format_monomial
from lindef.presentation import (
    Presentation,
    algebra_from_text,
    buchberger,
    build_algebra,
    load_structure_constants,
    normal_form,
    parse_presentation,
    quotient_basis,
    s_polynomial,
)

from references import (
    buchberger_reference,
    input_table,
    leading_term_reference,
    mult,
    normal_form_reference,
    pairwise_table,
    s_polynomial_reference,
)

GF101 = Field(101)
GF7 = Field(7)


def poly(text, nvars=2, char=101):
    pres = parse_presentation(
        f"char {char}\nvars {' '.join('xyzw'[:nvars])}\nideal {text}\n"
    )
    return pres.gens[0]


class TestParser:
    def test_smallest_case(self):
        pres = parse_presentation("char 101\nvars x\nideal x^2\n")
        assert pres.field.p == 101
        assert pres.varnames == ["x"]
        assert pres.gens[0].terms == {(2,): 1}

    def test_three_generators(self):
        pres = parse_presentation("char 101\nvars x y\nideal x^2, x*y, y^2\n")
        assert len(pres.gens) == 3

    def test_default_characteristic(self):
        pres = parse_presentation("vars x\nideal x^2\n")
        assert pres.field.p == 101

    def test_unknown_variable_has_position(self):
        with pytest.raises(ParseError) as exc:
            parse_presentation("vars x\nideal x^2 - y\n")
        assert "y" in str(exc.value)
        assert "line 2" in str(exc.value)

    def test_char_must_precede_vars(self):
        with pytest.raises(ParseError):
            parse_presentation("vars x\nchar 7\nideal x^2\n")

    def test_non_prime_characteristic(self):
        with pytest.raises(LindefError):
            parse_presentation("char 6\nvars x\nideal x^2\n")

    def test_missing_vars(self):
        with pytest.raises(ParseError):
            parse_presentation("char 7\n")

    def test_duplicate_variable(self):
        with pytest.raises(ParseError):
            parse_presentation("vars x x\nideal x^2\n")

    def test_rational_coefficients_require_char_zero(self):
        pres = parse_presentation("char 0\nvars x\nideal 1/2*x^2\n")
        from fractions import Fraction

        assert pres.gens[0].terms[(2,)] == Fraction(1, 2)
        with pytest.raises(ParseError):
            parse_presentation("char 7\nvars x\nideal 1/2*x^2\n")

    def test_comments_and_whitespace(self):
        pres = parse_presentation(
            "# a ring\nchar 101\nvars x y  # two variables\nideal x^2, y^2\n"
        )
        assert len(pres.gens) == 2

    def test_to_text_roundtrip(self):
        text = "char 101\nvars x y\nideal x^2 + 3*x*y, y^3\n"
        pres = parse_presentation(text)
        again = parse_presentation(pres.to_text())
        assert again.varnames == pres.varnames
        assert again.gens == pres.gens


class TestGroebner:
    def test_monomial_ideal_is_its_own_basis(self):
        pres = parse_presentation("vars x y\nideal x^2, x*y, y^2\n")
        gb = buchberger(pres.gens)
        lts = sorted(g.leading_term()[0] for g in gb)
        assert lts == [(0, 2), (1, 1), (2, 0)]

    def test_inhomogeneous_pair(self):
        # (y - x^2, x^3): degrevlex picks x^2 as the lead of the first
        # generator, and the reduced basis is {x^2 - y, x*y, y^2}
        pres = parse_presentation("vars x y\nideal y - x^2, x^3\n")
        gb = buchberger(pres.gens)
        lts = sorted(g.leading_term()[0] for g in gb)
        assert lts == [(0, 2), (1, 1), (2, 0)]
        std = quotient_basis(gb, 2)
        assert sorted(std) == [(0, 0), (0, 1), (1, 0)]  # 1, y, x

    def test_quotient_basis_distinct_quadrics(self):
        pres = parse_presentation("vars x y\nideal x^2, y^2\n")
        gb = buchberger(pres.gens)
        std = sorted(quotient_basis(gb, 2))
        assert std == [(0, 0), (0, 1), (1, 0), (1, 1)]  # 1, y, x, xy

    def test_infinite_dimensional_rejected(self):
        pres = parse_presentation("vars x y\nideal x^2\n")
        gb = buchberger(pres.gens)
        with pytest.raises(AlgebraError, match="finite"):
            quotient_basis(gb, 2)

    def test_resource_caps(self, monkeypatch):
        assert (presentation.PAIR_CAP, presentation.DIM_CAP,
                presentation.BOX_CAP) == (20000, 361, 18050)
        with pytest.raises(ResourceLimitError, match="^quotient dimension exceeds cap 361$"):
            algebra_from_text("vars x y\nideal x^45, y^45")  # dim 2025
        with pytest.raises(ResourceLimitError, match="^staircase enumeration box too large$"):
            algebra_from_text("vars x y\nideal x^400, x*y, y^400")  # dim 799
        monkeypatch.setattr(presentation, "PAIR_CAP", 0)
        with pytest.raises(ResourceLimitError,
                           match="^Groebner pair limit 0 exceeded; ideal too complex$"):
            algebra_from_text("vars x y\nideal y - x^2, x^3")

    def test_normal_form_is_idempotent(self):
        pres = parse_presentation("vars x y\nideal y - x^2, x^3\n")
        gb = buchberger(pres.gens)
        f = poly("x^2*y + x + y")
        nf = normal_form(f, gb)
        assert normal_form(nf, gb) == nf

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.tuples(st.integers(0, 3), st.integers(0, 3)),
                st.integers(0, 100),
            ),
            max_size=5,
        )
    )
    def test_normal_form_kills_ideal_members(self, terms):
        pres = parse_presentation("vars x y\nideal x^2 + y, y^2\n")
        gb = buchberger(pres.gens)
        f = Polynomial(GF101, 2, dict(terms))
        y = Polynomial.from_monomial(GF101, 2, (0, 1))
        g = f * pres.gens[0] + f * y * pres.gens[1]
        assert normal_form(g, gb).is_zero


class TestBuildAlgebra:
    def test_x2_table(self):
        A = algebra_from_text("char 101\nvars x\nideal x^2\n")
        assert A.dim == 2
        assert A.labels == ["1", "x"]
        x = A.mgens[0]
        assert mult(A, x, x).tolist() == [0, 0]

    def test_unit_and_locality(self):
        A = algebra_from_text("vars x y\nideal x^2, x*y, y^2\n")
        assert A.dim == 3
        one = A.field.zeros((A.dim,))
        one[A.labels.index("1")] = 1
        assert (mult(A, one, A.mgens[0]) == A.mgens[0]).all()

    def test_field_quotient(self):
        A = algebra_from_text("vars x\nideal x\n")
        assert A.dim == 1
        assert A.nilpotency_index == 1

    def test_inhomogeneous_yields_hypersurface_structure(self):
        A = algebra_from_text("vars x y\nideal y - x^2, x^3\n")
        assert A.dim == 3
        assert [s.dim for s in A.filtration] == [3, 2, 1, 0]


class TestTableParity:
    """build_algebra's multiplication-matrix table, read in the standard
    monomial basis, equals the table of pairwise normal forms, entry for
    entry."""

    @pytest.mark.parametrize("char", [2, 101, 2**31 - 1, 0])
    @pytest.mark.parametrize("ideal", [
        "x^2 + 3*x*y + 5*y^2, 7*x*y + 2*y^2, x^3, y^3",
        "y - x^2, x^3",
        "x^2 - y*z, y^2, z^3, x*z",
    ])
    def test_presentations(self, char, ideal):
        names = "x y z" if "z" in ideal else "x y"
        pres = parse_presentation(f"char {char}\nvars {names}\nideal {ideal}\n")
        table = input_table(build_algebra(pres))
        assert np.array_equal(table, pairwise_table(pres))

    def test_scan_samples(self):
        cfg = ScanConfig(nvars=3, nilpotency=4, horizon=2, count=6, seed=4)
        for index in range(cfg.count):
            algebra = random_algebra(cfg, index)
            desc = algebra.presentation
            pres = parse_presentation(
                f"char {desc['char']}\nvars {' '.join(desc['vars'])}\n"
                f"ideal {', '.join(desc['ideal'])}\n"
            )
            assert np.array_equal(input_table(algebra), pairwise_table(pres))


FIELDS = [Field(2), GF101, Field(2**31 - 1), Field(0)]


def _polynomial(draw, field, n, degrees):
    """Two to four terms, each of total degree in `degrees`, with
    nonzero coefficients."""
    mons = [m for m in itertools.product(range(max(degrees) + 1), repeat=n)
            if sum(m) in degrees]
    chosen = draw(st.lists(st.sampled_from(mons), min_size=min(2, len(mons)),
                           max_size=4, unique=True))
    if field.p:
        coefficient = st.integers(1, field.p - 1)
    else:
        coefficient = st.integers(-3, 3).filter(bool)
    return Polynomial(field, n, {m: draw(coefficient) for m in chosen})


@st.composite
def presentations(draw, field, homogeneous, local=False):
    """One to three generators over `field` without constant term, each
    homogeneous of one degree or spread over degrees 1 to 3; with
    local=True also a pure power of every variable, so the quotient is a
    finite local algebra."""
    n = draw(st.integers(2, 3))
    gens = []
    if local:
        top = 5 if n == 2 else 3
        for v in range(n):
            power = tuple(draw(st.integers(2, top)) * (u == v) for u in range(n))
            gens.append(Polynomial.from_monomial(field, n, power))
    for _ in range(draw(st.integers(1, 3))):
        if homogeneous:
            degrees = [draw(st.integers(1, 3))]
        else:
            degrees = range(1, draw(st.integers(2, 3)) + 1)
        gens.append(_polynomial(draw, field, n, degrees))
    return Presentation(field, list("xyz"[:n]), draw(st.permutations(gens)))


@pytest.mark.parametrize("homogeneous", [True, False],
                         ids=["homogeneous", "inhomogeneous"])
@pytest.mark.parametrize("field", FIELDS, ids=repr)
class TestRingBuildReference:
    """Groebner bases, normal forms and tables equal those of the
    reference ring build by plain Polynomial arithmetic (references.py),
    term for term."""

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_groebner_basis(self, field, homogeneous, data):
        pres = data.draw(presentations(field, homogeneous))
        gb = buchberger(pres.gens)
        assert [g.terms for g in gb] == [
            g.terms for g in buchberger_reference(pres.gens)
        ]
        for g in gb:
            assert g.leading_term() == leading_term_reference(g)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_normal_forms(self, field, homogeneous, data):
        pres = data.draw(presentations(field, homogeneous))
        n = len(pres.varnames)
        gb = buchberger(pres.gens)
        for _ in range(3):
            f = _polynomial(data.draw, field, n, range(6))
            # the generators are no Groebner basis: the divisor order counts
            for divisors in (gb, pres.gens):
                nf = normal_form(f, divisors)
                assert nf.terms == normal_form_reference(f, divisors).terms
                if not nf.is_zero:
                    assert nf.leading_term() == leading_term_reference(nf)
        for f, g in itertools.combinations(gb + pres.gens, 2):
            sp = s_polynomial(f, g)
            assert sp.terms == s_polynomial_reference(f, g).terms
            if not sp.is_zero:
                assert sp.leading_term() == leading_term_reference(sp)

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_build_algebra(self, field, homogeneous, data):
        pres = data.draw(presentations(field, homogeneous, local=True))
        algebra = build_algebra(pres)
        qb = quotient_basis(buchberger_reference(pres.gens), len(pres.varnames))
        assert algebra.labels == [format_monomial(m, pres.varnames) for m in qb]
        assert np.array_equal(input_table(algebra), pairwise_table(pres))


class TestStructureConstants:
    def roundtrip(self, text):
        A = algebra_from_text(text)
        d = A.dim
        data = {
            "char": A.field.p,
            "dim": d,
            "basis": A.labels,
            "unit": int(np.flatnonzero(A.unit)[0]),
            "m_generators": [int(np.flatnonzero(g)[0]) for g in A.mgens],
            "table": [
                [[int(c) for c in A.table[i, j]] for j in range(d)]
                for i in range(d)
            ],
        }
        return A, load_structure_constants(data)

    def test_roundtrip_x3(self):
        A, B = self.roundtrip("vars x\nideal x^3\n")
        assert (A.table == B.table).all()
        assert B.nilpotency_index == 3

    def test_broken_associativity_rejected(self):
        data = {
            "char": 7,
            "dim": 2,
            "basis": ["1", "x"],
            "unit": 0,
            "m_generators": [1],
            "table": [
                [[1, 0], [0, 1]],
                [[0, 1], [1, 0]],  # x*x = 1 makes x a unit
            ],
        }
        with pytest.raises(AlgebraError):
            load_structure_constants(data)

    def test_unit_index_out_of_range(self):
        data = {
            "char": 7,
            "dim": 1,
            "basis": ["1"],
            "unit": 3,
            "m_generators": [],
            "table": [[[1]]],
        }
        with pytest.raises(LindefError):
            load_structure_constants(data)

    def test_missing_key_named(self):
        with pytest.raises(LindefError, match="table"):
            load_structure_constants(
                {"char": 7, "dim": 1, "basis": ["1"], "unit": 0,
                 "m_generators": []}
            )


# any value json.load can return: JSON scalars (with Python's NaN and
# Infinity, and integers far past 2^63) nested in lists and objects
JSON_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-(2**70), 2**70),
        st.floats(), st.text(max_size=4),
    ),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def structure_constants(draw):
    """A commutative, unital structure-constant table of dim <= 4 with
    small entries, so that the law, filtration and locality checks run,
    then up to two mutations: a key deleted, or a key, table row or
    entry replaced by arbitrary JSON."""
    d = draw(st.integers(1, 4))
    unit = draw(st.integers(0, d - 1))
    flat = draw(st.lists(st.integers(-1, 2), min_size=d**3, max_size=d**3))
    table = [[flat[(i * d + j) * d:(i * d + j + 1) * d] for j in range(d)]
             for i in range(d)]
    for i in range(d):
        table[i][unit] = table[unit][i] = [int(k == i) for k in range(d)]
        for j in range(i):
            table[i][j] = table[j][i]
    data = {
        "char": draw(st.sampled_from([2, 3, 101, 2**31 - 1, 0])),
        "dim": d,
        "basis": [f"e{i}" for i in range(d)],
        "unit": unit,
        "m_generators": draw(st.lists(st.integers(0, d - 1), min_size=1,
                                      max_size=d)),
        "table": table,
    }
    odd = st.one_of(
        st.sampled_from([-1, d, 2**70, "1/2", "1/0", " 4", "x", 1.5, 1e400]),
        JSON_VALUES,
    )
    for _ in range(draw(st.integers(0, 2))):
        target = draw(st.sampled_from(["key", "row", "entry", "delete"]))
        if target == "key":
            data[draw(st.sampled_from(sorted(data)))] = draw(odd)
        elif target == "delete":
            data.pop(draw(st.sampled_from(sorted(data))))
        else:
            i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
            if target == "row":
                table[i][j] = draw(odd)
            elif isinstance(table[i][j], list) and table[i][j]:
                table[i][j][draw(st.integers(0, len(table[i][j]) - 1))] = draw(odd)
    return data


@settings(max_examples=150, deadline=2000, derandomize=True)
@given(structure_constants())
def test_fuzzed_tables_load_or_raise_lindef_error(data):
    # never an IndexError, ValueError or other stray exception: every
    # malformed, non-associative or non-local table is a LindefError
    try:
        algebra = load_structure_constants(data)
    except LindefError:
        return
    assert isinstance(algebra, FiniteLocalAlgebra)


# pieces of presentation text: keywords, names, numbers (a superscript
# digit, an Arabic-Indic one and one past Python's int-string limit
# among them), operators and separators, besides arbitrary characters
TEXT_PIECES = st.one_of(
    st.sampled_from([
        "char", "vars", "ideal", "x", "y", "z", "x1", "_", "0", "1", "2", "3",
        "7", "101", "2147483647", "4294967296", "10000", "²", "٣", "9" * 5000,
        "+", "-", "*", "^", ",", "/", " ", "\n", "\t", "#", "\r",
    ]),
    st.text(max_size=3),
)


@st.composite
def presentation_texts(draw):
    """Either text built from TEXT_PIECES after a head that may be well
    formed, or a well-formed presentation (small exponents, pure powers
    of each variable most of the time, so the Groebner basis and the
    ring build run) with up to two pieces spliced in anywhere."""
    if draw(st.booleans()):
        head = draw(st.sampled_from(["", "vars x y\nideal ",
                                     "char 0\nvars x y z\nideal "]))
        return head + "".join(draw(st.lists(TEXT_PIECES, max_size=24)))
    names = ["x", "y", "z"][:draw(st.integers(1, 3))]
    term = st.tuples(st.integers(-3, 3), st.lists(
        st.tuples(st.sampled_from(names), st.integers(0, 4)), max_size=3))
    gens = [f"{v}^{draw(st.integers(1, 4))}" for v in names
            if draw(st.integers(0, 4))]
    for poly in draw(st.lists(st.lists(term, min_size=1, max_size=3), max_size=3)):
        gens.append(" + ".join(
            "*".join([str(c)] + [f"{v}^{e}" for v, e in mons]) for c, mons in poly))
    char = draw(st.sampled_from(["", "char 0\n", "char 2\n", "char 7\n"]))
    text = f"{char}vars {' '.join(names)}\nideal {', '.join(gens)}\n"
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(TEXT_PIECES) + text[at:]
    return text


@settings(max_examples=300, deadline=2000, derandomize=True)
@given(presentation_texts())
def test_fuzzed_presentations_build_or_raise_lindef_error(text):
    # never an IndexError, ValueError or other stray exception, and no
    # hang: every malformed or infinite presentation is a LindefError
    try:
        algebra = algebra_from_text(text)
    except LindefError:
        return
    assert isinstance(algebra, FiniteLocalAlgebra)


@pytest.mark.parametrize("ideal, want", [
    # dim 361 = DIM_CAP: the largest ring the cap admits builds
    ("x^19, y^19", "361 True"),
    # dim 1936: refused while the staircase is enumerated, before the
    # 58 GB table is asked for
    ("x^44, y^44", "ResourceLimitError: quotient dimension exceeds cap 361"),
], ids=["at the cap", "dim 1936"])
def test_dim_cap_fits_in_two_gib(ideal, want):
    """A ring at the dimension cap builds under a 2 GiB address space;
    one above it raises ResourceLimitError first."""
    pytest.importorskip("resource")
    script = textwrap.dedent(f"""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
        from lindef.errors import ResourceLimitError
        from lindef.presentation import DIM_CAP, algebra_from_text
        try:
            algebra = algebra_from_text("vars x y\\nideal {ideal}")
        except ResourceLimitError as exc:
            print(f"ResourceLimitError: {{exc}}")
        else:
            print(algebra.dim, algebra.dim == DIM_CAP)
    """)
    src = str(Path(lindef.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == want
