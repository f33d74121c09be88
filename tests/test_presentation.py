"""Parsing, Groebner bases, and algebra construction from presentations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lindef.algebra import FiniteLocalAlgebra
from lindef.errors import AlgebraError, LindefError, ParseError
from lindef.fields import Field
from lindef.lab import ScanConfig, random_algebra
from lindef.poly import Polynomial
from lindef.presentation import (
    Presentation,
    algebra_from_text,
    buchberger,
    build_algebra,
    load_structure_constants,
    normal_form,
    parse_presentation,
    quotient_basis,
)

from references import input_table, mult, pairwise_table

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
        g = f * pres.gens[0] + f.shift_by_monomial((0, 1), 1) * pres.gens[1]
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
