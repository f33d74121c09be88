"""Parsing, Groebner bases, and algebra construction from presentations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
