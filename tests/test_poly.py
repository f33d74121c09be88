"""Polynomial arithmetic and the degrevlex order."""

import pytest
from hypothesis import given, settings, strategies as st

from lindef.errors import LindefError
from lindef.fields import Field
from lindef.poly import (
    Polynomial,
    degrevlex_key,
    format_monomial,
    monomial_degree,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    monomial_quotient,
)

from references import leading_term_reference, shift_by_monomial

GF7 = Field(7)
GF101 = Field(101)
QQ = Field(0)


def P(field, nvars, terms):
    return Polynomial(field, nvars, terms)


class TestMonomials:
    def test_mul_quotient_roundtrip(self):
        a, b = (2, 1, 0), (1, 3, 4)
        assert monomial_quotient(monomial_mul(a, b), b) == a

    def test_divides(self):
        assert monomial_divides((1, 0), (2, 1))
        assert not monomial_divides((1, 2), (2, 1))

    def test_lcm(self):
        assert monomial_lcm((2, 0, 1), (1, 3, 1)) == (2, 3, 1)

    def test_degree(self):
        assert monomial_degree((2, 3, 0)) == 5

    def test_format(self):
        assert format_monomial((0, 0), ["x", "y"]) == "1"
        assert format_monomial((1, 2), ["x", "y"]) == "x*y^2"

    def test_degrevlex_ties_by_reversed_last_variable(self):
        # among degree-2 monomials in x, y: x^2 > x*y > y^2
        mons = [(0, 2), (2, 0), (1, 1)]
        mons.sort(key=degrevlex_key, reverse=True)
        assert mons == [(2, 0), (1, 1), (0, 2)]

    def test_degrevlex_degree_dominates(self):
        assert degrevlex_key((0, 3)) > degrevlex_key((2, 0))


class TestPolynomialArithmetic:
    def test_add_cancels(self):
        f = P(GF7, 1, {(1,): 3})
        g = P(GF7, 1, {(1,): 4})
        assert (f + g).is_zero

    def test_mul_binomial_square_char2(self):
        gf2 = Field(2)
        f = P(gf2, 2, {(1, 0): 1, (0, 1): 1})
        sq = f * f
        assert sq.terms == {(2, 0): 1, (0, 2): 1}

    def test_leading_term_degrevlex(self):
        f = P(GF101, 2, {(0, 1): 5, (2, 0): 7, (1, 1): 2})
        mon, c = f.leading_term()
        assert mon == (2, 0) and c == 7

    def test_zero_has_no_leading_term(self):
        with pytest.raises(LindefError):
            P(GF7, 2, {}).leading_term()

    def test_monic_over_rationals(self):
        from fractions import Fraction

        f = P(QQ, 1, {(2,): Fraction(3), (0,): Fraction(6)})
        m = f.monic()
        assert m.terms[(2,)] == 1 and m.terms[(0,)] == 2

    def test_mixed_ring_rejected(self):
        with pytest.raises(LindefError):
            P(GF7, 1, {(1,): 1}) + P(GF101, 1, {(1,): 1})

    def test_shift_by_monomial(self):
        f = P(GF7, 2, {(1, 0): 2, (0, 0): 1})
        g = shift_by_monomial(f, (0, 2), 3)
        assert g.terms == {(1, 2): 6, (0, 2): 3}
        assert g == f * P(GF7, 2, {(0, 2): 3})

    def test_to_string(self):
        f = P(GF101, 2, {(2, 0): 1, (1, 1): 100, (0, 0): 5})
        assert f.to_string(["x", "y"]) == "x^2 + 100*x*y + 5"


@given(
    st.lists(
        st.tuples(
            st.tuples(st.integers(0, 4), st.integers(0, 4)), st.integers(0, 6)
        ),
        max_size=8,
    ),
    st.lists(
        st.tuples(
            st.tuples(st.integers(0, 4), st.integers(0, 4)), st.integers(0, 6)
        ),
        max_size=8,
    ),
)
def test_mul_is_distributive_over_add(ta, tb):
    f = P(GF7, 2, dict(ta))
    g = P(GF7, 2, dict(tb))
    h = P(GF7, 2, {(1, 1): 3, (0, 2): 2})
    assert (f + g) * h == f * h + g * h


@given(
    st.lists(
        st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(1, 6)),
        min_size=1,
        max_size=6,
    )
)
def test_leading_term_of_product_multiplies(ta):
    f = P(GF7, 2, dict(ta))
    g = P(GF7, 2, {(2, 1): 4, (1, 0): 1})
    if f.is_zero:
        return
    mf, cf = f.leading_term()
    mg, cg = g.leading_term()
    mp, cp = (f * g).leading_term()
    # GF(7) has no zero divisors, so leading terms multiply
    assert mp == monomial_mul(mf, mg)
    assert cp == cf * cg % 7


def _terms(field):
    return st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.integers(-3, 3) if field.p == 0 else st.integers(0, field.p - 1),
        max_size=8,
    )


@pytest.mark.parametrize("field", [Field(2), GF101, Field(2**31 - 1), QQ], ids=repr)
@settings(max_examples=30, derandomize=True)
@given(data=st.data())
def test_every_result_leads_with_its_largest_term(field, data):
    """The leading term of each arithmetic result, cached or not, is the
    degrevlex-largest of its terms, and no result holds a zero term."""
    f = P(field, 2, data.draw(_terms(field)))
    g = P(field, 2, data.draw(_terms(field)))
    c = data.draw(st.integers(-3, 3))
    results = [f + g, f - g, -f, f * g, f * c, c * g]
    if not f.is_zero:
        results.append(f.monic())
    for h in results:
        assert all(v != 0 for v in h.terms.values())
        if not h.is_zero:
            assert h.leading_term() == leading_term_reference(h)
