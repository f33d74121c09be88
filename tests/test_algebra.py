"""Structure-constant algebras: laws, filtration, graded pieces, modules."""

import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lindef
from lindef.algebra import FiniteLocalAlgebra, RModule, quotient_module
from lindef.errors import AlgebraError, LindefError
from lindef._kernels import exact_dtype
from lindef.fields import Field, _is_prime
from lindef.presentation import algebra_from_text

from references import (
    basis_slab_check, dense_associative, input_table, mult, operator,
)

GF101 = Field(101)
# the law check on float64, on int64 above 2^53 by far, and on int64 for
# the smallest prime p with 7 (p-1)^2 >= 2^53 (a dim-7 ring)
LAW_CHECK_PRIMES = [101, 2**31 - 1, 35871217]


def ring(text):
    return algebra_from_text(text)


X4 = ring("vars x\nideal x^4")
QQ_RING = ring("char 0\nvars x y\nideal x^2, x*y, y^3")
KOSZUL3 = ring("vars x y z\nideal x^2, x*y, y^2, x*z, y*z, z^2")
FIELD = ring("vars x\nideal x")


class TestFiltration:
    def test_x4_chain(self):
        assert [s.dim for s in X4.filtration] == [4, 3, 2, 1, 0]
        assert X4.nilpotency_index == 4

    def test_koszul3_chain(self):
        assert [s.dim for s in KOSZUL3.filtration] == [4, 3, 0]
        assert KOSZUL3.nilpotency_index == 2

    def test_field_chain(self):
        assert [s.dim for s in FIELD.filtration] == [1, 0]
        assert FIELD.nilpotency_index == 1

    def test_graded_dims(self):
        assert X4.graded().dims == [1, 1, 1, 1]
        assert KOSZUL3.graded().dims == [1, 3]

    def test_power_endpoints(self):
        assert X4.power(0).dim == 4
        assert X4.power(4).dim == 0
        assert X4.power(99).dim == 0
        assert X4.power(-1).dim == 4


class TestLawValidation:
    def test_non_commutative_rejected(self):
        f = Field(7)
        table = f.zeros((2, 2, 2))
        table[0, 0] = [1, 0]
        table[0, 1] = [0, 1]
        table[1, 0] = [0, 0]  # e1*e0 != e0*e1
        table[1, 1] = [0, 0]
        with pytest.raises(AlgebraError, match="commut"):
            FiniteLocalAlgebra(f, table, f.asarray([1, 0]), f.asarray([[0, 1]]))

    def test_unit_must_act_as_identity(self):
        f = Field(7)
        table = f.zeros((2, 2, 2))
        table[0, 0] = [1, 0]
        table[0, 1] = [0, 2]
        table[1, 0] = [0, 2]
        table[1, 1] = [0, 0]
        with pytest.raises(AlgebraError, match="unit"):
            FiniteLocalAlgebra(f, table, f.asarray([1, 0]), f.asarray([[0, 1]]))

    @pytest.mark.parametrize("char", [7, 0], ids=["GF7", "QQ"])
    def test_non_associative_rejected(self, char):
        # basis 1, a, b with a^2 = b, ab = 0, b^2 = b: commutative and
        # unital, but a * (a * b) = 0 while (a * a) * b = b
        f = Field(char)
        table = f.zeros((3, 3, 3))
        for j in range(3):
            table[0, j, j] = table[j, 0, j] = 1
        table[1, 1, 2] = 1
        table[2, 2, 2] = 1
        with pytest.raises(AlgebraError, match=r"not associative: x\*\(e1\*e2\)"):
            FiniteLocalAlgebra(
                f, table, f.asarray([1, 0, 0]), f.asarray([[0, 1, 0], [0, 0, 1]])
            )

    @pytest.mark.parametrize("char", LAW_CHECK_PRIMES)
    def test_single_corrupted_entries_against_dense_reference(self, char):
        # every symmetric one-entry change of k[x,y]/(x^3, y^3, xy^2) off
        # the unit row: rejected as non-associative exactly when the dense
        # (e_i e_j) e_k = e_i (e_j e_k) comparison over all triples fails
        A = ring(f"char {char}\nvars x y\nideal x^3, y^3, x*y^2")
        f, d = A.field, A.dim

        def associative(t):
            t = t.astype(object)
            left = np.einsum("iju,ukl->ijkl", t, t) % f.p
            right = np.einsum("jku,iul->ijkl", t, t) % f.p
            return (left == right).all()

        assert associative(A.table)
        caught = 0
        for i in range(1, d):
            for j in range(i, d):
                for u in range(d):
                    t = A.table.copy()
                    t[i, j, u] = t[j, i, u] = (t[i, j, u] + 1) % f.p
                    try:
                        FiniteLocalAlgebra(f, t, A.unit, A.mgens)
                        rejected = False
                    except AlgebraError as exc:
                        rejected = "not associative" in str(exc)
                    assert rejected == (not associative(t)), (i, j, u)
                    caught += rejected
        assert caught > 100

    def test_law_check_primes_straddle_the_float64_bound(self):
        # the last prime runs the law check of the dim-7 ring above on
        # int64, though the prime below it would still be exact in float64
        d = 7
        assert [exact_dtype(d, p) for p in LAW_CHECK_PRIMES] == [
            np.float64, np.int64, np.int64,
        ]
        q = LAW_CHECK_PRIMES[-1] - 1
        while not _is_prime(q):
            q -= 1
        assert exact_dtype(d, q) is np.float64

    @pytest.mark.parametrize("char", LAW_CHECK_PRIMES)
    def test_first_failing_triple_is_reported(self, char):
        # faults at e1*e2 and e4*e5 break the law in slabs 1, 2, 4 and 5.
        # Reported: the smallest i, then module vector x, then j; the
        # smallest (i, j) pair would name e1*e2 with x = 5 instead
        A = ring(f"char {char}\nvars x y\nideal x^3, y^3, x*y^2")
        f = A.field
        t = A.table.copy()
        for i, j, u in [(1, 2, 4), (4, 5, 1)]:
            t[i, j, u] = t[j, i, u] = (t[i, j, u] + 1) % f.p
        o = t.astype(object)
        left = np.einsum("iju,uxl->ixjl", o, o)
        right = np.einsum("ixv,jvl->ixjl", o, o)
        failing = np.argwhere(((left - right) % f.p != 0).any(axis=3))
        assert {int(i) for i in failing[:, 0]} == {1, 2, 4, 5}
        i, x, j = failing[0]
        assert (i, x, j) == (1, 2, 5)
        with pytest.raises(AlgebraError) as exc:
            FiniteLocalAlgebra(f, t, A.unit, A.mgens)
        assert str(exc.value) == (
            "action is not associative: x*(e1*e5) != (x*e1)*e5 "
            "for module basis vector x = 2"
        )

    def test_non_nilpotent_generators_rejected(self):
        # k x k with idempotent e: not local
        f = Field(7)
        table = f.zeros((2, 2, 2))
        table[0, 0] = [1, 0]
        table[0, 1] = [0, 1]
        table[1, 0] = [0, 1]
        table[1, 1] = [0, 1]  # e^2 = e
        with pytest.raises(AlgebraError):
            FiniteLocalAlgebra(f, table, f.asarray([1, 0]), f.asarray([[0, 1]]))


# small rings for the generator-slab properties: monomial, exterior-like
# in three variables, a power of one variable, and a non-homogeneous
# presentation whose input table is rebased
SLAB_RINGS = [
    "vars x y\nideal x^3, y^3, x*y^2",
    "vars x y z\nideal x^2, y^2, z^2, x*y*z",
    "vars x\nideal x^5",
    "vars x y\nideal x^2 - y^5, x*y, y^6",
]
SLAB_FIELDS = [2, 101, 2**31 - 1, 0]


@lru_cache(maxsize=None)
def slab_ring(char, text):
    return ring(f"char {char}\n{text}")


def input_laws(algebra):
    """(table, unit, mgens) of an algebra in its input basis."""
    f, basis = algebra.field, algebra.input_basis
    if basis is None:
        return algebra.table, algebra.unit, algebra.mgens
    return (input_table(algebra), f.matmul(algebra.unit[None], basis)[0],
            f.matmul(algebra.mgens, basis))


def slab_message(field, table, act):
    """The first failing triple of the d basis slabs, or None."""
    try:
        basis_slab_check(field, table, act)
    except AlgebraError as exc:
        return str(exc)
    return None


@st.composite
def corruptions(draw, field, *axes):
    """One to three (index, nonzero delta) pairs, coordinate k of the
    index drawn from axes[k]."""
    out = []
    for _ in range(draw(st.integers(1, 3))):
        index = tuple(draw(st.sampled_from(axis)) for axis in axes)
        if field.p:
            delta = draw(st.integers(1, field.p - 1))
        else:
            delta = Fraction(draw(st.integers(1, 5)), draw(st.integers(1, 3)))
            delta *= draw(st.sampled_from([1, -1]))
        out.append((index, delta))
    return out


class TestGeneratorSlabs:
    """The n generator slabs against the dense all-triples reference."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_corrupted_rings_against_dense_reference(self, data):
        # symmetric corruptions off the unit row keep commutativity and
        # the unit: the table is rejected as not associative exactly when
        # the dense reference rejects it, with the d-slab loop's message
        char = data.draw(st.sampled_from(SLAB_FIELDS))
        A = slab_ring(char, data.draw(st.sampled_from(SLAB_RINGS)))
        f = A.field
        table, unit, mgens = input_laws(A)
        assert unit.tolist() == [1] + [0] * (A.dim - 1)
        t = table.copy()
        # a product inside the last graded piece (the socle's top) keeps
        # the table associative: half the factors and targets come from
        # its index range (of the adapted basis; the rebased ring's input
        # basis just reuses the range)
        top = A.quotient_dim(A.nilpotency_index - 1)
        factors = range(data.draw(st.sampled_from([1, top])), A.dim)
        targets = range(data.draw(st.sampled_from([0, top])), A.dim)
        for (i, j, u), delta in data.draw(
                corruptions(f, factors, factors, targets)):
            t[i, j, u] = t[j, i, u] = f.add(t[i, j, u], delta)
        try:
            FiniteLocalAlgebra(f, t, unit, mgens)
            message = None
        except AlgebraError as exc:
            message = str(exc)
        associative = dense_associative(f, t, t)
        if associative:
            assert message is None or "not associative" not in message
        else:
            assert message == slab_message(f, t, t)
            assert message.startswith("action is not associative: ")

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.data())
    def test_corrupted_quotient_actions_against_dense_reference(self, data):
        # corruptions of the actions of basis elements outside the unit's
        # support keep the unit law of R/F_n
        char = data.draw(st.sampled_from(SLAB_FIELDS))
        A = slab_ring(char, data.draw(st.sampled_from(SLAB_RINGS)))
        f = A.field
        n = data.draw(st.integers(1, A.nilpotency_index))
        Q = quotient_module(A, n)
        act = Q.act.copy()
        rows = [u for u in range(A.dim) if A.unit[u] == 0]
        top = A.quotient_dim(n - 1)
        sources = range(data.draw(st.sampled_from([0, top])), Q.dim)
        targets = range(data.draw(st.sampled_from([0, top])), Q.dim)
        for index, delta in data.draw(corruptions(f, rows, sources, targets)):
            act[index] = f.add(act[index], delta)
        try:
            RModule(A, Q.dim, act)
            message = None
        except AlgebraError as exc:
            message = str(exc)
        if dense_associative(f, A.table, act):
            assert message is None
        else:
            assert message == slab_message(f, A.table, act)
            assert message.startswith("action is not associative: ")

    @staticmethod
    def count_products(monkeypatch):
        calls = []
        product = Field.exact_matmul

        def counted(self, a, b):
            calls.append(a.shape)
            return product(self, a, b)

        monkeypatch.setattr(Field, "exact_matmul", counted)
        return calls

    @pytest.mark.parametrize("algebra", [X4, KOSZUL3, QQ_RING],
                             ids=["X4", "KOSZUL3", "QQ"])
    def test_valid_ring_and_module_check_the_generator_slabs(
            self, algebra, monkeypatch):
        # two products per generator of m, none per basis element
        f, n = algebra.field, len(algebra.mgens)
        calls = self.count_products(monkeypatch)
        FiniteLocalAlgebra(f, algebra.table, algebra.unit, algebra.mgens)
        assert len(calls) == 2 * n
        del calls[:]
        Q = quotient_module(algebra, 2)
        RModule(algebra, Q.dim, Q.act)
        assert len(calls) == 2 * n

    def test_non_local_table_runs_the_basis_slabs_first(self, monkeypatch):
        # k x k with e^2 = e is associative: the nilpotency error stands,
        # after the 2n generator products and the 2d basis products
        f = Field(7)
        table = f.zeros((2, 2, 2))
        table[0, 0] = [1, 0]
        table[0, 1] = table[1, 0] = table[1, 1] = [0, 1]
        calls = self.count_products(monkeypatch)
        with pytest.raises(AlgebraError, match="not nilpotent"):
            FiniteLocalAlgebra(f, table, f.asarray([1, 0]), f.asarray([[0, 1]]))
        assert len(calls) == 2 * 1 + 2 * 2

    @pytest.mark.parametrize("char", [7, 0], ids=["GF7", "QQ"])
    def test_associativity_hidden_from_the_generator_slabs(self, char):
        # basis 1, a, b with a^2 = b, ab = 0, b^2 = b and m generated by
        # b alone: the slab of b passes and the ideal stalls at span(b),
        # but a * (a * b) = 0 while (a * a) * b = b, and that is reported
        f = Field(char)
        table = f.zeros((3, 3, 3))
        for j in range(3):
            table[0, j, j] = table[j, 0, j] = 1
        table[1, 1, 2] = 1
        table[2, 2, 2] = 1
        def prod(u, v):
            return f.matmul(u[None], operator(f, table, v))[0]

        basis, b = f.eye(3), f.asarray([0, 0, 1])
        assert all((prod(x, prod(b, c)) == prod(prod(x, b), c)).all()
                   for x in basis for c in basis)
        assert not dense_associative(f, table, table)
        with pytest.raises(AlgebraError) as exc:
            FiniteLocalAlgebra(f, table, f.asarray([1, 0, 0]), b[None])
        assert str(exc.value) == (
            "action is not associative: x*(e1*e2) != (x*e1)*e2 "
            "for module basis vector x = 1"
        )
        assert str(exc.value) == slab_message(f, table, table)


class TestMultiplication:
    def test_x4_powers(self):
        x = X4.mgens[0]
        x2 = mult(X4, x, x)
        x3 = mult(X4, x2, x)
        assert x2.tolist() == [0, 0, 1, 0]
        assert x3.tolist() == [0, 0, 0, 1]
        assert mult(X4, x3, x).tolist() == [0, 0, 0, 0]

    def test_format_element(self):
        x = X4.mgens[0]
        assert X4.format_element(mult(X4, x, x)) == "x^2"
        assert X4.format_element(X4.field.zeros((4,))) == "0"

    def test_component_product_x4(self):
        gr = X4.graded()
        t = gr.component_product(1, 1)
        # gr_1 x gr_1 -> gr_2 is 1x1x1 and sends x (x) x to x^2
        assert t.shape == (1, 1, 1)
        assert t[0, 0, 0] == 1

    def test_component_product_koszul3_vanishes(self):
        gr = KOSZUL3.graded()
        assert gr.component_product(1, 1).shape == (3, 3, 0)


class TestQuotientModules:
    def test_dims_ladder(self):
        dims = [quotient_module(X4, n).dim for n in range(6)]
        assert dims == [0, 1, 2, 3, 4, 4]

    def test_action_matches_multiplication(self):
        Q = quotient_module(X4, 2)  # R/m^2, basis classes of 1, x
        x = X4.mgens[0]
        act = operator(Q.field, Q.act, x)
        # 1 -> x, x -> x^2 = 0 in the quotient
        assert act.tolist() == [[0, 1], [0, 0]]

    def test_residue_field(self):
        k = X4.residue_field()
        assert k.dim == 1
        assert operator(k.field, k.act, X4.mgens[0]).tolist() == [[0]]

    def test_full_quotient_is_regular_module(self):
        Q = quotient_module(X4, 4)
        x = X4.mgens[0]
        mult_x = operator(X4.field, X4.table, x)
        assert (operator(Q.field, Q.act, x) == mult_x).all()

    def test_invalid_module_action_rejected(self):
        f = X4.field
        act = f.zeros((4, 1, 1))  # unit does not act as identity
        with pytest.raises(AlgebraError):
            RModule(X4, 1, act)

    def test_non_associative_module_action_rejected(self):
        # k over k[x]/(x^4) with x acting as 1: the unit acts correctly,
        # but x * x^3 = 0 must act as 0 while x then x^3 act as 1
        f = X4.field
        act = f.asarray(np.ones((4, 1, 1)))
        with pytest.raises(AlgebraError, match=r"not associative: x\*\(e1\*e3\)"):
            RModule(X4, 1, act)

    @pytest.mark.parametrize("algebra", [X4, KOSZUL3, QQ_RING], ids=["X4", "KOSZUL3", "QQ"])
    def test_quotient_actions_pass_the_law_check(self, algebra):
        for n in range(algebra.nilpotency_index + 1):
            Q = quotient_module(algebra, n)
            RModule(algebra, Q.dim, Q.act)


def test_dim100_law_check_fits_in_one_gib():
    """The law check of a dim-100 ring runs under a 1 GiB address space."""
    pytest.importorskip("resource")
    script = textwrap.dedent("""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        from lindef.presentation import algebra_from_text
        print(algebra_from_text("vars x y\\nideal x^10, y^10").dim)
    """)
    src = str(Path(lindef.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["100"]
