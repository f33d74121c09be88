"""Filtration-adapted bases.

Every R/m^n and every piece of gr(R) is a truncation of the table in an
adapted basis; these tests hold the truncations to the quotient-coordinate
references, and check that a non-adapted input is rebased without
changing any computed invariant.
"""

import numpy as np
import pytest

from lindef import algebra as algebra_module
from lindef.algebra import FiniteLocalAlgebra, quotient_module
from lindef.errors import AlgebraError
from lindef.lab import ScanConfig, full_check, random_algebra
from lindef.linalg import block_apply
from lindef.linear_part import linear_part
from lindef.presentation import algebra_from_text
from lindef.resolution import resolve
from lindef.tor_ladder import _pi_applier

from references import (
    block_expand,
    component_product_reference,
    dense_change,
    graded_coords,
    input_table,
    mult,
    quotient_reference,
)

NON_ADAPTED = "ideal x^2 - y^5, x*y, y^6"

RINGS = {
    "X3": algebra_from_text("vars x\nideal x^3"),
    "X4": algebra_from_text("vars x\nideal x^4"),
    "KOSZUL3": algebra_from_text(
        "vars x y z\nideal x^2, x*y, y^2, x*z, y*z, z^2"),
    "QQ": algebra_from_text("char 0\nvars x y\nideal x^2, x*y, y^3"),
    "rebased-GF101": algebra_from_text(f"char 101\nvars x y\n{NON_ADAPTED}"),
    "rebased-QQ": algebra_from_text(f"char 0\nvars x y\n{NON_ADAPTED}"),
}


def same(got, want):
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("algebra", RINGS.values(), ids=RINGS.keys())
class TestTruncationParity:
    def test_quotient_action(self, algebra):
        for n in range(-1, algebra.nilpotency_index + 2):
            act, _, _ = quotient_reference(algebra, n)
            same(quotient_module(algebra, n).act, act)

    def test_pi(self, algebra):
        field = algebra.field
        rng = np.random.default_rng(0)
        for n in range(1, algebra.nilpotency_index + 1):
            _, _, lift = quotient_reference(algebra, n + 1)
            _, proj, _ = quotient_reference(algebra, n)
            pi = field.matmul(lift, proj)
            rows = field.asarray(rng.integers(0, 5, (4, 3 * pi.shape[0])))
            same(_pi_applier(algebra, n, 3)(rows),
                 block_apply(field, rows, 3, pi[None]))

    def test_component_product(self, algebra):
        gr = algebra.graded()
        t = algebra.nilpotency_index
        for a in range(t + 1):
            for b in range(t + 1):
                same(gr.component_product(a, b),
                     component_product_reference(algebra, a, b))

    def test_linear_part_classes(self, algebra):
        # lin(F) by definition: the entries' classes in F_1/F_2 times the
        # graded product gr_1 x gr_q -> gr_{q+1}, both from references
        res = resolve(algebra, 4)
        lin = linear_part(res)
        qc = graded_coords(algebra, 1)
        for i in range(1, 5):
            entries = res.diff[i].entries
            b_i, b_prev, d = entries.shape
            if b_i * b_prev:
                flat = entries.reshape(b_i * b_prev, d)
                classes = qc.coords(flat).reshape(b_i, b_prev, qc.dim)
            else:
                classes = algebra.field.zeros((b_i, b_prev, qc.dim))
            for j in lin.degree_range(i):
                tensor = component_product_reference(algebra, 1, j - i)
                same(lin.slice_matrix(i, j),
                     block_expand(algebra.field, classes, tensor))

    def test_filtration_is_a_suffix(self, algebra):
        d = algebra.dim
        for f in algebra.filtration:
            assert f.pivots == tuple(range(d - f.dim, d))


class TestRebase:
    def test_adapted_input_keeps_its_basis(self):
        for key in ("X3", "X4", "KOSZUL3", "QQ"):
            assert RINGS[key].input_basis is None

    @pytest.mark.parametrize("key", ["rebased-GF101", "rebased-QQ"])
    def test_non_adapted_presentation_is_rebased(self, key):
        A = RINGS[key]
        assert A.input_basis is not None
        assert [f.dim for f in A.filtration] == [7, 6, 4, 3, 2, 1, 0]
        x, y = A.mgens
        # x^2 = y^5 is a standard monomial of degree 2 lying in m^5
        assert A.format_element(x) == "x"
        assert A.format_element(mult(A, x, x)) == "x^2"
        y5 = mult(A, y, mult(A, mult(A, y, y), mult(A, y, y)))
        assert A.format_element(y5) == "x^2"
        assert A.format_element(mult(A, y, y)) == "y^2"

    def test_table_input_is_rebased(self):
        A = RINGS["rebased-GF101"]
        field = A.field
        B = FiniteLocalAlgebra(
            field, input_table(A),
            field.matmul(A.unit.reshape(1, A.dim), A.input_basis)[0],
            field.matmul(A.mgens, A.input_basis), labels=A.labels,
        )
        same(B.table, A.table)
        same(B.input_basis, A.input_basis)

    def test_still_non_adapted_after_rebase_raises(self, monkeypatch):
        # reversing the adapted basis makes every F_n a prefix
        original = algebra_module._adapted_basis
        monkeypatch.setattr(algebra_module, "_adapted_basis",
                            lambda f: original(f)[::-1])
        with pytest.raises(AlgebraError, match="not adapted"):
            algebra_from_text(f"char 101\nvars x y\n{NON_ADAPTED}")


def invariants(algebra, horizon):
    record = full_check(algebra, horizon).to_json_dict()
    del record["presentation"], record["certificate"]
    return record


SCAN = ScanConfig(nvars=2, nilpotency=4, count=6, horizon=4, seed=4)


@pytest.mark.parametrize("index", range(SCAN.count))
def test_dense_change_of_basis_keeps_every_record_scan(index):
    algebra = random_algebra(SCAN, index)
    changed = dense_change(algebra, index)
    assert changed.input_basis is not None
    assert invariants(changed, SCAN.horizon) == invariants(algebra, SCAN.horizon)


@pytest.mark.parametrize("key", ["rebased-GF101", "QQ"])
def test_dense_change_of_basis_keeps_every_record(key):
    algebra = RINGS[key]
    changed = dense_change(algebra, 7)
    assert changed.input_basis is not None
    assert invariants(changed, 4) == invariants(algebra, 4)
