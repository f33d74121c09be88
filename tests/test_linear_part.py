"""Linear parts of minimal resolutions and defect profiles."""

import pytest

from lindef.errors import LindefError
from lindef.fields import Field
from lindef.linalg import HomologyCell, Subspace, block_apply
from lindef.linear_part import (
    CLASSIFICATION_CLEAN,
    defect_profile,
    linear_part,
    linearity_defect_profile,
    mstar_annihilation_check,
    mstar_cycle_boundary_equality,
)
from lindef.presentation import algebra_from_text
from lindef.resolution import AlgebraMatrix, resolve

from references import (
    block_expand,
    component_product_reference,
    mstar_annihilation_reference,
)


def ring(text):
    return algebra_from_text(text)


X2 = ring("vars x\nideal x^2")
X3 = ring("vars x\nideal x^3")
X4 = ring("vars x\nideal x^4")
KOSZUL3 = ring("vars x y z\nideal x^2, x*y, y^2, x*z, y*z, z^2")
CERTIFICATE_RINGS = {
    "X3": X3,
    "KOSZUL3": KOSZUL3,
    "GF101": ring("char 101\nvars x y\nideal x^3, y^3, x*y^2"),
    "QQ": ring("char 0\nvars x y\nideal x^2, x*y, y^3"),
    "rebased-QQ": ring("char 0\nvars x y\nideal x^2 - y^5, x*y, y^6"),
}


def lin_of(algebra, horizon):
    return linear_part(resolve(algebra, horizon))


class TestProfiles:
    def test_x2_clean(self):
        prof = defect_profile(lin_of(X2, 7), 6)
        assert prof["h"] == [0] * 6
        assert prof["dmax"] == 0
        assert prof["classification"] == CLASSIFICATION_CLEAN
        assert prof["silence_tail"] is False
        assert prof["by_degree"] == {}

    def test_koszul3_clean(self):
        prof = defect_profile(lin_of(KOSZUL3, 5), 4)
        assert prof["h"] == [0] * 4
        assert prof["classification"] == CLASSIFICATION_CLEAN

    def test_x3_defective_everywhere(self):
        prof = defect_profile(lin_of(X3, 7), 6)
        assert prof["h"] == [1] * 6
        assert prof["by_degree"] == {
            1: {3: 1}, 2: {2: 1}, 3: {5: 1}, 4: {4: 1}, 5: {7: 1}, 6: {6: 1},
        }
        assert prof["dmax"] == 6
        assert prof["classification"] == "defect >= 6"
        assert prof["silence_tail"] is False

    def test_x4_defective_everywhere(self):
        prof = defect_profile(lin_of(X4, 5), 4)
        assert all(v > 0 for v in prof["h"])
        assert prof["classification"] == "defect >= 4"

    def test_embdim2_hypersurface_profile(self):
        A = ring("vars x y\nideal y - x^2, x^3")
        prof = linearity_defect_profile(A, 4)
        assert all(v > 0 for v in prof["h"])

    def test_convenience_matches_manual(self):
        manual = defect_profile(lin_of(X3, 5), 4)
        conv = linearity_defect_profile(X3, 4)
        assert manual == conv

    def test_horizon_too_small(self):
        with pytest.raises(LindefError, match="horizon"):
            defect_profile(lin_of(X3, 4), 4)

    def test_horizon_below_one(self):
        with pytest.raises(LindefError):
            defect_profile(lin_of(X3, 3), 0)


class TestHomologySlices:
    def test_h0_concentrated_in_degree_zero(self):
        c = lin_of(X3, 3)
        dims = {j: v for j, v in c.homology_dims(0).items() if v}
        assert dims == {0: 1}

    def test_component_dims_sum_to_free_rank_times_dim(self):
        c = lin_of(KOSZUL3, 3)
        for i in range(4):
            total = sum(c.component_dim(i, j) for j in c.degree_range(i))
            assert total == c.stage_rank(i) * KOSZUL3.dim

    def test_boundaries_inside_cycles(self):
        c = lin_of(X4, 4)
        for i in range(1, 4):
            for sl in c.homology(i).values():
                assert sl.cycles.contains(sl.boundaries)
                assert sl.dim == sl.cycles.dim - sl.boundaries.dim

    def test_homology_needs_next_stage(self):
        c = lin_of(X3, 3)
        with pytest.raises(LindefError, match="horizon"):
            c.homology(3)


class TestMStarChecks:
    def test_annihilation_holds_on_x3(self):
        c = lin_of(X3, 5)
        for n in range(5):
            ok, cert = mstar_annihilation_check(c, n)
            assert ok is True and cert is None

    def test_annihilation_holds_on_koszul3(self):
        c = lin_of(KOSZUL3, 3)
        for n in range(3):
            ok, cert = mstar_annihilation_check(c, n)
            assert ok is True and cert is None

    @pytest.mark.parametrize(
        "algebra", CERTIFICATE_RINGS.values(), ids=CERTIFICATE_RINGS.keys()
    )
    def test_certificate_matches_loop_reference(self, algebra):
        # the boundaries in degree j + 1 of one cell replaced by the zero
        # subspace, then by the products of the first gr_1 element only,
        # then by those of the first cycle only: failures wherever
        # gr_1 * Z_j leaves them, at gr_1 index 0, above 0, and past the
        # first cycle
        res = resolve(algebra, 4)
        failures = 0
        for n in range(4):
            for j in linear_part(res).degree_range(n):
                for kept in ("none", "first gr_1", "first cycle"):
                    c = linear_part(res)
                    hom = c.homology(n)
                    assert mstar_annihilation_check(c, n) == (True, None)
                    if j + 1 not in hom or hom[j].cycles.dim == 0:
                        continue
                    z = hom[j].cycles.basis
                    ops = c.gr.component_product(1, j - n)
                    imgs = block_apply(c.field, z, c.stage_rank(n), ops)
                    rows = {"none": imgs[:0], "first gr_1": imgs[: len(z)],
                            "first cycle": imgs[:: len(z)]}[kept]
                    boundaries = Subspace.from_rows(c.field, rows, imgs.shape[1])
                    hom[j + 1] = HomologyCell(hom[j + 1].cycles, boundaries)
                    got = mstar_annihilation_check(c, n)
                    assert got == mstar_annihilation_reference(c, n)
                    failures += not got[0]
        assert failures

    def test_equality_x3_degree_one_holds(self):
        c = lin_of(X3, 5)
        assert mstar_cycle_boundary_equality(c, 1) is True

    def test_equality_x3_degree_two_fails(self):
        # H_2 lives in internal degree 2 where the boundary side is 0
        c = lin_of(X3, 5)
        assert mstar_cycle_boundary_equality(c, 2) is False

    def test_equality_rejects_degree_zero(self):
        c = lin_of(X3, 3)
        with pytest.raises(LindefError, match=">= 1"):
            mstar_cycle_boundary_equality(c, 0)

    def test_equality_skips_degrees_without_homology(self, monkeypatch):
        # reference: both sides eliminated in every degree; the check must
        # agree and eliminate only where H != 0, up to its first failure
        calls = []
        real = Field.rref

        def counting(self, a):
            calls.append(a.shape)
            return real(self, a)

        skipped = 0
        for algebra in CERTIFICATE_RINGS.values():
            c = lin_of(algebra, 5)
            field, gr = c.field, c.gr
            for d in range(1, 4):
                hom = c.homology(d)
                want, expected = True, 0
                for j in sorted(hom):
                    ambient = c.stage_rank(d) * gr.component_dim(j - d + 1)
                    if ambient == 0:
                        continue
                    tensor = gr.component_product(1, j - d)
                    m_z, m_b = (
                        Subspace.from_rows(
                            field,
                            block_apply(field, v.basis, c.stage_rank(d), tensor),
                            ambient)
                        for v in hom[j]
                    )
                    if hom[j].dim:
                        expected += 2
                    elif hom[j].cycles.dim:
                        skipped += 1
                    if m_z != m_b:
                        want = False
                        break
                calls.clear()
                monkeypatch.setattr(Field, "rref", counting)
                got = mstar_cycle_boundary_equality(c, d)
                monkeypatch.setattr(Field, "rref", real)
                assert got is want
                assert len(calls) == expected
        assert skipped


    @pytest.mark.parametrize("name", ["X3", "GF101", "QQ"])
    def test_each_mstar_check_builds_its_own_gr1_cycle_stacks(self, name, monkeypatch):
        # full_check's block_apply calls: gr_1 * Z_j for the annihilation
        # check per (stage, degree) with cycles and a target, plus gr_1 * Z_j
        # and gr_1 * B_j where the equality check compares, up to its first
        # failure
        import lindef.linear_part as lp
        from lindef.lab import full_check

        algebra, horizon = CERTIFICATE_RINGS[name], 4
        c = lin_of(algebra, horizon + 1)
        field, gr = c.field, c.gr
        expected = 0
        for n in range(horizon):
            hom = c.homology(n)
            assert mstar_annihilation_check(linear_part(c.res), n) == (True, None)
            for j in sorted(hom):
                if hom[j].cycles.dim and c.stage_rank(n) * gr.component_dim(j - n + 1):
                    expected += 1
        equality = {}
        for d in range(1, horizon):
            hom = c.homology(d)
            equality[d] = True
            for j in sorted(hom):
                ambient = c.stage_rank(d) * gr.component_dim(j - d + 1)
                if ambient == 0 or hom[j].dim == 0:
                    continue
                expected += 2
                tensor = gr.component_product(1, j - d)
                m_z, m_b = (
                    Subspace.from_rows(
                        field, block_apply(field, v.basis, c.stage_rank(d), tensor),
                        ambient)
                    for v in hom[j]
                )
                if m_z != m_b:
                    equality[d] = False
                    break
        calls = []
        real = lp.block_apply
        monkeypatch.setattr(lp, "block_apply",
                            lambda *args: calls.append(1) or real(*args))
        report = full_check(algebra, horizon)
        assert len(calls) == expected
        assert report.checks["cycle_equality"] == equality
        assert report.checks["annihilation"] == {n: True for n in range(horizon)}
        assert report.certificate is None
        assert name != "X3" or not all(equality.values())


class TestConstruction:
    def test_nonminimal_complex_rejected(self):
        res = resolve(X2, 2)
        entries = res.diff[1].entries.copy()
        entries[0, 0, 0] = 1  # inject a unit entry
        res.diff[1] = AlgebraMatrix(X2, entries)
        with pytest.raises(AssertionError, match="maximal ideal"):
            linear_part(res)

    def test_off_degree_gr1_entry_rejected(self):
        # over k[x,y]/(x^2, xy, y^3) generator 1 of F_2 (y^3's relation,
        # degree 3) meets generator 0 of F_1 (degree 1) in gr_2 only; a
        # gr_1 coordinate there keeps d_2 minimal, but no linear-strand
        # block reads it, so lin(F) alone would not change
        algebra = ring("vars x y\nideal x^2, x*y, y^3")
        res = resolve(algebra, 5)
        assert res.degrees[2][1] - res.degrees[1][0] == 2
        entries = res.diff[2].entries.copy()
        entries[1, 0, algebra.graded().component_range(1).start] += 1
        res.diff[2] = AlgebraMatrix(algebra, entries)
        with pytest.raises(AssertionError, match="differential 2 is not homogeneous"):
            linear_part(res)

    def test_linear_entries_survive_quadratic_die(self):
        # d_1 = (x) and d_2 = (x^2): lin(F) keeps the linear entry and
        # drops the quadratic one, though both differentials are nonzero
        res = resolve(X3, 4)
        c = linear_part(res)
        f = X3.field
        gr1 = c.gr.component_range(1)
        for i in (1, 2):
            assert not f.is_zero(res.diff[i].expand())
            for j in c.degree_range(i):
                want = block_expand(f, res.diff[i].entries[:, :, gr1],
                                    component_product_reference(X3, 1, j - i))
                got = c.slice_matrix(i, j)
                assert got.shape == want.shape and (got == want).all()
        assert not all(f.is_zero(c.slice_matrix(1, j)) for j in c.degree_range(1))
        assert all(f.is_zero(c.slice_matrix(2, j)) for j in c.degree_range(2))


class _StubComplex:
    """Just enough surface for defect_profile's arithmetic."""

    def __init__(self, h):
        self._h = h
        self.res = type("R", (), {"horizon": len(h) + 1})()

    def total_homology(self, i):
        return self._h[i - 1]

    def homology_dims(self, i):
        v = self._h[i - 1]
        return {i: v} if v else {}


class TestSilenceTail:
    def test_tail_detected(self):
        prof = defect_profile(_StubComplex([0, 2, 0, 0, 0]), 5)
        assert prof["dmax"] == 2
        assert prof["silence_tail"] is True
        assert prof["classification"] == "defect >= 2"

    def test_single_trailing_zero_not_enough(self):
        prof = defect_profile(_StubComplex([0, 1, 1, 0]), 4)
        assert prof["silence_tail"] is False

    def test_clean_profile_has_no_tail(self):
        prof = defect_profile(_StubComplex([0, 0, 0]), 3)
        assert prof["silence_tail"] is False
        assert prof["classification"] == CLASSIFICATION_CLEAN
