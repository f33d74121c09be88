"""Upsilon ladders: Tor maps along the power filtration."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import lindef
from lindef import tor_ladder as tor_ladder_module
from lindef.errors import AlgebraError, LindefError
from lindef.fields import Field
from lindef.lab import ScanConfig, random_algebra
from lindef.linalg import (
    QuotientCoords,
    Subspace,
    induced_map_on_quotients,
    kernel,
)
from lindef.presentation import algebra_from_text
from lindef.resolution import AlgebraMatrix, resolve
from lindef.tor_ladder import (
    _pi_applier,
    _rank_profile,
    _TorComplex,
    msquared_preimage_condition,
    tor_ladder,
    upsilon,
    upsilon_defect_profile,
    upsilon_one_implies_two,
)

from references import (
    block_sum,
    dense_change,
    preimage_by_kernel,
    quotient_reference,
    whole_rank_profile,
)
from test_strands import CI_DIM100


def ring(text):
    return algebra_from_text(text)


X3 = ring("vars x\nideal x^3")
X4 = ring("vars x\nideal x^4")
X5 = ring("vars x\nideal x^5")
KOSZUL3 = ring("vars x y z\nideal x^2, x*y, y^2, x*z, y*z, z^2")


GF101_RING = ring("vars x y\nideal x^3, y^3, x*y^2")
QQ_RING = ring("char 0\nvars x y\nideal x^2, x*y, y^3")
# non-homogeneous presentations: both rings are rebased to an adapted basis
REBASED_GF101 = ring("vars x y\nideal x^2 - y^5, x*y, y^6")
REBASED_QQ = ring("char 0\nvars x y\nideal x^2 - y^5, x*y, y^6")
GF2_RING = ring("char 2\nvars x y\nideal x^3, y^3, x^2*y + x*y^2")
GF_BIG_RING = ring(
    "char 2147483647\nvars x y\nideal x^3 + 2147483646*y^3, x*y^2, y^4"
)
# dense degree-4 complete intersection: dim 16, nilpotency index 7
CI4 = ring(
    "vars x y\nideal x^4 + 3*x^3*y + 5*x^2*y^2 + 7*x*y^3 + 2*y^4, "
    "2*x^4 + 9*x^3*y + 4*x^2*y^2 + x*y^3 + 8*y^4"
)
# first samples of the benchmark's scan configs (scan-wide; scan-many's
# light and heavy parts)
SCAN_WIDE = random_algebra(
    ScanConfig(nvars=3, nilpotency=3, horizon=5, count=1, seed=1), 0
)
SCAN_LIGHT = random_algebra(ScanConfig(
    nvars=2, nilpotency=4, horizon=6, count=1, degree_range=(2, 2), seed=1), 0)
SCAN_HEAVY = random_algebra(ScanConfig(
    nvars=2, nilpotency=4, horizon=6, count=1, degree_range=(3, 3), seed=1), 0)


def ladder_of(algebra, horizon):
    return tor_ladder(resolve(algebra.residue_field(), horizon + 1), horizon)


class TestFrozenLadders:
    def test_x3_rows(self):
        lad = ladder_of(X3, 6)
        table = lad.rank_table()
        assert table[1] == [1, 0, 1, 0, 1, 0, 1]
        assert table[2] == [1, 0, 0, 0, 0, 0, 0]
        assert table[3] == [1, 0, 0, 0, 0, 0, 0]
        assert lad.forced[(2, 3)] and lad.forced[(3, 0)]
        assert not lad.forced[(1, 2)]

    def test_x4_rows(self):
        lad = ladder_of(X4, 6)
        table = lad.rank_table()
        assert table[1] == [1, 0, 1, 0, 1, 0, 1]
        assert table[2] == [1, 0, 1, 0, 1, 0, 1]
        assert table[3] == [1, 0, 0, 0, 0, 0, 0]
        assert table[4] == [1, 0, 0, 0, 0, 0, 0]

    def test_koszul3_rows(self):
        lad = ladder_of(KOSZUL3, 4)
        table = lad.rank_table()
        assert table[1] == [1, 0, 0, 0, 0]
        assert table[2] == [1, 0, 0, 0, 0]
        # index 2: every row already has free source
        assert all(lad.forced[(n, i)] for n in (1, 2) for i in range(5))


class TestTorDims:
    def test_tor_against_k_recovers_betti(self):
        res = resolve(KOSZUL3.residue_field(), 5)
        lad = tor_ladder(res, 4)
        for i in range(5):
            assert lad.tor_dim(1, i) == res.betti[i]

    def test_tor_against_full_ring_concentrated_at_zero(self):
        lad = ladder_of(X3, 4)
        assert lad.tor_dim(3, 0) == 1  # m^3 = 0, so R/m^3 = R
        for i in range(1, 5):
            assert lad.tor_dim(3, i) == 0

    def test_zero_power_is_zero_module(self):
        lad = ladder_of(X3, 3)
        assert all(lad.tor_dim(0, i) == 0 for i in range(4))
        assert all(lad.rank(0, i) == 0 for i in range(4))

    def test_powers_above_index_saturate(self):
        lad = ladder_of(X3, 3)
        assert lad.rank(99, 0) == 1
        assert lad.rank(99, 2) == 0
        assert lad.tor_dim(99, 0) == 1

    def test_x3_middle_tor_dims(self):
        # Tor_i(k, R/m^2) over x^3: syzygies alternate ann(x)/ann(x^2)
        lad = ladder_of(X3, 4)
        assert [lad.tor_dim(2, i) for i in range(5)] == [1, 1, 1, 1, 1]


class TestSingleCell:
    def test_agrees_with_ladder(self):
        for algebra in (X4, REBASED_GF101, CI4):
            res = resolve(algebra.residue_field(), 5)
            lad = tor_ladder(res, 4)
            for n in range(1, algebra.nilpotency_index):
                for i in range(5):
                    cell = upsilon(res, n, i)
                    assert cell["rank"] == lad.rank(n, i)
                    assert cell["src_dim"] == lad.tor_dim(n + 1, i)
                    assert cell["dst_dim"] == lad.tor_dim(n, i)

    def test_forced_cell_carries_note(self):
        res = resolve(X3.residue_field(), 3)
        cell = upsilon(res, 2, 1)
        assert cell["rank"] == 0
        assert "free module R" in cell["note"]

    def test_honest_cell_has_no_note(self):
        res = resolve(X3.residue_field(), 3)
        assert upsilon(res, 1, 1)["note"] is None

    def test_power_zero_cell(self):
        res = resolve(X3.residue_field(), 2)
        cell = upsilon(res, 0, 1)
        assert cell["rank"] == 0
        assert cell["dst_dim"] == 0
        assert "m^0" in cell["note"]

    def test_one_cell_per_complex(self, monkeypatch):
        # cycles and boundaries of one cell in each of the two Tor
        # complexes, and the rank of the induced map: no other cell
        res = resolve(GF101_RING.residue_field(), 7)
        eliminated = []
        real_rref = Field.rref

        def counted_rref(field, a):
            eliminated.append(a.shape)
            return real_rref(field, a)

        monkeypatch.setattr(Field, "rref", counted_rref)
        upsilon(res, 2, 6)
        assert len(eliminated) == 5

    def test_matrix_shape_matches_dims(self):
        res = resolve(X4.residue_field(), 4)
        cell = upsilon(res, 1, 2)
        assert cell["matrix"].shape == (cell["src_dim"], cell["dst_dim"])


class TestProfiles:
    def test_x3_profile(self):
        prof = upsilon_defect_profile(ladder_of(X3, 6))
        assert prof["h"] == [0, 1, 0, 1, 0, 1]
        assert prof["dmax"] == 6
        assert prof["classification"] == "defect >= 6"
        assert prof["silence_tail"] is False

    def test_koszul3_profile_clean(self):
        prof = upsilon_defect_profile(ladder_of(KOSZUL3, 4))
        assert prof["h"] == [0, 0, 0, 0]
        assert prof["classification"] == "ld=0 up to horizon"


class TestVanishingStep:
    def test_holds_on_x4(self):
        records = upsilon_one_implies_two(ladder_of(X4, 6))
        assert [r["i"] for r in records] == list(range(7))
        for r in records:
            if r["antecedent"]:
                assert r["holds"] is True
            else:
                assert r["holds"] is None
        assert any(r["antecedent"] for r in records)

    def test_rejected_beyond_m4(self):
        with pytest.raises(AlgebraError, match="m\\^4"):
            upsilon_one_implies_two(ladder_of(X5, 3))


class TestPreimageCondition:
    def test_matches_rank_vanishing(self):
        for A in (X3, X4, KOSZUL3):
            res = resolve(A.residue_field(), 5)
            lad = tor_ladder(res, 4)
            for i in range(5):
                assert msquared_preimage_condition(res, i) == (lad.rank(1, i) == 0)

    def test_index_zero_degenerates(self):
        res = resolve(X3.residue_field(), 2)
        assert msquared_preimage_condition(res, 0) is False

    def test_out_of_range(self):
        res = resolve(X3.residue_field(), 2)
        with pytest.raises(LindefError):
            msquared_preimage_condition(res, 3)


X2 = ring("vars x\nideal x^2")


def reference_ladder(res, horizon):
    """tor_dims, ranks and forced with every Tor homology cell built first."""
    alg = res.algebra
    t = alg.nilpotency_index
    cells = {
        (n, i): _TorComplex(res, n, i).cell
        for n in range(1, t) for i in range(horizon + 1)
    }
    tor_dims = {}
    for n in range(0, t + 2):
        for i in range(0, horizon + 1):
            if n == 0:
                tor_dims[(n, i)] = 0
            elif n >= t:
                tor_dims[(n, i)] = res.module.dim if i == 0 else 0
            else:
                tor_dims[(n, i)] = cells[(n, i)].dim
    ranks, forced = {}, {}
    for n in range(1, t + 1):
        for i in range(0, horizon + 1):
            forced[(n, i)] = n + 1 >= t
            if forced[(n, i)]:
                ranks[(n, i)] = tor_dims[(n, 0)] if i == 0 else 0
            else:
                _, ranks[(n, i)] = induced_map_on_quotients(
                    alg.field, _pi_applier(alg, n, res.betti[i]),
                    cells[(n + 1, i)], cells[(n, i)],
                )
    return tor_dims, ranks, forced


REFERENCE_RINGS = {
    "X2": X2, "X3": X3, "X4": X4, "KOSZUL3": KOSZUL3, "GF101": GF101_RING,
    "QQ": QQ_RING, "REBASED_GF101": REBASED_GF101, "REBASED_QQ": REBASED_QQ,
    "GF2": GF2_RING, "GF_BIG": GF_BIG_RING, "CI4": CI4,
    "SCAN_WIDE": SCAN_WIDE, "SCAN_LIGHT": SCAN_LIGHT, "SCAN_HEAVY": SCAN_HEAVY,
}


class TestOnePass:
    @pytest.mark.parametrize(
        "algebra", list(REFERENCE_RINGS.values()), ids=list(REFERENCE_RINGS)
    )
    @pytest.mark.parametrize("horizon", [0, 4])
    def test_matches_all_complexes_reference(self, algebra, horizon):
        res = resolve(algebra.residue_field(), horizon + 1)
        lad = tor_ladder(res, horizon)
        tor_dims, ranks, forced = reference_ladder(res, horizon)
        assert list(lad.tor_dims.items()) == list(tor_dims.items())
        assert list(lad.ranks.items()) == list(ranks.items())
        assert list(lad.forced.items()) == list(forced.items())

    def test_matches_reference_for_other_modules(self):
        # the rank formulas hold for a minimal resolution of any module
        for algebra in (GF101_RING, REBASED_QQ, CI4):
            res = resolve(algebra.quotient_module(2), 4)
            lad = tor_ladder(res, 3)
            tor_dims, ranks, forced = reference_ladder(res, 3)
            assert (lad.tor_dims, lad.ranks, lad.forced) == (tor_dims, ranks, forced)

    def test_one_elimination_per_differential(self, monkeypatch):
        """The ladder eliminates each nonempty truncated strand block once.

        Strand D of d_i keeps, on its rows, the coordinates (g, e) of F_i
        with deg g + deg e = D and deg e <= t - 3, and on its columns those
        of F_{i-1} with deg e <= t - 2. The expected shapes are counted
        here from the generator degrees and the Hilbert function, not
        from the builder. Over k[x]/(x^5) (t = 5, generators of degrees
        0, 1, 5, 6, 10) d_1 and d_3 have three 1 x 1 blocks each, and d_2
        and d_4 (entries x^4, of degree t - 1) none.
        """
        rings = (X5, GF101_RING, QQ_RING)
        resolutions = [resolve(algebra.residue_field(), 4) for algebra in rings]
        built, eliminated = [], []

        class Counted(tor_ladder_module._TorComplex):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        real_rref = Field.rref

        def counted_rref(field, a):
            eliminated.append(a.shape)
            return real_rref(field, a)

        monkeypatch.setattr(tor_ladder_module, "_TorComplex", Counted)
        monkeypatch.setattr(Field, "rref", counted_rref)
        counts = []
        for res in resolutions:
            eliminated.clear()
            tor_ladder(res, 3)
            assert built == []
            want = [shape for i in range(1, 5)
                    for shape in truncated_strand_shapes(res, i)]
            # the exact shapes: one rref per block, none larger than one
            assert eliminated == want
            counts.append(len(want))
        assert counts[0] == 6


def truncated_strand_shapes(res, i):
    """(rows, cols) of each truncated strand block of d_i that has both,
    in increasing internal degree (filtration grading)."""
    assert res.m_degree == 1
    dims = res.algebra.graded().dims
    t = len(dims)

    def size(gens, D, top):
        return sum(dims[D - a] for a in gens.tolist() if 0 <= D - a <= top)

    new, old = res.degrees[i], res.degrees[i - 1]
    shapes = []
    for D in range(int(new.min()), int(new.max()) + t):
        r, c = size(new, D, t - 3), size(old, D, t - 2)
        if r and c:
            shapes.append((r, c))
    return shapes


# name -> (ring builder, ladder horizon)
STRAND_RINGS = {
    "ci-dim100 seed 1": (lambda: ring(CI_DIM100), 5),
    "scan-wide seed 1": (lambda: SCAN_WIDE, 5),
    "scan-many heavy seed 1 #0": (lambda: SCAN_HEAVY, 6),
    "scan-many heavy seed 1 #1": (lambda: random_algebra(ScanConfig(
        nvars=2, nilpotency=4, horizon=6, count=8, degree_range=(3, 3),
        seed=1), 1), 6),
    "m^2 = 0": (lambda: KOSZUL3, 4),
    "GF(2)": (lambda: GF2_RING, 5),
    "QQ": (lambda: QQ_RING, 4),
    "GF(2^31-1)": (lambda: GF_BIG_RING, 5),
    "dense basis GF(101)": (lambda: dense_change(GF101_RING, 1), 5),
    "dense basis QQ": (lambda: dense_change(QQ_RING, 2), 4),
}


@pytest.fixture(scope="module")
def strand_resolution():
    """name -> (resolution, ladder horizon), each resolved once."""
    cache = {}

    def get(name):
        if name not in cache:
            build, horizon = STRAND_RINGS[name]
            cache[name] = resolve(build().residue_field(), horizon + 1), horizon
        return cache[name]

    return get


class TestStrandLadder:
    """The per-strand ladder and the generator-row preimage condition
    against the whole-matrix routes of `references`."""

    @pytest.mark.parametrize("name", STRAND_RINGS)
    def test_rank_profile_matches_whole_matrix(self, name, strand_resolution):
        res, horizon = strand_resolution(name)
        t = res.algebra.nilpotency_index
        # m^2 = 0 keeps no rows; the dense bases run in the trivial grading
        assert (t == 2) is (name == "m^2 = 0")
        assert res.m_degree == (0 if name.startswith("dense") else 1)
        for i in range(1, horizon + 2):
            got = _rank_profile(res, i)
            assert got == whole_rank_profile(res, i)
            if t == 2:
                assert got == [0, 0]

    @pytest.mark.parametrize("name", STRAND_RINGS)
    def test_preimage_matches_kernel_route(self, name, strand_resolution):
        res, horizon = strand_resolution(name)
        for i in range(1, horizon + 1):
            assert msquared_preimage_condition(res, i) == preimage_by_kernel(res, i)

    def test_preimage_takes_both_outcomes(self, strand_resolution):
        outcomes = set()
        for name in STRAND_RINGS:
            res, horizon = strand_resolution(name)
            outcomes.update(preimage_by_kernel(res, i)
                            for i in range(1, horizon + 1))
        assert outcomes == {True, False}


def non_minimal(res, i):
    """d_i with a unit added to its first entry."""
    entries = res.diff[i].entries.copy()
    entries[0, 0, 0] = res.algebra.field.add(entries[0, 0, 0], 1)
    return AlgebraMatrix(res.algebra, entries)


def off_degree(res, i):
    """d_i with x^2 added to its first entry: over k[x]/(x^4) every entry
    of d_i has degree 1 or 3, so the entry stays in m but leaves its
    degree, where no strand block reads it."""
    entries = res.diff[i].entries.copy()
    entries[0, 0, 2] = res.algebra.field.add(entries[0, 0, 2], 1)
    return AlgebraMatrix(res.algebra, entries)


class TestNonMinimal:
    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_ladder_raises(self, i):
        res = resolve(X4.residue_field(), 3)
        res.diff[i] = non_minimal(res, i)
        with pytest.raises(AssertionError, match=f"differential {i} .*not minimal"):
            tor_ladder(res, 2)

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_off_degree_entry_raises(self, i):
        res = resolve(X4.residue_field(), 3)
        assert res.diff[i].is_minimal()
        res.diff[i] = off_degree(res, i)
        assert res.diff[i].is_minimal()
        with pytest.raises(AssertionError,
                           match=f"differential {i} is not homogeneous"):
            tor_ladder(res, 2)

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_preimage_raises(self, i):
        res = resolve(X4.residue_field(), 3)
        res.diff[i] = non_minimal(res, i)
        with pytest.raises(AssertionError, match=f"differential {i} .*not minimal"):
            msquared_preimage_condition(res, i)

    def test_ladder_raises_under_python_O(self):
        assert "not minimal" in ladder_under_python_O("non_minimal")

    def test_off_degree_entry_raises_under_python_O(self):
        assert "differential 2 is not homogeneous" in ladder_under_python_O(
            "off_degree")


def ladder_under_python_O(corruption):
    """The AssertionError message of the ladder over k[x]/(x^4) with d_2
    replaced by `corruption`(res, 2), run under python -O."""
    script = textwrap.dedent(f"""
        import sys
        if __debug__:
            sys.exit("not running under -O")
        sys.path.insert(0, sys.argv[1])
        from test_tor import X4, {corruption}
        from lindef.resolution import resolve
        from lindef.tor_ladder import tor_ladder
        res = resolve(X4.residue_field(), 3)
        res.diff[2] = {corruption}(res, 2)
        try:
            tor_ladder(res, 2)
        except AssertionError as exc:
            print("raised:", exc)
        else:
            sys.exit("the ladder accepted a corrupted differential")
    """)
    src = str(Path(lindef.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, str(Path(__file__).parent)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert proc.stdout.startswith("raised:")
    return proc.stdout


class TestGuards:
    def test_ladder_needs_one_extra_stage(self):
        res = resolve(X3.residue_field(), 4)
        with pytest.raises(LindefError, match="horizon"):
            tor_ladder(res, 4)

    def test_rank_outside_horizon(self):
        lad = ladder_of(X3, 2)
        with pytest.raises(LindefError):
            lad.rank(1, 3)

    @pytest.mark.parametrize("i", [-1, 3, 5])
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_tor_dim_outside_horizon(self, n, i):
        lad = ladder_of(ring("vars x y\nideal x^2, y^2"), 2)
        with pytest.raises(LindefError, match="outside ladder horizon 2"):
            lad.tor_dim(n, i)
        with pytest.raises(LindefError, match="outside ladder horizon 2"):
            lad.rank(n, i)

    def test_single_cell_beyond_horizon(self):
        res = resolve(X3.residue_field(), 2)
        with pytest.raises(LindefError, match="horizon"):
            upsilon(res, 1, 2)

    def test_negative_inputs(self):
        res = resolve(X3.residue_field(), 2)
        with pytest.raises(LindefError):
            upsilon(res, -1, 0)
        with pytest.raises(LindefError):
            upsilon(res, 1, -1)


def conjugate_by_quotient(field, expand, b_src, b_dst, lift, proj):
    """Reference for F (x) R/m^n: lift each block of the scalar matrix of
    the differential, apply it, project back."""
    q, d = lift.shape
    out = field.zeros((b_src * q, b_dst * q))
    for g in range(b_src):
        for h in range(b_dst):
            block = expand[g * d : (g + 1) * d, h * d : (h + 1) * d]
            out[g * q : (g + 1) * q, h * q : (h + 1) * q] = field.matmul(
                field.matmul(lift, block), proj
            )
    return out


@pytest.mark.parametrize("algebra", [GF101_RING, QQ_RING], ids=["GF101", "QQ"])
class TestBlockExpandIdentities:
    def test_tor_differential(self, algebra):
        field = algebra.field
        res = resolve(algebra.residue_field(), 3)
        t = algebra.nilpotency_index
        for n in range(1, t + 2):
            lead = slice(0, algebra.quotient_dim(n))
            _, proj, lift = quotient_reference(algebra, n)
            for i in range(1, 4):
                dmat = res.diff[i]
                got = dmat.expand(lead, lead)
                want = conjugate_by_quotient(
                    field, dmat.expand(), dmat.src_rank, dmat.dst_rank, lift, proj
                )
                assert got.shape == want.shape and (got == want).all()
                if n >= t:
                    assert (got == dmat.expand()).all()

    def test_msquared_composite(self, algebra):
        field = algebra.field
        d = algebra.dim
        res = resolve(algebra.residue_field(), 3)
        for i in range(1, 4):
            b_prev = res.betti[i - 1]
            qc = QuotientCoords(
                field,
                Subspace.full(field, b_prev * d),
                block_sum(algebra.power(2), b_prev),
            )
            want = qc.coords(res.diff[i].expand())
            got = res.diff[i].expand(cols=slice(0, algebra.quotient_dim(2)))
            assert got.shape == want.shape and (got == want).all()

    def test_msquared_preimage_against_block_sum(self, algebra):
        # reference: the preimage of m^2 F_{i-1} reduced against the
        # Kronecker basis of m F_i
        field = algebra.field
        d = algebra.dim
        res = resolve(algebra.residue_field(), 4)
        outcomes = []
        for i in range(1, 5):
            b_prev = res.betti[i - 1]
            qc = QuotientCoords(
                field,
                Subspace.full(field, b_prev * d),
                block_sum(algebra.power(2), b_prev),
            )
            preimage = kernel(field, qc.coords(res.diff[i].expand()).T)
            m_block = block_sum(algebra.power(1), res.betti[i])
            outcomes.append(m_block.contains(preimage))
            assert msquared_preimage_condition(res, i) == outcomes[-1]
        assert set(outcomes) == {True, False}
