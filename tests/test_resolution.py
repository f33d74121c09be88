"""Minimal free resolutions: frozen closed forms and structural checks."""

import numpy as np
import pytest

from lindef import _kernels, resolution
from lindef.errors import LindefError, ResourceLimitError
from lindef.fields import Field
from lindef.linalg import kernel
from lindef.presentation import algebra_from_text
from lindef.resolution import AlgebraMatrix, MinimalResolution, resolve

from references import block_expand, dense_change, generator_rows, mult, one_part


def ring(text):
    return algebra_from_text(text)


X2 = ring("vars x\nideal x^2")
X3 = ring("vars x\nideal x^3")
KOSZUL3 = ring("vars x y z\nideal x^2, x*y, y^2, x*z, y*z, z^2")


class TestClosedForms:
    def test_x2_betti_all_one(self):
        res = resolve(X2.residue_field(), 8)
        assert res.betti == [1] * 9
        for i in range(1, 9):
            assert res.diff[i].entry_string(0, 0) == "x"

    def test_x3_alternating_differentials(self):
        res = resolve(X3.residue_field(), 8)
        assert res.betti == [1] * 9
        entries = [res.diff[i].entry_string(0, 0) for i in range(1, 9)]
        assert entries == ["x", "x^2", "x", "x^2", "x", "x^2", "x", "x^2"]

    def test_koszul3_betti_powers_of_three(self):
        res = resolve(KOSZUL3.residue_field(), 6)
        assert res.betti == [3**i for i in range(7)]

    def test_hypersurface_disguised_by_coordinates(self):
        A = ring("vars x y\nideal y - x^2, x^3")
        res = resolve(A.residue_field(), 6)
        assert res.betti == [1] * 7

    def test_field_resolves_instantly(self):
        A = ring("vars x\nideal x")
        res = resolve(A.residue_field(), 4)
        assert res.betti == [1, 0, 0, 0, 0]

    def test_horizon_zero(self):
        res = resolve(X3.residue_field(), 0)
        assert res.betti == [1]


class TestStructure:
    def test_composition_zero_and_exactness_enforced(self):
        # construction would raise otherwise; verify expansions compose to 0
        res = resolve(KOSZUL3.residue_field(), 4)
        f = KOSZUL3.field
        for i in range(2, 5):
            comp = f.matmul(res.diff[i].expand(), res.diff[i - 1].expand())
            assert f.is_zero(comp)

    def test_entries_live_in_maximal_ideal(self):
        res = resolve(KOSZUL3.residue_field(), 4)
        for i in range(1, 5):
            assert res.diff[i].is_minimal()

    def test_syzygy_module_dims(self):
        res = resolve(X3.residue_field(), 4)
        # syzygy after stage i alternates between m and m^2 inside R
        assert res.syzygy(1).dim == X3.power(2).dim
        assert res.syzygy(2).dim == X3.power(1).dim

    def test_determinism(self):
        r1 = resolve(KOSZUL3.residue_field(), 3)
        r2 = resolve(KOSZUL3.residue_field(), 3)
        for i in range(1, 4):
            assert (r1.diff[i].expand() == r2.diff[i].expand()).all()

    def test_rational_field_parity(self):
        AQ = ring("char 0\nvars x\nideal x^3")
        res = resolve(AQ.residue_field(), 5)
        assert res.betti == [1] * 6
        entries = [res.diff[i].entry_string(0, 0) for i in range(1, 6)]
        assert entries == ["x", "x^2", "x", "x^2", "x"]

    def test_resource_cap(self):
        with pytest.raises(ResourceLimitError, match="expand"):
            resolve(KOSZUL3.residue_field(), 6, max_expand_entries=1000)

    def test_cap_reads_the_largest_strand_block(self):
        # KOSZUL3's d_6 expands to 2916 x 972 entries, but its largest
        # strand block, internal degree 6, is 729 x 729 = 531441
        res = resolve(KOSZUL3.residue_field(), 6, max_expand_entries=1_000_000)
        assert res.betti == [3**i for i in range(7)]
        with pytest.raises(ResourceLimitError,
                           match="differential 6 in internal degree 6 would "
                                 "expand to a 729 x 729 block"):
            resolve(KOSZUL3.residue_field(), 6, max_expand_entries=531_440)

    def test_cap_reads_the_whole_matrix_in_the_trivial_grading(self):
        # an ungraded table has one strand per stage: d_4 of the rebased
        # k[x,y]/(x^2,y^2) (b_4 = 5, b_3 = 4, d = 4) is the whole matrix
        k = dense_change(X2Y2, 3).residue_field()
        assert resolve(k, 4, max_expand_entries=320).betti == [1, 2, 3, 4, 5]
        with pytest.raises(ResourceLimitError,
                           match="differential 4 would expand to a 20 x 16 "
                                 "matrix, over the cap of 319 entries"):
            resolve(k, 4, max_expand_entries=319)

    @pytest.mark.parametrize("horizon", [0, 3])
    @pytest.mark.parametrize("graded", [True, False], ids=["graded", "dense basis"])
    def test_strand_layout_of_every_stage(self, horizon, graded):
        # strands[i] is kept for 0 <= i <= horizon, horizon 0 included;
        # its generator groups are the generators of F_i by degree
        algebra = KOSZUL3 if graded else dense_change(KOSZUL3, 3)
        res = resolve(algebra.residue_field(), horizon)
        assert len(res.strands) == horizon + 1
        for i, strands in enumerate(res.strands):
            groups = {a: g.tolist() for a, g in strands.groups.items()}
            degrees = res.degrees[i].tolist()
            assert groups == {a: [g for g, b in enumerate(degrees) if b == a]
                              for a in sorted(set(degrees))}
            assert strands.s == res.m_degree
            assert sum(len(idx) for idx in strands.index.values()) == (
                res.betti[i] * algebra.dim)

    def test_negative_horizon_rejected(self):
        with pytest.raises(LindefError):
            resolve(X2.residue_field(), -1)


class TestChecksRaise:
    """Each structural check fires when a stage's generators are corrupted.

    The check runs on the stage's own matrices, whether that stage
    builds the next syzygy basis or only checks its rank (the last).
    """

    @pytest.mark.parametrize("algebra, horizon, stage, edit, message", [
        (X3, 0, 0, lambda r: r[:0], "augmentation is not surjective"),
        (X3, 2, 0, lambda r: r[:0], "augmentation is not surjective"),
        (X3, 2, 1, lambda r: X3.field.asarray([[1, 0, 0]]),
         "differential 1 has an entry outside the maximal ideal"),
        (X3, 3, 2, lambda r: X3.field.asarray([[0, 1, 0]]),
         "differential 2 does not compose to zero"),
        (KOSZUL3, 2, 2, lambda r: r[:-1], "not exact at stage 1"),
        (KOSZUL3, 3, 2, lambda r: r[:-1], "not exact at stage 1"),
    ])
    def test_corrupted_stage(self, monkeypatch, algebra, horizon, stage,
                             edit, message):
        real = resolution.minimal_generators
        calls = []

        def corrupting(space, blocks, ops):
            parts = real(space, blocks, ops)
            calls.append(len(calls))
            if len(calls) - 1 != stage:
                return parts
            return one_part(edit(generator_rows(space, blocks, parts)))

        monkeypatch.setattr(resolution, "minimal_generators", corrupting)
        with pytest.raises(AssertionError, match=message):
            resolve(algebra.residue_field(), horizon)


class TestDifferentialIndex:
    """check_differential and strand_blocks take the differentials
    1..horizon only: -1 must not wrap around to the last one, 0 names
    the augmentation, which is no AlgebraMatrix, and horizon + 1 was
    never built."""

    @pytest.mark.parametrize("i", [-1, 0, 4])
    def test_outside_raises(self, i):
        res = resolve(X3.residue_field(), 3)
        with pytest.raises(LindefError, match=f"differential {i} outside .*1..3"):
            res.check_differential(i)
        with pytest.raises(LindefError, match=f"differential {i} outside .*1..3"):
            list(res.strand_blocks(i))

    @pytest.mark.parametrize("i", [1, 3])
    def test_bounds_inside(self, i):
        res = resolve(X3.residue_field(), 3)
        res.check_differential(i)
        assert list(res.strand_blocks(i))


class TestCheckedOnce:
    """check_differential sweeps each d_i once: construction proves the
    d_i it builds, and a proved entries array cannot change in place."""

    @pytest.mark.parametrize("algebra", [X3, ring("char 0\nvars x\nideal x^3")],
                             ids=["GF(101)", "QQ"])
    def test_entries_are_read_only(self, algebra):
        res = resolve(algebra.residue_field(), 2)
        with pytest.raises(ValueError, match="read-only"):
            res.diff[1].entries[0, 0, 0] = 1

    def test_fresh_full_check_never_sweeps(self, monkeypatch):
        # a sweep starts with _check_minimal, which construction calls
        # once per differential it builds: 4 for horizon 3 + 1
        from lindef.lab import full_check
        calls = {"check": 0, "minimal": 0}
        real_check = MinimalResolution.check_differential
        real_minimal = MinimalResolution._check_minimal

        def check(self, i):
            calls["check"] += 1
            return real_check(self, i)

        def minimal(self, i):
            calls["minimal"] += 1
            return real_minimal(self, i)

        monkeypatch.setattr(MinimalResolution, "check_differential", check)
        monkeypatch.setattr(MinimalResolution, "_check_minimal", minimal)
        full_check(ring("vars x y\nideal x^2, x*y, y^3"), 3)
        assert calls["minimal"] == 4
        assert calls["check"] > 4


class TestAlgebraMatrix:
    def test_expand_of_unit_is_identity(self):
        f = X2.field
        one = f.zeros((1, 1, 2))
        one[0, 0, 0] = 1
        m = AlgebraMatrix(X2, one)
        assert (m.expand() == f.eye(2)).all()

    def test_expand_of_x_is_nilpotent_rank_one(self):
        f = X2.field
        x = f.zeros((1, 1, 2))
        x[0, 0, 1] = 1
        e = AlgebraMatrix(X2, x).expand()
        assert f.rank(e) == 1
        assert f.is_zero(f.matmul(e, e))

    def test_expand_functorial(self):
        # over koszul3: entries x and y compose to x*y = 0
        f = KOSZUL3.field
        a = f.zeros((1, 1, 4))
        a[0, 0, 1] = 1  # x
        b = f.zeros((1, 1, 4))
        b[0, 0, 2] = 1  # y
        ma, mb = AlgebraMatrix(KOSZUL3, a), AlgebraMatrix(KOSZUL3, b)
        prod = f.matmul(ma.expand(), mb.expand())
        xy = mult(KOSZUL3, KOSZUL3.mgens[0], KOSZUL3.mgens[1])
        assert xy.tolist() == [0, 0, 0, 0]
        assert f.is_zero(prod)

    def test_zero_matrix_expands_to_zero(self):
        f = X2.field
        m = AlgebraMatrix(X2, f.zeros((2, 3, 2)))
        assert m.expand().shape == (4, 6)
        assert f.is_zero(m.expand())

    def test_shape_mismatch_rejected(self):
        with pytest.raises(LindefError):
            AlgebraMatrix(X2, X2.field.zeros((2, 2, 5)))


X2Y2 = ring("vars x y\nideal x^2, y^2")


def counting_rref(monkeypatch, stage_marks=None):
    """Record the shape of every rref call; with stage_marks, also the
    call count at the start of each stage (at its minimal_generators)."""
    calls = []
    real = _kernels.rref

    def counting(a, p):
        calls.append(a.shape)
        return real(a, p)

    monkeypatch.setattr(_kernels, "rref", counting)
    if stage_marks is not None:
        real_mingens = resolution.minimal_generators

        def marking(space, blocks, ops):
            stage_marks.append(len(calls))
            return real_mingens(space, blocks, ops)

        monkeypatch.setattr(resolution, "minimal_generators", marking)
    return calls


def test_one_elimination_per_kernel(monkeypatch):
    """Pin the rref count of a resolution in the trivial grading.

    A dense change of basis of k[x,y]/(x^2,y^2) is rebased to a table
    that is not graded, so every stage runs as one strand, the whole
    expanded differential. b_i = i + 1,
    so every syzygy module is nonzero. Each of the h + 1 stages 0..h
    runs one rref of the stacked products W*x_g for every generator x_g
    (M*x_g at stage 0), which spans mW, and one for the kernel of its
    differential (only its rank at stage h): (h + 1) * 2 = 10 at h = 4.
    """
    algebra = dense_change(X2Y2, 3)
    assert resolution._basis_degrees(algebra) is None
    calls = counting_rref(monkeypatch)
    res = resolve(algebra.residue_field(), 4)
    assert res.m_degree == 0
    assert res.betti == [1, 2, 3, 4, 5]
    assert len(calls) == 10


@pytest.mark.parametrize("horizon", [0, 1, 4])
def test_last_stage_builds_no_kernel(monkeypatch, horizon):
    """Only strands with a target build a kernel, and stage h none.

    Over k[x,y]/(x^2,y^2) (Hilbert function 1, 2, 1) the resolution of k
    is linear: F_i has b_i = i + 1 generators of degree i, so its strands
    are i, i + 1 and i + 2, and F_{i-1} has none in degree i + 2. Stage 0
    builds the augmentation's kernel, each stage 1 <= i < h one kernel
    for each of strands i and i + 1, and strand i + 2 is all kernel
    without an elimination: 1 + 2(h - 1) kernels for h >= 1.
    """
    calls = []
    real = resolution.kernel

    def counting(field, a):
        calls.append(a.shape)
        return real(field, a)

    monkeypatch.setattr(resolution, "kernel", counting)
    res = resolve(X2Y2.residue_field(), horizon)
    assert res.betti == list(range(1, horizon + 2))
    assert len(calls) == (1 + 2 * (horizon - 1) if horizon else 0)


def test_no_rref_larger_than_a_strand_block(monkeypatch):
    """Every elimination of a graded stage fits in its largest strand block.

    Over k[x,y]/(x^2,y^2) stage i >= 1 has the blocks b_i x 2 b_{i-1}
    (strand i) and 2 b_i x b_{i-1} (strand i + 1), so 2 b_i b_{i-1}
    entries at most; stage 0's one block is the 4 x 1 augmentation. A
    stage makes one rref for mW (in strand i + 1; strand i has no strand
    below it in W) and one per block: 2 + 3 * 3 + 3 = 14 at h = 4, where
    the whole matrices of the trivial grading make 10 larger ones
    (test_one_elimination_per_kernel).
    """
    marks = []
    calls = counting_rref(monkeypatch, marks)
    res = resolve(X2Y2.residue_field(), 4)
    b = res.betti
    assert b == [1, 2, 3, 4, 5]
    assert len(calls) == 14
    largest = [4] + [2 * b[i] * b[i - 1] for i in range(1, 5)]
    for i, (start, stop) in enumerate(zip(marks, marks[1:] + [len(calls)])):
        assert stop > start
        assert max(m * n for m, n in calls[start:stop]) <= largest[i]


def reference_syzygy(res, i):
    """(dim, act) of ker d_i built from the expanded differential."""
    alg = res.algebra
    field, d, b = alg.field, alg.dim, res.betti[i]
    w = kernel(field, res.diff[i].expand().T)
    act = field.zeros((d, w.dim, w.dim))
    for j in range(d):
        for r in range(w.dim):
            image = field.zeros((1, b * d))
            for c in range(b):
                image[0, c * d:(c + 1) * d] = field.matmul(
                    w.basis[r:r + 1, c * d:(c + 1) * d], alg.table[j]
                )
            act[j, r] = w.coords(image)[0]
    return w.dim, act


@pytest.mark.parametrize("text", [
    "vars x\nideal x^3",
    "vars x y\nideal x^2, y^2",
    "vars x y z\nideal x^2, x*y, y^2, x*z, y*z, z^2",
    "char 0\nvars x y\nideal x^2, x*y, y^3",
])
def test_syzygy_recomputed_from_differential(text):
    k = ring(text).residue_field()
    h = 3
    res = resolve(k, h)
    assert res.syzygy(0) is k
    for i in range(1, h + 1):
        module = res.syzygy(i)
        dim, act = reference_syzygy(res, i)
        assert module.dim == dim
        assert module.act.shape == act.shape
        if k.field.p:
            assert module.act.tobytes() == act.tobytes()
        else:
            assert module.act.tolist() == act.tolist()
    with pytest.raises(LindefError):
        res.syzygy(h + 1)


def test_syzygy_checks_the_differential():
    # over k[x]/(x^4) every entry of d_2 is x^3; x^2 leaves its degree,
    # where no strand block reads it
    res = resolve(ring("vars x\nideal x^4").residue_field(), 3)
    entries = res.diff[2].entries.copy()
    entries[0, 0, 2] = 1
    res.diff[2] = AlgebraMatrix(res.algebra, entries)
    with pytest.raises(AssertionError, match="differential 2 is not homogeneous"):
        res.syzygy(2)


@pytest.mark.parametrize("module", ["k", "R/m^2"])
@pytest.mark.parametrize("algebra", [
    dense_change(ring("vars x y\nideal x^2, y^3"), 1),
    dense_change(ring("char 0\nvars x y\nideal x^2, x*y, y^3"), 2),
], ids=["dense basis GF(101)", "dense basis QQ"])
def test_syzygy_in_the_trivial_grading(algebra, module):
    # one strand per stage: the kernel scattered from the strand blocks
    # is the whole differential's
    m = algebra.residue_field() if module == "k" else algebra.quotient_module(2)
    res = resolve(m, 3)
    assert res.m_degree == 0
    for i in range(1, 4):
        syz = res.syzygy(i)
        dim, act = reference_syzygy(res, i)
        assert syz.dim == dim
        assert syz.act.tolist() == act.tolist()


class TestNonzeroStorage:
    """A differential is stored as its nonzero ring entries."""

    def test_scan_wide_d6_is_stored_sparse(self):
        # d_6 of the scan-wide ring of seed 1 is 729 x 243 x 8: 10.8 MB
        # as a dense int64 array, and 1657 nonzeros
        from lindef.lab import ScanConfig, random_algebra
        algebra = random_algebra(
            ScanConfig(nvars=3, nilpotency=3, horizon=5, count=1, seed=1), 0)
        dmat = resolve(algebra.residue_field(), 6).diff[6]
        dense = dmat.src_rank * dmat.dst_rank * algebra.dim * 8
        assert dense == 729 * 243 * 8 * 8
        assert len(dmat.nonzeros[0]) == 1657
        assert sum(a.nbytes for a in dmat.nonzeros) < dense / 100

    @pytest.mark.parametrize("algebra", [
        X3, KOSZUL3, ring("char 0\nvars x y\nideal x^2, y^3"),
    ], ids=["X3", "KOSZUL3", "QQ"])
    def test_nonzeros_match_the_dense_view(self, algebra):
        # sorted by (g, g', e), every value nonzero, the dense view and
        # each printed entry read from them, and the dense array converted
        # back to the same nonzeros
        res = resolve(algebra.residue_field(), 4)
        for i in range(1, 5):
            dmat = res.diff[i]
            g, g2, e, value = dmat.nonzeros
            keys = (g * dmat.dst_rank + g2) * algebra.dim + e
            assert (np.diff(keys) > 0).all()
            assert all(v != 0 for v in value.tolist())
            dense = dmat.entries
            assert dense.shape == (res.betti[i], res.betti[i - 1], algebra.dim)
            assert not dense.flags.writeable
            for c in range(dmat.src_rank):
                for c2 in range(dmat.dst_rank):
                    assert dmat.entry_string(c, c2) == algebra.format_element(dense[c, c2])
            again = AlgebraMatrix(algebra, dense)
            assert (again.src_rank, again.dst_rank) == (dmat.src_rank, dmat.dst_rank)
            for a, b in zip(again.nonzeros, dmat.nonzeros):
                assert a.dtype == b.dtype and a.tolist() == b.tolist()

    @pytest.mark.parametrize("algebra", [
        X3, KOSZUL3, ring("char 0\nvars x y\nideal x^2, y^3"),
        ring("char 2147483647\nvars x y\nideal x^2 - y^3, x*y"),
    ], ids=["X3", "KOSZUL3", "QQ", "GF(2^31-1)"])
    def test_expand_is_the_dense_expansion(self, algebra):
        # built from the nonzeros' tiles, the scalar matrix of every
        # truncation is the Kronecker expansion of the dense entries
        res = resolve(algebra.residue_field(), 3)
        cuts = [slice(None)] + [slice(0, algebra.quotient_dim(n)) for n in (1, 2)]
        for i in range(1, 4):
            dmat = res.diff[i]
            for rows in cuts:
                for cols in cuts:
                    got = dmat.expand(rows, cols)
                    want = block_expand(algebra.field, dmat.entries,
                                        algebra.table[:, rows, cols])
                    assert got.dtype == want.dtype and (got == want).all()

    def test_nonzeros_are_read_only(self):
        res = resolve(X3.residue_field(), 2)
        for a in res.diff[1].nonzeros:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1

    def test_is_minimal_reads_the_unit_coordinate(self):
        f = X2.field
        unit = f.zeros((1, 2, 2))
        unit[0, 1, 0] = 1
        assert not AlgebraMatrix(X2, unit).is_minimal()
        unit[0, 1] = [0, 5]
        assert AlgebraMatrix(X2, unit).is_minimal()
        assert AlgebraMatrix(X2, f.zeros((0, 3, 2))).is_minimal()
