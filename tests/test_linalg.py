"""Exact linear algebra: frozen examples, brute-force oracles, invariants."""

import itertools

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from lindef.fields import Field
from lindef.errors import LindefError
from lindef.linalg import (
    QuotientCoords,
    Subspace,
    block_apply,
    block_expand,
    direct_sum_cell,
    homology_cell,
    image,
    induced_map_on_quotients,
    kernel,
    kernel_structured,
    row_space,
)

from references import block_sum

GF5 = Field(5)
GF7 = Field(7)
GF2 = Field(2)
GF3 = Field(3)
QQ = Field(0)


def naive_rref(a, p):
    """Reference implementation: plain sequential Gauss-Jordan."""
    a = (np.array(a, dtype=np.int64) % p).copy()
    m, n = a.shape
    piv = []
    r = 0
    for c in range(n):
        if r == m:
            break
        srow = next((i for i in range(r, m) if a[i, c]), -1)
        if srow < 0:
            continue
        a[[r, srow]] = a[[srow, r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        for i in range(m):
            if i != r and a[i, c]:
                a[i] = (a[i] - a[i, c] * a[r]) % p
        piv.append(c)
        r += 1
    return a, tuple(piv)


class TestRref:
    def test_frozen_gf5(self):
        r, piv = GF5.rref(GF5.asarray([[2, 4], [1, 2]]))
        assert r.tolist() == [[1, 2], [0, 0]]
        assert piv == (0,)

    def test_identity_passthrough(self):
        a = GF7.eye(4)
        r, piv = GF7.rref(a)
        assert (r == a).all() and piv == (0, 1, 2, 3)

    def test_zero_matrix(self):
        r, piv = GF5.rref(GF5.zeros((3, 4)))
        assert piv == () and not r.any()

    def test_empty_shapes(self):
        r, piv = GF5.rref(GF5.zeros((0, 4)))
        assert r.shape == (0, 4) and piv == ()
        r, piv = GF5.rref(GF5.zeros((3, 0)))
        assert r.shape == (3, 0) and piv == ()

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(7)
        for p in (2, 3, 101):
            for _ in range(40):
                m = int(rng.integers(1, 12))
                n = int(rng.integers(1, 12))
                a = rng.integers(0, p, size=(m, n))
                r, piv = Field(p).rref(a)
                rn, pn = naive_rref(a, p)
                assert piv == pn
                assert (r == rn).all()

    def test_blocked_path_matches_naive(self):
        # wider than one panel, with duplicate rows forcing rank deficiency
        rng = np.random.default_rng(11)
        a = rng.integers(0, 101, size=(60, 300))
        a[17] = a[3]
        a[45] = (2 * a[9] + 5 * a[14]) % 101
        r, piv = Field(101).rref(a)
        rn, pn = naive_rref(a, 101)
        assert piv == pn and (r == rn).all()

    def test_rational_rref(self):
        a = QQ.asarray([[2, 4], [1, 3]])
        r, piv = QQ.rref(a)
        assert piv == (0, 1)
        assert r.tolist() == [[1, 0], [0, 1]]
        a = QQ.asarray([[2, 4], [1, 2]])
        r, piv = QQ.rref(a)
        assert piv == (0,)
        assert r[0].tolist() == [Fraction(1), Fraction(2)]

    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(0, 2**32),
        st.sampled_from([2, 3, 5, 101]),
    )
    @settings(max_examples=60, deadline=None)
    def test_rref_idempotent_and_rank_bound(self, m, n, seed, p):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, p, size=(m, n))
        f = Field(p)
        r, piv = f.rref(a)
        r2, piv2 = f.rref(r)
        assert piv2 == piv and (r2 == r).all()
        assert len(piv) <= min(m, n)
        # row space is preserved
        assert row_space(f, f.asarray(a)) == row_space(f, r)


class TestKernel:
    def test_frozen_gf7(self):
        k = kernel(GF7, GF7.asarray([[1, 3]]))
        assert k.basis.tolist() == [[1, 2]]
        assert k.dim == 1

    def test_structured_shape(self):
        a = GF5.asarray([[1, 2, 3], [0, 1, 4]])
        b, free = kernel_structured(GF5, a)
        assert free == [2]
        # identity at free columns
        assert b[0, 2] == 1
        assert not GF5.matmul(a, b.T).any()

    def test_rank_nullity_random(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            m, n = rng.integers(1, 10, size=2)
            a = rng.integers(0, 3, size=(int(m), int(n)))
            r = len(GF3.rref(a)[1])
            k = kernel(GF3, GF3.asarray(a))
            assert r + k.dim == n

    def test_kernel_brute_force_gf2(self):
        # every vector of GF(2)^4 is classified correctly
        rng = np.random.default_rng(5)
        a = GF2.asarray(rng.integers(0, 2, size=(3, 4)))
        k = kernel(GF2, a)
        members = 0
        for bits in range(16):
            v = np.array([(bits >> t) & 1 for t in range(4)], dtype=np.int64)
            in_kernel = not GF2.matmul(a, v.reshape(-1, 1)).any()
            members += in_kernel
            assert k.contains_vector(v) == in_kernel
        assert members == 2**k.dim

    def test_kernel_rational(self):
        k = kernel(QQ, QQ.asarray([[1, 2], [2, 4]]))
        assert k.dim == 1
        assert k.basis[0].tolist() == [Fraction(1), Fraction(-1, 2)]


def _two_eliminations(field, a):
    """The canonical kernel the long way: structured basis, then rref."""
    return Subspace.from_rows(field, kernel_structured(field, a)[0], a.shape[1])


def _kernel_case(field, shape):
    """Deterministic test matrices; QQ stays small (Fraction elimination)."""
    q = field.p or 7
    rng = np.random.default_rng(sum(map(ord, shape)) + q)
    if shape == "0xn":
        a = np.zeros((0, 9), dtype=np.int64)
    elif shape == "mx0":
        a = np.zeros((4, 0), dtype=np.int64)
    elif shape == "zero":
        a = np.zeros((5, 11), dtype=np.int64)
    elif shape == "full column rank":
        a = np.vstack([np.eye(6, dtype=np.int64), rng.integers(0, q, (3, 6))])
    elif shape == "low rank":
        a = rng.integers(0, q, (9, 2)) @ rng.integers(0, q, (2, 12))
    elif shape == "random":
        a = rng.integers(0, q, (7, 12))
    elif shape == "wide, 270 rows":
        # rank above one panel (256 columns): the reversed matrix needs
        # a second panel, and the reference rref of the kernel too
        a = rng.integers(0, q, (270, 520))
    elif shape == "wide, empty first panels":
        # columns reversed, the first two panels hold no pivot
        a = np.zeros((40, 600), dtype=np.int64)
        a[:, :80] = rng.integers(0, q, (40, 80))
    return field.asarray(a)


KERNEL_SHAPES = [
    "0xn", "mx0", "zero", "full column rank", "low rank", "random",
    "wide, 270 rows", "wide, empty first panels",
]
KERNEL_CASES = [
    pytest.param(field, shape, id=f"{field!r}-{shape}")
    for field in (Field(2), Field(3), Field(101), Field(32003), QQ)
    for shape in KERNEL_SHAPES
    if field.p or not shape.startswith("wide")
]


class TestCanonicalKernel:
    """`kernel` from one elimination equals the two-elimination RREF."""

    @pytest.mark.parametrize("field, shape", KERNEL_CASES)
    def test_matches_two_eliminations(self, field, shape):
        a = _kernel_case(field, shape)
        got = kernel(field, a)
        want = _two_eliminations(field, a)
        assert got.pivots == want.pivots
        assert got.ambient_dim == want.ambient_dim == a.shape[1]
        assert got.basis.shape == want.basis.shape
        assert got.basis.flags.c_contiguous
        if field.p:
            assert got.basis.dtype == want.basis.dtype == np.int64
            assert got.basis.tobytes() == want.basis.tobytes()
        else:
            assert got.basis.tolist() == want.basis.tolist()
        assert got.dim + field.rank(a) == a.shape[1]
        if got.dim:
            assert field.is_zero(field.matmul(a, np.ascontiguousarray(got.basis.T)))

    def test_transposed_view_input(self):
        # callers pass x.T without copying it
        f = Field(101)
        x = f.asarray(np.random.default_rng(2).integers(0, 101, (30, 12)))
        assert kernel(f, x.T) == _two_eliminations(f, np.ascontiguousarray(x.T))

    def test_input_left_untouched(self):
        f = Field(5)
        a = f.asarray(np.random.default_rng(4).integers(0, 5, (6, 9)))
        before = a.copy()
        kernel(f, a)
        assert (a == before).all()

    @given(
        st.integers(0, 8),
        st.integers(0, 10),
        st.integers(0, 3),
        st.integers(0, 2**32),
        st.sampled_from([2, 3, 5, 101]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_two_eliminations_random(self, m, n, r, seed, p):
        f = Field(p)
        rng = np.random.default_rng(seed)
        a = f.asarray(rng.integers(0, p, (m, r)) @ rng.integers(0, p, (r, n)))
        got, want = kernel(f, a), _two_eliminations(f, a)
        assert got.pivots == want.pivots
        assert got.basis.tobytes() == want.basis.tobytes()


class TestSubspace:
    def test_canonical_equality(self):
        s1 = Subspace.from_rows(GF5, GF5.asarray([[1, 2, 0], [0, 0, 1]]))
        s2 = Subspace.from_rows(GF5, GF5.asarray([[2, 4, 3], [1, 2, 1]]))
        assert s1 == s2

    def test_frozen_intersection_gf3(self):
        e12 = Subspace.from_rows(GF3, GF3.asarray([[1, 0, 0], [0, 1, 0]]))
        e23 = Subspace.from_rows(GF3, GF3.asarray([[0, 1, 0], [0, 0, 1]]))
        meet = e12.intersect(e23)
        assert meet.dim == 1
        assert meet.basis.tolist() == [[0, 1, 0]]

    def test_sum_and_modularity(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            a = Subspace.from_rows(GF3, GF3.asarray(rng.integers(0, 3, size=(2, 5))))
            b = Subspace.from_rows(GF3, GF3.asarray(rng.integers(0, 3, size=(2, 5))))
            s = a.sum(b)
            m = a.intersect(b)
            assert s.dim + m.dim == a.dim + b.dim
            assert s.contains(a) and s.contains(b)
            assert a.contains(m) and b.contains(m)

    def test_contains_and_reduce(self):
        s = Subspace.from_rows(GF7, GF7.asarray([[1, 0, 3], [0, 1, 5]]))
        assert s.contains_vector(GF7.asarray([2, 3, 0]))  # 2*r0+3*r1 = (2,3,21=0)
        assert not s.contains_vector(GF7.asarray([0, 0, 1]))

    def test_coords_roundtrip(self):
        s = Subspace.from_rows(GF7, GF7.asarray([[1, 0, 3], [0, 1, 5]]))
        v = GF7.matmul(GF7.asarray([[4, 6]]), s.basis)
        c = s.coords(v)
        assert c.tolist() == [[4, 6]]
        with pytest.raises(LindefError):
            s.coords(GF7.asarray([[0, 0, 1]]))

    def test_adapted_reps_reduced_against_sub(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            big = Subspace.from_rows(GF5, GF5.asarray(rng.integers(0, 5, size=(4, 6))))
            mix = GF5.matmul(
                GF5.asarray(rng.integers(0, 5, size=(2, big.dim))), big.basis
            )
            small = Subspace.from_rows(GF5, mix, 6)
            reps, cols = big.adapted_reps(small)
            assert len(cols) == big.dim - small.dim
            # reps + small basis spans big
            assert Subspace.from_rows(
                GF5, np.concatenate([reps, small.basis]), 6
            ) == big
            # reps already reduced against small
            assert (small.reduce(reps) == reps).all()

    def test_block_sum(self):
        w = Subspace.from_rows(GF5, GF5.asarray([[1, 2, 0], [0, 0, 1]]))
        blk = block_sum(w, 3)
        assert blk.ambient_dim == 9 and blk.dim == 6
        direct = Subspace.from_rows(GF5, blk.basis, 9)
        assert direct == blk  # already canonical


class TestQuotientAndInducedMaps:
    def brute_cosets(self, field, z, b):
        """All cosets of b inside z over GF(2)/GF(3), by enumeration."""
        p = field.p
        n = z.ambient_dim
        vecs = []
        for idx in range(p**z.dim):
            c = []
            t = idx
            for _ in range(z.dim):
                c.append(t % p)
                t //= p
            v = field.matmul(field.asarray([c]), z.basis)[0] if z.dim else field.zeros(n)
            vecs.append(tuple(int(x) for x in v))
        # group into cosets via reduction against b
        keyed = {}
        for v in vecs:
            key = tuple(int(x) for x in b.reduce(field.asarray([list(v)]))[0])
            keyed.setdefault(key, []).append(v)
        return keyed

    def test_quotient_coords_enumerated_gf2(self):
        z = Subspace.from_rows(GF2, GF2.asarray([[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]))
        b = Subspace.from_rows(GF2, GF2.asarray([[1, 1, 1, 1]]))
        assert z.contains(b)
        q = QuotientCoords(GF2, z, b)
        assert q.dim == 2
        cosets = self.brute_cosets(GF2, z, b)
        assert len(cosets) == 2**2
        # two vectors get equal coordinates iff they share a coset
        seen = {}
        for key, members in cosets.items():
            coords = {
                tuple(int(x) for x in q.coords(GF2.asarray([list(v)]))[0])
                for v in members
            }
            assert len(coords) == 1
            seen[key] = coords.pop()
        assert len(set(seen.values())) == len(cosets)

    def test_quotient_coords_reject_vectors_outside_the_pair(self):
        z = Subspace.from_rows(GF2, GF2.asarray([[1, 0, 1, 0], [0, 1, 0, 0]]))
        b = Subspace.from_rows(GF2, GF2.asarray([[0, 1, 0, 0]]))
        outside = GF2.asarray([[0, 0, 0, 1]])
        with pytest.raises(LindefError, match="sub ⊆ self"):
            QuotientCoords(GF2, b, z)
        for sup in (z, b):  # a nonzero quotient, and a zero one
            with pytest.raises(LindefError, match="not in the subspace pair"):
                QuotientCoords(GF2, sup, b).coords(outside)

    def test_induced_map_identity(self):
        z = Subspace.from_rows(GF3, GF3.asarray([[1, 0, 0], [0, 1, 0]]))
        b = Subspace.from_rows(GF3, GF3.asarray([[0, 1, 0]]))
        m = GF3.eye(3)
        mat, rank = induced_map_on_quotients(
            GF3, lambda rows: GF3.matmul(rows, m.T), (z, b), (z, b)
        )
        assert mat.tolist() == [[1]] and rank == 1

    def test_induced_map_enumerated_gf3(self):
        # map x -> m x on ambient GF(3)^3; quotient pairs chosen so the map descends
        m = GF3.asarray([[0, 0, 0], [1, 0, 0], [0, 0, 2]])
        z_src = Subspace.from_rows(GF3, GF3.eye(3))
        b_src = Subspace.from_rows(GF3, GF3.asarray([[0, 1, 0]]))
        z_dst = Subspace.from_rows(GF3, GF3.asarray([[0, 1, 0], [0, 0, 1]]))
        b_dst = Subspace.from_rows(GF3, GF3.asarray([[0, 1, 0]]))
        mat, rank = induced_map_on_quotients(
            GF3, lambda rows: GF3.matmul(rows, m.T), (z_src, b_src), (z_dst, b_dst)
        )
        # induced map sends class of e3 to class of 2 e3, classes of e1, e2 to 0
        assert rank == 1
        q_src = QuotientCoords(GF3, z_src, b_src)
        q_dst = QuotientCoords(GF3, z_dst, b_dst)
        for idx, rep in enumerate(q_src.reps):
            img = GF3.matmul(m, rep.reshape(-1, 1)).reshape(1, -1)
            expect = q_dst.coords(img)[0]
            got = mat[:, idx]
            assert (expect == got).all()

    def test_induced_map_rejects_non_invariant(self):
        m = GF3.asarray([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        z = Subspace.from_rows(GF3, GF3.asarray([[0, 1, 0]]))
        b = Subspace.zero(GF3, 3)
        dst = (Subspace.from_rows(GF3, GF3.asarray([[0, 0, 1]])), b)
        with pytest.raises(LindefError):
            induced_map_on_quotients(
                GF3, lambda rows: GF3.matmul(rows, m.T), (z, b), dst
            )


class TestImage:
    def test_image_is_column_space(self):
        a = GF5.asarray([[1, 2], [2, 4], [0, 1]])
        im = image(GF5, a)
        assert im.ambient_dim == 3
        assert im.dim == 2
        for col in a.T:
            assert im.contains_vector(col)


class TestOneCopy:
    """from_rows and image hand their input to rref, which copies it once."""

    @pytest.mark.parametrize("p", [2, 101, 32003])
    @pytest.mark.parametrize("rank", [3, 7])
    def test_basis_matches_reference_and_input_untouched(self, p, rank):
        rng = np.random.default_rng(p + rank)
        low = rng.integers(0, p, (7, rank)) @ rng.integers(0, p, (rank, 11))
        # unreduced, negative, int32 entries: rref does the reduction
        a = (low % p - p * rng.integers(-1, 2, (7, 11))).astype(np.int32)
        before = a.copy()
        f = Field(p)
        for got, rows in ((Subspace.from_rows(f, a), a), (image(f, a), a.T)):
            want, piv = naive_rref(rows, p)
            assert got.pivots == piv
            assert got.basis.dtype == np.int64
            assert got.basis.tobytes() == want[: len(piv)].tobytes()
        assert a.dtype == np.int32 and (a == before).all()

    def test_shape_checks_kept(self):
        with pytest.raises(LindefError):
            Subspace.from_rows(GF5, np.zeros(3, dtype=np.int64))
        with pytest.raises(LindefError):
            Subspace.from_rows(GF5, np.zeros((2, 3), dtype=np.int64), 4)


def _random(field, rng, shape):
    x = rng.integers(-3, 4, shape)
    if field.p:
        return field.asarray(x)
    return field.asarray(x) / field.asarray(rng.integers(1, 4, shape))


def _loop_block_apply(field, rows, blocks, ops):
    """Operator-major: row s*z + r holds rows[r] under ops[s]."""
    e, a, b = ops.shape
    z = rows.shape[0]
    out = field.zeros((e * z, blocks * b))
    for s, r, g, f in itertools.product(range(e), range(z), range(blocks), range(b)):
        out[s * z + r, g * b + f] = field.scalar(
            sum(rows[r, g * a + u] * ops[s, u, f] for u in range(a))
        )
    return out


def _loop_block_expand(field, entries, ops):
    r, c, e = entries.shape
    _, J, F = ops.shape
    out = field.zeros((r * J, c * F))
    for g, h, j, f in itertools.product(range(r), range(c), range(J), range(F)):
        out[g * J + j, h * F + f] = field.scalar(
            sum(entries[g, h, k] * ops[k, j, f] for k in range(e))
        )
    return out


class TestBlockLayout:
    @pytest.mark.parametrize("field", [Field(101), QQ], ids=["GF101", "QQ"])
    @pytest.mark.parametrize("z,blocks,a,b", [
        (3, 2, 4, 3), (3, 2, 3, 3), (0, 2, 4, 3), (3, 0, 4, 3),
        (3, 2, 0, 3), (3, 2, 4, 0),
    ])
    def test_block_apply(self, field, z, blocks, a, b):
        rng = np.random.default_rng(z + 7 * blocks + 31 * a + 97 * b)
        rows = _random(field, rng, (z, blocks * a))
        for e in (0, 1, 3):
            ops = _random(field, rng, (e, a, b))
            got = block_apply(field, rows, blocks, ops)
            want = _loop_block_apply(field, rows, blocks, ops)
            assert got.shape == (e * z, blocks * b)
            assert got.dtype == want.dtype and (got == want).all()

    @pytest.mark.parametrize("field", [Field(101), QQ], ids=["GF101", "QQ"])
    def test_block_apply_one_product_per_stack(self, field, monkeypatch):
        calls = []
        real = Field.matmul

        def counted(self, x, y):
            calls.append(x.shape)
            return real(self, x, y)

        monkeypatch.setattr(Field, "matmul", counted)
        rng = np.random.default_rng(5)
        rows = _random(field, rng, (3, 2 * 4))
        block_apply(field, rows, 2, _random(field, rng, (3, 4, 5)))
        assert len(calls) == 1

    @pytest.mark.parametrize("field", [Field(101), QQ], ids=["GF101", "QQ"])
    @pytest.mark.parametrize("r,c,e,J,F", [
        (2, 3, 4, 3, 2), (1, 1, 1, 1, 1), (0, 3, 4, 2, 2), (2, 0, 4, 2, 2),
        (2, 3, 0, 2, 2), (2, 3, 4, 0, 2), (2, 3, 4, 2, 0),
    ])
    def test_block_expand(self, field, r, c, e, J, F):
        rng = np.random.default_rng(r + 5 * c + 17 * e + 41 * J + 83 * F)
        entries = _random(field, rng, (r, c, e))
        ops = _random(field, rng, (e, J, F))
        got = block_expand(field, entries, ops)
        want = _loop_block_expand(field, entries, ops)
        assert got.shape == (r * J, c * F)
        assert got.dtype == want.dtype and (got == want).all()


class TestHomologyCell:
    @pytest.mark.parametrize("field", [Field(101), QQ], ids=["GF101", "QQ"])
    def test_cycles_and_boundaries(self, field):
        incoming = field.asarray([[1, 2], [2, 4], [0, 0]])
        outgoing = field.asarray([[2], [-1]])
        cycles, boundaries = homology_cell(field, 2, outgoing, incoming, "k^2")
        assert cycles == kernel(field, outgoing.T) and cycles.dim == 1
        assert boundaries == row_space(field, incoming) and boundaries.dim == 1

    @pytest.mark.parametrize("field", [Field(101), QQ], ids=["GF101", "QQ"])
    def test_ends_of_a_complex(self, field):
        # nothing leaves, nothing enters: all cycles, no boundaries,
        # whether "no map" is None or a matrix with no columns / no rows
        for outgoing, incoming in ((None, None),
                                   (field.zeros((4, 0)), field.zeros((0, 4)))):
            cycles, boundaries = homology_cell(field, 4, outgoing, incoming, "end")
            for got, want in ((cycles, Subspace.full(field, 4)),
                              (boundaries, Subspace.zero(field, 4))):
                assert_same_space(got, want)

    @pytest.mark.parametrize("field", [Field(101), QQ], ids=["GF101", "QQ"])
    def test_non_complex_raises(self, field):
        # runs under python -O too: the check must not be a bare assert
        incoming = field.asarray([[1, 0]])
        outgoing = field.asarray([[1], [0]])
        with pytest.raises(AssertionError, match="cell-x"):
            homology_cell(field, 2, outgoing, incoming, "cell-x")


def assert_same_space(got, want):
    assert got.ambient_dim == want.ambient_dim
    assert got.pivots == want.pivots
    assert got.basis.dtype == want.basis.dtype
    assert got.basis.shape == want.basis.shape
    assert got.basis.tolist() == want.basis.tolist()


@pytest.mark.parametrize("field", [Field(101), Field(2147483647), QQ],
                         ids=["GF101", "GF(2^31-1)", "QQ"])
def test_direct_sum_cell_none_is_a_zero_shape_map(field):
    # parts on disjoint coordinates of k^7: A with both maps, B with no
    # map leaving, C with none entering, D with neither. None and a
    # zero-shape matrix give the same cell, and both the cell of one
    # elimination of the whole block-diagonal complex.
    a_out = field.asarray([[1], [1], [0]])
    a_in = field.asarray([[1, -1, 5]])
    b_in = field.asarray([[2, 3]])
    c_out = field.asarray([[1]])
    index = {"A": [0, 2, 3], "B": [1, 4], "C": [5], "D": [6]}
    maps = {"A": (a_out, a_in), "B": (None, b_in), "C": (c_out, None), "D": (None, None)}

    def parts(none):
        out = []
        for name, (o, i) in maps.items():
            n = len(index[name])
            if not none:
                o = field.zeros((n, 0)) if o is None else o
                i = field.zeros((0, n)) if i is None else i
            out.append((np.asarray(index[name]), o, i, name))
        return out

    outgoing = field.zeros((7, 2))
    outgoing[index["A"], 0] = a_out[:, 0]
    outgoing[index["C"], 1] = c_out[:, 0]
    incoming = field.zeros((2, 7))
    incoming[0, index["A"]] = a_in[0]
    incoming[1, index["B"]] = b_in[0]
    whole = homology_cell(field, 7, outgoing, incoming, "whole")
    for none in (True, False):
        cell = direct_sum_cell(field, 7, parts(none))
        assert cell.dim == whole.dim == 3
        assert_same_space(cell.cycles, whole.cycles)
        assert_same_space(cell.boundaries, whole.boundaries)
