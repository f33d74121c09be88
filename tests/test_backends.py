"""Pure-numpy vs compiled kernel parity and backend selection."""

import tracemalloc
from math import isqrt

import numpy as np
import pytest

from lindef import _kernels
from lindef._kernels import matmul_mod, pure, rref
from lindef.fields import _is_prime

try:
    from lindef._kernels import _speedups as speedups
except ImportError:
    speedups = None

# only the parity tests need the compiled kernel; the rest test the
# pure backend against references
needs_speedups = pytest.mark.skipif(
    speedups is None, reason="compiled kernel lindef._kernels._speedups not built"
)


def random_panel(rng, m, k, p):
    return rng.integers(0, p, size=(m, k), dtype=np.int64)


@needs_speedups
class TestPanelParity:
    @pytest.mark.parametrize("p", [2, 3, 101, 32003])
    @pytest.mark.parametrize("shape", [(1, 1), (5, 3), (3, 5), (16, 16), (40, 7)])
    def test_bit_for_bit(self, p, shape):
        rng = np.random.default_rng(hash((p, shape)) & 0xFFFF)
        for trial in range(8):
            E = random_panel(rng, *shape, p)
            E1, E2 = E.copy(), E.copy()
            r1, c1 = pure.panel_jordan(E1, p)
            r2, c2 = speedups.panel_jordan(E2, p)
            assert (r1, c1) == (list(r2), list(c2))
            assert (E1 == E2).all()

    def test_zero_panel(self):
        E1 = np.zeros((4, 4), dtype=np.int64)
        E2 = E1.copy()
        assert pure.panel_jordan(E1, 7) == ([], [])
        r, c = speedups.panel_jordan(E2, 7)
        assert (list(r), list(c)) == ([], [])

    def test_duplicate_columns(self):
        base = np.array([[1, 1, 2], [2, 2, 4], [0, 0, 1]], dtype=np.int64)
        E1, E2 = base.copy(), base.copy()
        r1, c1 = pure.panel_jordan(E1, 5)
        r2, c2 = speedups.panel_jordan(E2, 5)
        assert (r1, c1) == (list(r2), list(c2)) == ([0, 2], [0, 2])
        assert (E1 == E2).all()


class TestSmallPanel:
    """Panels of at most pure.SMALL_PANEL entries run on Python ints and
    must pick the same pivots and leave the same panel as the numpy
    loop, which larger panels run."""

    @staticmethod
    def numpy_loop(E, p, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(pure, "SMALL_PANEL", -1)
            return pure.panel_jordan(E, p)

    @pytest.mark.parametrize("p", [2, 3, 101, 2**31 - 1])
    def test_against_the_numpy_loop(self, p, monkeypatch):
        rng = np.random.default_rng(p % 1000)
        shapes = [(0, 0), (0, 5), (5, 0), (1, 1), (1, 16), (16, 1), (16, 16),
                  (8, 32), (32, 8), (3, 85), (85, 3)]
        for shape in shapes:
            for trial in range(6):
                E = sparse_matrix(rng, shape, p, rng.choice([0.2, 0.6, 1.0]))
                if shape[1] and trial % 2:
                    E[:, rng.random(shape[1]) < 0.4] = 0  # all-zero columns
                if shape[0] > 1 and trial % 3 == 2:
                    E[1:, :] = E[0]  # dependent rows
                assert E.size <= pure.SMALL_PANEL
                small, loop = E.copy(), E.copy()
                assert pure.panel_jordan(small, p) == self.numpy_loop(loop, p, monkeypatch)
                assert small.dtype == np.int64 and (small == loop).all()

    def test_dispatch_by_size(self, monkeypatch):
        calls = []
        real = pure._panel_jordan_small
        monkeypatch.setattr(pure, "_panel_jordan_small",
                            lambda E, p: calls.append(E.size) or real(E, p))
        rng = np.random.default_rng(7)
        for shape in [(16, 16), (17, 16), (1, 257), (0, 300)]:
            pure.panel_jordan(random_panel(rng, *shape, 101), 101)
        assert calls == [256, 0]

    def test_rref_through_small_panels(self):
        # every panel of these shapes is small; rref must stay canonical
        rng = np.random.default_rng(11)
        for p in (2, 101, 2**31 - 1):
            for shape in [(4, 9), (12, 20), (20, 12), (6, 40)]:
                assert_matches_reference(sparse_matrix(rng, shape, p, 0.5), p)


def reference_rref(a, p):
    """Textbook single-column elimination with Python ints."""
    a = [[int(x) % p for x in row] for row in a.tolist()]
    m, n = len(a), len(a[0]) if a else 0
    piv = []
    r = 0
    for c in range(n):
        s = next((i for i in range(r, m) if a[i][c] % p), None)
        if s is None:
            continue
        a[r], a[s] = a[s], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        piv.append(c)
        r += 1
    return np.array(a, dtype=np.int64), tuple(piv)


def sparse_matrix(rng, shape, p, density):
    mask = rng.random(shape) < density
    return np.where(mask, rng.integers(1, p, size=shape, dtype=np.int64), 0)


def assert_matches_reference(a, p):
    """rref(a, p) equals the textbook elimination and leaves `a` as it was."""
    before = a.copy()
    got, piv = rref(a, p)
    want, wpiv = reference_rref(a, p)
    assert piv == wpiv
    assert got.dtype == np.int64 and (got == want).all()
    assert (a == before).all()


class TestRref:
    @pytest.mark.parametrize("p", [2, 101, 32003])
    def test_matches_reference(self, p):
        rng = np.random.default_rng(p)
        for m, n in [(4, 6), (6, 4), (8, 8), (1, 5), (12, 3)]:
            a = rng.integers(0, p, size=(m, n), dtype=np.int64)
            got, piv = rref(a, p)
            want, wpiv = reference_rref(a, p)
            assert piv == wpiv
            assert (got == want).all()

    def test_canonical_under_row_shuffle(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 101, size=(9, 5), dtype=np.int64)
        r1, p1 = rref(a, 101)
        r2, p2 = rref(a[::-1], 101)
        assert p1 == p2
        assert (r1 == r2).all()

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 7, size=(6, 9), dtype=np.int64)
        r1, p1 = rref(a, 7)
        r2, p2 = rref(r1, 7)
        assert p1 == p2 and (r1 == r2).all()

    def test_rank_transpose_invariant(self):
        rng = np.random.default_rng(2)
        for _ in range(6):
            a = rng.integers(0, 13, size=(7, 11), dtype=np.int64)
            at = np.ascontiguousarray(a.T)
            assert len(rref(a, 13)[1]) == len(rref(at, 13)[1])

    def test_wide_matrix_multiple_panels(self):
        # force more columns than one panel at a tiny width budget
        p = 101
        width = _kernels.panel_width(p)
        rng = np.random.default_rng(3)
        a = rng.integers(0, p, size=(20, width * 2 + 5), dtype=np.int64)
        got, piv = rref(a, p)
        want, wpiv = reference_rref(a, p)
        assert piv == wpiv and (got == want).all()

    def test_last_row_eliminated_on_a_copy(self):
        # one row is left for the third panel (width 1 at this prime), so
        # its panel slice is already contiguous; scaling it in place would
        # leave the row half-scaled
        p = 2**31 - 1
        a = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 1]], dtype=np.int64)
        got, piv = rref(a, p)
        assert piv == (0, 1, 2)
        assert got[2].tolist() == [0, 0, 1, 2**30]
        assert_matches_reference(a, p)

    def test_one_row_left_for_a_later_panel(self):
        p = 3
        a = np.zeros((2, 601), dtype=np.int64)
        a[0, 0], a[1, 260], a[1, 600] = 1, 2, 1
        got, piv = rref(a, p)
        assert piv == (0, 260)
        assert got[1, 600] == 2
        assert_matches_reference(a, p)

    @pytest.mark.parametrize("p, shape", [
        (3, (100, 1000)),
        (101, (100, 1000)),
        (2**31 - 1, (10, 300)),
    ])
    def test_sparse_inputs(self, p, shape):
        # sparse rows leave single rows for later panels
        for seed in range(8):
            rng = np.random.default_rng(seed)
            assert_matches_reference(sparse_matrix(rng, shape, p, 0.02), p)


# (p, panel width): small primes, the last prime with 256-column panels,
# a width in between, the last prime held in float64, and the int64 loop
REGIMES = [
    (2, 256),
    (101, 256),
    (5931641, 256),  # the last prime with 256-column panels
    (10000019, 90),
    (94906249, 1),  # the last prime with (p-1)^2 < 2^53
    (2**31 - 1, 1),
]


class TestResidues:
    @pytest.mark.parametrize("p, width", REGIMES)
    def test_against_reference(self, p, width):
        assert _kernels.panel_width(p) == width
        rng = np.random.default_rng(width)
        n = max(2 * width + 7, 40)
        low_rank = matmul_mod(
            rng.integers(0, p, size=(24, 5), dtype=np.int64),
            rng.integers(0, p, size=(5, n), dtype=np.int64), p)
        staircase = rng.integers(0, p, size=(30, n), dtype=np.int64)
        staircase[10:, : width + 3] = 0  # rows 10: start past the first panel
        for a in (
            rng.integers(0, p, size=(20, n), dtype=np.int64)[:, ::-1],
            staircase,
            low_rank,
            sparse_matrix(rng, (30, n), p, 0.05),
            np.zeros((6, n), dtype=np.int64),
        ):
            assert_matches_reference(a, p)

    def test_float_residues_up_to_94906249(self):
        # the float64 condition is tightest at the largest prime of each
        # panel width; holding there, it holds for every smaller prime
        for width in range(256, 0, -1):
            p = isqrt(_kernels._FLOAT_BUDGET // width) + 1
            while not _is_prime(p):
                p -= 1
            assert _kernels.panel_width(p) == width
            assert _kernels._residue_type(p)[0] is np.float64, p
        assert p == 94906249
        assert _kernels._residue_type(94906297)[0] is np.int64  # next prime
        assert _kernels.panel_width(5931649) == 255  # next prime

    def test_tail_reduced_mid_elimination(self, monkeypatch):
        # a 2^16 budget narrows GF(101) panels to 6 columns and leaves room
        # for only 6 pivots' updates between reductions
        monkeypatch.setattr(_kernels, "_FLOAT_BUDGET", 1 << 16)
        assert _kernels.panel_width(101) == 6
        assert _kernels._residue_type(101)[0] is np.float64
        calls = []
        reduce = _kernels._reduce

        def counting(dst, src, p):
            calls.append(src.shape)
            reduce(dst, src, p)

        monkeypatch.setattr(_kernels, "_reduce", counting)
        rng = np.random.default_rng(7)
        a = rng.integers(0, 101, size=(30, 80), dtype=np.int64)
        assert_matches_reference(a, 101)
        # the first and last passes cover the whole matrix; the rest are
        # tail reductions, each of the columns after some panel's start
        assert calls[0] == calls[-1] == (30, 80)
        tails = calls[1:-1]
        assert len(tails) >= 3
        assert all(rows == 30 and cols < 80 for rows, cols in tails)

    def test_peak_memory_one_working_copy(self):
        # the residues reuse the working copy's memory; every other
        # temporary stays within a few _CHUNK_ELEMS budgets
        p, rank = 101, 512
        rng = np.random.default_rng(11)
        a = matmul_mod(
            rng.integers(0, p, size=(2000, rank), dtype=np.int64),
            rng.integers(0, p, size=(rank, 3000), dtype=np.int64), p)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            got, piv = rref(a, p)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak - got.nbytes <= 3 * 8 * _kernels._CHUNK_ELEMS
        # too large for reference_rref: the random factors make the first
        # `rank` columns independent, so the RREF is [I X; 0 0] with
        # a[:, :rank] @ X = a[:, rank:]
        assert piv == tuple(range(rank))
        assert (got[:rank, :rank] == np.eye(rank, dtype=np.int64)).all()
        assert not got[rank:].any()
        x = got[:rank, rank:]
        assert (matmul_mod(a[:, :rank], x, p) == a[:, rank:]).all()


def staircase_rows(rng, m, n, p, tail=0.02):
    """m rows with distinct leading 1s at random columns, each with a
    sparse random tail right of its lead, in random row order."""
    a = sparse_matrix(rng, (m, n), p, tail)
    lead = np.sort(rng.choice(n, m, replace=False))
    a[np.arange(n) <= lead[:, None]] = 0
    a[np.arange(m), lead] = 1
    return a[rng.permutation(m)]


def spy(monkeypatch, name, record):
    """Replace _kernels.<name> by a wrapper that passes its arguments and
    result to `record` and returns the result."""
    real = getattr(_kernels, name)

    def wrapper(*args):
        out = real(*args)
        record(args, out)
        return out

    monkeypatch.setattr(_kernels, name, wrapper)


def structured_inputs(p):
    """Wide inputs with structure for the pivot rounds, by name."""
    rng = np.random.default_rng(p % 1000 + 17)
    n = 2 * _kernels.panel_width(p) + 40
    base = staircase_rows(rng, 24, n, p)
    chain = np.zeros((12, n), dtype=np.int64)
    chain[np.arange(12), 3 * np.arange(12)] = 1
    chain[np.arange(12), 3 * np.arange(12) + 3] = rng.integers(1, p, size=12)
    dense = rng.integers(0, p, size=(20, n), dtype=np.int64)
    dense[:, : n // 2] = 0
    zeros = staircase_rows(rng, 30, n, p)
    zeros[:, rng.choice(n, n // 4, replace=False)] = 0
    zeros = np.insert(zeros, [0, 7, 7, 30], 0, axis=0)
    # sparse, with nonzeros shifted by multiples of p and some zeros
    # written as +-p
    shifted = staircase_rows(rng, 30, n, p, tail=0.05)
    nz = shifted != 0
    shifted[nz] += p * rng.integers(-3, 4, size=np.count_nonzero(nz))
    shifted[rng.random(shifted.shape) < 0.01] = p
    shifted[rng.random(shifted.shape) < 0.01] = -p
    return {
        "identity_with_tail": staircase_rows(rng, 40, n, p, tail=0.05),
        # the operator-stack shape of minimal_generators' products
        "stacked_repeats": np.vstack(
            [base * c % p for c in rng.integers(0, p, size=3)]
            + [base[::-1]]),
        "chain": chain,
        "half_dense": np.vstack([staircase_rows(rng, 30, n, p), dense]),
        "zero_rows_and_columns": zeros,
        "all_zero": np.zeros((5, n), dtype=np.int64),
        # each clearing adds entries to the rows it touches
        "fill_in": sparse_matrix(rng, (40, n), p, 0.03),
        "outside_range": shifted,
    }


class TestStructuredPass:
    """Wide inputs run rounds of clean leading-column pivots before the
    blocked loop; the result must stay the canonical RREF."""

    PRIMES = [2, 101, 32003, 2**31 - 1]

    @pytest.mark.parametrize("p", PRIMES)
    def test_against_reference(self, p):
        for name, a in structured_inputs(p).items():
            assert a.shape[1] > _kernels.panel_width(p), name
            assert_matches_reference(a, p)
        got, piv = rref(np.zeros((0, 600), dtype=np.int64), p)
        assert got.shape == (0, 600) and piv == ()

    @pytest.mark.parametrize("p", PRIMES)
    def test_every_round_forced(self, p, monkeypatch):
        # rounds run until no live row is left, whatever they cost
        monkeypatch.setattr(_kernels, "_round_pays", lambda *args: True)
        for a in structured_inputs(p).values():
            assert_matches_reference(a, p)

    @pytest.mark.parametrize("p", PRIMES)
    def test_chain_one_pivot_per_round(self, p, monkeypatch):
        # row i leads at column 3i and is nonzero at the next row's lead,
        # so only the smallest lead is clean in each round
        rounds = []
        monkeypatch.setattr(_kernels, "_round_pays",
                            lambda k, *rest: rounds.append(k) or True)
        assert_matches_reference(structured_inputs(p)["chain"], p)
        assert rounds == [1] * 12

    def test_partial_pass_then_blocked_residual(self, monkeypatch):
        p = 101
        rounds, blocked = [], []
        spy(monkeypatch, "_pivot_rounds", lambda args, out: rounds.append(
            (len(out[0]), len(out[2]))))
        spy(monkeypatch, "_rref_blocked", lambda args, out: blocked.append(
            (args[0].shape, len(out))))
        a = structured_inputs(p)["half_dense"]
        assert_matches_reference(a, p)
        # the rounds take staircase pivots until the dense rows stall them;
        # the rest goes to the blocked loop as a residual: the live rows
        # (unused and nonzero) on the free columns
        [(taken, live)] = rounds
        [((rows, cols), rank)] = blocked
        assert 0 < taken < 50 and cols == a.shape[1] - taken
        assert taken + rank == len(reference_rref(a, p)[1]) and rank >= 19
        assert rows == live and rank <= live <= a.shape[0] - taken

    def test_rounds_stay_within_one_dense_copy(self, monkeypatch):
        # every round pays here, so only the memory bound can refuse one
        # that clears a dense pivot row from every other row
        monkeypatch.setattr(_kernels, "_round_pays", lambda *args: True)
        stored = []
        spy(monkeypatch, "_merge", lambda args, out: stored.append(out[0].size))
        p, m, n = 101, 60, 600
        rng = np.random.default_rng(13)
        a = np.zeros((m, n), dtype=np.int64)
        a[0] = rng.integers(1, p, size=n)
        a[1:, 0] = 1
        a[np.arange(1, m), rng.choice(np.arange(1, n), m - 1, replace=False)] = 2
        assert_matches_reference(a, p)
        assert all(2 * size <= m * n for size in stored)

    def test_pass_runs_on_sparse_inputs(self, monkeypatch):
        # the inputs of TestRref.test_sparse_inputs take pivots in rounds
        taken = []
        spy(monkeypatch, "_pivot_rounds", lambda args, out: taken.append(len(out[0])))
        for p, shape in [(3, (100, 1000)), (101, (100, 1000)), (2**31 - 1, (10, 300))]:
            for seed in range(8):
                rng = np.random.default_rng(seed)
                rref(sparse_matrix(rng, shape, p, 0.02), p)
        assert len(taken) == 24 and all(taken)

    @pytest.mark.parametrize("p, width", REGIMES)
    def test_dense_inputs_reach_the_blocked_loop(self, p, width, monkeypatch):
        # dense matrices stall the rounds at once, so TestResidues keeps
        # testing the blocked loop on the whole working copy (over GF(2)
        # half the entries are zero and a round may take a few pivots)
        taken, blocked = [], []
        spy(monkeypatch, "_pivot_rounds", lambda args, out: taken.append(len(out[0])))
        spy(monkeypatch, "_rref_blocked", lambda args, out: blocked.append(args[0]))
        rng = np.random.default_rng(width)
        n = max(2 * width + 7, 40)
        for a in (rng.integers(0, p, size=(20, n), dtype=np.int64),
                  matmul_mod(rng.integers(0, p, size=(24, 5), dtype=np.int64),
                             rng.integers(0, p, size=(5, n), dtype=np.int64), p)):
            got, _ = rref(a, p)
            if p == 2:
                assert taken[-1] <= 3
            else:
                assert taken[-1] == 0 and blocked[-1] is got

    def test_single_panel_inputs_skip_the_pass(self, monkeypatch):
        calls = []
        spy(monkeypatch, "_pivot_rounds", lambda args, out: calls.append(1))
        rng = np.random.default_rng(5)
        rref(staircase_rows(rng, 100, _kernels.panel_width(101), 101), 101)
        assert calls == []

    def test_peak_memory_structured(self):
        # the rounds and the residual work inside the working copy; the
        # other temporaries stay within a few _SCAN_ELEMS budgets, far
        # below a second copy
        p = 101
        rng = np.random.default_rng(12)
        a = staircase_rows(rng, 2000, 3000, p, tail=0.002)
        a[1500:] = (a[:500] * 3 + a[500:1000]) % p  # dependent rows
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            got, piv = rref(a, p)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        budget = 4 * 8 * _kernels._SCAN_ELEMS
        assert peak - got.nbytes <= budget < got.nbytes // 2
        assert len(piv) == 1500
        assert not got[1500:].any()
        assert (got[np.arange(1500), list(piv)] == 1).all()


# the scan-wide benchmark unit of seed 1: one dim-8 sample resolved to b_5
SCAN_WIDE = dict(nvars=3, nilpotency=3, horizon=5, count=1, seed=1)


@pytest.fixture(scope="module")
def scan_wide_inputs():
    """The inputs wider than one panel that rref receives while one
    scan-wide sample is checked: its strand blocks, mW stacks and
    linear-part blocks, 0.25-2% nonzero."""
    from lindef.lab import ScanConfig, full_check, random_algebra

    cfg = ScanConfig(**SCAN_WIDE)
    real, wide = _kernels.rref, []

    def recording(a, p):
        if a.shape[1] > _kernels.panel_width(p):
            wide.append(np.array(a))
        return real(a, p)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(_kernels, "rref", recording)
        full_check(random_algebra(cfg, 0), cfg.horizon)
    return wide


class TestScanWideInputs:
    """The structured pass against the reference on the matrices of a
    workload, and on their sparsity patterns over other fields."""

    def test_against_reference(self, scan_wide_inputs):
        shapes = [a.shape for a in scan_wide_inputs]
        assert len(shapes) >= 9 and (448, 2240) in shapes and (2256, 448) in shapes
        for a in scan_wide_inputs:
            assert_matches_reference(a, 101)

    @pytest.mark.parametrize("p", [2, 32003, 2**31 - 1])
    def test_values_redrawn(self, scan_wide_inputs, p):
        # over GF(2^31 - 1) panels are one column wide, so every input
        # with two columns or more takes the pass
        rng = np.random.default_rng(p % 1000)
        for a in scan_wide_inputs:
            b = np.where(a != 0, rng.integers(1, p, size=a.shape, dtype=np.int64), 0)
            assert_matches_reference(b, p)


class TestMatmulMod:
    def exact(self, x, y, p):
        return (x.astype(object) @ y.astype(object) % p).astype(np.int64)

    @pytest.mark.parametrize("p", [2, 101, 32003])
    def test_small(self, p):
        rng = np.random.default_rng(p + 1)
        x = rng.integers(0, p, size=(7, 5), dtype=np.int64)
        y = rng.integers(0, p, size=(5, 9), dtype=np.int64)
        assert (matmul_mod(x, y, p) == self.exact(x, y, p)).all()

    def test_huge_prime_exact(self):
        # (p-1)^2 overflows the float64 budget, forcing integer paths
        p = 2147483647
        rng = np.random.default_rng(9)
        x = rng.integers(0, p, size=(4, 6), dtype=np.int64)
        y = rng.integers(0, p, size=(6, 3), dtype=np.int64)
        assert (matmul_mod(x, y, p) == self.exact(x, y, p)).all()

    def test_empty_dims(self):
        p = 7
        assert matmul_mod(np.zeros((0, 3), np.int64),
                          np.zeros((3, 2), np.int64), p).shape == (0, 2)
        out = matmul_mod(np.zeros((2, 0), np.int64),
                         np.zeros((0, 3), np.int64), p)
        assert out.shape == (2, 3) and (out == 0).all()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            matmul_mod(np.zeros((2, 3), np.int64), np.zeros((2, 3), np.int64), 7)

    @pytest.mark.parametrize("xshape, yshape, p", [
        ((177147, 8), (8, 64), 101),  # the stage-6 expansion of a dim-8 ring
        ((4000, 8), (8, 4000), 101),
        # k*(p-1)^2 >= 2^62: the inner dimension is summed in int64 slabs
        ((2000, 8), (8, 2000), 2**31 - 1),
    ], ids=["xshape0-yshape0", "xshape1-yshape1", "xshape2-yshape2"])
    def test_temporaries_within_budget(self, xshape, yshape, p):
        # a small inner dimension must not let one chunk be the whole
        # output: temporaries stay within a few _CHUNK_ELEMS budgets
        rng = np.random.default_rng(5)
        x = rng.integers(0, p, size=xshape, dtype=np.int64)
        y = rng.integers(0, p, size=yshape, dtype=np.int64)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = matmul_mod(x, y, p)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= 3 * 8 * _kernels._CHUNK_ELEMS
        # split y into 16-bit halves so every int64 product stays exact
        hi, lo = y >> 16, y & 0xFFFF
        assert (out == ((x @ hi) % p * 65536 + x @ lo) % p).all()


class TestSelection:
    """The compiled panel is used exactly when `_speedups` imports."""

    def test_backend_names_the_panel(self):
        if speedups is None:
            assert _kernels.BACKEND == "pure"
            assert _kernels._panel_jordan is pure.panel_jordan
        else:
            assert _kernels.BACKEND == "fast"
            assert _kernels._panel_jordan is speedups.panel_jordan

    @needs_speedups
    @pytest.mark.parametrize("p", TestStructuredPass.PRIMES)
    def test_rref_agrees_across_panels(self, p, monkeypatch):
        # structured and dense multi-panel inputs, each eliminated once
        # per panel in the same process
        rng = np.random.default_rng(p % 1000 + 3)
        n = 2 * _kernels.panel_width(p) + 7
        inputs = list(structured_inputs(p).values()) + [
            rng.integers(0, p, size=(40, n), dtype=np.int64),
            matmul_mod(rng.integers(0, p, size=(30, 9), dtype=np.int64),
                       rng.integers(0, p, size=(9, n), dtype=np.int64), p),
        ]
        for a in inputs:
            out = []
            for panel in (pure.panel_jordan, speedups.panel_jordan):
                monkeypatch.setattr(_kernels, "_panel_jordan", panel)
                got, piv = rref(a, p)
                out.append((got.dtype, got.shape, got.tobytes(), piv))
            assert out[0] == out[1]
