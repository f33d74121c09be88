"""Pure-numpy vs compiled kernel parity and backend selection."""

import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from lindef import _kernels
from lindef._kernels import matmul_mod, pure, rref

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

    @pytest.mark.parametrize("xshape, yshape", [
        ((177147, 8), (8, 64)),  # the stage-6 expansion of a dim-8 ring
        ((4000, 8), (8, 4000)),
    ])
    def test_temporaries_within_budget(self, xshape, yshape):
        # a small inner dimension must not let one chunk be the whole
        # output: temporaries stay within a few _CHUNK_ELEMS budgets
        p = 101
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
        assert (out == (x @ y) % p).all()


BACKEND_PROBE = (
    "import json, lindef._kernels as k, numpy as np;"
    "a = (np.arange(30, dtype=np.int64).reshape(5, 6) * 7 + 3) % 101;"
    "r, piv = k.rref(a, 101);"
    "print(json.dumps({'backend': k.BACKEND, 'rref': r.tolist(),"
    " 'piv': list(piv)}))"
)


def run_probe(value):
    env = dict(os.environ, LINDEF_KERNELS=value)
    return subprocess.run(
        [sys.executable, "-c", BACKEND_PROBE],
        capture_output=True, text=True, env=env,
    )


class TestSelection:
    def test_pure_forced(self):
        out = run_probe("pure")
        assert out.returncode == 0
        assert json.loads(out.stdout)["backend"] == "pure"

    @needs_speedups
    def test_fast_forced(self):
        out = run_probe("fast")
        assert out.returncode == 0
        assert json.loads(out.stdout)["backend"] == "fast"

    @needs_speedups
    def test_results_agree_across_backends(self):
        a = json.loads(run_probe("pure").stdout)
        b = json.loads(run_probe("fast").stdout)
        assert a["rref"] == b["rref"] and a["piv"] == b["piv"]

    def test_invalid_value_rejected(self):
        out = run_probe("turbo")
        assert out.returncode != 0
        assert "LINDEF_KERNELS" in out.stderr
