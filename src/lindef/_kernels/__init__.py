"""Exact GF(p) matrix kernels.

Layout: a backend supplies `panel_jordan` (dense Gauss-Jordan on a column
panel); this module orchestrates panel-blocked reduced row echelon form
where trailing updates run as BLAS matmuls on float64, which is exact as
long as panel_width * (p-1)^2 < 2^53. The compiled backend `_speedups`
is preferred; `pure` (numpy) is the fallback. Force one with
LINDEF_KERNELS={auto,fast,pure}.
"""

import os

import numpy as np

from . import pure

_choice = os.environ.get("LINDEF_KERNELS", "auto")
if _choice not in ("auto", "fast", "pure"):
    raise ImportError(
        f"LINDEF_KERNELS must be 'auto', 'fast' or 'pure', got {_choice!r}"
    )

BACKEND = "pure"
_panel_jordan = pure.panel_jordan
if _choice in ("auto", "fast"):
    try:
        from . import _speedups

        _panel_jordan = _speedups.panel_jordan
        BACKEND = "fast"
    except ImportError:
        if _choice == "fast":
            raise

# Keep float64 accumulation exact: K products of size (p-1)^2 must stay
# below 2^53. 256 wide panels are plenty for every p below ~2^22.
_FLOAT_BUDGET = 1 << 53
_INT_BUDGET = 1 << 62
_CHUNK_ELEMS = 4_000_000


def panel_width(p: int) -> int:
    return max(1, min(256, _FLOAT_BUDGET // max(1, (p - 1) ** 2)))


def matmul_mod(x, y, p):
    """Exact (x @ y) % p for int64 matrices with entries in [0, p).

    Runs on float64 BLAS when the inner dimension permits exact sums,
    on int64 otherwise, chunking the inner dimension as a last resort.
    Operands and the output are chunked so each temporary stays within
    _CHUNK_ELEMS entries.
    """
    x = np.ascontiguousarray(x, dtype=np.int64)
    y = np.ascontiguousarray(y, dtype=np.int64)
    m, k = x.shape
    k2, n = y.shape
    if k != k2:
        raise ValueError("inner dimensions differ")
    out = np.empty((m, n), dtype=np.int64)
    if m == 0 or n == 0:
        return out
    if k == 0:
        out[:] = 0
        return out
    sq = (p - 1) ** 2
    col_step = max(1, _CHUNK_ELEMS // k)
    row_step = max(1, min(_CHUNK_ELEMS // k, _CHUNK_ELEMS // min(n, col_step)))
    if k * sq < _FLOAT_BUDGET:
        for j0 in range(0, n, col_step):
            yb = y[:, j0 : j0 + col_step].astype(np.float64)
            for i0 in range(0, m, row_step):
                xb = x[i0 : i0 + row_step].astype(np.float64)
                out[i0 : i0 + row_step, j0 : j0 + col_step] = (
                    xb @ yb
                ).astype(np.int64) % p
        return out
    if k * sq < _INT_BUDGET:
        for j0 in range(0, n, col_step):
            yb = y[:, j0 : j0 + col_step]
            for i0 in range(0, m, row_step):
                out[i0 : i0 + row_step, j0 : j0 + col_step] = (
                    x[i0 : i0 + row_step] @ yb
                ) % p
        return out
    # Very large p: accumulate in blocks small enough for int64 sums.
    step = max(1, _INT_BUDGET // (2 * sq))
    acc = np.zeros((m, n), dtype=np.int64)
    for t0 in range(0, k, step):
        acc = (acc + x[:, t0 : t0 + step] @ y[t0 : t0 + step]) % p
    out[:] = acc
    return out


def _inv_small(mat, p):
    """Inverse of a small nonsingular matrix via Jordan on [mat | I]."""
    k = mat.shape[0]
    aug = np.concatenate([mat, np.eye(k, dtype=np.int64)], axis=1)
    rows, cols = _panel_jordan(aug, p)
    if len(rows) != k or cols != list(range(k)):
        raise ValueError("matrix is singular")
    return np.ascontiguousarray(aug[rows, k:])


def rref(a, p):
    """Reduced row echelon form over GF(p).

    Returns (R, pivots): R has the same shape as `a` with zero rows at the
    bottom, pivots is the tuple of pivot column indices. Output is the
    canonical RREF, independent of blocking or backend.
    """
    a = np.array(a, dtype=np.int64, order="C")
    if a.ndim != 2:
        raise ValueError("expected a 2-d array")
    a %= p
    m, n = a.shape
    if m == 0 or n == 0:
        return a, ()
    K = panel_width(p)
    pivots: list[int] = []
    r = 0
    c0 = 0
    while c0 < n and r < m:
        c1 = min(c0 + K, n)
        E = np.ascontiguousarray(a[r:, c0:c1])
        lrows, lcols = _panel_jordan(E, p)
        if not lrows:
            c0 = c1
            continue
        if r == 0 and c0 == 0 and c1 == n:
            # Single panel covered the whole matrix: E is already the RREF.
            a[: len(lrows)] = E[lrows]
            a[len(lrows) :] = 0
            return a, tuple(lcols)
        k = len(lrows)
        S = [r + s for s in lrows]
        for j in range(k):
            dst = r + j
            s = S[j]
            if s != dst:
                a[[dst, s]] = a[[s, dst]]
                for jj in range(j + 1, k):
                    if S[jj] == dst:
                        S[jj] = s
        C = [c0 + c for c in lcols]
        G = _inv_small(a[r : r + k][:, C], p)
        U = matmul_mod(G, a[r : r + k, c0:], p)
        a[r : r + k, c0:] = U
        for block in (slice(0, r), slice(r + k, m)):
            rows_blk = a[block]
            if rows_blk.shape[0] == 0:
                continue
            L = rows_blk[:, C]
            if not L.any():
                continue
            step = max(1, _CHUNK_ELEMS // max(1, rows_blk.shape[0]))
            for j0 in range(c0, n, step):
                j1 = min(j0 + step, n)
                prod = matmul_mod(L, U[:, j0 - c0 : j1 - c0], p)
                seg = rows_blk[:, j0:j1]
                seg -= prod
                seg %= p
        pivots.extend(C)
        r += k
        c0 = c1
    return a, tuple(pivots)
