"""Exact GF(p) matrix kernels.

Layout: a backend supplies `panel_jordan` (dense Gauss-Jordan on an int64
column panel); this module orchestrates the panel-blocked reduced row
echelon form around it, so the backends differ only in the panel. The
compiled backend `_speedups` is preferred; `pure` (numpy) is the
fallback. Force one with LINDEF_KERNELS={auto,fast,pure}.

`rref` keeps one working copy of its input. A matrix that fits in one
panel (n <= panel_width(p)) is eliminated by `panel_jordan` in place, on
int64. Wider matrices are eliminated left to right one panel at a time,
and the working copy holds residues, nonnegative integers congruent to
the true entries mod p, that are reduced only when needed (delayed
reduction, as in FFLAS/FFPACK: Dumas, Giorgi and Pernet, ACM TOMS 35(3),
2008):

- the panel and the new pivot rows are reduced into small int64 copies
  just before they are read; the pivot rows are written back reduced;
- each trailing update `seg += (-L mod p) @ U` adds at most
  k*(p-1)^2 to an entry, for k pivots in the panel; a tracked bound on
  the entries of the unfinished columns triggers a reduction of all of
  them only when the next update could pass the exact-integer budget;
- everything is reduced once at the end.

The residues are float64, reinterpreting the int64 copy in place one row
chunk at a time, whenever a reduced entry plus one full panel's update
stays within 2^53, where doubles hold integers exactly; then every
trailing update is one BLAS matmul. That holds for every prime up to
94,906,249, the last with (p-1)^2 < 2^53. Larger primes run the same loop
on int64 with a 2^62 budget and panels one column wide.

`exact_dtype` is the one test of when float64 sums of products are exact,
shared by `matmul_mod` and the unreduced products of `matmul_unreduced`,
whose differences `nonzero_mod` tests for divisibility by p.
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


def _residue_type(p):
    """(dtype, budget) of rref's residues: float64 when a reduced entry
    plus one full panel's update stays within 2^53, int64 otherwise."""
    if (p - 1) * (panel_width(p) * (p - 1) + 1) <= _FLOAT_BUDGET:
        return np.float64, _FLOAT_BUDGET
    return np.int64, _INT_BUDGET


def _reduce(dst, src, p):
    """dst[...] = src % p for nonnegative integer src, a row chunk at a
    time; dst may be src itself or share its memory under another dtype."""
    step = max(1, _CHUNK_ELEMS // max(1, src.shape[1]))
    for i0 in range(0, src.shape[0], step):
        t = src[i0 : i0 + step].astype(np.int64)
        np.remainder(t, p, out=t)
        dst[i0 : i0 + step] = t
        del t  # before the next chunk's copy is made


def exact_dtype(k, p):
    """float64 when every sum of k products of residues mod p is an
    integer below 2^53, so doubles hold it exactly; int64 otherwise."""
    if k * (p - 1) ** 2 < _FLOAT_BUDGET:
        return np.float64
    return np.int64


def matmul_unreduced(x, y, p):
    """x @ y, np.matmul's stacking, as integers congruent to it mod p.

    Operands are residues in [0, p) of the dtype `exact_dtype` gives for
    the inner dimension. float64 operands make one BLAS call with no
    reduction; the sums are exact. int64 operands go through
    `matmul_mod` (y one matrix or a stack of them) and come back reduced.
    """
    if x.dtype == np.float64:
        return np.matmul(x, y)
    if y.ndim == 2:
        return matmul_mod(x, y, p)
    b, k, n = y.shape
    cols = y.transpose(1, 0, 2).reshape(k, b * n)
    return matmul_mod(x, cols, p).reshape(-1, b, n).transpose(1, 0, 2)


def nonzero_mod(a, p):
    """Mask of the entries of `a` not divisible by p. `a` holds exact
    integers, float64 ones below 2^53 in absolute value: then a / p
    rounds to the exact quotient when p divides a, and p * rint(a / p)
    equals a exactly when it does."""
    if a.dtype != np.float64:
        return a % p != 0
    q = np.divide(a, p)
    np.rint(q, out=q)
    q *= p
    return q != a


def matmul_mod(x, y, p):
    """Exact (x @ y) % p for int64 matrices with entries in [0, p).

    Runs on float64 BLAS when the inner dimension permits exact sums, on
    int64 otherwise, summing the inner dimension in slabs small enough for
    int64 when it does not. Operands and the output are chunked so each
    temporary stays within _CHUNK_ELEMS entries.
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
    dtype = exact_dtype(k, p)
    if dtype is np.float64:
        step = k
    else:
        # each slab's products plus a reduced partial sum stay below 2^62
        step = max(1, (_INT_BUDGET - p) // (p - 1) ** 2)
    col_step = max(1, _CHUNK_ELEMS // k)
    row_step = max(1, min(_CHUNK_ELEMS // k, _CHUNK_ELEMS // min(n, col_step)))
    for j0 in range(0, n, col_step):
        yb = y[:, j0 : j0 + col_step].astype(dtype, copy=False)
        for i0 in range(0, m, row_step):
            xb = x[i0 : i0 + row_step].astype(dtype, copy=False)
            blk = out[i0 : i0 + row_step, j0 : j0 + col_step]
            for t0 in range(0, k, step):
                prod = xb[:, t0 : t0 + step] @ yb[t0 : t0 + step]
                if t0:
                    prod += blk
                blk[...] = prod
                del prod  # before the next product is made
                np.remainder(blk, p, out=blk)
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
    m, n = a.shape
    K = panel_width(p)
    if n <= K:
        # one panel covers the matrix: its Jordan form is the RREF
        a %= p
        rows, cols = _panel_jordan(a, p)
        a[: len(rows)] = a[rows]
        a[len(rows) :] = 0
        return a, tuple(cols)
    dtype, budget = _residue_type(p)
    w = a.view(dtype)
    _reduce(w, a, p)
    bound = p - 1  # on the entries of columns c0: of w
    pivots: list[int] = []
    r = 0
    c0 = 0
    while c0 < n and r < m:
        c1 = min(c0 + K, n)
        # always a copy: the panel is eliminated in place
        E = w[r:, c0:c1].astype(np.int64)
        np.remainder(E, p, out=E)
        lrows, lcols = _panel_jordan(E, p)
        if not lrows:
            c0 = c1
            continue
        k = len(lrows)
        S = [r + s for s in lrows]
        for j in range(k):
            dst = r + j
            s = S[j]
            if s != dst:
                w[[dst, s]] = w[[s, dst]]
                for jj in range(j + 1, k):
                    if S[jj] == dst:
                        S[jj] = s
        C = [c0 + c for c in lcols]
        P = w[r : r + k, c0:].astype(np.int64)
        np.remainder(P, p, out=P)
        G = _inv_small(P[:, lcols], p)
        U = w[r : r + k, c0:]
        U[...] = matmul_mod(G, P, p)
        inc = k * (p - 1) ** 2
        if bound + inc > budget:
            _reduce(w[:, c0:], w[:, c0:], p)
            bound = p - 1
        bound += inc
        for block in (slice(0, r), slice(r + k, m)):
            rows_blk = w[block]
            if rows_blk.shape[0] == 0:
                continue
            L = np.remainder(-rows_blk[:, C].astype(np.int64), p)
            if not L.any():
                continue
            L = L.astype(dtype)
            step = max(1, _CHUNK_ELEMS // rows_blk.shape[0])
            for j0 in range(c0, n, step):
                seg = rows_blk[:, j0 : j0 + step]
                seg += L @ U[:, j0 - c0 : j0 - c0 + step]
        pivots.extend(C)
        r += k
        c0 = c1
    _reduce(a, w, p)
    return a, tuple(pivots)
