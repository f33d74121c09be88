"""Exact GF(p) matrix kernels.

Layout: a backend supplies `panel_jordan` (dense Gauss-Jordan on an int64
column panel); this module orchestrates the panel-blocked reduced row
echelon form around it, so the backends differ only in the panel. The
compiled backend `_speedups` is used when it imports, `pure` (numpy)
otherwise; `BACKEND` names the one in use.

`rref` returns a new array. A matrix that fits in one panel
(n <= panel_width(p)) is eliminated by `panel_jordan` in place, on an
int64 copy. A wider one goes first through the structured pass below,
which runs on its nonzeros; what the pass leaves, or a dense matrix as
a whole, is eliminated left to right one panel at a time
(`_rref_blocked`) in one int64 working copy. That copy holds residues,
nonnegative integers congruent to the true entries mod p, that are
reduced only when needed (delayed reduction, as in FFLAS/FFPACK: Dumas,
Giorgi and Pernet, ACM TOMS 35(3), 2008):

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

The structured pass (`_pivot_rounds`) takes the obvious pivots first,
as Faugere and Lachartre do for sparse F4 matrices (PASCO 2010; GBLA,
ISSAC 2016). It reads the input once, into a mask of its nonzeros, and
keeps their positions row * n + col in increasing order (row-major)
with their values mod p; only these values are reduced, never the
whole matrix. Each round is a few vector operations on those arrays.
The leads of the live rows (unused and nonzero) are their first
entries. The first row per distinct lead is kept, and of those the
clean ones: leads where no other kept row is nonzero, counted by one
`bincount` (the smallest lead is always clean). Their rows are scaled
to 1 at their leads, and their columns are cleared from every other
row, earlier pivot rows included: the pivot rows' entries are gathered
once per entry to clear (`np.repeat`), each product reduced mod p, and
merged into the arrays by one sort on the position, where entries at
one position are summed mod p and zeros dropped (`_merge`). For p
below 2^31 (every field lindef accepts) a product of residues is below
2^62, and a sum adds one reduced product per pivot to a reduced value,
so int64 holds every step exactly. When the rounds stop, the live rows
on the columns that are not pivots yet, the residual, are made dense
and eliminated by the blocked loop; the round pivots are back-reduced
by its pivot rows with `matmul_mod`, and every pivot row is written
into the output by column (`_rref_residual`).

Why the result is the RREF. Invariant: each pivot row is 1 at its pivot
column, 0 at every other pivot column and 0 left of its pivot; every
other row is 0 at every pivot column; the row space is unchanged. A
round keeps it: the clean block (clean rows by clean leads) is diagonal,
since a row is 0 left of its lead and, by cleanliness, 0 at every other
clean lead, so clearing a clean column never touches another one, nor
an earlier pivot column (where the clean rows, being unused, are 0); a
row is cleared only of leads right of its own. The residual's pivot
rows are 0 on the round pivot columns, so the back-reduction keeps the
invariant too. Sorting the pivot rows by column then gives a reduced
row echelon form of the same row space, and that form is unique: the
bytes are those of the blocked loop alone. Storing the rows as sorted
nonzeros changes none of this: the rounds make the same row operations
on the same entries, and every value they store is reduced mod p.

The rounds stop when one would cost more than it saves (`_round_pays`):
its reads and merged fill against the panel, update and per-column
work the blocked loop would spend on its pivots. Memory: the mask takes
one byte per entry, an eighth of a dense copy. The positions and values
take two int64 per nonzero, so a matrix more than half nonzero, counted
on the mask before anything is extracted, goes straight to the blocked
loop on one working copy, and a round whose merge could take the
arrays past one dense copy is refused. A merge holds a few more arrays
of the merged length while it sorts. What follows the rounds holds the
residual, the output and back-reduction slabs of at most _SCAN_ELEMS
entries.

`exact_dtype` is the one test of when float64 sums of products are exact,
shared by `matmul_mod` and the unreduced products of `matmul_unreduced`,
whose differences `nonzero_mod` tests for divisibility by p.
"""

import numpy as np

from . import pure

try:
    from . import _speedups

    _panel_jordan = _speedups.panel_jordan
    BACKEND = "fast"
except ImportError:
    _panel_jordan = pure.panel_jordan
    BACKEND = "pure"

# Keep float64 accumulation exact: K products of size (p-1)^2 must stay
# below 2^53. 256 wide panels are plenty for every p below ~2^22.
_FLOAT_BUDGET = 1 << 53
_INT_BUDGET = 1 << 62
_CHUNK_ELEMS = 4_000_000
# entries of one back-reduction slab of the structured pass
_SCAN_ELEMS = 500_000
# the costs `_round_pays` weighs, in entries of dense numpy work (about
# 1 ns each), measured on the pure backend: a float64 BLAS update handles
# _BLAS_GAIN entries in that time; reading one stored nonzero in a round
# costs _SPARSE_COST; the blocked loop pays _COLUMN_COST per column it scans
_BLAS_GAIN = 16
_SPARSE_COST = 32
_COLUMN_COST = 4_000


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
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("expected a 2-d array")
    m, n = a.shape
    if n <= panel_width(p):
        # one panel covers the matrix: its Jordan form is the RREF
        a = np.array(a, dtype=np.int64, order="C")
        a %= p
        rows, cols = _panel_jordan(a, p)
        a[: len(rows)] = a[rows]
        a[len(rows) :] = 0
        return a, tuple(cols)
    prows, pcols, live, nz = _pivot_rounds(a, p)
    if not prows.size:
        a = np.array(a, dtype=np.int64, order="C")
        return a, tuple(_rref_blocked(a, p))
    return _rref_residual((m, n), prows, pcols, live, nz, p)


def _segments(starts, lengths):
    """Indices of the ranges [starts[i], starts[i] + lengths[i]), in order."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts - ends + lengths, lengths) + np.arange(total)


def _pivot_rounds(a, p):
    """Rounds of clean leading-column pivots on the nonzeros of `a`.

    Returns (pivot rows, pivot columns, live rows, (key, v)): key holds
    the positions row * n + col of the nonzero entries once the rounds
    are done, in increasing order, and v their values mod p; the live
    rows are the unused nonzero rows, zero on every pivot column. A
    dense `a` takes no rounds, and its nonzeros are not extracted (None).
    """
    m, n = a.shape
    empty = np.zeros(0, dtype=np.int64)
    nz = a != 0
    # two int64 arrays per nonzero: never more than one dense copy
    if 2 * np.count_nonzero(nz) > m * n:
        return empty, empty, empty, None
    key = np.flatnonzero(nz)
    v = a[nz].astype(np.int64)
    del nz
    if v.size and (v.min() < 0 or v.max() >= p):
        v %= p
        keep = v != 0
        key, v = key[keep], v[keep]
    used = np.zeros(m, dtype=bool)  # rows taken as pivots
    nfree = n
    prows, pcols = [], []
    while True:
        r = key // n
        c = key - r * n
        ptr = np.searchsorted(r, np.arange(m + 1))
        first, size = ptr[:-1], np.diff(ptr)
        live = np.flatnonzero((size > 0) & ~used)
        if live.size == 0:
            break
        # a live row is zero on the pivot columns, so its first entry is
        # its lead; keep the first row per distinct lead
        L, at = np.unique(c[first[live]], return_index=True)
        S = live[at]
        # a lead is clean when no other kept row is nonzero there
        kept = np.zeros(m, dtype=bool)
        kept[S] = True
        slot = np.full(n, -1, dtype=np.int64)  # column -> index of its lead
        slot[L] = np.arange(L.size)
        j = slot[c]
        clean = np.bincount(j[(j >= 0) & kept[r]], minlength=L.size) == 1
        S, L = S[clean], L[clean]
        slot[:] = -1
        slot[L] = np.arange(L.size)
        kept[:] = False
        kept[S] = True
        # the entries to clear: the other rows' entries at the clean leads
        j = slot[c]
        T = np.flatnonzero((j >= 0) & ~kept[r])
        j = j[T]
        fill = size[S][j]
        total = int(fill.sum())
        # the round reads the entries a few times and merges `total` new
        # ones; the merged arrays must stay within one dense copy
        if (2 * (v.size + total) > m * n
                or not _round_pays(S.size, v.size, total, live.size, nfree, p)):
            break
        # scale the pivot rows to 1 at their leads
        own = _segments(first[S], size[S])
        inv = np.array([pow(int(x), -1, p) for x in v[first[S]]], dtype=np.int64)
        v[own] = v[own] * np.repeat(inv, size[S]) % p
        # row t -= v[t, L_j] * (pivot row j), each product reduced; the
        # clean block is diagonal, so the updates of one round commute
        src = _segments(first[S][j], fill)
        key, v = _merge(key, v, np.repeat(key[T] - c[T], fill) + c[src],
                        np.repeat(p - v[T], fill) * v[src] % p, p)
        used[S] = True
        nfree -= S.size
        prows.append(S)
        pcols.append(L)
    return (np.concatenate(prows or [empty]), np.concatenate(pcols or [empty]),
            live, (key, v))


def _merge(key, v, new_key, new_v, p):
    """The entries (key, v) plus (new_key, new_v), summed mod p where they
    share a position, zeros dropped, by increasing position; `key` is
    increasing already, so the stable sort merges two runs."""
    key = np.concatenate([key, new_key])
    v = np.concatenate([v, new_v])
    order = np.argsort(key, kind="stable")
    key, v = key[order], v[order]
    del order
    start = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
    v = np.add.reduceat(v, start) % p
    keep = v != 0
    return key[start[keep]], v[keep]


def _rref_residual(shape, prows, pcols, live, nz, p):
    """Finish `rref` after the pivot rounds; returns (R, pivots).

    The live rows on the free columns, the residual, are the one dense
    block the blocked loop eliminates. The round pivots are then
    back-reduced by its pivot rows with one product per slab of rows,
    and every pivot row is written into the output by column.
    """
    m, n = shape
    key, v = nz
    r = key // n
    c = key - r * n
    k, mr = prows.size, live.size
    free = np.ones(n, dtype=bool)
    free[pcols] = False
    F = np.flatnonzero(free)
    slot = np.zeros(m, dtype=np.int64)  # row -> round pivot j, or k + live index
    slot[prows] = np.arange(k)
    slot[live] = k + np.arange(mr)
    s = slot[r]
    on_live = s >= k
    res = np.zeros((mr, F.size), dtype=np.int64)
    res[s[on_live] - k, (np.cumsum(free) - 1)[c[on_live]]] = v[on_live]
    Q = F[np.array(_rref_blocked(res, p), dtype=np.int64)]
    rank = Q.size
    cols = np.concatenate([pcols, Q])
    order = np.argsort(cols)
    place = np.empty(k + rank, dtype=np.int64)
    place[order] = np.arange(k + rank)
    out = np.zeros((m, n), dtype=np.int64)
    out[place[s[~on_live]], c[~on_live]] = v[~on_live]
    if rank:
        out[np.ix_(place[k:], F)] = res[:rank]
        # round pivot rows nonzero at the residual's pivot columns
        at_q = np.full(n, -1, dtype=np.int64)
        at_q[Q] = np.arange(rank)
        hit = np.flatnonzero(~on_live & (at_q[c] >= 0))
        if hit.size:
            T, t = np.unique(s[hit], return_inverse=True)
            coef = np.zeros((T.size, rank), dtype=np.int64)
            coef[t, at_q[c[hit]]] = v[hit]
            U = res[:rank]
            step = max(1, _SCAN_ELEMS // F.size)
            for i0 in range(0, T.size, step):
                R = place[T[i0 : i0 + step]]
                blk = out[np.ix_(R, F)]
                blk -= matmul_mod(coef[i0 : i0 + step], U, p)
                np.remainder(blk, p, out=blk)
                out[np.ix_(R, F)] = blk
    return out, tuple(cols[order].tolist())


def _round_pays(k, reads, fill, live, free, p):
    """Whether a round's k clean pivots cost less than the blocked loop
    would spend on them, in units of one entry of dense numpy work.

    The round reads its `reads` stored entries a few times, at
    _SPARSE_COST units each, and gathers, multiplies and sorts `fill`
    new ones into them, at twice that. On the residual left now, `live`
    rows by `free` columns, the blocked loop pays _COLUMN_COST per
    column it visits, about `free` of them, and per pivot eliminates
    the live rows across a panel and updates them across the free
    columns (a float64 BLAS update at 1/_BLAS_GAIN of a unit per entry,
    an int64 one at a whole unit). Each of the round's pivots spares
    one pivot's work and 1/live of the column costs.
    """
    update = free // _BLAS_GAIN if _residue_type(p)[0] is np.float64 else free
    panel = min(panel_width(p), free)
    spared = k * (_COLUMN_COST * free // live + live * (panel + update))
    return _SPARSE_COST * (reads + 2 * fill) <= spared


def _rref_blocked(a, p):
    """Panel-blocked RREF of the int64 matrix `a` in place; returns the
    pivot columns. `a` may be a view with unit column stride."""
    m, n = a.shape
    K = panel_width(p)
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
    return pivots
