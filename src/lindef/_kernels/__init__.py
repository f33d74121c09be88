"""Exact GF(p) matrix kernels.

Layout: a backend supplies `panel_jordan` (dense Gauss-Jordan on an int64
column panel); this module orchestrates the panel-blocked reduced row
echelon form around it, so the backends differ only in the panel. The
compiled backend `_speedups` is used when it imports, `pure` (numpy)
otherwise; `BACKEND` names the one in use.

`rref` keeps one working copy of its input. A matrix that fits in one
panel (n <= panel_width(p)) is eliminated by `panel_jordan` in place, on
int64. Wider matrices go through the structured pass described below;
what it leaves is eliminated left to right one panel at a time
(`_rref_blocked`), and the working copy holds residues, nonnegative
integers congruent to the true entries mod p, that are reduced only
when needed (delayed reduction, as in FFLAS/FFPACK: Dumas, Giorgi and
Pernet, ACM TOMS 35(3), 2008):

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
as Faugere and Lachartre do for sparse F4 matrices (PASCO 2010). The
working copy is reduced to int64 residues and eliminated in rounds.
Each round takes the leading column of every live row (unused and
nonzero), keeps the first row per distinct lead, and of those the clean
ones: leads that are zero in every other kept row (the smallest lead
always is). Their rows are scaled to 1 at their leads and their columns
cleared from every other row, earlier pivot rows included, by one
`matmul_mod` per slab (`_clear_columns`), on the columns where those
rows are nonzero. The blocked loop then eliminates the residual, the
live rows on the columns that are not pivots yet, and the round pivots
are back-reduced by its pivot rows with one more product.

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
bytes are those of the blocked loop alone.

The rounds stop when one would cost more than it saves
(`_round_pays`): its scans and row updates against the panel and
trailing-update work the blocked loop would spend on its pivots. A
dense matrix stalls in round 1 (one clean lead, every row to clear) and
runs the blocked loop on the whole working copy. Memory: there is no
second copy. The residual is a view into the working copy, its columns
moved left in place, and rows are permuted in place cycle by cycle;
the other temporaries are row gathers of at most _SCAN_ELEMS entries
and a mask of the rows nonzero at the kept leads, at most an eighth of
the working copy.

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
# row gathers of the structured pass, and the entries a float64 BLAS
# update handles in the time a gather or scatter handles one
_SCAN_ELEMS = 500_000
_BLAS_GAIN = 16


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
    if n <= panel_width(p):
        # one panel covers the matrix: its Jordan form is the RREF
        a %= p
        rows, cols = _panel_jordan(a, p)
        a[: len(rows)] = a[rows]
        a[len(rows) :] = 0
        return a, tuple(cols)
    if a.size and (a.min() < 0 or a.max() >= p):
        a %= p
    prows, pcols, live = _pivot_rounds(a, p)
    if not prows.size:
        return a, tuple(_rref_blocked(a, p))
    return a, _rref_residual(a, prows, pcols, live, p)


def _rref_residual(a, prows, pcols, live, p):
    """Finish `rref` after the pivot rounds, in place; returns the pivots.

    The round pivots move to the top by column, then the live rows; the
    zero rows fill the places these leave. The live rows' free columns
    move to their left end, where the blocked loop eliminates them as a
    view; they move back, the round pivots are back-reduced by the
    residual's pivot rows, and those are merged in by column.
    """
    m, n = a.shape
    by_col = np.argsort(pcols)
    prows, pcols = prows[by_col], pcols[by_col]
    kp, mr = len(prows), len(live)
    top = np.concatenate([prows, live])
    vacant = np.ones(kp + mr, dtype=bool)
    vacant[top[top < kp + mr]] = False
    order = np.arange(m)
    order[top[top >= kp + mr]] = np.flatnonzero(vacant)
    order[: kp + mr] = top
    _permute_rows(a, order)
    free = np.ones(n, dtype=bool)
    free[pcols] = False
    F = np.flatnonzero(free)
    step = max(1, _SCAN_ELEMS // n)
    for i0 in range(kp, kp + mr, step):
        i1 = min(i0 + step, kp + mr)
        a[i0:i1, : F.size] = a[i0:i1].take(F, axis=1)
    Q = F[_rref_blocked(a[kp : kp + mr, : F.size], p)]
    for i0 in range(kp, kp + mr, step):
        i1 = min(i0 + step, kp + mr)
        t = a[i0:i1, : F.size].copy()
        a[i0:i1] = 0
        a[i0:i1, F] = t
    if Q.size:
        targets = [
            i0 + np.flatnonzero(a[i0 : min(i0 + step, kp)].take(Q, axis=1).any(axis=1))
            for i0 in range(0, kp, step)
        ]
        _clear_columns(a, np.arange(kp, kp + Q.size), Q, np.concatenate(targets), p)
    cols = np.concatenate([pcols, Q])
    order = np.argsort(cols)
    _permute_rows(a, order)
    return tuple(cols[order].tolist())


def _permute_rows(a, order):
    """a[: len(order)] = a[order] in place, one cycle at a time."""
    order = order.tolist()
    done = [False] * len(order)
    for i in range(len(order)):
        if done[i] or order[i] == i:
            continue
        tmp = a[i].copy()
        k = i
        while order[k] != i:
            done[k] = True
            a[k] = a[order[k]]
            k = order[k]
        done[k] = True
        a[k] = tmp


def _leads(a, rows, cols):
    """Leading column of each row in `rows` (every row, over every
    column, when None) among the sorted columns `cols`, outside which
    those rows are zero; a.shape[1] for zero rows."""
    m, n = a.shape
    out = np.full(m if rows is None else len(rows), n, dtype=np.int64)
    step = max(1, _SCAN_ELEMS // n)
    for i0 in range(0, len(out) if cols.size else 0, step):
        if rows is None:
            nz = a[i0 : i0 + step] != 0
        else:
            nz = a[rows[i0 : i0 + step]].take(cols, axis=1) != 0
        first = nz.argmax(axis=1)
        has = nz[np.arange(len(first)), first]
        out[i0 : i0 + step] = np.where(has, cols[first], n)
    return out


def _clear_columns(a, prow, pcol, targets, p):
    """Clear the columns `pcol` from the rows `targets` of `a`, in place,
    by the rows `prow`: row prow[j] is 1 at pcol[j] and 0 at every other
    pcol. Each slab of pivot rows makes one matmul_mod per chunk of
    targets, on the columns where those pivot rows are nonzero."""
    n = a.shape[1]
    flat = a.reshape(-1)
    step = max(1, _SCAN_ELEMS // n)
    for j0 in range(0, len(prow), step):
        P = a[prow[j0 : j0 + step]]
        C = pcol[j0 : j0 + step]
        support = P.any(axis=0)
        support[C] = False
        G = np.flatnonzero(support)
        U = P.take(G, axis=1)
        del P
        for i0 in range(0, len(targets), step):
            R = targets[i0 : i0 + step]
            rows = a[R]
            coef = rows.take(C, axis=1)
            r, c = np.nonzero(coef)
            if not r.size:
                continue
            if G.size:
                blk = rows.take(G, axis=1)
                blk -= matmul_mod(coef, U, p)
                np.remainder(blk, p, out=blk)
                a[np.ix_(R, G)] = blk
            flat[R[r] * n + C[c]] = 0


def _pivot_rounds(a, p):
    """Rounds of clean leading-column pivots on the reduced int64 `a`.

    Returns (pivot rows, pivot columns, live rows): the live rows are the
    unused nonzero rows, zero on every pivot column.
    """
    m, n = a.shape
    free = np.ones(n + 1, dtype=bool)  # not a pivot column yet; n: no lead
    F = np.arange(n)
    lead = _leads(a, None, F)  # n for zero and used rows
    prows, pcols = [], []
    while True:
        live = np.flatnonzero(lead < n)
        if live.size == 0:
            break
        L, first = np.unique(lead[live], return_index=True)
        S = live[first]
        sel = np.zeros(m, dtype=bool)
        sel[S] = True
        # one scan of the lead columns: a lead is clean when only its own
        # selected row is nonzero there; the other rows nonzero there are
        # the candidates for clearing
        hits = np.zeros(L.size, dtype=np.int64)
        cand, cand_nz = [], []
        step = max(1, _SCAN_ELEMS // n)
        for i0 in range(0, m, step):
            nz = a[i0 : i0 + step].take(L, axis=1) != 0
            s = sel[i0 : i0 + step]
            hits += np.count_nonzero(nz[s], axis=0)
            r = np.flatnonzero(~s & nz.any(axis=1))
            cand.append(r + i0)
            cand_nz.append(nz[r])
        clean = hits == 1
        S, L = S[clean], L[clean]
        A = np.concatenate([r[nz[:, clean].any(axis=1)] for r, nz in zip(cand, cand_nz)])
        del cand_nz
        support = _scale_rows(a, S, L, p)
        # the scan of the lead columns, the row gathers of the pivots and
        # the rows to clear, and the entries their update writes
        touched = m * len(hits) + (A.size + S.size) * n + A.size * (support + S.size)
        if not _round_pays(S.size, touched, live.size, F.size, p):
            break
        _clear_columns(a, S, L, A, p)
        prows.append(S)
        pcols.append(L)
        free[L] = False
        F = np.flatnonzero(free[:n])
        # a row keeps its lead unless that lead was just cleared from it
        lead[S] = n
        moved = A[~free[lead[A]]]
        lead[moved] = _leads(a, moved, F)
    empty = np.zeros(0, dtype=np.int64)
    return (np.concatenate(prows or [empty]), np.concatenate(pcols or [empty]),
            np.flatnonzero(lead < n))


def _scale_rows(a, rows, cols, p):
    """Scale each row a[rows[j]] to 1 at cols[j]; returns the number of
    columns outside `cols` where some of those rows is nonzero."""
    n = a.shape[1]
    support = np.zeros(n, dtype=bool)
    step = max(1, _SCAN_ELEMS // n)
    for j0 in range(0, len(rows), step):
        R = rows[j0 : j0 + step]
        block = a[R]
        inv = np.array(
            [pow(int(x), -1, p) for x in block[np.arange(len(R)), cols[j0 : j0 + step]]],
            dtype=np.int64)
        r, c = np.nonzero(block)
        a[R[r], c] = block[r, c] * inv[r] % p
        support[c] = True
    support[cols] = False
    return int(np.count_nonzero(support))


def _round_pays(k, touched, live, free, p):
    """Whether a round's k clean pivots cost less than the blocked loop
    would spend on them. The round reads or writes `touched` entries.
    Per pivot the blocked loop eliminates the `live` rows across a panel
    and updates them across the `free` columns; a float64 BLAS update
    costs about 1/_BLAS_GAIN of an entry, an int64 one a whole entry."""
    update = free // _BLAS_GAIN if _residue_type(p)[0] is np.float64 else free
    return touched <= k * live * (min(panel_width(p), free) + update)


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
