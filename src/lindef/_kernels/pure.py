"""numpy implementation of the panel elimination kernel.

`panel_jordan` is the hot inner routine of GF(p) row reduction. The
compiled module `_speedups` implements the same contract; see the package
__init__ for selection. Both must pick identical pivots: for each column,
the first not-yet-pivoted row (in physical order) with a nonzero entry.
"""

import numpy as np

NAME = "pure"

# Panels of at most this many entries run on Python ints: numpy's fixed
# cost per column outweighs its vector speed below about 1024 entries.
SMALL_PANEL = 256


def panel_jordan(E, p):
    """Full Gauss-Jordan on the int64 panel E, in place, modulo p.

    E holds residues in [0, p). Returns (pivot_rows, pivot_cols) as
    parallel lists, ordered by column. Rows never chosen as pivots end
    with zeros across the whole panel; pivot columns are cleared in
    every other row, so sorting the pivot rows by column yields the
    RREF of the panel. Panels of at most SMALL_PANEL entries run
    `_panel_jordan_small`, the same steps on Python ints.
    """
    if E.size <= SMALL_PANEL:
        return _panel_jordan_small(E, p)
    m, k = E.shape
    used = np.zeros(m, dtype=bool)
    rows: list[int] = []
    cols: list[int] = []
    for c in range(k):
        col = np.where(used, 0, E[:, c])
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        s = int(nz[0])
        inv = pow(int(E[s, c]), -1, p)
        if inv != 1:
            E[s] = E[s] * inv % p
        f = E[:, c].copy()
        f[s] = 0
        active = np.nonzero(f)[0]
        if active.size:
            E[active] = (E[active] - np.outer(f[active], E[s])) % p
        used[s] = True
        rows.append(s)
        cols.append(c)
    return rows, cols


def _panel_jordan_small(E, p):
    """`panel_jordan` on a list of Python-int rows, written back to E.

    The pivot row of column c is zero left of c (earlier pivot columns
    are cleared in it, earlier free columns were zero in every unused
    row), so each row update covers columns c onwards only.
    """
    m, k = E.shape
    A = E.tolist()
    used = [False] * m
    rows: list[int] = []
    cols: list[int] = []
    for c in range(k):
        s = next((r for r in range(m) if not used[r] and A[r][c]), None)
        if s is None:
            continue
        piv = A[s]
        inv = pow(piv[c], -1, p)
        if inv != 1:
            piv[c:] = [x * inv % p for x in piv[c:]]
        tail = piv[c:]
        for r in range(m):
            f = A[r][c]
            if f and r != s:
                row = A[r]
                row[c:] = [(x - f * y) % p for x, y in zip(row[c:], tail)]
        used[s] = True
        rows.append(s)
        cols.append(c)
    if rows:
        E[...] = A
    return rows, cols
