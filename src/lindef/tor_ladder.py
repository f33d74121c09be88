"""Tor modules Tor_i(M, R/m^n) and the comparison maps between them.

Tor is computed from the already-built minimal resolution F of M: the
complex F (x) R/m^n has one block of dim R/m^n per generator (the
block layout of `linalg`); in the adapted basis of `algebra` its
differential is F's, truncated to the leading q_n = dim R/m^n
coordinates of each block. The map v^n_i is induced on homology by the
surjection R/m^{n+1} -> R/m^n, which keeps those leading coordinates
blockwise.

The ladder reports only dimensions and ranks, and reads all of them off
the ranks r(n, i) = rank(d_i (x) R/m^n), with r(n, 0) = 0. As F is
minimal, F (x) m^n/m^{n+1} is a subcomplex of F (x) R/m^{n+1} with zero
differential, and the long exact sequence of

    0 -> F (x) m^n/m^{n+1} -> F (x) R/m^{n+1} -> F (x) R/m^n -> 0

has connecting maps Tor_i(M, R/m^n) -> F_{i-1} (x) m^n/m^{n+1} of rank
r(n+1, i) - r(n, i) (their image is im(d_i (x) R/m^{n+1}) meeting
F_{i-1} (x) m^n/m^{n+1}). Hence

    dim Tor_i(M, R/m^n) = b_i q_n - r(n, i) - r(n, i+1)
    rank v^n_i          = dim Tor_i(M, R/m^n) - r(n+1, i) + r(n, i).

Every entry of d_i lies in m, so a row of degree a meets only columns
of degree >= a + 1. With the columns of d_i in degree order, the
columns of degree < n carry all of d_i (x) R/m^n and nothing else, so
r(n, i) is the number of pivots among the columns of degree < n. The
resolution's grading splits this by strand: d_i (x) R/m^n is
block-diagonal by internal degree D, and its block on strand D keeps
the coordinates of filtration degree < n, so the argument applies block
by block. `_rank_profile` eliminates each strand block of d_i once, cut
to the degrees that matter and with its columns in degree order
(`MinimalResolution.strand_blocks`), and sums the pivots over D; in
the trivial grading the one strand is the whole matrix. The m^2
preimage condition (v^1_i = 0) is one rank of the generator rows of d_i
(`msquared_preimage_condition`). `upsilon` builds the explicit matrix
of one map from one homology cell of each of its two Tor complexes
(`_TorComplex`), strand by strand from the same blocks cut to
filtration degree < n. Nothing here expands a whole differential; the
tests keep the whole-matrix cells as the independent reference for the
ladder and for `upsilon`.

Power conventions follow m^0 = R: n = 0 gives the zero module, and
n >= nilpotency index gives R itself, so those rows of the ladder are
forced (free source) and are recorded without homology computations.
"""

from __future__ import annotations

import numpy as np

from .errors import AlgebraError, LindefError
# kernel stays bound here: perfbench/tracer.py rebinds it at every
# lindef import site.
from .linalg import (  # noqa: F401
    direct_sum_cell,
    induced_map_on_quotients,
    kernel,
)
from .linear_part import defect_classification
from .resolution import MinimalResolution

__all__ = [
    "UpsilonLadder",
    "tor_ladder",
    "upsilon",
    "upsilon_defect_profile",
    "upsilon_one_implies_two",
    "msquared_preimage_condition",
]


def _pi_applier(algebra, n: int, b: int):
    """Blockwise application of R/m^{n+1} -> R/m^n to stacks of rows.

    In the adapted basis R/m^n is the leading block of R/m^{n+1}, so the
    surjection keeps each block's first dim R/m^n coordinates.
    """
    src, dst = algebra.quotient_dim(n + 1), algebra.quotient_dim(n)
    return lambda rows: rows.reshape(len(rows), b, src)[:, :, :dst].reshape(
        len(rows), b * dst)


class _TorComplex:
    """The homology cell at i of F (x) R/m^n, n >= 1, strand by strand.

    F (x) R/m^n is block-diagonal by internal degree: each strand of F_i
    (`MinimalResolution.strands`) has the kernel of d_i's block and the
    row space of d_{i+1}'s, both cut to filtration degree < n
    (`MinimalResolution.strand_blocks`, which checks each d first); a
    strand with no block on one side has no map there (all cycles, or no
    boundaries). Coordinate g*d + e of a strand is g*q_n + e of the
    complex, an increasing map, so `direct_sum_cell` joins the strands'
    cells into the whole complex's cell.
    """

    def __init__(self, res: MinimalResolution, n: int, i: int):
        field, d = res.algebra.field, res.algebra.dim
        q = res.algebra.quotient_dim(n)
        # nothing leaves F_0
        outgoing, incoming = (
            {D: block for D, block, _, _ in res.strand_blocks(k, n, n)} if k else {}
            for k in (i, i + 1)
        )
        strands, parts = res.strands[i], []
        for D in strands.index:
            index, _ = strands.layout(D, q)
            if len(index):
                parts.append((index // d * q + index % d, outgoing.get(D),
                              incoming.get(D), f"Tor complex (n={n}, i={i}), strand {D}"))
        self.cell = direct_sum_cell(field, res.betti[i] * q, parts)


def _rank_profile(res: MinimalResolution, i: int) -> list:
    """[r(n, i) for 0 <= n < t]: ranks of d_i (x) R/m^n, one elimination
    per strand of d_i.

    In the resolution's grading d_i (x) R/m^n is block-diagonal by
    internal degree D, and its block on strand D keeps the coordinates
    of filtration degree < n. A row of degree e meets only columns of
    degree >= e + 1, so rows of degree >= t - 2 vanish on the columns of
    degree < t - 1 that d_i (x) R/m^{t-1} keeps: each strand block cut
    to rows of degree <= t - 3 and columns of degree <= t - 2 holds every
    r(n, i). With its columns sorted by degree, its rank at n is its
    number of pivots among its columns of degree < n, whatever their
    order within a degree; r(n, i) sums them over D. The trivial grading
    has one strand, the whole matrix. `strand_blocks` checks d_i first.
    """
    algebra = res.algebra
    t = algebra.nilpotency_index
    fdeg = algebra.graded().degrees
    degrees = np.arange(t)
    r = np.zeros(t, dtype=np.intp)
    for _, block, _, cols in res.strand_blocks(i, t - 2, t - 1):
        cdeg = fdeg[cols % algebra.dim]
        order = np.argsort(cdeg, kind="stable")
        _, pivots = algebra.field.rref(block[:, order])
        if pivots:
            r += np.searchsorted(pivots, np.searchsorted(cdeg[order], degrees))
    return r.tolist()


class UpsilonLadder:
    """All maps v^n_i for 1 <= n <= nilpotency index, 0 <= i <= horizon.

    ranks[(n, i)] is the rank of v^n_i; tor_dims[(n, i)] the dimension
    of Tor_i(M, R/m^n) for 0 <= n <= index + 1. Rows with free source
    (m^{n+1} = 0) are forced: rank 0 for i >= 1 and full rank on Tor_0.

    Built from the ranks r(n, i) = rank(d_i (x) R/m^n) alone, with no
    Tor complex: the short exact sequence

        0 -> F (x) m^n/m^{n+1} -> F (x) R/m^{n+1} -> F (x) R/m^n -> 0

    (zero differential on the left, as F is minimal) gives

        dim Tor_i(M, R/m^n) = b_i q_n - r(n, i) - r(n, i+1)
        rank v^n_i          = dim Tor_i(M, R/m^n) - r(n+1, i) + r(n, i)

    with q_n = dim R/m^n and r(n, 0) = 0. Each d_i, 1 <= i <= horizon
    + 1, is checked minimal and homogeneous, and each of its strand
    blocks, cut to rows of degree <= t - 3 and columns of degree
    <= t - 2, is eliminated once with its columns in degree order:
    r(n, i) is the number of pivots among the columns of degree < n,
    summed over the blocks (`_rank_profile`).
    """

    def __init__(self, res: MinimalResolution, horizon: int):
        if horizon < 0:
            raise LindefError(f"ladder horizon must be >= 0, got {horizon}")
        if horizon + 1 > res.horizon:
            raise LindefError(
                f"ladder to {horizon} needs resolution horizon {horizon + 1}, "
                f"have {res.horizon}"
            )
        self.res = res
        self.module = res.module
        self.algebra = res.algebra
        self.horizon = horizon
        self.index = self.algebra.nilpotency_index
        t = self.index
        # r[i][n] = rank(d_i (x) R/m^n) for n < t; nothing leaves F_0
        r = [[0] * t] + [_rank_profile(res, i) for i in range(1, horizon + 2)]
        self.tor_dims = {}
        for n in range(0, t + 2):
            for i in range(0, horizon + 1):
                # R/m^0 is the zero module and R/m^n = R is free for n >= t
                if 0 < n < t:
                    q_n = self.algebra.quotient_dim(n)
                    dim = res.betti[i] * q_n - r[i][n] - r[i + 1][n]
                else:
                    dim = self.module.dim if n and i == 0 else 0
                self.tor_dims[(n, i)] = dim
        self.ranks = {}
        for n in range(1, t + 1):
            for i in range(0, horizon + 1):
                if n + 1 >= t:
                    rank = self.tor_dims[(n, 0)] if i == 0 else 0
                else:
                    rank = self.tor_dims[(n, i)] - r[i][n + 1] + r[i][n]
                self.ranks[(n, i)] = rank

    # -- public surface -------------------------------------------------

    def _check_index(self, i: int):
        if not 0 <= i <= self.horizon:
            raise LindefError(f"index {i} outside ladder horizon {self.horizon}")

    def rank(self, n: int, i: int) -> int:
        self._check_index(i)
        if n <= 0:
            return 0
        if n > self.index:
            return self.module.dim if i == 0 else 0
        return self.ranks[(n, i)]

    def rank_table(self) -> dict:
        return {
            n: [self.ranks[(n, i)] for i in range(self.horizon + 1)]
            for n in range(1, self.index + 1)
        }

    def tor_dim(self, n: int, i: int) -> int:
        self._check_index(i)
        if n <= 0:
            return 0
        return self.tor_dims[(min(n, self.index + 1), i)]


def tor_ladder(res: MinimalResolution, horizon: int) -> UpsilonLadder:
    return UpsilonLadder(res, horizon)


def upsilon(res: MinimalResolution, n: int, i: int) -> dict:
    """Single map v^n_i: matrix, rank, and both Tor dimensions.

    Accepts any n >= 0 using the power conventions. Forced cells (zero
    target or free source) come with an explanatory note, but the map
    is still computed honestly from homology representatives.
    """
    if n < 0:
        raise LindefError(f"power must be >= 0, got {n}")
    if i < 0:
        raise LindefError(f"homological index must be >= 0, got {i}")
    if i + 1 > res.horizon:
        raise LindefError(
            f"v^{n}_{i} needs the resolution through {i + 1}, "
            f"have horizon {res.horizon}"
        )
    algebra = res.algebra
    field = algebra.field
    t = algebra.nilpotency_index
    if n == 0:
        src_dim = _TorComplex(res, 1, i).cell.dim
        return {
            "n": n,
            "i": i,
            "matrix": field.zeros((0, src_dim)),
            "rank": 0,
            "src_dim": src_dim,
            "dst_dim": 0,
            "note": "m^0 = R, so the target is Tor against the zero module",
        }
    src = _TorComplex(res, n + 1, i).cell
    dst = _TorComplex(res, n, i).cell
    apply_rows = _pi_applier(algebra, n, res.betti[i])
    mat, rank = induced_map_on_quotients(field, apply_rows, src, dst)
    note = None
    if n + 1 >= t:
        note = (
            f"R/m^{n + 1} is the free module R (m^{n + 1} = 0), "
            "so higher Tor of the source vanishes"
        )
    return {
        "n": n,
        "i": i,
        "matrix": mat,
        "rank": rank,
        "src_dim": src.dim,
        "dst_dim": dst.dim,
        "note": note,
    }


def upsilon_defect_profile(ladder: UpsilonLadder) -> dict:
    """Vanishing-criterion defect report, same shape as the linear-part one.

    h[i-1] is the total rank of v^n_i over all n; the classification is
    the least horizon-truncated d with all maps zero above it.
    """
    horizon = ladder.horizon
    if horizon < 1:
        raise LindefError("profile needs horizon >= 1")
    h = [
        sum(ladder.ranks[(n, i)] for n in range(1, ladder.index + 1))
        for i in range(1, horizon + 1)
    ]
    return {
        "horizon": horizon,
        "h": h,
        **defect_classification(h),
        "table": ladder.rank_table(),
    }


def upsilon_one_implies_two(ladder: UpsilonLadder) -> list:
    """Per-index outcomes of the step 'v^1_i = 0 forces v^2_i = 0'.

    Requires m^4 = 0 (the hypothesis of the cited vanishing theorem);
    raises AlgebraError otherwise. Returns one record per 0 <= i <=
    horizon with the antecedent and, when it applies, whether the
    implication held.
    """
    if ladder.index > 4:
        raise AlgebraError(
            f"m^4 != 0 (nilpotency index {ladder.index}): "
            "the vanishing step applies only to m^4 = 0 algebras"
        )
    out = []
    for i in range(0, ladder.horizon + 1):
        antecedent = ladder.rank(1, i) == 0
        record = {"i": i, "antecedent": antecedent, "holds": None}
        if antecedent:
            record["holds"] = ladder.rank(2, i) == 0
        out.append(record)
    return out


def msquared_preimage_condition(res: MinimalResolution, i: int) -> bool:
    """Whether every x with d_i(x) in m^2 F_{i-1} already lies in m F_i.

    Equivalent to v^1_i = 0. At i = 0 the outgoing map is zero, so the
    condition degenerates to F_0 = m F_0, i.e. b_0 = 0.

    For i >= 1 it is one rank, with no expansion and no kernel. Write
    x = sum_g c_g e_g + y with c_g in k, e_g the generators of F_i and
    y in m F_i. As F is minimal, d_i(m F_i) lies in m d_i(F_i), inside
    m m F_{i-1} = m^2 F_{i-1}. So d_i(x) lies in m^2 F_{i-1} iff
    sum_g c_g d_i(e_g) does, while x lies in m F_i iff every c_g = 0.
    The condition therefore says that the images of the e_g in
    F_{i-1}/m^2 F_{i-1} are linearly independent over k. In the adapted
    basis R/m^2 is the leading range :q_2 of each block, so the image of
    e_g is the row of d_i's nonzeros (g, g', e) with e < q_2, and the
    condition holds iff these b_i rows have rank b_i. The rows are built
    on their nonzero columns (g', e) only: all-zero columns change no
    rank. Nothing here uses a grading,
    so this holds in the trivial grading too. The argument needs d_i
    minimal, so d_i is checked first (`check_differential`).
    """
    if i < 0:
        raise LindefError(f"index must be >= 0, got {i}")
    if i > res.horizon:
        raise LindefError(f"index {i} beyond resolution horizon {res.horizon}")
    if i == 0:
        return res.betti[0] == 0
    b_i = res.betti[i]
    if b_i == 0:
        return True
    res.check_differential(i)
    # the generators' images in F_{i-1}/m^2 F_{i-1}: R/m^2 is the leading
    # block :q_2 of each target block; only its nonzero columns are built
    g, g2, e, value = res.diff[i].nonzeros
    q_2 = res.algebra.quotient_dim(2)
    low = e < q_2
    col = g2[low] * q_2 + e[low]
    used = np.zeros(res.betti[i - 1] * q_2, dtype=bool)
    used[col] = True
    rows = res.algebra.field.zeros((b_i, int(used.sum())))
    rows[g[low], (used.cumsum() - 1)[col]] = value[low]
    return res.algebra.field.rank(rows) == b_i
