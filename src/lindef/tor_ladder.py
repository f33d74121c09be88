"""Tor modules Tor_i(M, R/m^n) and the comparison maps between them.

Tor is computed from the already-built minimal resolution F of M: the
complex F (x) R/m^n has one block of dim R/m^n per generator, and its
differential is the expanded differential conjugated by the quotient's
lift/projection matrices, applied blockwise. The map v^n_i is induced
on homology by the coordinate surjection R/m^{n+1} -> R/m^n.

Power conventions follow m^0 = R: n = 0 gives the zero module, and
n >= nilpotency index gives R itself, so those rows of the ladder are
forced (free source) and are recorded without homology computations.
"""

from __future__ import annotations

import numpy as np

from .errors import AlgebraError, LindefError
from .linalg import (
    QuotientCoords,
    Subspace,
    induced_map_on_quotients,
    kernel,
    row_space,
)
from .linear_part import CLASSIFICATION_CLEAN
from .resolution import MinimalResolution

__all__ = [
    "UpsilonLadder",
    "tor_ladder",
    "upsilon",
    "upsilon_defect_profile",
    "upsilon_one_implies_two",
    "msquared_preimage_condition",
]


def _project_expand(field, expand, b_src, b_dst, lift, proj):
    """Blockwise conjugate of an expanded differential by a quotient.

    Returns the matrix of (R/m^n)^{b_src} -> (R/m^n)^{b_dst} on row
    vectors: lift each block, apply the expanded map, project back.
    """
    d, q = proj.shape
    if b_src == 0 or b_dst == 0 or q == 0:
        return field.zeros((b_src * q, b_dst * q))
    if q == d:
        return expand
    step = field.matmul(expand.reshape(b_src * d * b_dst, d), proj)
    step = step.reshape(b_src * d, b_dst * q)
    x = b_dst * q
    step = np.ascontiguousarray(
        step.reshape(b_src, d, x).transpose(1, 0, 2)
    ).reshape(d, b_src * x)
    out = field.matmul(lift, step)
    out = np.ascontiguousarray(
        out.reshape(q, b_src, x).transpose(1, 0, 2)
    ).reshape(b_src * q, x)
    return out


def _pi_applier(algebra, n: int, b: int):
    """Blockwise application of R/m^{n+1} -> R/m^n to stacks of rows."""
    field = algebra.field
    src = algebra.quotient_module(n + 1)
    dst = algebra.quotient_module(n)
    pi = field.matmul(src.lift, dst.proj)
    q1, q0 = pi.shape

    def apply_rows(rows):
        m = rows.shape[0]
        if m == 0 or b == 0:
            return field.zeros((m, b * q0))
        out = field.matmul(np.ascontiguousarray(rows).reshape(m * b, q1), pi)
        return out.reshape(m, b * q0)

    return apply_rows


class _TorComplex:
    """Homology cells of F (x) R/m^n for one fixed n >= 1."""

    def __init__(self, res: MinimalResolution, n: int, top: int):
        if top + 1 > res.horizon:
            raise LindefError(
                f"Tor through {top} needs the resolution through {top + 1}, "
                f"have horizon {res.horizon}"
            )
        self.res = res
        self.n = n
        field = res.algebra.field
        self.field = field
        self.quotient = res.algebra.quotient_module(n)
        q = self.quotient.dim
        self.qdim = q
        lift, proj = self.quotient.lift, self.quotient.proj
        self.projected = [None]
        for i in range(1, top + 2):
            pe = _project_expand(
                field, res.expands[i], res.betti[i], res.betti[i - 1], lift, proj
            )
            if n == 1 and not field.is_zero(pe):
                raise AssertionError(
                    "differential survives reduction mod m: resolution not minimal"
                )
            self.projected.append(pe)
        self.cells = []
        for i in range(0, top + 1):
            ambient = res.betti[i] * q
            if i == 0:
                cycles = Subspace.full(field, ambient)
            else:
                cycles = kernel(field, self.projected[i].T)
            incoming = self.projected[i + 1]
            if incoming.shape[0] == 0:
                boundaries = Subspace.zero(field, ambient)
            else:
                boundaries = row_space(field, incoming)
            if not cycles.contains(boundaries):
                raise AssertionError(f"Tor complex not a complex at (n={n}, i={i})")
            self.cells.append((cycles, boundaries))

    def dim(self, i: int) -> int:
        z, b = self.cells[i]
        return z.dim - b.dim


class UpsilonLadder:
    """All maps v^n_i for 1 <= n <= nilpotency index, 0 <= i <= horizon.

    ranks[(n, i)] is the rank of v^n_i; tor_dims[(n, i)] the dimension
    of Tor_i(M, R/m^n) for 0 <= n <= index + 1. Rows with free source
    (m^{n+1} = 0) are forced: rank 0 for i >= 1 and full rank on Tor_0.
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
        self._complexes = {}
        for n in range(1, t):
            self._complexes[n] = _TorComplex(res, n, horizon)
        self.tor_dims = {}
        for n in range(0, t + 2):
            for i in range(0, horizon + 1):
                self.tor_dims[(n, i)] = self._tor_dim(n, i)
        self.ranks = {}
        self.forced = {}
        for n in range(1, t + 1):
            src_free = n + 1 >= t
            for i in range(0, horizon + 1):
                if src_free:
                    self.forced[(n, i)] = True
                    self.ranks[(n, i)] = self.tor_dims[(n, 0)] if i == 0 else 0
                    continue
                self.forced[(n, i)] = False
                apply_rows = _pi_applier(self.algebra, n, res.betti[i])
                _, rank = induced_map_on_quotients(
                    self.algebra.field,
                    apply_rows,
                    self._complexes[n + 1].cells[i],
                    self._complexes[n].cells[i],
                    check=False,
                )
                self.ranks[(n, i)] = rank

    def _tor_dim(self, n: int, i: int) -> int:
        if n <= 0:
            return 0
        if n >= self.index:
            return self.module.dim if i == 0 else 0
        return self._complexes[n].dim(i)

    # -- public surface -------------------------------------------------

    def rank(self, n: int, i: int) -> int:
        if not 0 <= i <= self.horizon:
            raise LindefError(f"index {i} outside ladder horizon {self.horizon}")
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
        src_dim = _TorComplex(res, 1, i).dim(i)
        return {
            "n": n,
            "i": i,
            "matrix": field.zeros((0, src_dim)),
            "rank": 0,
            "src_dim": src_dim,
            "dst_dim": 0,
            "note": "m^0 = R, so the target is Tor against the zero module",
        }
    src = _TorComplex(res, n + 1, i)
    dst = _TorComplex(res, n, i)
    apply_rows = _pi_applier(algebra, n, res.betti[i])
    mat, rank = induced_map_on_quotients(
        field, apply_rows, src.cells[i], dst.cells[i], check=True
    )
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
        "src_dim": src.dim(i),
        "dst_dim": dst.dim(i),
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
    nonzero = [i for i, v in zip(range(1, horizon + 1), h) if v]
    dmax = max(nonzero) if nonzero else 0
    classification = CLASSIFICATION_CLEAN if dmax == 0 else f"defect >= {dmax}"
    return {
        "horizon": horizon,
        "h": h,
        "nonzero_indices": nonzero,
        "dmax": dmax,
        "classification": classification,
        "silence_tail": dmax >= 1 and horizon - dmax >= 2,
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
    """
    if i < 0:
        raise LindefError(f"index must be >= 0, got {i}")
    if i > res.horizon:
        raise LindefError(f"index {i} beyond resolution horizon {res.horizon}")
    algebra = res.algebra
    field = algebra.field
    if i == 0:
        return res.betti[0] == 0
    b_i, b_prev = res.betti[i], res.betti[i - 1]
    if b_i == 0:
        return True
    d = algebra.dim
    m2_block = Subspace.block_sum(algebra.power(2), b_prev)
    qc = QuotientCoords(field, Subspace.full(field, b_prev * d), m2_block)
    composite = qc.coords(res.expands[i], check=False)
    preimage = kernel(field, composite.T)
    m_block = Subspace.block_sum(algebra.power(1), b_i)
    return m_block.contains(preimage)
