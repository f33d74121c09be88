"""Linear part of a minimal resolution and the linearity defect.

The linear part is the associated graded complex of the standard
filtration of a minimal free resolution: homological stage n becomes
the graded free module gr(R)^{b_n} generated in internal degree n, and
each differential entry is replaced by its class in F_1/F_2. Per
internal degree this yields honest scalar matrices (slices), whose
kernels and images give the graded homology and the defect profile.

Slice coordinates: stage n, internal degree j is laid out in the block
layout of `linalg`, one block of length dim gr_{j-n} per generator. In
the algebra's adapted basis a slice is a truncation of the expanded
differential (`AlgebraMatrix.expand`).

Linear strands. The resolution runs in one grading
(`MinimalResolution.m_degree`, the degree s of m's generators, and
`MinimalResolution.degrees`), in which every entry of d_i from a
generator g of F_i to a generator g' of F_{i-1} lies in degree
deg g - deg g'. In the filtration grading (s = 1) its gr_1 class is zero
unless deg g = deg g' + 1; in the trivial grading (s = 0) every degree
is 0. Put g in linear strand deg g - i*s: then lin(F) joins only
generators of the same strand, and every slice is block-diagonal by
strand (an ungraded resolution has one linear strand); the strands of
F_i are the resolution's generator groups (`MinimalResolution.strands`),
degree a as strand a - i*s. The first `homology` call sweeps the spots
0..horizon-1 forward once. The blocks of d_{i+1}, one per strand and
degree, are built by `MinimalResolution.place_tiles` from the gr_1
coordinates of the nonzero entries between the strand's generators, the
tiles of one pair of generator degrees (`MinimalResolution.tiles`), as
the resolution builds its own strand blocks: the incoming maps at
spot i and, kept one step, the outgoing maps at spot i + 1, dropped once
read. So each block is built once, and at most two differentials'
blocks are alive.
The cycles and boundaries of slice (i, j) are the direct sums of those
of its blocks: one kernel and one row space per block, none for a
strand with no outgoing block (all cycles) or no incoming block (no
boundaries). A strand's coordinates are a block layout of its own, and
the RREF basis of a direct sum with disjoint coordinate supports is the
union of the parts' RREF bases, so `linalg.direct_sum_cell` reassembles
each cell in global pivot order, the same bytes as one elimination of
the whole slice; the m* checks read the reassembled cells.
"""

from __future__ import annotations

import numpy as np

from .errors import LindefError
from .linalg import Subspace, block_apply, direct_sum_cell
from .resolution import MinimalResolution, resolve

__all__ = [
    "GradedComplex",
    "linear_part",
    "defect_profile",
    "linearity_defect_profile",
    "mstar_annihilation_check",
    "mstar_cycle_boundary_equality",
]

CLASSIFICATION_CLEAN = "ld=0 up to horizon"


class GradedComplex:
    """lin(F) for a minimal resolution F, with per-degree slices.

    Each d_i is checked first (`MinimalResolution.check_differential`):
    a slice keeps the entries' F_1/F_2 classes only if d_i is minimal,
    and a strand block misses an entry off its degree. The first
    `homology` call sweeps every spot (see the module docstring).
    """

    def __init__(self, res: MinimalResolution):
        self.res = res
        self.algebra = res.algebra
        self.field = res.algebra.field
        self.gr = res.algebra.graded()
        for i in range(1, res.horizon + 1):
            res.check_differential(i)
        self._homology = None

    # -- bookkeeping ----------------------------------------------------

    def stage_rank(self, i: int) -> int:
        if 0 <= i <= self.res.horizon:
            return self.res.betti[i]
        return 0

    def component_dim(self, i: int, j: int) -> int:
        """Dimension of the degree-j slice of stage i."""
        return self.stage_rank(i) * self.gr.component_dim(j - i)

    def degree_range(self, i: int):
        return range(i, i + len(self.gr.dims))

    # -- slices ---------------------------------------------------------

    def slice_matrix(self, i: int, j: int):
        """Scalar matrix of the degree-j part of the differential at i.

        Maps the degree-j slice of stage i into the degree-j slice of
        stage i-1 (row-vector convention). `homology` builds only its
        linear-strand blocks, never the whole slice.
        """
        if 1 <= i <= self.res.horizon:
            gr = self.gr.component_range
            return self.res.diff[i].expand(gr(j - i), gr(j - i + 1))
        return self.field.zeros(
            (self.component_dim(i, j), self.component_dim(i - 1, j))
        )

    # -- linear strands ---------------------------------------------------

    def strands(self, i: int):
        """Generators of F_i by linear strand (none below stage 0): the
        resolution's groups of F_i by degree a, as strand a - i*m_degree."""
        if i < 0:
            return {}
        shift = i * self.res.m_degree
        return {a - shift: gens for a, gens in self.res.strands[i].groups.items()}

    def _strand_block(self, i: int, j: int, s: int):
        """Block of slice_matrix(i, j) on the generators of linear strand s
        of F_i and F_{i-1}: their gr_1 entries expanded by gr_1 x gr_{j-i}.
        Those are the tiles of d_i's degree pair (a, a - m_degree), a = s
        + i*m_degree (`MinimalResolution.tiles`), cut to e in gr_1."""
        a = s + i * self.res.m_degree
        rows, cols = self.strands(i)[s], self.strands(i - 1)[s]
        gr = self.gr.component_range
        J, F = self.gr.component_dim(j - i), self.gr.component_dim(j - i + 1)
        block = self.field.zeros((len(rows) * J, len(cols) * F))
        t = self.res.tiles(i).get((a, a - self.res.m_degree))
        if t is not None:
            # generator k of each strand holds the k-th run of J rows (F
            # columns) of the block
            self.res.place_tiles(
                t, block, (np.arange(len(rows) * J).reshape(len(rows), J), gr(j - i)),
                (np.arange(len(cols) * F).reshape(len(cols), F), gr(j - i + 1)), gr(1))
        return block

    def _cell(self, i: int, j: int, outgoing: dict, incoming):
        """The cell at (i, j), one linear strand at a time: the strand's
        block of d_i is popped from outgoing, and its block of d_{i+1}
        (none at j = i: gr_{j-i-1} = 0) built and kept in incoming for
        spot i + 1, unless incoming is None (the last spot)."""
        above, width = self.strands(i + 1), self.gr.component_dim(j - i)

        def parts():
            for s, gens in self.strands(i).items():
                inc = self._strand_block(i + 1, j, s) if j > i and s in above else None
                if incoming is not None and inc is not None:
                    incoming[j, s] = inc
                yield ((gens[:, None] * width + np.arange(width)).ravel(),
                       outgoing.pop((j, s), None), inc,
                       f"stage {i}, degree {j}, strand {s}")

        return direct_sum_cell(self.field, self.component_dim(i, j), parts())

    # -- homology ---------------------------------------------------------

    def homology(self, i: int) -> dict:
        """HomologyCell per internal degree (needs stage i+1 incoming),
        one linear strand at a time (see the module docstring)."""
        if i < 0 or i + 1 > self.res.horizon:
            raise LindefError(
                f"homology at {i} needs the resolution through {i + 1}, "
                f"horizon is {self.res.horizon}"
            )
        if self._homology is None:
            # one forward sweep: d_{k+1}'s blocks enter spot k and leave
            # spot k + 1; nothing leaves F_0
            spots, outgoing = [], {}
            for k in range(self.res.horizon):
                incoming = {} if k + 1 < self.res.horizon else None
                spots.append({j: self._cell(k, j, outgoing, incoming)
                              for j in self.degree_range(k)})
                outgoing = incoming
            self._homology = spots
        return self._homology[i]

    def gr1_cycles(self, n: int, j: int):
        """gr_1 * Z_j at stage n: one `block_apply` stack of every gr_1
        element s times every cycle basis row r (row s * dim Z_j + r).
        Both m* checks read it; each builds its own.
        """
        return block_apply(self.field, self.homology(n)[j].cycles.basis,
                           self.stage_rank(n), self.gr.component_product(1, j - n))

    def homology_dims(self, i: int) -> dict:
        return {j: s.dim for j, s in self.homology(i).items()}

    def total_homology(self, i: int) -> int:
        return sum(s.dim for s in self.homology(i).values())


def linear_part(res: MinimalResolution) -> GradedComplex:
    """The associated graded complex of a minimal resolution."""
    return GradedComplex(res)


def defect_profile(complex_: GradedComplex, horizon: int) -> dict:
    """Homology totals h_1..h_horizon with their defect classification.

    Requires the underlying resolution to reach horizon + 1.
    """
    if horizon < 1:
        raise LindefError(f"profile horizon must be >= 1, got {horizon}")
    if horizon + 1 > complex_.res.horizon:
        raise LindefError(
            f"profile to {horizon} needs resolution horizon {horizon + 1}, "
            f"have {complex_.res.horizon}"
        )
    h = [complex_.total_homology(i) for i in range(1, horizon + 1)]
    by_degree = {}
    for i in range(1, horizon + 1):
        dims = {j: s for j, s in complex_.homology_dims(i).items() if s}
        if dims:
            by_degree[i] = dims
    return {
        "horizon": horizon,
        "h": h,
        "by_degree": by_degree,
        **defect_classification(h),
    }


def defect_classification(h) -> dict:
    """Defect classification of totals h = [h_1, ..., h_horizon].

    dmax is the last index with h_i != 0 (0 when there is none), and
    the silence-tail flag marks >= 2 silent stages after it up to the
    horizon: the finite shadow of 0 < ld < infinity.
    """
    nonzero = [i for i, v in enumerate(h, start=1) if v]
    dmax = max(nonzero) if nonzero else 0
    return {
        "nonzero_indices": nonzero,
        "dmax": dmax,
        "classification": (
            CLASSIFICATION_CLEAN if dmax == 0 else f"defect >= {dmax}"
        ),
        "silence_tail": dmax >= 1 and len(h) - dmax >= 2,
    }


def linearity_defect_profile(module, horizon: int) -> dict:
    """Resolve the module to horizon + 1 and report its defect profile."""
    res = resolve(module, horizon + 1)
    return defect_profile(linear_part(res), horizon)


def mstar_annihilation_check(complex_: GradedComplex, n: int):
    """Check that every degree-1 element annihilates H_n of the linear part.

    Degreewise sufficient: gr is standard graded and cycles/boundaries
    are graded submodules, so (m* Z)_{j+1} equals gr_1 * Z_j: per degree
    one `block_apply` stack of every gr_1 element s times every cycle
    basis row r (`GradedComplex.gr1_cycles`), reduced against the
    boundaries at once. A degree with no target (gr_{j-n+1} = 0) cannot
    fail. Returns (True, None) or (False, certificate) with the violating
    cycle: the smallest failing j, then s, then r.
    """
    field = complex_.field
    gr = complex_.gr
    hom = complex_.homology(n)
    b_n = complex_.stage_rank(n)
    for j in sorted(hom):
        sl = hom[j]
        ambient = b_n * gr.component_dim(j - n + 1)
        if sl.cycles.dim == 0 or ambient == 0:
            continue
        nxt = hom.get(j + 1)
        target = nxt.boundaries if nxt else Subspace.zero(field, ambient)
        z = sl.cycles.basis
        imgs = complex_.gr1_cycles(n, j)
        bad = np.flatnonzero((target.reduce(imgs) != 0).any(axis=1))
        if len(bad):
            s, r = divmod(int(bad[0]), z.shape[0])
            return False, {
                "stage": n,
                "internal_degree": j,
                "gr1_index": s,
                "cycle": z[r].tolist(),
                "image": imgs[bad[0]].tolist(),
            }
    return True, None


def mstar_cycle_boundary_equality(complex_: GradedComplex, d: int) -> bool:
    """Whether m* Ker d*_d and m* Im d*_{d+1} agree in every internal degree.

    Offered for d >= 1 only: there is no outgoing differential at 0.
    Same degreewise gr_1 * Z_j stacks as the annihilation check. A degree
    whose cycles and boundaries have equal dimensions has Z = B (B ⊆ Z),
    so it is skipped without an elimination.
    """
    if d < 1:
        raise LindefError(f"cycle/boundary equality is defined for d >= 1, got {d}")
    field = complex_.field
    gr = complex_.gr
    hom = complex_.homology(d)
    b_d = complex_.stage_rank(d)
    for j in sorted(hom):
        sl = hom[j]
        ambient = b_d * gr.component_dim(j - d + 1)
        if ambient == 0 or sl.dim == 0:
            continue
        m_cycles = Subspace.from_rows(field, complex_.gr1_cycles(d, j), ambient)
        m_boundaries = Subspace.from_rows(
            field,
            block_apply(field, sl.boundaries.basis, b_d, gr.component_product(1, j - d)),
            ambient,
        )
        if m_cycles != m_boundaries:
            return False
    return True
