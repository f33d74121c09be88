"""Minimal free resolutions over a finite local algebra.

The resolution of a module M is built stage by stage: minimal
generators of the current syzygy module are chosen by Nakayama (an
adapted basis of W/mW), the differential entries are read off from the
generator rows, and the next syzygy module is the left kernel of the
expanded differential. Everything is exact linear algebra over the base
field; all structural facts (complex property, minimality, exactness)
are recomputed and enforced, not assumed.

A free module R^b is the row space k^(b*d) in the block layout of
`linalg` (one block of length d = dim R per generator).

Strands. A grading puts basis vector e of R in degree deg e, with m
generated in degree s. Give generator g of F_i a degree deg g, so that
coordinate (g, e) has internal degree deg g + deg e, and split R^b into
strands, one per internal degree. F_0's generators sit in degree 0, and
a generator of F_i (i >= 1) has the degree of its row in F_{i-1}. Every
generator row lies in one strand, so every expanded d_i is
block-diagonal by strand, and each stage runs one strand at a time:

* (mW)_D = m_s W_{D-s}, so mW is eliminated strand by strand from the
  products of W_{D-s} with the degree-s generators of m, and a strand
  of W with no strand below it needs no elimination;
* each strand block of d_i is built from the entries and table
  truncations by `block_expand`, never the whole expanded matrix
  (`MinimalResolution.strand_blocks`; the resolution keeps each stage's
  strand layout, `MinimalResolution.strands`, so the Tor ladder, the Tor
  cells of `upsilon` and `syzygy` get the same blocks, whole or cut to
  low filtration degrees);
* d o d = 0, the kernel and the last stage's rank are computed per
  block, and a strand of F_i with no coordinates in F_{i-1} is all
  kernel and makes no elimination.

The grading is chosen once per resolution. The filtration grading
(deg e the filtration degree in the adapted basis, s = 1, m generated
by gr_1's basis) is used when the table is graded (every nonzero
table[a, b, c] has deg c = deg a + deg b, as for every homogeneous
presentation) and the first syzygy space splits by strand. Otherwise
(a rebased non-homogeneous ring, a module whose coordinates are not
graded) the trivial grading is: every deg e is 0, s = 0, m is generated
by the generators of m, and each stage is one strand, the whole
expanded differential. Stage 0 resolves M itself in the trivial grading.

The RREF basis of a direct sum with disjoint coordinate supports is the
union of the summands' RREF bases, so kernels and W/mW representatives
sorted by global pivot are those of the one-block computation: the
generators, the entries and every record are the same bytes.
"""

from __future__ import annotations

import numpy as np

from .algebra import FiniteLocalAlgebra, RModule
from .errors import LindefError, ResourceLimitError
# kernel_structured stays bound here: perfbench/tracer.py rebinds it at
# every lindef import site, and `kernel` runs it for each block.
from .linalg import (  # noqa: F401
    Subspace,
    block_apply,
    block_expand,
    kernel,
    kernel_structured,
    scatter_by_pivot,
)

__all__ = ["AlgebraMatrix", "MinimalResolution", "resolve", "minimal_generators"]


class AlgebraMatrix:
    """Matrix of ring elements, a map of free modules R^src -> R^dst.

    entries has shape (src, dst, dim R): entries[c, c'] is the
    coordinate vector of the coefficient on target generator c' in the
    image of source generator c. It is read-only, so a d_i that passed
    `MinimalResolution.check_differential` cannot change in place.
    """

    __slots__ = ("algebra", "entries")

    def __init__(self, algebra: FiniteLocalAlgebra, entries):
        self.algebra = algebra
        self.entries = algebra.field.asarray(entries)
        self.entries.flags.writeable = False
        if self.entries.ndim != 3 or self.entries.shape[2] != algebra.dim:
            raise LindefError(
                f"entry array has shape {self.entries.shape}, expected "
                f"(src, dst, {algebra.dim})"
            )

    @property
    def src_rank(self) -> int:
        return self.entries.shape[0]

    @property
    def dst_rank(self) -> int:
        return self.entries.shape[1]

    def expand(self, rows=slice(None), cols=slice(None)):
        """Scalar matrix of the map, each entry e acting on a block by
        table[e, rows, cols] (table[e] row j holds e * e_j).

        The defaults give the map k^(src*d) -> k^(dst*d). In the
        algebra's adapted basis m^n is spanned by the last basis vectors,
        so R/m^n is the range :q_n (q_n = dim R/m^n), gr_q = F_q/F_{q+1}
        is the range gr(q) (`GradedAlgebra.component_range`), and every
        complex derived from a minimal resolution F is a truncation:

            d_i (x) R/m^n, the Tor complex      rows :q_n      cols :q_n
            lin(F)_i in internal degree j       rows gr(j-i)   cols gr(j-i+1)
            linear strand s of lin(F)_i in      rows gr(j-i)   cols gr(j-i+1)
              degree j, entries in gr(1)
            strand D of d_i, generators of      rows gr(D-a)   cols gr(D-a')
              degrees a -> a', entries in gr(a-a')
            strand D of d_i (x) R/m^n, the      rows gr(D-a)   cols gr(D-a')
              same pair                           ∩ :q_n         ∩ :q_n

        F_i -> F_{i-1}/m^2 F_{i-1} needs no expansion: on the generators
        of F_i it is entries[:, :, :q_2]
        (`tor_ladder.msquared_preimage_condition`). Only
        `linear_part.GradedComplex.slice_matrix`, which nothing in the
        package calls, and the tests' references call this method. The
        rest build strand blocks, one `block_expand` per pair of generator
        degrees with only the entries in gr(a - a')
        (`MinimalResolution.strand_blocks`): the resolution and `syzygy`
        whole, the Tor ladder cut at n = t - 2 on the rows and t - 1 on
        the columns (t the nilpotency index; `tor_ladder._rank_profile`),
        the Tor cells of `upsilon` at n. gr is the grading's: in the
        trivial one gr(0) is the whole basis and the one strand block the
        whole matrix. The linear part does the same for its linear
        strands (`linear_part.GradedComplex`).

        lin(F) keeps only the entries' gr_1 coordinates, yet its row in
        the table sums over every e. That is the same matrix: coordinate 0 of
        every entry is zero since d_i is minimal (`GradedComplex` checks
        each d_i, `MinimalResolution.check_differential`), and an e in F_2
        maps F_q into F_{q+2}, whose coordinates in gr(q+1) are zero.
        """
        table = self.algebra.table[:, rows, cols]
        return block_expand(self.algebra.field, self.entries, table)

    def is_minimal(self) -> bool:
        """True when every entry lies in the maximal ideal: F_1 is spanned
        by e_1..e_{d-1} in the algebra's adapted basis."""
        return self.algebra.field.is_zero(self.entries[:, :, 0])

    def entry_string(self, src: int, dst: int) -> str:
        return self.algebra.format_element(self.entries[src, dst])

    def __repr__(self):
        return f"AlgebraMatrix({self.src_rank}x{self.dst_rank} over dim {self.algebra.dim})"


def _basis_degrees(algebra: FiniteLocalAlgebra):
    """Filtration degree of each adapted basis vector
    (`GradedAlgebra.degrees`), or None when the table is not graded
    (some nonzero table[a, b, c] has deg c != deg a + deg b)."""
    deg = algebra.graded().degrees
    a, b, c = np.nonzero(np.asarray(algebra.table != 0))
    return deg if np.array_equal(deg[c], deg[a] + deg[b]) else None


def _row_degrees(rows, cdeg):
    """Internal degree of each row, or None when a row is zero or has
    nonzero coordinates in two strands (cdeg the coordinate degrees)."""
    if not len(rows):
        return np.zeros(0, dtype=np.intp)
    nz = np.asarray(rows != 0)
    first = nz.argmax(axis=1)
    deg = cdeg[first]
    if not nz[np.arange(len(first)), first].all() or (
        nz & (cdeg != deg[:, None])
    ).any():
        return None
    return deg


class _Strands:
    """The internal-degree strands of a free module, generator g of
    degree gdeg[g], when basis vector e of a block has degree edeg[e]
    (nondecreasing) and m is generated in degree s.

    index[D] holds the coordinates of strand D in increasing order, which
    is the strand's own coordinate order; groups[a] the generators of
    degree a; gr(q) the range of a block's degree-q basis vectors.
    positions(D, a) lists where the coordinates of the degree-a
    generators sit in strand D, generator-major: they form a block layout
    with blocks gr(D - a), so `block_apply` and `block_expand` act on
    them directly.
    """

    __slots__ = ("edeg", "s", "offsets", "d", "cdeg", "index", "local", "groups",
                 "_pos")

    def __init__(self, gdeg, edeg, s: int):
        self.edeg, self.s = edeg, s
        self.offsets = [0, *np.cumsum(np.bincount(edeg)).tolist()]
        self.d = d = len(edeg)
        self.cdeg = cdeg = (gdeg[:, None] + edeg).ravel()
        order = np.argsort(cdeg, kind="stable")
        counts = np.bincount(cdeg)
        starts = np.cumsum(counts) - counts
        self.index = {
            D: order[start:start + n]
            for D, (start, n) in enumerate(zip(starts.tolist(), counts.tolist())) if n
        }
        self.local = np.empty(len(cdeg), dtype=np.intp)
        self.local[order] = np.arange(len(cdeg)) - np.repeat(starts, counts)
        self.groups = {a: np.flatnonzero(gdeg == a) for a in sorted(set(gdeg.tolist()))}
        self._pos = {}

    def gr(self, q: int) -> slice:
        if 0 <= q < len(self.offsets) - 1:
            return slice(self.offsets[q], self.offsets[q + 1])
        return slice(0, 0)

    def positions(self, D: int, a: int):
        pos = self._pos.get((D, a))
        if pos is None:
            r = self.gr(D - a)
            coords = self.groups[a][:, None] * self.d + np.arange(r.start, r.stop)
            pos = self._pos[D, a] = self.local[coords.ravel()]
        return pos

    def layout(self, D: int, q: int | None = None):
        """(index, place) of strand D, cut to the basis vectors e < q of
        each block when q is given: index lists its coordinates g*d + e in
        increasing order, and place[a] = (positions(D, a), gr(D - a)), both
        cut, for each generator degree a with coordinates left. A cut
        keeps a prefix of each generator's range: again a block layout."""
        index, place, size = self.index[D], {}, 0
        for a, gens in self.groups.items():
            r = self.gr(D - a)
            if q is not None:
                r = slice(r.start, min(r.stop, q))
            if r.stop > r.start:
                place[a] = (self.positions(D, a), r)
                size += len(gens) * (r.stop - r.start)
        if size in (0, len(index)):  # all or nothing cut
            return index[:size], place
        keep = index % self.d < q
        local = np.cumsum(keep) - 1
        for a, (pos, r) in place.items():
            pos = pos.reshape(len(self.groups[a]), -1)[:, :r.stop - r.start]
            place[a] = (local[pos.ravel()], r)
        return index[keep], place

    def split(self, space: Subspace):
        """space's parts by strand, or None when a basis row touches two
        strands (then space is not a sum of its parts)."""
        deg = _row_degrees(space.basis, self.cdeg)
        if deg is None:
            return None
        piv = np.asarray(space.pivots, dtype=np.intp)
        parts = {}
        for D, idx in self.index.items():
            rows = np.flatnonzero(deg == D)
            parts[D] = Subspace(
                space.field, len(idx),
                np.ascontiguousarray(space.basis[np.ix_(rows, idx)]),
                self.local[piv[rows]].tolist(),
            )
        return StrandSpace(space.field, self, parts)


class StrandSpace:
    """A subspace of R^b that is the direct sum of its strand parts:
    parts[D] is a Subspace in the coordinates of strand D of `strands`."""

    __slots__ = ("field", "strands", "parts")

    def __init__(self, field, strands: _Strands, parts: dict):
        self.field = field
        self.strands = strands
        self.parts = parts

    @property
    def dim(self) -> int:
        return sum(p.dim for p in self.parts.values())


def minimal_generators(space: StrandSpace, blocks: int, ops):
    """Adapted representatives of a basis of W/mW for W = space.

    W lies in a module of `blocks` blocks, split into strands, and ops
    (n, a, a) stacks the operators on one block of m's generators of
    degree s = space.strands.s. W must be closed under the R-action
    (callers pass kernels of R-linear maps, which are). Representatives
    are the rref basis rows of W whose pivots survive in W/mW; they
    generate W over R by Nakayama.

    (mW)_D = ops W_{D-s}: one `block_apply` product per generator degree
    and one elimination per strand of W with a nonzero strand s below
    it. The strands' representatives, as rows of R^blocks, are returned
    in order of their pivots, which is the one-block order.
    """
    field, st = space.field, space.strands
    found = []
    for D, w in space.parts.items():
        if w.dim == 0:
            continue
        below = space.parts.get(D - st.s)
        if below is None or below.dim == 0:
            found.append((st.index[D], w.basis, w.pivots))
            continue
        prods = field.zeros((len(ops) * below.dim, w.ambient_dim))
        for a, gens in st.groups.items():
            src, dst = st.positions(D - st.s, a), st.positions(D, a)
            if len(src) and len(dst):
                sub = below.basis if len(src) == below.ambient_dim else (
                    below.basis[:, src]
                )
                images = block_apply(
                    field, sub, len(gens), ops[:, st.gr(D - st.s - a), st.gr(D - a)]
                )
                if len(dst) == w.ambient_dim:
                    prods = images
                else:
                    prods[:, dst] = images
        mw = Subspace.from_rows(field, prods, w.ambient_dim)
        reps, cols = w.adapted_reps(mw)
        found.append((st.index[D], reps, cols))
    return scatter_by_pivot(field, blocks * st.d, found)[0]


def _kernel_or_rank(field, expand, last: bool):
    """(ker, rank) of the row-vector map `expand`; ker is None at the
    last stage, whose rank comes from the column-reversed elimination
    `kernel` runs, without building the basis nothing reads."""
    if last:
        return None, field.rank(expand.T[:, ::-1])
    nxt = kernel(field, expand.T)
    return nxt, expand.shape[0] - nxt.dim


class MinimalResolution:
    """Truncated minimal free resolution of an R-module.

    betti[i] for 0 <= i <= horizon; diff[i] (1 <= i) the differential
    R^{b_i} -> R^{b_{i-1}} as an AlgebraMatrix (diff[i].expand() is its
    scalar matrix). Stage i reads only the syzygy space ker d_{i-1}
    (ker of the augmentation F_0 -> M at i = 1, all of M at i = 0), so
    construction carries one syzygy space at a time and keeps none;
    syzygy(i) recomputes ker d_i from its strand blocks. Every stage
    enforces minimality, d o d = 0 and exactness; the last checks its
    rank without building a kernel basis.

    Each stage runs one internal-degree strand at a time in the grading
    chosen for the whole resolution (see the module docstring), in which
    m is generated in degree m_degree (1 filtration, 0 trivial) and F_i's
    generators have degrees degrees[i]. strands[i], for every
    0 <= i <= horizon, is the strand layout of F_i: its coordinates by
    internal degree D (strands[i].index[D]) and its generators by degree
    a (strands[i].groups[a]). `strand_blocks` rebuilds the blocks of any
    d_i from these layouts, whole or cut to low filtration degrees; the
    Tor cells and the linear part read them too.
    max_expand_entries caps every strand block built (in the trivial
    grading, the whole expanded differential). Betti numbers of Artinian algebras
    grow exponentially, and the cap turns a would-be out-of-memory kill
    into a ResourceLimitError naming the stage (and the internal degree
    of a filtration strand block) and the shape.
    """

    def __init__(self, module: RModule, horizon: int,
                 max_expand_entries: int = 250_000_000):
        if horizon < 0:
            raise LindefError(f"horizon must be >= 0, got {horizon}")
        self.module = module
        self.algebra = module.algebra
        self.horizon = horizon
        self.max_expand_entries = max_expand_entries
        self.betti = []
        self.diff = [None]
        self.degrees = []
        self.m_degree = 0
        self._proved = {}  # i -> the entries of d_i that passed
        self._build()

    # -- construction --------------------------------------------------

    def _build(self):
        alg = self.algebra
        field, d = alg.field, alg.dim
        mod = self.module
        # stage 0 resolves M itself in the trivial grading, acted on by
        # the module's own generator actions
        top = _Strands(np.zeros(1, dtype=np.intp),
                       np.zeros(mod.dim, dtype=np.intp), 0)
        reps = minimal_generators(top.split(Subspace.full(field, mod.dim)), 1,
                                  mod.generator_actions)
        b = reps.shape[0]
        # the augmentation F_0 -> M sends generator g to reps[g]
        aug = block_expand(field, reps[:, None, :], mod.act.transpose(1, 0, 2))
        w, rank = _kernel_or_rank(field, aug, self.horizon == 0)
        if rank != mod.dim:
            raise AssertionError(
                "augmentation is not surjective: generators do not span M"
            )
        self.betti.append(b)
        self.degrees.append(np.zeros(b, dtype=np.intp))
        # the grading: filtration when the table is graded and w splits,
        # else (and at horizon 0, with no w) the trivial one
        edeg = None if w is None else _basis_degrees(alg)
        strands = None if edeg is None else _Strands(self.degrees[0], edeg, 1)
        split = None if strands is None else strands.split(w)
        if split is None:
            strands = _Strands(self.degrees[0], np.zeros(d, dtype=np.intp), 0)
        self.strands, self.m_degree = [strands], strands.s
        if w is None:
            return
        w = strands.split(w) if split is None else split
        ops = alg.table[strands.gr(1)] if strands.s else alg.generator_ops
        # prev maps each strand D of F_{i-1} to its block of d_{i-1}
        prev = {D: aug[idx] for D, idx in strands.index.items()}
        for i in range(1, self.horizon + 1):
            reps = minimal_generators(w, b, ops)
            dmat = AlgebraMatrix(alg, reps.reshape(len(reps), b, d))
            self.diff.append(dmat)
            self._check_minimal(i)
            gdeg = _row_degrees(reps, strands.cdeg)
            if gdeg is None:
                raise AssertionError(f"stage {i} has a generator row in two strands")
            # minimal, one strand per row: homogeneous, so never swept
            self._proved[i] = dmat.entries
            self.degrees.append(gdeg)
            del reps
            strands = _Strands(gdeg, strands.edeg, strands.s)
            self.strands.append(strands)
            prev, nxt, rank = self._stage(i, prev, i == self.horizon)
            if rank != w.dim:
                raise AssertionError(
                    f"resolution not exact at stage {i - 1}: image rank {rank}"
                    f" != syzygy dimension {w.dim}"
                )
            b = dmat.src_rank
            self.betti.append(b)
            w = nxt

    def _check_cap(self, i, rows, cols, degree=None):
        if rows * cols > self.max_expand_entries:
            where = "" if degree is None else f" in internal degree {degree}"
            what = "matrix" if degree is None else "block"
            raise ResourceLimitError(
                f"differential {i}{where} would expand to a {rows} x {cols} "
                f"{what}, over the cap of {self.max_expand_entries} entries"
            )

    def _stage(self, i, prev, last):
        """Stage i strand by strand: prev holds d_{i-1}'s block of each
        strand of F_{i-1}. Returns d_i's blocks, ker d_i by strand (None
        at the last stage) and the rank of d_i."""
        field = self.algebra.field
        stage, parts, rank = {}, {}, 0
        for D, block, _, _ in self.strand_blocks(i):
            pm = prev.get(D)
            if pm is not None and not field.is_zero(field.matmul(block, pm)):
                raise AssertionError(f"differential {i} does not compose to zero")
            part, r_D = _kernel_or_rank(field, block, last)
            rank += r_D
            if not last:
                parts[D], stage[D] = part, block
        if last:
            return stage, None, rank
        # a strand of F_i with no coordinates in F_{i-1} is all kernel
        new = self.strands[i]
        parts = {D: parts[D] if D in parts else Subspace.full(field, len(idx))
                 for D, idx in new.index.items()}
        return stage, StrandSpace(field, new, parts), rank

    def strand_blocks(self, i: int, rows: int | None = None,
                      cols: int | None = None):
        """Yield (D, block, row_index, col_index) for each internal-degree
        strand D of d_i whose block has both rows and columns, in
        increasing D.

        A generator of degree a meets one of degree a' through entries in
        gr(a - a') only, and a - a' >= m_degree by minimality, so a block
        is one `block_expand` of table[gr(a - a'), gr(D - a), gr(D - a')]
        per pair of generator degrees. No other coordinate of the entries
        is read, so d_i is checked first (`check_differential`).

        Rows and columns are the strands' layouts (`_Strands.layout`):
        the coordinates g*d + e of strand D of F_i and of F_{i-1}, listed
        in row_index and col_index, in increasing order. With bounds the
        rows keep the basis vectors of filtration degree < rows of each
        generator's block of R, and the columns those of degree < cols
        (the ranges :q_rows and :q_cols of the adapted basis). Each block
        is checked against max_expand_entries before it is allocated.
        """
        self.check_differential(i)
        field, table = self.algebra.field, self.algebra.table
        new, old = self.strands[i], self.strands[i - 1]
        q_r = None if rows is None else self.algebra.quotient_dim(rows)
        q_c = None if cols is None else self.algebra.quotient_dim(cols)
        s, gr = old.s, old.gr
        entries = self.diff[i].entries
        pairs = []
        for a, gens in new.groups.items():
            for a2, gens2 in old.groups.items():
                q = gr(a - a2)
                if a - a2 >= s and q.stop > q.start:
                    pairs.append((a, a2, q, entries[gens[:, None], gens2, q]))
        for D in sorted(new.index.keys() & old.index.keys()):
            row_index, rplace = new.layout(D, q_r)
            col_index, cplace = old.layout(D, q_c)
            if not (len(row_index) and len(col_index)):
                continue
            self._check_cap(i, len(row_index), len(col_index), D if s else None)
            block = field.zeros((len(row_index), len(col_index)))
            for a, a2, q, ent in pairs:
                if a in rplace and a2 in cplace:
                    (at_r, rr), (at_c, cr) = rplace[a], cplace[a2]
                    sub = block_expand(field, ent, table[q, rr, cr])
                    if sub.shape == block.shape:
                        # one pair of degrees fills the block, in order
                        block = sub
                    else:
                        block[np.ix_(at_r, at_c)] = sub
            yield D, block, row_index, col_index

    def _check_index(self, i: int):
        if not 1 <= i <= self.horizon:
            raise LindefError(f"differential {i} outside 1..{self.horizon}")

    def _check_minimal(self, i: int):
        if not self.diff[i].is_minimal():
            raise AssertionError(f"differential {i} has an entry outside the "
                                 "maximal ideal: resolution not minimal")

    def check_differential(self, i: int):
        """Raise AssertionError unless d_i is minimal and homogeneous:
        every nonzero entry from a generator g to g' lies in
        gr(deg g - deg g'). `strand_blocks` (so the Tor ladder, `upsilon`
        and `syzygy`), the linear part and the m^2 preimage condition
        call it first: no other coordinate shows in their blocks.

        The read-only entries array that passed is kept, and while diff[i]
        holds it this returns at once. Construction proves each d_i it
        builds, so only a d_i replaced since is swept. Explicit raises,
        so it checks under python -O too."""
        self._check_index(i)
        dmat = self.diff[i]
        if self._proved.get(i) is dmat.entries:
            return
        self._check_minimal(i)
        edeg = self.strands[i].edeg
        want = self.degrees[i][:, None] - self.degrees[i - 1]
        off = np.asarray(dmat.entries != 0) & (edeg != want[:, :, None])
        if off.any():
            g, g2, e = np.argwhere(off)[0].tolist()
            raise AssertionError(
                f"differential {i} is not homogeneous: entry ({g}, {g2}) has a "
                f"coordinate of degree {edeg[e]}, not {want[g, g2]}"
            )
        self._proved[i] = dmat.entries

    # -- accessors -----------------------------------------------------

    def syzygy(self, index: int) -> RModule:
        """Syzygy module ker d_index (index 0 returns M itself), from the
        kernels of d_index's strand blocks (`_stage`) scattered by pivot,
        which is the canonical kernel of the whole expanded d_index."""
        if index == 0:
            return self.module
        if index > self.horizon:
            raise LindefError(
                f"syzygy index {index} exceeds computed horizon {self.horizon}"
            )
        field, d, b = self.algebra.field, self.algebra.dim, self.betti[index]
        _, ker, _ = self._stage(index, {}, False)
        parts = [(ker.strands.index[D], p.basis, p.pivots)
                 for D, p in ker.parts.items()]
        w = Subspace(field, b * d, *scatter_by_pivot(field, b * d, parts))
        # row j*z + r of the products is w.basis[r] * e_j
        images = block_apply(field, w.basis, b, self.algebra.table)
        act = w.coords(images).reshape(d, w.dim, w.dim)
        return RModule(self.algebra, w.dim, act, validate=False)


def resolve(module: RModule, horizon: int, **kw) -> MinimalResolution:
    """Minimal free resolution of the module up to the horizon."""
    return MinimalResolution(module, horizon, **kw)
