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
"""

from __future__ import annotations

from .algebra import FiniteLocalAlgebra, RModule
from .errors import LindefError, ResourceLimitError
# kernel_structured stays bound here: perfbench/tracer.py rebinds it at
# every lindef import site, and `kernel` runs it for each stage.
from .linalg import (  # noqa: F401
    Subspace,
    block_apply,
    block_expand,
    kernel,
    kernel_structured,
)

__all__ = ["AlgebraMatrix", "MinimalResolution", "resolve", "minimal_generators"]


class AlgebraMatrix:
    """Matrix of ring elements, a map of free modules R^src -> R^dst.

    entries has shape (src, dst, dim R): entries[c, c'] is the
    coordinate vector of the coefficient on target generator c' in the
    image of source generator c.
    """

    __slots__ = ("algebra", "entries")

    def __init__(self, algebra: FiniteLocalAlgebra, entries):
        self.algebra = algebra
        self.entries = algebra.field.asarray(entries)
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
            the Tor ladder's ranks, all n       rows :q_{t-2}  cols :q_{t-1}
            F_i -> F_{i-1}/m^2 F_{i-1}          rows all       cols :q_2
            lin(F)_i in internal degree j       rows gr(j-i)   cols gr(j-i+1)

        (t the nilpotency index). A row of degree a meets only columns
        of degree >= a + 1, so the second truncation holds every
        r(n, i) = rank(d_i (x) R/m^n): with its columns in degree order,
        r(n, i) is the rank of the first b_{i-1} q_n of them
        (`tor_ladder._rank_profile`).

        lin(F) keeps only the entries' gr_1 coordinates, yet the last
        row sums over every e. That is the same matrix: coordinate 0 of
        every entry is zero since d_i is minimal (which the resolution
        checks), and an e in F_2 maps F_q into F_{q+2}, whose
        coordinates in the gr(q+1) range are zero.
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


def minimal_generators(space: Subspace, blocks: int, ops):
    """Adapted representatives of a basis of W/mW for W = space.

    W lies in a module of `blocks` blocks, and ops (n, a, a) stacks the
    operators of the generators of m on one block. W must be closed
    under the R-action (callers pass kernels of R-linear maps, which
    are). mW is spanned by the products of W's basis with every
    generator: one `block_apply` product and one elimination.
    Representatives are the rref basis rows of W whose pivots survive
    in W/mW; they generate W over R by Nakayama.
    """
    field = space.field
    if space.dim == 0:
        return field.zeros((0, space.ambient_dim))
    rows = block_apply(field, space.basis, blocks, ops)
    mw = Subspace.from_rows(field, rows, space.ambient_dim)
    return space.adapted_reps(mw)[0]


class MinimalResolution:
    """Truncated minimal free resolution of an R-module.

    betti[i] for 0 <= i <= horizon; diff[i] (1 <= i) the differential
    R^{b_i} -> R^{b_{i-1}} as an AlgebraMatrix (diff[i].expand() is its
    scalar matrix). Stage i reads only the syzygy space ker d_{i-1}
    (ker of the augmentation F_0 -> M at i = 1, all of M at i = 0), so
    construction carries one syzygy space at a time and keeps none;
    syzygy(i) recomputes ker d_i from diff[i]. Every stage enforces
    minimality, d o d = 0 and exactness; the last checks its rank from
    one elimination without building a kernel basis.

    max_expand_entries caps the size of any single expanded
    differential; Betti numbers of Artinian algebras grow
    exponentially, and the cap turns a would-be out-of-memory kill
    into a ResourceLimitError naming the stage.
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
        self._build()

    # -- construction --------------------------------------------------

    def _build(self):
        field = self.algebra.field
        d = self.algebra.dim
        mod = self.module
        # stage 0 resolves M itself: the whole of M, one block, acted on
        # by the module's own generator actions
        w = Subspace.full(field, mod.dim)
        blocks, ops = 1, mod.generator_actions
        for i in range(self.horizon + 1):
            reps = minimal_generators(w, blocks, ops)
            b_i = reps.shape[0]
            if i == 0:
                # the augmentation F_0 -> M sends generator g to reps[g]
                expand = block_expand(
                    field, reps[:, None, :], mod.act.transpose(1, 0, 2)
                )
            else:
                if b_i * d * blocks * d > self.max_expand_entries:
                    raise ResourceLimitError(
                        f"differential {i} would expand to a {b_i * d} x "
                        f"{blocks * d} matrix, over the cap of "
                        f"{self.max_expand_entries} entries"
                    )
                dmat = AlgebraMatrix(self.algebra, reps.reshape(b_i, blocks, d))
                if not dmat.is_minimal():
                    raise AssertionError(
                        f"differential {i} has an entry outside the maximal ideal"
                    )
                expand = dmat.expand()
                if not field.is_zero(field.matmul(expand, prev_expand)):
                    raise AssertionError(
                        f"differential {i} does not compose to zero"
                    )
                self.diff.append(dmat)
            nxt = None
            if i < self.horizon:
                nxt = kernel(field, expand.T)
                rank = b_i * d - nxt.dim
            else:
                # rank only: the column-reversed elimination `kernel`
                # runs, without building the basis nothing reads
                rank = field.rank(expand.T[:, ::-1])
            if rank != w.dim:
                if i == 0:
                    raise AssertionError(
                        "augmentation is not surjective: generators do not span M"
                    )
                raise AssertionError(
                    f"resolution not exact at stage {i - 1}: image rank {rank}"
                    f" != syzygy dimension {w.dim}"
                )
            self.betti.append(b_i)
            w, blocks, ops = nxt, b_i, self.algebra.generator_ops
            prev_expand = expand

    # -- accessors -----------------------------------------------------

    def syzygy(self, index: int) -> RModule:
        """Syzygy module ker d_index (index 0 returns M itself)."""
        if index == 0:
            return self.module
        if index > self.horizon:
            raise LindefError(
                f"syzygy index {index} exceeds computed horizon {self.horizon}"
            )
        field = self.algebra.field
        d = self.algebra.dim
        w = kernel(field, self.diff[index].expand().T)
        # row j*z + r of the products is w.basis[r] * e_j
        images = block_apply(field, w.basis, self.betti[index], self.algebra.table)
        act = w.coords(images).reshape(d, w.dim, w.dim)
        return RModule(self.algebra, w.dim, act, validate=False)


def resolve(module: RModule, horizon: int, **kw) -> MinimalResolution:
    """Minimal free resolution of the module up to the horizon."""
    return MinimalResolution(module, horizon, **kw)
