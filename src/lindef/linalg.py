"""Canonical exact linear algebra: subspaces, kernels, images, quotients.

Every Subspace keeps its basis in reduced row echelon form, so equal
subspaces compare equal array-wise and everything built from them is
deterministic. Three facts about RREF bases are used throughout:

* if W ⊆ V then pivots(W) ⊆ pivots(V), and the rows of V's basis whose
  pivots are not pivots of W represent a basis of V/W;
* those representative rows are already reduced against W's basis, and
  the V/W-coordinates of a vector reduced against W can be read off at
  the representative pivot columns;
* column j of a is free when read from the right (a_j lies in the span
  of a_{j+1}, ..., a_{n-1}) exactly when ker(a) has a vector whose first
  nonzero entry is at j. So the free-column kernel basis of a with its
  columns reversed, read backwards, is already the RREF basis of ker(a):
  each row leads with a 1 at such a column and is zero at the others.
  `kernel` gets the canonical kernel from one elimination this way.

Block layout. A direct sum of b copies of a module with a basis of
length J (R itself, R/m^n, a graded piece of gr(R)) is stored as row
vectors of length b*J: coordinate j of copy c is entry c*J + j. A ring
element acts on one block by an operator matrix on the right
(x -> x @ op). `block_apply` maps a stack of z such rows blockwise by
a stack of operators in one product, operator-major (row s*z + r is
row r under ops[s]), so a span of products such as mW is one product
and one elimination. A matrix of
ring elements entries[g, g', e] (coordinates e in some basis, ops[e]
the operator of that basis element) is the scalar matrix
sum_e entries[:, :, e] (x) ops[e] on these rows. A differential is
stored as its nonzero entries (`resolution.AlgebraMatrix`), so that
matrix is built by `expand_tiles`: one product of the coefficients of
the nonzero (g, g') tiles, placed in a zero matrix. Its callers are the
strand blocks of `resolution.MinimalResolution.strand_blocks`, one call
per pair of generator degrees (one per stage in the trivial grading),
the linear part's blocks, one per linear strand (both through
`MinimalResolution.place_tiles`), and `resolution.AlgebraMatrix.expand`,
which lists the table truncations behind them.

A direct sum of subspaces on disjoint sets of coordinates is handled
part by part: the RREF basis of the sum is the union of the parts' RREF
bases, sorted by pivot (`scatter_by_pivot`; `direct_sum_cell` builds
and joins the parts' homology cells), so the strands of the
resolution, the Tor cells and the linear part give the bytes one
elimination of the whole space gives.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import LindefError
from .fields import Field


class Subspace:
    """A linear subspace of k^n with a canonical (RREF) basis."""

    __slots__ = ("field", "ambient_dim", "basis", "pivots")

    def __init__(self, field: Field, ambient_dim: int, basis, pivots):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = tuple(pivots)

    @classmethod
    def from_rows(cls, field: Field, rows, ambient_dim: int | None = None):
        # over GF(p) rref's working copy is the only copy of `rows`
        rows = np.asarray(rows) if field.p else field.asarray(rows)
        if rows.ndim != 2:
            raise LindefError("expected a 2-d array of row vectors")
        if ambient_dim is None:
            ambient_dim = rows.shape[1]
        elif ambient_dim != rows.shape[1]:
            raise LindefError("row length does not match ambient dimension")
        r, piv = field.rref(rows)
        return cls(field, ambient_dim, np.ascontiguousarray(r[: len(piv)]), piv)

    @classmethod
    def zero(cls, field: Field, ambient_dim: int):
        return cls(field, ambient_dim, field.zeros((0, ambient_dim)), ())

    @classmethod
    def full(cls, field: Field, ambient_dim: int):
        return cls(field, ambient_dim, field.eye(ambient_dim), range(ambient_dim))

    # ------------------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def is_zero(self) -> bool:
        return not self.pivots

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.pivots == other.pivots
            and self.field == other.field
            and self.field.is_zero(self.field.sub(self.basis, other.basis))
        )

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"

    # ------------------------------------------------------------------

    def reduce(self, rows):
        """Residues of row vectors after reduction against the basis.

        The residue is zero exactly for vectors in the subspace, and the
        map rows -> residues is linear with kernel the subspace.
        """
        if self.dim == 0:
            return rows
        coef = np.ascontiguousarray(rows[:, list(self.pivots)])
        return self.field.sub(rows, self.field.matmul(coef, self.basis))

    def contains_rows(self, rows) -> bool:
        if rows.shape[0] == 0:
            return True
        return self.field.is_zero(self.reduce(rows))

    def contains_vector(self, v) -> bool:
        return self.contains_rows(v.reshape(1, -1))

    def contains(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise LindefError("ambient dimensions differ")
        return self.contains_rows(other.basis)

    def coords(self, rows):
        """Coordinates of row vectors with respect to the basis."""
        coef = np.ascontiguousarray(rows[:, list(self.pivots)]) if self.dim else (
            self.field.zeros((rows.shape[0], 0))
        )
        if rows.shape[0]:
            recon = self.field.matmul(coef, self.basis) if self.dim else (
                self.field.zeros(rows.shape)
            )
            if not self.field.is_zero(self.field.sub(rows, recon)):
                raise LindefError("vector not in subspace")
        return coef

    # ------------------------------------------------------------------

    def sum(self, other: "Subspace") -> "Subspace":
        self._same_ambient(other)
        stacked = np.concatenate([self.basis, other.basis], axis=0)
        return Subspace.from_rows(self.field, stacked, self.ambient_dim)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: row-reduce [[A A],[B 0]]; rows supported entirely
        on the right half span the intersection."""
        self._same_ambient(other)
        n = self.ambient_dim
        f = self.field
        stacked = f.zeros((self.dim + other.dim, 2 * n))
        stacked[: self.dim, :n] = self.basis
        stacked[: self.dim, n:] = self.basis
        stacked[self.dim :, :n] = other.basis
        r, piv = f.rref(stacked)
        keep = [i for i, c in enumerate(piv) if c >= n]
        return Subspace.from_rows(f, r[keep][:, n:], n)

    def adapted_reps(self, sub: "Subspace"):
        """Rows of this basis representing a basis of self/sub.

        Returns (reps, cols): reps are the basis rows whose pivots are not
        pivots of sub; cols are those pivot columns, where quotient
        coordinates of reduced vectors can be read off directly. A whole
        space contains every sub; a smaller one is checked.
        """
        self._same_ambient(sub)
        sub_piv = set(sub.pivots)
        if self.dim < self.ambient_dim and not (
                sub_piv <= set(self.pivots) and self.contains(sub)):
            raise LindefError("adapted_reps requires sub ⊆ self")
        keep = [i for i, c in enumerate(self.pivots) if c not in sub_piv]
        cols = [self.pivots[i] for i in keep]
        return np.ascontiguousarray(self.basis[keep]), cols

    def _same_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim or self.field != other.field:
            raise LindefError("subspaces live in different ambient spaces")


class QuotientCoords:
    """Coordinates on sup/sub for a nested pair of subspaces."""

    __slots__ = ("field", "sub", "reps", "cols")

    def __init__(self, field: Field, sup: Subspace, sub: Subspace):
        self.field = field
        self.sub = sub
        self.reps, self.cols = sup.adapted_reps(sub)

    @property
    def dim(self) -> int:
        return len(self.cols)

    def coords(self, rows):
        """Quotient coordinates of row vectors lying in sup."""
        reduced = self.sub.reduce(rows)
        if self.dim == 0:
            if not self.field.is_zero(reduced):
                raise LindefError("vector not in the subspace pair")
            return self.field.zeros((rows.shape[0], 0))
        out = np.ascontiguousarray(reduced[:, self.cols])
        recon = self.field.matmul(out, self.reps)
        if not self.field.is_zero(self.field.sub(reduced, recon)):
            raise LindefError("vector not in the subspace pair")
        return out


# ----------------------------------------------------------------------


def kernel_structured(field: Field, a):
    """Kernel basis with identity at the free columns.

    Returns (basis, free_cols). Row t has a 1 at free_cols[t], zeros at
    the other free columns, so coordinates of any kernel vector v in this
    basis are just v[free_cols]. Not RREF itself: `kernel` runs it on the
    column-reversed matrix and reads the result backwards, which is.
    Over GF(p) the only copy of `a` made is the one `rref` reduces.
    """
    a = np.asarray(a) if field.p else field.asarray(a)
    m, n = a.shape
    r, piv = field.rref(a)
    piv_set = set(piv)
    free = [j for j in range(n) if j not in piv_set]
    basis = field.zeros((len(free), n))
    basis[np.arange(len(free)), free] = field.scalar(1)
    if piv:
        block = np.ascontiguousarray(r[: len(piv)][:, free])
        basis[:, list(piv)] = field.neg(block).T
    return basis, free


def kernel(field: Field, a) -> Subspace:
    """Canonical kernel of the linear map x -> a @ x (right null space).

    One elimination, of `a` with its columns reversed; see the third
    fact in the module docstring. `a` may be a view such as `x.T`: the
    reversal is a view too, so rref's working copy is the only one.
    """
    a = np.asarray(a)
    n = a.shape[1]
    basis, free = kernel_structured(field, a[:, ::-1])
    pivots = [n - 1 - f for f in reversed(free)]
    return Subspace(field, n, np.ascontiguousarray(basis[::-1, ::-1]), pivots)


def row_space(field: Field, a) -> Subspace:
    return Subspace.from_rows(field, a)


def image(field: Field, a) -> Subspace:
    """Canonical column space of a, as row vectors of length a.shape[0]."""
    a = np.asarray(a)
    return Subspace.from_rows(field, a.T, a.shape[0])


class HomologyCell(NamedTuple):
    """Cycles Z and boundaries B ⊆ Z at one spot of a complex."""

    cycles: Subspace
    boundaries: Subspace

    @property
    def dim(self) -> int:
        return self.cycles.dim - self.boundaries.dim


def homology_cell(field: Field, n: int, outgoing, incoming, where: str) -> HomologyCell:
    """Cycles and boundaries at one spot k^n of a complex of row vectors.

    outgoing is the matrix of the map leaving the spot, incoming that of
    the map into it; None is no map. Raises AssertionError, named by
    `where`, when the boundaries are not cycles. No map leaving (or one
    with no columns) has every vector as a cycle and none entering (or
    one with no rows) no boundaries, so neither is eliminated.
    """
    if outgoing is None or outgoing.shape[1] == 0:
        cycles = Subspace.full(field, n)
    else:
        cycles = kernel(field, outgoing.T)
    if incoming is None or incoming.shape[0] == 0:
        return HomologyCell(cycles, Subspace.zero(field, n))
    boundaries = row_space(field, incoming)
    if cycles.dim < n and not cycles.contains(boundaries):
        raise AssertionError(f"boundaries escape cycles at {where}")
    return HomologyCell(cycles, boundaries)


def scatter_by_pivot(field: Field, ambient: int, parts):
    """Rows held on disjoint coordinate sets, as rows of k^ambient in
    increasing order of their pivots.

    parts lists (index, rows, pivots): rows has len(index) columns,
    index (increasing) names their coordinates in k^ambient, and pivots
    are the rows' leading columns in those local coordinates. Returns
    (out, pivots), the global pivots as a list. When every part is an
    RREF basis, out is the RREF basis of their direct sum: each row is
    zero outside its part, so the pivot columns of one part are zero in
    the rows of every other. One part on all of k^ambient (an ungraded
    resolution's one strand) is returned as it is.
    """
    if len(parts) == 1 and len(parts[0][0]) == ambient:
        return parts[0][1], list(parts[0][2])
    n = sum(len(rows) for _, rows, _ in parts)
    out = field.zeros((n, ambient))
    if n == 0:
        return out, []
    pivots = np.concatenate([
        np.asarray(index, dtype=np.intp)[list(piv)] for index, _, piv in parts
    ])
    order = np.argsort(pivots)
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    start = 0
    for index, rows, _ in parts:
        if len(rows):
            out[np.ix_(rank[start:start + len(rows)], index)] = rows
            start += len(rows)
    return out, pivots[order].tolist()


def direct_sum_cell(field: Field, ambient: int, parts) -> HomologyCell:
    """The homology cell of a direct sum of complexes on disjoint
    coordinate sets: parts yields (index, outgoing, incoming, where),
    index as for `scatter_by_pivot`, which joins the parts' cells
    `homology_cell(field, len(index), outgoing, incoming, where)`. Each
    part's cell is taken before the next part is asked for, so a
    generator can build one part's maps at a time."""
    cells = [(index, homology_cell(field, len(index), out, inc, where))
             for index, out, inc, where in parts]
    spaces = []
    for k in range(2):
        pieces = [(index, cell[k].basis, cell[k].pivots) for index, cell in cells]
        spaces.append(Subspace(field, ambient, *scatter_by_pivot(field, ambient, pieces)))
    return HomologyCell(*spaces)


def block_apply(field: Field, rows, blocks: int, ops):
    """Images of rows under each operator of a stack, in one product.

    rows has shape (z, blocks * a) and ops shape (e, a, b); each
    operator acts on every block. The result has shape
    (e * z, blocks * b), operator-major: row s * z + r is rows[r] under
    ops[s].
    """
    z = rows.shape[0]
    e, a, b = ops.shape
    if 0 in (z, blocks, e):
        return field.zeros((e * z, blocks * b))
    out = field.matmul(
        np.ascontiguousarray(rows).reshape(z * blocks, a),
        np.ascontiguousarray(ops.transpose(1, 0, 2)).reshape(a, e * b),
    )
    out = out.reshape(z, blocks, e, b).transpose(2, 0, 1, 3)
    return np.ascontiguousarray(out).reshape(e * z, blocks * b)


def expand_tiles(field: Field, out, coef, ops, rows, cols):
    """Write the tiles of a sparse module map into the scalar matrix out.

    Tile t is the J x F matrix sum_e coef[t, e] ops[e] of one nonzero
    ring entry, with coef (T, e) and ops (e, J, F); it lands at the rows
    rows[t] (length J) and the columns cols[t] (length F) of out, which
    keeps its other entries. All T tiles are one product. Tiles must not
    overlap: each is one pair of generators.
    """
    t = len(coef)
    e, J, F = ops.shape
    if 0 in (t, e, J, F):
        return
    tiles = field.matmul(coef, ops.reshape(e, J * F)).reshape(t, J, F)
    out[rows[:, :, None], cols[:, None, :]] = tiles


def induced_map_on_quotients(field: Field, apply_rows, src, dst):
    """Matrix of the map src_Z/src_B -> dst_Z/dst_B induced by a linear map.

    apply_rows takes a stack of row vectors and returns their images as
    rows (block-structured maps are never materialized). src and dst
    are HomologyCells, (Z, B) pairs with B ⊆ Z. Returns (matrix, rank)
    with matrix columns indexed by source quotient coordinates. Raises
    LindefError when the map fails to send src_Z into dst_Z or src_B
    into dst_B: callers are expected to pass filtered maps.
    """
    z_src, b_src = src
    z_dst, b_dst = dst
    q_src = QuotientCoords(field, z_src, b_src)
    q_dst = QuotientCoords(field, z_dst, b_dst)
    if z_src.dim and not z_dst.contains_rows(apply_rows(z_src.basis)):
        raise LindefError("map does not send source cycles into target cycles")
    if b_src.dim and not b_dst.contains_rows(apply_rows(b_src.basis)):
        raise LindefError("map does not send source boundaries into target")
    if q_src.dim == 0 or q_dst.dim == 0:
        return field.zeros((q_dst.dim, q_src.dim)), 0
    images = apply_rows(q_src.reps)
    mat = q_dst.coords(images).T.copy()
    return mat, field.rank(mat)
