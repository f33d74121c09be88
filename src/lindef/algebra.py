"""Finite-dimensional commutative local algebras over a field.

An algebra is given by a structure-constant table on a distinguished
basis, a unit vector, and designated generators of the maximal ideal.
Construction checks the ring laws in this order: commutativity on the
basis, the unit, and associativity on the n generators of the maximal
ideal, as R acting on itself (act = table); then it computes the power
filtration R = F_0 ⊇ F_1 ⊇ ... ⊇ F_t = 0 of the maximal ideal and
checks locality (codimension-one nilpotent maximal ideal).

Why the n generator slabs suffice. Slab g checks x (g c) = (x g) c for
every x and basis element c, with g in the middle. The middle nucleus
N = {b : x (b c) = (x b) c for all x, c} is a subspace closed under
products, by the Teichmüller identity
a(b,c,d) + (a,b,c)d = (ab,c,d) - (a,bc,d) + (a,b,cd)
(Schafer, An Introduction to Nonassociative Algebras, 1966, ch. II),
and it holds the unit once the unit acts as the identity. The
filtration and locality checks show R = k 1 + F_1 with
F_n = span(x_v F_{n-1}) and F_t = 0, so R is spanned by nested
products of the generators x_v and N = R. For a module M over an
associative R, {b : x (b c) = (x b) c for all x in M, c} is a
subalgebra for the same reason, so `RModule` checks the generator
slabs only. `_check_action` is the one check of an action, for R and
for every validated module: n slabs of d * m^2 entries for a dim-m
module over a dim-d ring. Over GF(p) its products run unreduced on
float64 residues, one BLAS call per slab and term, when
max(d, m) (p-1)^2 < 2^53 keeps every sum exact; larger primes fall
back to int64 `matmul_mod`. When a generator slab fails, or a later
check of the constructor fails after they passed, `_check_basis_slabs`
runs the d slabs of the basis on the input table first, so that a
table that is not associative is reported as such, at its first
failing triple.

Adapted basis. After construction every F_n is spanned by the last
dim F_n basis vectors (its rref pivots are range(d - dim F_n, d)), so
R/F_n is the leading block: q = d - dim F_n coordinates, e_j acting by
table[j, :q, :q]. Each graded piece F_q/F_{q+1} is a basis range and
each product of graded pieces a sub-block of the table; the complexes
derived from a resolution are the truncations listed in
`resolution.AlgebraMatrix.expand`. A non-adapted
input (a non-homogeneous presentation, an arbitrary JSON table) is
rebased once in `FiniteLocalAlgebra.__init__`, which raises AlgebraError
if the result is still not adapted; `format_element` prints in the
input basis and labels.

Row-vector convention throughout: elements are coordinate rows, and an
operator matrix acts on the right (x -> x @ op).
"""

from __future__ import annotations

import numpy as np

from .errors import AlgebraError
from .fields import Field
from .linalg import Subspace, block_apply

# entries of one part of a law-check slab: its products and the mask of
# their nonzero entries are a few arrays of this size, not d x m x m
LAW_CHUNK_ELEMS = 1 << 19

__all__ = [
    "FiniteLocalAlgebra",
    "GradedAlgebra",
    "RModule",
    "compute_filtration",
    "quotient_module",
]


def _action(field: Field, act, vs):
    """Operators sum_u v[u] act[u] of a stack of ring elements vs (k, d).

    act[u] is the operator of basis element e_u; with act = table,
    operator s is multiplication by vs[s] (row j holds the coordinates
    of vs[s] * e_j). Returns the (k, m, n) stack from one product.
    """
    d, m, n = act.shape
    return field.matmul(vs, act.reshape(d, m * n)).reshape(len(vs), m, n)


def _check_action(field: Field, table, act, unit, mgens):
    """Verify that act (d, m, m) is a unital action of the ring `table`.

    The unit acts as the identity, and x (g e_j) = (x g) e_j for every
    generator g of mgens, basis element e_j and module basis vector x,
    that is sum_u G_g[j, u] act[u] = A_g @ act[j], with G_g the
    multiplication operator of g and A_g its action. With the
    filtration and locality checks of the ring, this proves the law for
    every g in R (module docstring). The ring itself is the case
    act = table, where A_g = G_g.

    Both operator stacks and the action are converted once by
    `Field.exact_operands`. Slab g is
    D[j, x, l] = (G_g @ act)[j, x, l] - (A_g @ act[j])[x, l]: one
    product with the flattened actions and one stacked product, both in
    (j, x, l) layout, left unreduced, and the slab passes when every
    entry is zero in the field (`Field.nonzero`). It is checked a block
    of j at a time, about LAW_CHUNK_ELEMS entries each, so the check
    holds a few arrays of that size besides the operands, not of d m^2.
    Over GF(p) this runs on float64 residues, exact while
    max(d, m) (p-1)^2 < 2^53; above that bound on int64 through
    `matmul_mod`. A failing slab raises the error of
    `_check_basis_slabs`.
    """
    d, m, _ = act.shape
    unit_op = _action(field, act, unit[None])[0]
    if not field.is_zero(field.sub(unit_op, field.eye(m))):
        raise AlgebraError("designated unit does not act as identity")
    k = max(d, m)
    af = field.exact_operands(act, k)
    gen_ops = field.exact_operands(_action(field, table, mgens), k)
    gen_acts = gen_ops if act is table else field.exact_operands(
        _action(field, act, mgens), k)
    flat = af.reshape(d, m * m)
    step = max(1, LAW_CHUNK_ELEMS // (m * m))
    for op, gen_act in zip(gen_ops, gen_acts):
        for j in range(0, d, step):
            part = field.exact_matmul(op[j:j + step], flat).reshape(-1, m, m)
            part -= field.exact_matmul(gen_act, af[j:j + step])
            if field.nonzero(part).any():
                _check_basis_slabs(field, table, act)
                # unreachable: slab g is the sum of g[i] times basis slab i
                raise AlgebraError("action is not associative")


def _check_basis_slabs(field: Field, table, act):
    """Associativity on every basis element, one slab (fixed i) at a
    time: sum_u table[i, j, u] act[u] = act[i] @ act[j] for every j.

    Failure path only: it names the failing triple of a table or action
    that is already known, or suspected, to be wrong. Memory stays at
    d * m^2 entries, as in `_check_action`. Of several failures, the one
    reported has the smallest i, then module basis vector x, then j.
    """
    d, m, _ = act.shape
    af = field.exact_operands(act, max(d, m))
    tf = af if act is table else field.exact_operands(table, max(d, m))
    flat = af.reshape(d, m * m)
    for i in range(d):
        slab = field.exact_matmul(tf[i], flat).reshape(d, m, m)
        slab -= field.exact_matmul(af[i], af)
        bad = field.nonzero(slab)
        if bad.any():
            x, j = np.argwhere(bad.any(axis=2).T)[0]
            raise AlgebraError(
                f"action is not associative: x*(e{i}*e{j}) != (x*e{i})*e{j} "
                f"for module basis vector x = {x}"
            )


def compute_filtration(field: Field, table, mgens):
    """Powers of the ideal generated by mgens, as subspaces of R.

    Returns [F_0 = R, F_1, ..., F_t = 0] with strictly decreasing
    dimensions. F_1 is the span of all products generator * basis
    element (an ideal since R is unital); each later term multiplies
    the previous term's basis by the generators again, which spans the
    ideal product because F_n is closed under the R-action. Each term
    is one `block_apply` product and one elimination.
    """
    d = table.shape[0]
    gen_ops = _action(field, table, mgens)
    chain = [Subspace.full(field, d)]
    current = Subspace.from_rows(field, gen_ops.reshape(-1, d), d)
    chain.append(current)
    while current.dim > 0:
        nxt = Subspace.from_rows(
            field, block_apply(field, current.basis, 1, gen_ops), d
        )
        if nxt.dim >= current.dim:
            raise AlgebraError(
                "generated ideal is not nilpotent: dimension stalled at "
                f"{current.dim}; the table does not define a local ring "
                "with the designated maximal ideal"
            )
        chain.append(nxt)
        current = nxt
    return chain


def _is_adapted(filtration) -> bool:
    """Whether every F_n is spanned by the last dim F_n basis vectors."""
    d = filtration[0].ambient_dim
    return all(s.pivots == tuple(range(d - s.dim, d)) for s in filtration)


def _adapted_basis(filtration):
    """adapted_reps(F_q, F_{q+1}) stacked for q = 0..t-1: F_n is spanned
    by the last dim F_n rows."""
    return np.concatenate(
        [f.adapted_reps(sub)[0] for f, sub in zip(filtration, filtration[1:])]
    )


class FiniteLocalAlgebra:
    """Commutative local k-algebra of finite dimension.

    table[i, j] holds the coordinates of e_i * e_j. Construction checks
    commutativity and the unit on the basis and associativity on the n
    generator slabs of mgens, then computes the power filtration of the
    designated maximal ideal and enforces locality: the unit lies
    outside F_1 and dim F_1 = dim R - 1. Together these prove
    associativity on all of R (module docstring). If any check after
    the generator slabs fails, the d basis slabs of the input table run
    first, so a non-associative table is reported as one.
    A basis not adapted to the filtration is replaced by an adapted
    one; input_basis then holds the new basis vectors as rows in the
    input coordinates (None when the input basis was kept).
    """

    def __init__(self, field: Field, table, unit, mgens, labels=None,
                 presentation=None):
        self.field = field
        self.table = field.asarray(table)
        self.unit = field.asarray(unit)
        self.mgens = field.asarray(mgens)
        if self.table.ndim != 3 or len(set(self.table.shape)) != 1:
            raise AlgebraError(f"table must be cubic, got shape {self.table.shape}")
        d = self.table.shape[0]
        self.dim = d
        if self.unit.shape != (d,):
            raise AlgebraError("unit vector length does not match the table")
        if self.mgens.ndim != 2 or self.mgens.shape[1] != d or not len(self.mgens):
            raise AlgebraError("m_generators must be nonempty rows of length dim")
        self.labels = list(labels) if labels else [f"e{i}" for i in range(d)]
        if len(self.labels) != d:
            raise AlgebraError(f"expected {d} labels, got {len(self.labels)}")
        self.presentation = presentation
        input_table = self.table
        self._validate_laws()
        try:
            self.filtration = compute_filtration(field, self.table, self.mgens)
            self.nilpotency_index = len(self.filtration) - 1
            m = self.filtration[1]
            if m.contains_vector(self.unit):
                raise AlgebraError("unit lies in the designated maximal ideal")
            if m.dim != d - 1:
                raise AlgebraError(
                    f"maximal ideal has dimension {m.dim}, expected {d - 1}: "
                    "the quotient by it is not the base field"
                )
            self.input_basis = None
            if not _is_adapted(self.filtration):
                self._rebase()
        except AlgebraError:
            # the generator slabs prove associativity only together with
            # these checks; a failure among them may hide a bad product
            _check_basis_slabs(field, input_table, input_table)
            raise
        self._graded = None
        self._gen_ops = None

    def _rebase(self):
        """Move to the basis `_adapted_basis` reads off the filtration.

        table, unit and mgens are rewritten in the new coordinates
        (x_input = x_new @ input_basis), and the filtration recomputed.
        """
        field, d = self.field, self.dim
        basis = _adapted_basis(self.filtration)
        r, _ = field.rref(np.concatenate([basis, field.eye(d)], axis=1))
        inv = np.ascontiguousarray(r[:, d:])
        # row i*d + j is basis[j] * basis[i], in input coordinates
        prods = block_apply(field, basis, 1, _action(field, self.table, basis))
        self.table = field.matmul(prods, inv).reshape(d, d, d)
        self.unit = field.matmul(self.unit.reshape(1, d), inv)[0]
        self.mgens = field.matmul(self.mgens, inv)
        self.input_basis = basis
        self.filtration = compute_filtration(field, self.table, self.mgens)
        if not _is_adapted(self.filtration):
            raise AlgebraError("rebased basis is not adapted to the filtration")

    # -- laws ---------------------------------------------------------

    def _validate_laws(self):
        t = self.table
        asym = np.argwhere(np.any(np.asarray(t != t.transpose(1, 0, 2)), axis=2))
        if len(asym):
            i, j = asym[0]
            raise AlgebraError(f"table is not commutative at e{i}*e{j}")
        _check_action(self.field, t, t, self.unit, self.mgens)

    # -- arithmetic ---------------------------------------------------

    @property
    def generator_ops(self):
        """(n, d, d) stack of the multiplication operators of mgens."""
        if self._gen_ops is None:
            self._gen_ops = _action(self.field, self.table, self.mgens)
        return self._gen_ops

    def power(self, n: int) -> Subspace:
        """The subspace F_n (= R for n <= 0, = 0 for n >= index)."""
        if n <= 0:
            return self.filtration[0]
        if n >= self.nilpotency_index:
            return self.filtration[-1]
        return self.filtration[n]

    def quotient_dim(self, n: int) -> int:
        """dim R/F_n: R/F_n is spanned by that many leading basis vectors."""
        return self.dim - self.power(n).dim

    def format_element(self, v) -> str:
        """v in the input basis and labels."""
        if self.input_basis is not None:
            v = self.field.matmul(
                self.field.asarray(v).reshape(1, self.dim), self.input_basis
            )[0]
        parts = []
        for c, label in zip(v, self.labels):
            if c == self.field.scalar(0):
                continue
            cs = self.field.format_scalar(c)
            if cs == "1":
                parts.append(label)
            else:
                parts.append(f"{cs}*{label}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"FiniteLocalAlgebra(dim={self.dim}, index={self.nilpotency_index}, {self.field!r})"

    # -- derived structures -------------------------------------------

    def graded(self) -> "GradedAlgebra":
        if self._graded is None:
            self._graded = GradedAlgebra(self)
        return self._graded


class GradedAlgebra:
    """Associated graded algebra of the power filtration.

    Component q is F_q/F_{q+1}, the basis range offsets[q]..offsets[q+1]
    with offsets[q] = dim R/F_q (the basis is adapted), and the product
    gr_a x gr_b -> gr_{a+b} is the table's sub-block on those ranges.
    degrees[e] is the filtration degree of basis vector e, the q whose
    range holds e. Always standard graded: F_q is spanned by q-fold
    products, so component 1 generates.
    """

    def __init__(self, algebra: FiniteLocalAlgebra):
        self.algebra = algebra
        self.field = algebra.field
        t = algebra.nilpotency_index
        self.offsets = [algebra.quotient_dim(q) for q in range(t + 1)]
        self.dims = [b - a for a, b in zip(self.offsets, self.offsets[1:])]
        self.degrees = np.repeat(np.arange(t), self.dims)
        self.degrees.flags.writeable = False  # shared by every reader

    def component_range(self, q: int) -> slice:
        """Basis range of component q (empty outside 0..t-1)."""
        if 0 <= q < len(self.dims):
            return slice(self.offsets[q], self.offsets[q + 1])
        return slice(0, 0)

    def component_dim(self, q: int) -> int:
        r = self.component_range(q)
        return r.stop - r.start

    def component_product(self, a: int, b: int):
        """Tensor (dims[a], dims[b], dims[a+b]) of the graded product,
        a view of the table."""
        r = self.component_range
        return self.algebra.table[r(a), r(b), r(a + b)]


class RModule:
    """Finitely generated module over a FiniteLocalAlgebra.

    Elements are coordinate rows of length `dim`; act[j] is the matrix
    of the action of basis element e_j (x -> x @ act[j]).
    """

    def __init__(self, algebra: FiniteLocalAlgebra, dim: int, act,
                 validate: bool = True):
        self.algebra = algebra
        self.field = algebra.field
        self.dim = dim
        self.act = algebra.field.asarray(act)
        if self.act.shape != (algebra.dim, dim, dim):
            raise AlgebraError(
                f"action tensor has shape {self.act.shape}, expected "
                f"{(algebra.dim, dim, dim)}"
            )
        if validate and dim:
            self._validate()

    def _validate(self):
        algebra = self.algebra
        _check_action(self.field, algebra.table, self.act, algebra.unit,
                      algebra.mgens)

    def __repr__(self):
        return f"RModule(dim={self.dim})"


def quotient_module(algebra: FiniteLocalAlgebra, n: int) -> RModule:
    """R/F_n as an R-module: the leading q x q block of the table,
    q = dim R/F_n (zero module for n <= 0, R for n >= index)."""
    q = algebra.quotient_dim(n)
    act = np.ascontiguousarray(algebra.table[:, :q, :q])
    return RModule(algebra, q, act, validate=False)
