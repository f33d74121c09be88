"""Finite-dimensional commutative local algebras over a field.

An algebra is given by a structure-constant table on a distinguished
basis, a unit vector, and designated generators of the maximal ideal.
Construction checks the ring laws exhaustively on the basis:
commutativity, then the unit and associativity laws of R as its own
regular module (act = table). `_check_action` is the one check of an
action, for R and for every validated module; it holds d * m^2 entries
per slab for a dim-m module over a dim-d ring (d^3 for R itself). Over
GF(p) its products run unreduced on float64 residues, one BLAS call per
slab and term, when max(d, m) (p-1)^2 < 2^53 keeps every sum exact;
larger primes fall back to int64 `matmul_mod`.
Construction then computes the power filtration
R = F_0 ⊇ F_1 ⊇ ... ⊇ F_t = 0 of the maximal ideal, and checks
locality (codimension-one nilpotent maximal ideal). The associated
graded algebra and the quotient modules R/F_n are derived here too.

Row-vector convention throughout: elements are coordinate rows, and an
operator matrix acts on the right (x -> x @ op).
"""

from __future__ import annotations

import numpy as np

from .errors import AlgebraError
from .fields import Field
from .linalg import QuotientCoords, Subspace

__all__ = [
    "FiniteLocalAlgebra",
    "GradedAlgebra",
    "RModule",
    "compute_filtration",
    "quotient_module",
]


def _action(field: Field, act, v):
    """Operator sum_u v[u] act[u] of the ring element v on a module.

    act[u] is the operator of basis element e_u; with act = table this
    is multiplication by v (row j holds the coordinates of v * e_j).
    """
    d, m, n = act.shape
    return field.matmul(
        field.asarray(v).reshape(1, d), act.reshape(d, m * n)
    ).reshape(m, n)


def _check_action(field: Field, table, act, unit):
    """Verify that act (d, m, m) is a unital action of the ring `table`.

    Exhaustive on the basis: the unit acts as the identity, and
    x (e_i e_j) = (x e_i) e_j for every i, j and module basis vector x,
    that is sum_u table[i, j, u] act[u] = act[i] @ act[j]. The second
    law is checked one slab (fixed i, all j) at a time, so memory stays
    at d * m^2 entries. The ring itself is the case act = table.

    Both operands are converted once by `Field.exact_operands`. Slab i is
    D[j, x, l] = (table[i] @ act)[j, x, l] - (act[i] @ act[j])[x, l]: one
    product with the flattened actions and one stacked product, both in
    (j, x, l) layout, left unreduced, and the slab passes when every
    entry is zero in the field (`Field.nonzero`). Over GF(p) this runs on
    float64 residues, exact while max(d, m) (p-1)^2 < 2^53; above that
    bound on int64 through `matmul_mod`. Of several failures, the one
    reported has the smallest i, then x, then j.
    """
    d, m, _ = act.shape
    if not field.is_zero(field.sub(_action(field, act, unit), field.eye(m))):
        raise AlgebraError("designated unit does not act as identity")
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
    ideal product because F_n is closed under the R-action.
    """
    d = table.shape[0]
    gen_ops = [_action(field, table, g) for g in mgens]
    chain = [Subspace.full(field, d)]
    current = Subspace.from_rows(field, np.vstack([op for op in gen_ops]), d)
    chain.append(current)
    while current.dim > 0:
        rows = np.vstack([field.matmul(current.basis, op) for op in gen_ops])
        nxt = Subspace.from_rows(field, rows, d)
        if nxt.dim >= current.dim:
            raise AlgebraError(
                "generated ideal is not nilpotent: dimension stalled at "
                f"{current.dim}; the table does not define a local ring "
                "with the designated maximal ideal"
            )
        chain.append(nxt)
        current = nxt
    return chain


class FiniteLocalAlgebra:
    """Commutative local k-algebra of finite dimension.

    table[i, j] holds the coordinates of e_i * e_j. All ring laws are
    verified exhaustively on the basis at construction, then the power
    filtration of the designated maximal ideal is computed and locality
    is enforced: the unit lies outside F_1 and dim F_1 = dim R - 1.
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
        self._validate_laws()
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
        self._graded = None
        self._quotients = {}
        self._gen_ops = None

    # -- laws ---------------------------------------------------------

    def _validate_laws(self):
        t = self.table
        asym = np.argwhere(np.any(np.asarray(t != t.transpose(1, 0, 2)), axis=2))
        if len(asym):
            i, j = asym[0]
            raise AlgebraError(f"table is not commutative at e{i}*e{j}")
        _check_action(self.field, t, t, self.unit)

    # -- arithmetic ---------------------------------------------------

    def mult_op(self, v):
        return _action(self.field, self.table, v)

    def mult(self, u, v):
        return self.field.matmul(
            self.field.asarray(v).reshape(1, self.dim), self.mult_op(u)
        )[0]

    @property
    def generator_ops(self):
        if self._gen_ops is None:
            self._gen_ops = [self.mult_op(g) for g in self.mgens]
        return self._gen_ops

    def power(self, n: int) -> Subspace:
        """The subspace F_n (= R for n <= 0, = 0 for n >= index)."""
        if n <= 0:
            return self.filtration[0]
        if n >= self.nilpotency_index:
            return self.filtration[-1]
        return self.filtration[n]

    def format_element(self, v) -> str:
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

    def quotient_module(self, n: int) -> "RModule":
        if n not in self._quotients:
            self._quotients[n] = quotient_module(self, n)
        return self._quotients[n]

    def residue_field(self) -> "RModule":
        return self.quotient_module(1)


class GradedAlgebra:
    """Associated graded algebra of the power filtration.

    Component q is F_q/F_{q+1} with the deterministic adapted basis
    from rref pivots; products are stored as contraction tensors
    T[i, j] = coordinates of (rep_a[i] * rep_b[j]) in component a+b.
    Always standard graded: F_q is spanned by q-fold products, so
    component 1 generates.
    """

    def __init__(self, algebra: FiniteLocalAlgebra):
        self.algebra = algebra
        self.field = algebra.field
        t = algebra.nilpotency_index
        self.qcs = [
            QuotientCoords(self.field, algebra.filtration[q], algebra.power(q + 1))
            for q in range(t)
        ]
        self.dims = [qc.dim for qc in self.qcs]
        self._tensors = {}

    def component_dim(self, q: int) -> int:
        if 0 <= q < len(self.dims):
            return self.dims[q]
        return 0

    def component_product(self, a: int, b: int):
        """Tensor (dims[a], dims[b], dims[a+b]) of the graded product."""
        key = (a, b)
        if key in self._tensors:
            return self._tensors[key]
        field = self.field
        d = self.algebra.dim
        da, db = self.component_dim(a), self.component_dim(b)
        dc = self.component_dim(a + b)
        if da == 0 or db == 0 or dc == 0:
            out = field.zeros((da, db, dc))
        else:
            ra = self.qcs[a].reps
            rb = self.qcs[b].reps
            # pairwise products: P[i, j] = ra[i] * rb[j] in R coords
            x = field.matmul(ra, self.algebra.table.reshape(d, d * d))
            x = np.ascontiguousarray(
                x.reshape(da, d, d).transpose(1, 0, 2)
            ).reshape(d, da * d)
            p = field.matmul(rb, x).reshape(db, da, d)
            p = np.ascontiguousarray(p.transpose(1, 0, 2)).reshape(da * db, d)
            out = self.qcs[a + b].coords(p).reshape(da, db, dc)
        self._tensors[key] = out
        return out


class RModule:
    """Finitely generated module over a FiniteLocalAlgebra.

    Elements are coordinate rows of length `dim`; act[j] is the matrix
    of the action of basis element e_j (x -> x @ act[j]). Quotient
    modules R/F_n carry proj (dim R x dim) and lift (dim x dim R)
    matrices relating module coordinates to ring coordinates.
    """

    def __init__(self, algebra: FiniteLocalAlgebra, dim: int, act,
                 proj=None, lift=None, power=None, validate: bool = True):
        self.algebra = algebra
        self.field = algebra.field
        self.dim = dim
        self.act = algebra.field.asarray(act)
        if self.act.shape != (algebra.dim, dim, dim):
            raise AlgebraError(
                f"action tensor has shape {self.act.shape}, expected "
                f"{(algebra.dim, dim, dim)}"
            )
        self.proj = proj
        self.lift = lift
        self.power = power
        if validate and dim:
            self._validate()

    def _validate(self):
        _check_action(self.field, self.algebra.table, self.act, self.algebra.unit)

    def action_of(self, r):
        """Action matrix of a ring element given by coordinates."""
        return _action(self.field, self.act, r)

    @property
    def generator_actions(self):
        return [self.action_of(g) for g in self.algebra.mgens]

    def __repr__(self):
        tag = f", power={self.power}" if self.power is not None else ""
        return f"RModule(dim={self.dim}{tag})"


def quotient_module(algebra: FiniteLocalAlgebra, n: int) -> RModule:
    """R/F_n as an R-module (zero module for n <= 0, R for n >= index)."""
    field = algebra.field
    d = algebra.dim
    if n <= 0:
        return RModule(
            algebra, 0, field.zeros((d, 0, 0)),
            proj=field.zeros((d, 0)), lift=field.zeros((0, d)), power=n,
        )
    if n >= algebra.nilpotency_index:
        return RModule(
            algebra, d, algebra.table,
            proj=field.eye(d), lift=field.eye(d), power=n, validate=False,
        )
    qc = QuotientCoords(field, algebra.filtration[0], algebra.filtration[n])
    q = qc.dim
    proj = qc.coords(field.eye(d))
    lift = qc.reps
    # act[j] = lift @ table[j] @ proj, all j at once
    tmp = field.matmul(
        lift,
        np.ascontiguousarray(algebra.table.transpose(1, 0, 2)).reshape(d, d * d),
    )
    tmp = np.ascontiguousarray(tmp.reshape(q, d, d).transpose(1, 0, 2))
    act = field.matmul(tmp.reshape(d * q, d), proj).reshape(d, q, q)
    mod = RModule(algebra, q, act, proj=proj, lift=lift, power=n, validate=False)
    if not field.is_zero(field.sub(field.matmul(lift, proj), field.eye(q))):
        raise AlgebraError("quotient coordinates are inconsistent")
    return mod
