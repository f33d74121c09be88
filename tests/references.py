"""Reference implementations that tests compare the package against.

They compute the same objects as the package by the plainest route,
without the package's shortcuts, so a parity test that they agree
checks the shortcut.
"""

import heapq
import math
from bisect import bisect_left

import numpy as np

from lindef import presentation
from lindef.algebra import FiniteLocalAlgebra
from lindef.errors import AlgebraError, ResourceLimitError
from lindef.linalg import (
    QuotientCoords,
    Subspace,
    block_apply,
    block_expand,
    homology_cell,
    induced_map_on_quotients,
    kernel,
)
from lindef.poly import (
    Polynomial,
    degrevlex_key,
    monomial_degree,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    monomial_quotient,
)
from lindef.presentation import quotient_basis
from lindef.resolution import AlgebraMatrix
from lindef.tor_ladder import _pi_applier


# ---------------------------------------------------------------------------
# the ring build by Polynomial arithmetic alone: every leading term is
# recomputed, every step builds new Polynomials


def leading_term_reference(f):
    """(monomial, coefficient) of f's degrevlex-largest term."""
    mon = max(f.terms, key=degrevlex_key)
    return mon, f.terms[mon]


def shift_by_monomial(f, mon, c):
    """f * c * x^mon, through the validating constructor."""
    c = f.field.scalar(c)
    return Polynomial(
        f.field, f.nvars, {monomial_mul(m, mon): v * c for m, v in f.terms.items()}
    )


def _inverse_scalar(field, c):
    return field.scalar(pow(int(c), -1, field.p)) if field.p else 1 / c


def monic_reference(f):
    return f * _inverse_scalar(f.field, leading_term_reference(f)[1])


def normal_form_reference(f, basis):
    """Remainder of f under division by `basis`: the current leading
    term is reduced by the first divisor in list order."""
    field = f.field
    rem = Polynomial.zero(field, f.nvars)
    work = f
    while not work.is_zero:
        lm, lc = leading_term_reference(work)
        for g in basis:
            gm, gc = leading_term_reference(g)
            if monomial_divides(gm, lm):
                factor = field.scalar(lc * _inverse_scalar(field, gc))
                work = work - shift_by_monomial(g, monomial_quotient(lm, gm), factor)
                break
        else:
            t = Polynomial.from_monomial(field, f.nvars, lm, lc)
            rem = rem + t
            work = work - t
    return rem


def s_polynomial_reference(f, g):
    field = f.field
    fm, fc = leading_term_reference(f)
    gm, gc = leading_term_reference(g)
    lcm = monomial_lcm(fm, gm)
    a = shift_by_monomial(f, monomial_quotient(lcm, fm), 1)
    b = shift_by_monomial(g, monomial_quotient(lcm, gm), 1)
    return a * _inverse_scalar(field, fc) - b * _inverse_scalar(field, gc)


def buchberger_reference(gens):
    """Reduced Groebner basis by the package's pair order, (lcm degree,
    lcm, index), coprime pairs skipped, the same pair cap."""
    basis = [monic_reference(g) for g in gens if not g.is_zero]
    if not basis:
        return []
    heap = []

    def push_pairs(new_index):
        gm = leading_term_reference(basis[new_index])[0]
        for i in range(new_index):
            im = leading_term_reference(basis[i])[0]
            lcm = monomial_lcm(im, gm)
            if lcm != monomial_mul(im, gm):
                heapq.heappush(
                    heap, (monomial_degree(lcm), degrevlex_key(lcm), i, new_index)
                )

    for idx in range(len(basis)):
        push_pairs(idx)
    processed = 0
    while heap:
        _, _, i, j = heapq.heappop(heap)
        processed += 1
        if processed > presentation.PAIR_CAP:
            raise ResourceLimitError(
                f"Groebner pair limit {presentation.PAIR_CAP} exceeded; "
                "ideal too complex"
            )
        r = normal_form_reference(s_polynomial_reference(basis[i], basis[j]), basis)
        if not r.is_zero:
            basis.append(monic_reference(r))
            push_pairs(len(basis) - 1)

    def lead(g):
        return degrevlex_key(leading_term_reference(g)[0])

    minimal, seen = [], set()
    for g in sorted(basis, key=lead):
        gm = leading_term_reference(g)[0]
        if gm not in seen and not any(
            monomial_divides(leading_term_reference(h)[0], gm) for h in minimal
        ):
            minimal.append(g)
            seen.add(gm)
    reduced = []
    for idx, g in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1 :]
        reduced.append(monic_reference(normal_form_reference(g, others)))
    return sorted(reduced, key=lead)


def pairwise_table(pres):
    """Structure table of k[vars]/I from the d(d+1)/2 normal forms
    NF(e_i * e_j), basis the degrevlex-sorted standard monomials."""
    field = pres.field
    n = len(pres.varnames)
    gb = buchberger_reference(pres.gens)
    qb = quotient_basis(gb, n)
    d = len(qb)
    index = {m: i for i, m in enumerate(qb)}
    table = field.zeros((d, d, d))
    for i, mi in enumerate(qb):
        for j, mj in enumerate(qb):
            if j < i:
                table[i, j] = table[j, i]
                continue
            prod = Polynomial.from_monomial(field, n, monomial_mul(mi, mj), 1)
            for mon, c in normal_form_reference(prod, gb).terms.items():
                table[i, j, index[mon]] = c
    return table


def block_sum(sub, blocks):
    """W^(+b) inside (k^n)^b, basis laid out block by block.

    The Kronecker layout of an RREF basis is again an RREF basis, so no
    elimination is needed.
    """
    n = sub.ambient_dim
    if sub.field.p:
        basis = np.kron(np.eye(blocks, dtype=np.int64), sub.basis)
    else:
        basis = sub.field.zeros((blocks * sub.dim, blocks * n))
        for b in range(blocks):
            basis[b * sub.dim : (b + 1) * sub.dim, b * n : (b + 1) * n] = sub.basis
    pivots = [b * n + c for b in range(blocks) for c in sub.pivots]
    return Subspace(sub.field, blocks * n, basis, pivots)


def operator(field, act, v):
    """Operator sum_u v[u] act[u] of the one ring element v (act = table:
    multiplication by v)."""
    d, m, n = act.shape
    v = field.asarray(v).reshape(1, d)
    return field.matmul(v, act.reshape(d, m * n)).reshape(m, n)


def mult(algebra, u, v):
    """The product u * v, as v under the multiplication operator of u."""
    field = algebra.field
    op = operator(field, algebra.table, u)
    return field.matmul(field.asarray(v).reshape(1, algebra.dim), op)[0]


def basis_slab_check(field, table, act):
    """The law check on every basis element: for each i, one slab at a
    time, sum_u table[i, j, u] act[u] = act[i] @ act[j] for every j.

    Raises AlgebraError naming the first failing triple (smallest i,
    then module basis vector x, then j), as the package did before it
    checked the generator slabs only; explicit raises, so it checks
    under python -O too.
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


def dense_associative(field, table, act):
    """Whether x (e_i e_j) = (x e_i) e_j for all i, j and module basis
    vectors x, from the two full (d, m, d, m) tensors in exact integer
    or rational arithmetic (act = table: the ring's own law)."""
    if field.p:
        t, a = table.astype(object), act.astype(object)
    else:
        # both sides are bilinear in (table, act): one common scale clears
        # every denominator, and Python ints multiply far faster
        scale = math.lcm(*(x.denominator for x in (*table.flat, *act.flat)))
        to_int = np.vectorize(lambda x: int(x * scale), otypes=[object])
        t, a = to_int(table), to_int(act)
    left = np.tensordot(t, a, axes=([2], [0])).transpose(0, 2, 1, 3)
    right = np.tensordot(a, a, axes=([2], [1]))
    diff = left - right
    if field.p:
        diff = diff % field.p
    return not diff.any()


def inverse(field, a):
    """Inverse of an invertible square matrix, from rref([a | I])."""
    d = a.shape[0]
    r, piv = field.rref(np.concatenate([a, field.eye(d)], axis=1))
    if list(piv) != list(range(d)):
        raise AssertionError("matrix is singular")
    return np.ascontiguousarray(r[:, d:])


def change_basis(field, table, basis, inv):
    """Structure table in the basis whose rows are `basis` (inv its
    inverse): entry (i, j) is basis[i] * basis[j] in the new coordinates."""
    d = table.shape[0]
    ops = field.matmul(basis, table.reshape(d, d * d)).reshape(d, d, d)
    return np.stack([field.matmul(field.matmul(basis, op), inv) for op in ops])


def dense_change(algebra, seed):
    """The algebra rebuilt on a random dense basis of its table."""
    field, d = algebra.field, algebra.dim
    rng = np.random.default_rng(seed)
    while True:
        if field.p:
            basis = field.asarray(rng.integers(0, field.p, (d, d)))
        else:
            basis = field.asarray(rng.integers(-2, 3, (d, d)))
        if field.rank(basis) == d:
            break
    inv = inverse(field, basis)
    return FiniteLocalAlgebra(
        field, change_basis(field, algebra.table, basis, inv),
        field.matmul(algebra.unit.reshape(1, d), inv)[0],
        field.matmul(algebra.mgens, inv),
    )


def input_table(algebra):
    """The structure table in the algebra's input basis.

    A rebased algebra stores its table in an adapted basis whose rows,
    in input coordinates, are algebra.input_basis.
    """
    basis = algebra.input_basis
    if basis is None:
        return algebra.table
    return change_basis(algebra.field, algebra.table,
                        inverse(algebra.field, basis), basis)


def quotient_reference(algebra, n):
    """(act, proj, lift) of R/F_n by quotient coordinates: proj (d x q)
    reduces against F_n and reads the representative pivots, lift
    (q x d) holds the representatives, act[j] = lift @ table[j] @ proj."""
    field = algebra.field
    d = algebra.dim
    if n <= 0:
        return field.zeros((d, 0, 0)), field.zeros((d, 0)), field.zeros((0, d))
    if n >= algebra.nilpotency_index:
        return algebra.table, field.eye(d), field.eye(d)
    qc = QuotientCoords(field, algebra.filtration[0], algebra.filtration[n])
    q = qc.dim
    proj = qc.coords(field.eye(d))
    lift = qc.reps
    tmp = field.matmul(
        lift,
        np.ascontiguousarray(algebra.table.transpose(1, 0, 2)).reshape(d, d * d),
    )
    tmp = np.ascontiguousarray(tmp.reshape(q, d, d).transpose(1, 0, 2))
    act = field.matmul(tmp.reshape(d * q, d), proj).reshape(d, q, q)
    if not field.is_zero(field.sub(field.matmul(lift, proj), field.eye(q))):
        raise AssertionError("lift @ proj is not the identity on R/F_n")
    return act, proj, lift


def graded_coords(algebra, q):
    """Quotient coordinates on gr_q = F_q/F_{q+1}."""
    return QuotientCoords(algebra.field, algebra.power(q), algebra.power(q + 1))


def component_product_reference(algebra, a, b):
    """gr_a x gr_b -> gr_{a+b} from the pairwise products of the
    representatives, read in gr_{a+b} coordinates."""
    field = algebra.field
    d = algebra.dim
    qa, qb, qc = (graded_coords(algebra, q) for q in (a, b, a + b))
    da, db, dc = qa.dim, qb.dim, qc.dim
    if 0 in (da, db, dc):
        return field.zeros((da, db, dc))
    x = field.matmul(qa.reps, algebra.table.reshape(d, d * d))
    x = np.ascontiguousarray(x.reshape(da, d, d).transpose(1, 0, 2)).reshape(d, da * d)
    p = field.matmul(qb.reps, x).reshape(db, da, d)
    p = np.ascontiguousarray(p.transpose(1, 0, 2)).reshape(da * db, d)
    return qc.coords(p).reshape(da, db, dc)


def mstar_annihilation_reference(complex_, n):
    """`mstar_annihilation_check` operator by operator, then row by row.

    For each degree j with cycles, each gr_1 basis element s in turn
    maps the cycle basis blockwise; the first image row r outside the
    boundaries in degree j + 1 is the certificate.
    """
    field = complex_.field
    gr = complex_.gr
    hom = complex_.homology(n)
    b_n = complex_.stage_rank(n)
    for j in sorted(hom):
        cell = hom[j]
        if cell.cycles.dim == 0:
            continue
        q = j - n
        nxt = hom.get(j + 1)
        target = nxt.boundaries if nxt else (
            Subspace.zero(field, b_n * gr.component_dim(q + 1))
        )
        z = cell.cycles.basis
        for s, op in enumerate(gr.component_product(1, q)):
            a, b = op.shape
            imgs = field.matmul(z.reshape(-1, a), np.ascontiguousarray(op))
            imgs = imgs.reshape(z.shape[0], b_n * b)
            for r in range(z.shape[0]):
                if not target.contains_rows(imgs[r : r + 1]):
                    return False, {
                        "stage": n,
                        "internal_degree": j,
                        "gr1_index": s,
                        "cycle": z[r].tolist(),
                        "image": imgs[r].tolist(),
                    }
    return True, None


def reference_resolution(module, horizon):
    """(betti, entries) of the minimal resolution of `module`, every stage
    as one block: mW from the products of W's basis with the generators
    of m, the whole expanded differential, its kernel and, at the last
    stage, its rank. entries[i - 1] is the entry array of d_i.
    """
    algebra = module.algebra
    field, d = algebra.field, algebra.dim
    w = Subspace.full(field, module.dim)
    blocks, ops = 1, module.generator_actions
    betti, entries = [], []
    prev = None
    for i in range(horizon + 1):
        if w.dim:
            mw = Subspace.from_rows(
                field, block_apply(field, w.basis, blocks, ops), w.ambient_dim)
            reps = w.adapted_reps(mw)[0]
        else:
            reps = field.zeros((0, w.ambient_dim))
        b_i = reps.shape[0]
        if i == 0:
            expand = block_expand(
                field, reps[:, None, :], module.act.transpose(1, 0, 2))
        else:
            dmat = AlgebraMatrix(algebra, reps.reshape(b_i, blocks, d))
            expand = dmat.expand()
            if not (dmat.is_minimal()
                    and field.is_zero(field.matmul(expand, prev))):
                raise AssertionError(f"stage {i} is not a minimal complex")
            entries.append(dmat.entries)
        if i < horizon:
            nxt = kernel(field, expand.T)
            rank = b_i * d - nxt.dim
        else:
            nxt, rank = None, field.rank(expand.T)
        if rank != w.dim:
            raise AssertionError(f"not exact at stage {i - 1}")
        betti.append(b_i)
        w, blocks, ops, prev = nxt, b_i, algebra.generator_ops, expand
    return betti, entries


def one_block_homology(complex_, i):
    """lin(F)'s cells at stage i from whole slices, with no strand split
    and no shortcut: per internal degree j, the kernel of slice (i, j)
    and the row space of slice (i + 1, j), each one elimination."""
    field = complex_.field
    out = {}
    for j in complex_.degree_range(i):
        outgoing = complex_.slice_matrix(i, j)
        incoming = complex_.slice_matrix(i + 1, j)
        out[j] = (kernel(field, outgoing.T),
                  Subspace.from_rows(field, incoming, outgoing.shape[0]))
    return out


def whole_rank_profile(res, i):
    """[r(n, i) for 0 <= n < t], r(n, i) = rank(d_i (x) R/m^n), from one
    elimination of the whole of d_i truncated to rows :q_{t-2} and
    columns :q_{t-1}, with its columns taken coordinate-major
    (coordinate, then block), which is degree order: r(n, i) counts its
    pivots among the first b_{i-1} q_n columns."""
    algebra = res.algebra
    t = algebra.nilpotency_index
    b = res.betti[i - 1]
    q = algebra.quotient_dim(t - 1)
    dense = res.diff[i].expand(slice(0, algebra.quotient_dim(t - 2)), slice(0, q))
    rows = dense.shape[0]
    ordered = dense.reshape(rows, b, q).transpose(0, 2, 1).reshape(rows, q * b)
    _, pivots = algebra.field.rref(ordered)
    return [bisect_left(pivots, b * algebra.quotient_dim(n)) for n in range(t)]


def preimage_by_kernel(res, i):
    """Whether every x with d_i(x) in m^2 F_{i-1} lies in m F_i, i >= 1:
    the kernel of F_i -> F_{i-1}/m^2 F_{i-1} (the whole of d_i with its
    columns truncated to :q_2) has every basis vector vanish mod m, that
    is, in the leading coordinate of each block."""
    algebra = res.algebra
    field = algebra.field
    b_i = res.betti[i]
    composite = res.diff[i].expand(cols=slice(0, algebra.quotient_dim(2)))
    preimage = kernel(field, composite.T)
    heads = preimage.basis.reshape(preimage.dim, b_i, algebra.dim)[:, :, 0]
    return field.is_zero(heads)


def tor_cell_reference(res, n, i):
    """The homology cell at i of F (x) R/m^n, n >= 1, from the whole of
    d_i and d_{i+1} truncated to the leading q_n = dim R/m^n coordinates
    of each block: one kernel and one row space, no strand split."""
    field = res.algebra.field
    q = res.algebra.quotient_dim(n)
    # the maps leaving and entering F_i (x) R/m^n; nothing leaves F_0
    maps = [
        res.diff[k].expand(slice(0, q), slice(0, q)) if k
        else field.zeros((res.betti[0] * q, 0))
        for k in (i, i + 1)
    ]
    if n == 1 and not all(field.is_zero(m) for m in maps):
        raise AssertionError(
            "differential survives reduction mod m: resolution not minimal"
        )
    return homology_cell(field, res.betti[i] * q, *maps, f"Tor complex (n={n}, i={i})")


def upsilon_reference(res, n, i):
    """`tor_ladder.upsilon`'s record of v^n_i from whole-matrix Tor cells."""
    algebra = res.algebra
    field = algebra.field
    if n == 0:
        src_dim = tor_cell_reference(res, 1, i).dim
        return {"n": n, "i": i, "matrix": field.zeros((0, src_dim)), "rank": 0,
                "src_dim": src_dim, "dst_dim": 0,
                "note": "m^0 = R, so the target is Tor against the zero module"}
    src = tor_cell_reference(res, n + 1, i)
    dst = tor_cell_reference(res, n, i)
    mat, rank = induced_map_on_quotients(
        field, _pi_applier(algebra, n, res.betti[i]), src, dst)
    note = None
    if n + 1 >= algebra.nilpotency_index:
        note = (f"R/m^{n + 1} is the free module R (m^{n + 1} = 0), "
                "so higher Tor of the source vanishes")
    return {"n": n, "i": i, "matrix": mat, "rank": rank,
            "src_dim": src.dim, "dst_dim": dst.dim, "note": note}
