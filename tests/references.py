"""Reference implementations that tests compare the package against.

They compute the same objects as the package by the plainest route,
without the package's shortcuts, so a parity test that they agree
checks the shortcut.
"""

import numpy as np

from lindef.linalg import Subspace
from lindef.poly import Polynomial, monomial_mul
from lindef.presentation import buchberger, normal_form, quotient_basis


def pairwise_table(pres):
    """Structure table of k[vars]/I from the d(d+1)/2 normal forms
    NF(e_i * e_j), basis the degrevlex-sorted standard monomials."""
    field = pres.field
    n = len(pres.varnames)
    gb = buchberger(pres.gens)
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
            for mon, c in normal_form(prod, gb).terms.items():
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
