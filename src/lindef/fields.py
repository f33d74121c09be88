"""Coefficient fields: GF(p) for a prime p < 2^31, or the rationals.

A matrix over GF(p) is an int64 numpy array with entries in [0, p); a
matrix over the rationals is an object numpy array of Fractions. All
exact linear algebra dispatches through a Field instance so the layers
above never branch on the representation.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import _kernels
from .errors import LindefError

MAX_CHARACTERISTIC = 1 << 31


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _rref_fraction(a):
    """Plain Gauss-Jordan over the rationals. Small inputs only."""
    a = a.copy()
    m, n = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        s = -1
        for i in range(r, m):
            if a[i, c] != 0:
                s = i
                break
        if s < 0:
            continue
        if s != r:
            a[[r, s]] = a[[s, r]]
        a[r] = a[r] / a[r, c]
        for i in range(m):
            if i != r and a[i, c] != 0:
                a[i] = a[i] - a[i, c] * a[r]
        pivots.append(c)
        r += 1
    return a, tuple(pivots)


class Field:
    """GF(p) when characteristic is a prime, the rationals when it is 0."""

    __slots__ = ("p",)

    def __init__(self, characteristic: int):
        p = int(characteristic)
        if p != 0:
            if p >= MAX_CHARACTERISTIC:
                raise LindefError(f"characteristic {p} exceeds 2^31 - 1")
            if not _is_prime(p):
                raise LindefError(f"characteristic {p} is not prime")
        self.p = p

    # -- identity ---------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Field) and other.p == self.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "QQ" if self.p == 0 else f"GF({self.p})"

    # -- scalars ----------------------------------------------------------

    def scalar(self, x) -> object:
        if self.p:
            return int(x) % self.p
        return Fraction(x)

    def parse_scalar(self, text: str):
        """Parse an integer, or a/b over the rationals."""
        text = text.strip()
        if self.p:
            return int(text, 10) % self.p
        return Fraction(text)

    def format_scalar(self, x) -> str:
        return str(x)

    # -- arrays -----------------------------------------------------------

    def asarray(self, data):
        if self.p:
            a = np.array(data, dtype=np.int64, order="C", copy=True)
            a %= self.p
            return a
        a = np.array(data, dtype=object, copy=True)
        flat = a.reshape(-1)
        for i in range(flat.size):
            flat[i] = Fraction(flat[i])
        return a

    def zeros(self, shape):
        if self.p:
            return np.zeros(shape, dtype=np.int64)
        a = np.empty(shape, dtype=object)
        a.fill(Fraction(0))
        return a

    def eye(self, n: int):
        if self.p:
            return np.eye(n, dtype=np.int64)
        a = self.zeros((n, n))
        for i in range(n):
            a[i, i] = Fraction(1)
        return a

    def neg(self, a):
        if self.p:
            return (-a) % self.p
        return -a

    def sub(self, a, b):
        if self.p:
            return (a - b) % self.p
        return a - b

    def add(self, a, b):
        if self.p:
            return (a + b) % self.p
        return a + b

    def is_zero(self, a) -> bool:
        if self.p:
            return not a.any()
        return bool(np.all(a == Fraction(0)))

    # -- linear algebra ---------------------------------------------------

    def rref(self, a):
        if self.p:
            return _kernels.rref(a, self.p)
        return _rref_fraction(a)

    def matmul(self, a, b):
        if self.p:
            return _kernels.matmul_mod(a, b, self.p)
        out = np.dot(a, b)
        if out.size and not isinstance(out.reshape(-1)[0], Fraction):
            out = out + Fraction(0)
        return out

    # -- unreduced products -------------------------------------------------

    def exact_operands(self, a, k):
        """`a` as operands of `exact_matmul` with inner dimension <= k.

        Over GF(p) a float64 copy of the residues when sums of k products
        stay exact in doubles, k (p-1)^2 < 2^53, else int64 residues;
        over the rationals `a` itself.
        """
        if self.p:
            return np.asarray(a).astype(_kernels.exact_dtype(k, self.p), copy=False)
        return a

    def exact_matmul(self, a, b):
        """a @ b of `exact_operands`, with np.matmul's stacking, as exact
        representatives of the field product; not reduced mod p."""
        if self.p:
            return _kernels.matmul_unreduced(a, b, self.p)
        return np.matmul(a, b)

    def nonzero(self, a):
        """Mask of the entries of `a`, exact representatives such as
        differences of `exact_matmul` products, that are nonzero in the
        field."""
        if self.p:
            return _kernels.nonzero_mod(a, self.p)
        return a != 0

    def rank(self, a) -> int:
        return len(self.rref(a)[1])
