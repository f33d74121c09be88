"""Closed-form Poincaré series as oracles for the resolution.

P^R(t) = sum_i b_i t^i for the minimal resolution of k over R. For the
fibre product R x_k S of two local rings over their residue field,
1/P^{R x S} = 1/P^R + 1/P^S - 1 (Dress–Krämer 1975). All three series
come from lindef's own resolutions, so the identity checks each of them
against the others. A Koszul algebra has P^R(t) H_R(-t) = 1, H_R the
Hilbert series (Fröberg 1975), and ld_R(k) = 0 (Herzog–Iyengar 2005);
S/m^3 in two variables is Golod, with P = (1+t)^2/(1-4t^2-3t^3). A
complete intersection of c relations in n variables has
P(t) = (1+t)^n/(1-t^2)^c (Tate 1957), and a tensor product over k has
P^{R (x) S} = P^R P^S. `full_check` runs on the complete intersections
and the tensor product, so its Tor_i(k, k) = b_i assertion checks the
Tor ladder against each of these series.
"""

import math

import pytest

from lindef.lab import full_check
from lindef.linear_part import CLASSIFICATION_CLEAN, defect_profile, linear_part
from lindef.presentation import algebra_from_text
from lindef.resolution import resolve

HORIZON = 6


def betti(text, horizon=HORIZON):
    return resolve(algebra_from_text(text), horizon).betti


def inverse(series):
    """Power series inverse mod t^len(series) of an integer series with
    constant term 1."""
    assert series[0] == 1
    inv = [1]
    for n in range(1, len(series)):
        inv.append(-sum(series[j] * inv[n - j] for j in range(1, n + 1)))
    return inv


def test_fibre_product_dress_kraemer():
    p_r = betti("vars x y\nideal x^2, y^3, x*y^2")
    p_s = betti("vars z\nideal z^3")
    # k[x,y]/(x^2, y^3, x y^2) x_k k[z]/(z^3)
    p_rs = betti("vars x y z\nideal x^2, y^3, x*y^2, z^3, x*z, y*z")
    assert p_s == [1] * (HORIZON + 1)
    want = [a + b - (n == 0) for n, (a, b) in
            enumerate(zip(inverse(p_r), inverse(p_s)))]
    assert inverse(p_rs) == want
    assert p_rs == [3**i for i in range(HORIZON + 1)]


def series_product(a, b):
    """Product of two power series, truncated to len(a) terms."""
    return [sum(a[j] * b[n - j] for j in range(n + 1) if n - j < len(b))
            for n in range(len(a))]


def test_quadratic_monomial_ring_is_koszul():
    # k[x,y,z]/(x^2, xy, y^2, z^2): basis 1, x, y, z, xz, yz, so
    # H(t) = 1 + 3t + 2t^2 and P(t) = 1/((1-t)(1-2t)), b_i = 2^(i+1) - 1
    algebra = algebra_from_text("vars x y z\nideal x^2, x*y, y^2, z^2")
    horizon = 8
    hilbert = algebra.graded().dims
    assert hilbert == [1, 3, 2]
    res = resolve(algebra, horizon)
    p = res.betti
    assert p == [2 ** (i + 1) - 1 for i in range(horizon + 1)]
    h_minus = [(-1) ** q * h for q, h in enumerate(hilbert)]
    assert series_product(p, h_minus) == [1] + [0] * horizon
    prof = defect_profile(linear_part(res), horizon - 1)
    assert prof["h"] == [0] * (horizon - 1)
    assert prof["classification"] == CLASSIFICATION_CLEAN


def golod_cube_series(length):
    """(1 + t)^2 / (1 - 4t^2 - 3t^3): c_n = 4 c_{n-2} + 3 c_{n-3} + [1, 2, 1]_n."""
    want = []
    for n in range(length):
        c = [1, 2, 1][n] if n < 3 else 0
        c += 4 * want[n - 2] if n >= 2 else 0
        c += 3 * want[n - 3] if n >= 3 else 0
        want.append(c)
    return want


def test_cube_of_the_maximal_ideal_is_golod():
    horizon = 7
    want = golod_cube_series(horizon + 1)
    assert want[-1] == 314
    assert betti("vars x y\nideal x^3, x^2*y, x*y^2, y^3", horizon) == want


def tate_series(n, c, length):
    """(1+t)^n / (1-t^2)^c, truncated to `length` terms."""
    numerator = [math.comb(n, j) for j in range(length)]
    # 1/(1-t^2)^c = sum_k C(k+c-1, c-1) t^(2k)
    denominator_inverse = [math.comb(j // 2 + c - 1, c - 1) if j % 2 == 0 else 0
                           for j in range(length)]
    return series_product(numerator, denominator_inverse)


@pytest.mark.parametrize("text, n, c", [
    ("vars x y\nideal x^3, y^4", 2, 2),
    ("char 0\nvars x y\nideal x^2, y^5", 2, 2),
    # dense degree-4 forms: dim 16, nilpotency index 7
    ("vars x y\nideal x^4 + 3*x^3*y + 5*x^2*y^2 + 7*x*y^3 + 2*y^4, "
     "2*x^4 + 9*x^3*y + 4*x^2*y^2 + x*y^3 + 8*y^4", 2, 2),
    ("char 2\nvars x y z\nideal x^2, y^3, z^2", 3, 3),
], ids=["x3-y4", "QQ x2-y5", "dense degree 4", "GF(2) x2-y3-z2"])
def test_complete_intersection_tate(text, n, c):
    horizon = 7
    want = tate_series(n, c, horizon + 1)
    report = full_check(algebra_from_text(text), horizon)
    assert report.betti == want
    assert want[-1] == (8 if n == 2 else 36)


def test_tensor_product_multiplies_series():
    # k[x,y]/(x,y)^3 (x) k[z]/(z^2) = k[x,y,z]/((x,y)^3, z^2)
    horizon = 6
    p_r = betti("vars x y\nideal x^3, x^2*y, x*y^2, y^3", horizon)
    p_s = betti("vars z\nideal z^2", horizon)
    assert p_r == golod_cube_series(horizon + 1)
    assert p_s == [1] * (horizon + 1)
    report = full_check(
        algebra_from_text("vars x y z\nideal x^3, x^2*y, x*y^2, y^3, z^2"), horizon)
    assert report.betti == series_product(p_r, p_s)
    assert report.betti == [1, 3, 8, 19, 45, 104, 241]
