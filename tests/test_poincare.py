"""Closed-form Poincaré series as oracles for the resolution.

P^R(t) = sum_i b_i t^i for the minimal resolution of k over R. For the
fibre product R x_k S of two local rings over their residue field,
1/P^{R x S} = 1/P^R + 1/P^S - 1 (Dress–Krämer 1975). All three series
come from lindef's own resolutions, so the identity checks each of them
against the others. A Koszul algebra has P^R(t) H_R(-t) = 1, H_R the
Hilbert series (Fröberg 1975), and ld_R(k) = 0 (Herzog–Iyengar 2005);
S/m^3 in two variables is Golod, with P = (1+t)^2/(1-4t^2-3t^3).
"""

from lindef.linear_part import CLASSIFICATION_CLEAN, defect_profile, linear_part
from lindef.presentation import algebra_from_text
from lindef.resolution import resolve

HORIZON = 6


def betti(text, horizon=HORIZON):
    return resolve(algebra_from_text(text).residue_field(), horizon).betti


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
    res = resolve(algebra.residue_field(), horizon)
    p = res.betti
    assert p == [2 ** (i + 1) - 1 for i in range(horizon + 1)]
    h_minus = [(-1) ** q * h for q, h in enumerate(hilbert)]
    assert series_product(p, h_minus) == [1] + [0] * horizon
    prof = defect_profile(linear_part(res), horizon - 1)
    assert prof["h"] == [0] * (horizon - 1)
    assert prof["classification"] == CLASSIFICATION_CLEAN


def test_cube_of_the_maximal_ideal_is_golod():
    # (1 + t)^2 / (1 - 4t^2 - 3t^3): c_n = 4 c_{n-2} + 3 c_{n-3} + [1, 2, 1]_n
    horizon = 7
    want = []
    for n in range(horizon + 1):
        c = [1, 2, 1][n] if n < 3 else 0
        c += 4 * want[n - 2] if n >= 2 else 0
        c += 3 * want[n - 3] if n >= 3 else 0
        want.append(c)
    assert want[-1] == 314
    assert betti("vars x y\nideal x^3, x^2*y, x*y^2, y^3", horizon) == want
