"""Closed-form Poincaré series as oracles for the resolution.

P^R(t) = sum_i b_i t^i for the minimal resolution of k over R. For the
fibre product R x_k S of two local rings over their residue field,
1/P^{R x S} = 1/P^R + 1/P^S - 1 (Dress–Krämer 1975). All three series
come from lindef's own resolutions, so the identity checks each of them
against the others.
"""

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
