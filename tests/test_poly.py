import random

import pytest
from fractions import Fraction

from wittkit.poly import Polynomial, format_poly
from wittkit.rings import GF, QQ, ZZ


def P(coeffs, ring=ZZ):
    return Polynomial(ring, [ring.coerce(c) for c in coeffs])


def test_construction_normalizes_trailing_zeros():
    assert P([1, 2, 0, 0]).coeffs == (1, 2)
    assert P([0]).is_zero()
    assert P([]).degree == -1
    assert P([7]).degree == 0


def test_arithmetic():
    a, b = P([1, 2, 3]), P([5, -1])
    assert (a + b).coeffs == (6, 1, 3)
    assert (a - b).coeffs == (-4, 3, 3)
    assert (a * b).coeffs == (5, 9, 13, -3)
    assert (-a).coeffs == (-1, -2, -3)
    assert a.scale(2).coeffs == (2, 4, 6)
    assert a.shift(2).coeffs == (0, 0, 1, 2, 3)


def test_reversal():
    f = P([1, -5, 6])
    assert f.reversal().coeffs == (6, -5, 1)
    # padded reversal keeps track of implicit leading zeros
    assert f.reversal(3).coeffs == (0, 6, -5, 1)


def test_divmod_over_field():
    f = P([-1, 0, 0, 1], QQ)  # t^3 - 1
    g = P([-1, 1], QQ)  # t - 1
    q, r = f.divmod(g)
    assert q.coeffs == (1, 1, 1)
    assert r.is_zero()
    q, r = P([1, 1, 1], QQ).divmod(P([0, 1], QQ))
    assert q.coeffs == (1, 1)
    assert r.coeffs == (1,)


def test_exact_div():
    f = P([1, -5, 6])
    assert f.exact_div(P([1, -2])).coeffs == (1, -3)
    with pytest.raises(ValueError, match="inexact division"):
        f.exact_div(P([1, 1]))
    # leading coefficient not a unit in Z but the division still exact
    assert P([2, 4]).exact_div(P([1, 2])).coeffs == (2,)


def test_gcd_integer_primitive():
    f = P([1, -2]) * P([1, -3]) * P([1, -3])
    g = P([1, -3]) * P([2, 5])
    # primitive with positive leading coefficient: -(1 - 3t)
    assert f.gcd(g).coeffs == (-1, 3)
    # content is stripped: gcd of 2f and 4g is still primitive
    assert f.scale(2).gcd(g.scale(4)).coeffs == (-1, 3)
    assert P([1, -2]).gcd(P([1, -3])).degree == 0


def test_gcd_field_monic():
    f = P([1, 0, -1], QQ)  # (1-t)(1+t)
    g = P([1, -2, 1], QQ)  # (1-t)^2
    got = f.gcd(g)
    assert got.coeffs == (-1, 1)  # monic t - 1
    F5 = GF(5)
    a = P([1, 4], F5) * P([2, 1], F5)
    b = P([1, 4], F5) * P([3, 3], F5)
    assert a.gcd(b).coeffs == (4, 1)


def test_gcd_random_products_agree_with_construction():
    rng = random.Random(7)
    for _ in range(40):
        common = P([1, rng.randint(-4, 4), rng.randint(1, 3)])
        f = common * P([1, rng.randint(-3, 3)])
        g = common * P([1, rng.randint(-3, 3), rng.randint(-2, 2)])
        d = f.gcd(g)
        # d divides both inputs exactly, and the planted factor divides d
        f.exact_div(d)
        g.exact_div(d)
        assert d.gcd(common.primitive()) == common.primitive()


def test_map_ring():
    f = P([1, -5, 6])
    f5 = f.map_ring(GF(5))
    assert f5.coeffs == (1, 0, 1)
    fq = f.map_ring(QQ)
    assert fq.ring == QQ and fq.coeffs == (1, -5, 6)


def test_format_poly():
    cases = [
        (P([1, -5, 6]), "1 - 5t + 6t^2"),
        (P([1]), "1"),
        (P([0]), "0"),
        (P([0, 1]), "t"),
        (P([0, -1]), "-t"),
        (P([-1, 0, 2]), "-1 + 2t^2"),
        (P([Fraction(1, 2), Fraction(-3, 4)], QQ), "1/2 - 3/4t"),
    ]
    for poly, want in cases:
        assert format_poly(poly) == want


def test_content_and_primitive():
    f = P([2, -10, 12])
    assert f.content() == 2
    assert f.primitive().coeffs == (1, -5, 6)
    # content carries the sign of the leading coefficient
    assert P([2, -4]).content() == -2
    assert P([2, -4]).primitive().coeffs == (-1, 2)
