import math

import pytest
from fractions import Fraction

from wittkit.poly import Polynomial
from wittkit.rings import GF, QQ, ZZ
from wittkit.series import pade_reconstruct, poly_from_power_sums, series_of_rational


def QP(coeffs):
    return Polynomial(QQ, [Fraction(c) for c in coeffs])


def test_series_of_rational_geometric():
    num, den = QP([1]), QP([1, -1])
    assert series_of_rational(num, den, 4) == QP([1, 1, 1, 1, 1])
    num, den = QP([1, 1]), QP([1, -2])
    assert series_of_rational(num, den, 3) == QP([1, 3, 6, 12])
    # works over a prime field too
    F5 = GF(5)
    num5 = Polynomial(F5, [1])
    den5 = Polynomial(F5, [1, 3])
    assert series_of_rational(num5, den5, 3) == Polynomial(F5, [1, 2, 4, 3])


def test_polynomial_is_its_own_series():
    # a series to order N is a Polynomial of degree <= N: no padding
    p = Polynomial(ZZ, [1, 0, 2])
    assert series_of_rational(p, Polynomial.one(ZZ), 4) == p
    assert series_of_rational(p, Polynomial.one(ZZ), 1) == Polynomial(ZZ, [1])


def test_exp_matches_float_exponential():
    # exp(t) has power sums -1, 0, 0, ...
    e = poly_from_power_sums(QQ, [-1] + [0] * 9, 10)
    for n in range(11):
        assert e[n] == Fraction(1, math.factorial(n))


def test_pade_requires_rational_coefficients():
    s = Polynomial(ZZ, [1, 2, 4])
    with pytest.raises(ValueError, match="over Q"):
        pade_reconstruct(s, 2, 1, 1)


def test_pade_exact_rational_data():
    # sum (2^n + 3^n) t^n = (2 - 5t)/(1 - 5t + 6t^2)
    coeffs = [2**n + 3**n for n in range(9)]
    num, den = pade_reconstruct(QP(coeffs), 8, 1, 2)
    assert num == QP([2, -5])
    assert den == QP([1, -5, 6])
    # dropping 1 from the constant moves the numerator to 1 - 6t^2
    shifted = [coeffs[0] - 1] + coeffs[1:]
    num, den = pade_reconstruct(QP(shifted), 8, 2, 2)
    assert num == QP([1, 0, -6])
    assert den == QP([1, -5, 6])


def test_pade_requires_full_match():
    # agrees with a (1, 2) fit locally but the tail breaks it
    s = QP([1, 5, 13, 35, 97])
    with pytest.raises(ValueError, match="no rational reconstruction"):
        pade_reconstruct(s, 4, 1, 2)
    # the same data is honestly rational at (2, 2)
    num, den = pade_reconstruct(s, 4, 2, 2)
    assert series_of_rational(num, den, 4) == s


def test_pade_rejects_transcendental_data():
    coeffs = [Fraction(1, math.factorial(n)) for n in range(7)]
    with pytest.raises(ValueError, match="no rational reconstruction"):
        pade_reconstruct(QP(coeffs), 6, 2, 2)


def test_pade_degenerate_degrees():
    s = QP([1, 2, 4, 8, 16])
    num, den = pade_reconstruct(s, 4, 0, 1)
    assert num == QP([1]) and den == QP([1, -2])
    num, den = pade_reconstruct(QP([1, 2, 3]), 2, 2, 0)
    assert num == QP([1, 2, 3]) and den == QP([1])
    with pytest.raises(ValueError, match="below dnum"):
        pade_reconstruct(QP([1, 2]), 1, 1, 2)
    with pytest.raises(ValueError):
        pade_reconstruct(s, 4, -1, 1)


def test_pade_order_counts_trailing_zeros():
    # 1 + t to order 3 is 1 + t + 0t^2 + 0t^3: rational at (1, 0) and,
    # with the zeros as data, not the geometric 1/(1 - t) at (0, 1)
    s = QP([1, 1])
    num, den = pade_reconstruct(s, 3, 1, 0)
    assert num == s and den == QP([1])
    with pytest.raises(ValueError, match="no rational reconstruction"):
        pade_reconstruct(s, 3, 0, 1)
    # to order 1 the same coefficients fit 1/(1 - t)
    num, den = pade_reconstruct(s, 1, 0, 1)
    assert num == QP([1]) and den == QP([1, -1])
