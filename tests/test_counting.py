import time

import pytest

from oracles import brute_force_count
from wittkit.counting import AffineVariety, count_points, point_count_table


def test_known_curve_counts():
    # y^2 = x^3 + x over F_5: three affine points
    X = AffineVariety.make(5, 2, [[(4, (0, 2)), (1, (3, 0)), (1, (1, 0))]])
    assert count_points(X, 1) == 3
    assert count_points(X, 2) == 31
    # same equation over F_7
    Y = AffineVariety.make(7, 2, [[(6, (0, 2)), (1, (3, 0)), (1, (1, 0))]])
    assert count_points(Y, 1) == 7


def test_unit_circle_counts():
    # x^2 + y^2 = 1 has p - 1 points for p = 1 mod 4, p + 1 otherwise
    for p, want in [(5, 4), (13, 12), (3, 4), (7, 8)]:
        X = AffineVariety.make(p, 2, [[(1, (2, 0)), (1, (0, 2)), (p - 1, (0, 0))]])
        assert count_points(X, 1) == want


def test_counts_match_brute_force():
    cases = [
        AffineVariety.make(2, 2, [[(1, (1, 1)), (1, (0, 0))]]),
        AffineVariety.make(3, 2, [[(1, (2, 0)), (2, (0, 1))]]),
        AffineVariety.make(5, 2, [[(4, (0, 2)), (1, (3, 0)), (1, (1, 0))]]),
        AffineVariety.make(3, 3, [[(1, (1, 1, 1)), (2, (0, 0, 0))]]),
        AffineVariety.make(2, 2, [[(1, (1, 0))], [(1, (0, 1))]]),  # two equations
    ]
    for X in cases:
        for n in (1, 2):
            assert count_points(X, n) == brute_force_count(X, n), (X, n)


def test_no_equations_gives_full_space():
    X = AffineVariety.make(5, 2, [])
    assert count_points(X, 1) == 25
    assert count_points(X, 2) == 625


def test_constant_equations():
    nonzero = AffineVariety.make(5, 2, [[(3, (0, 0))]])
    assert count_points(nonzero, 1) == 0
    zero = AffineVariety.make(5, 2, [[(5, (0, 0))]])
    assert count_points(zero, 1) == 25


def test_point_count_table():
    X = AffineVariety.make(5, 2, [[(4, (0, 2)), (1, (3, 0)), (1, (1, 0))]])
    assert point_count_table(X, 3) == [3, 31, 147]


def test_enumeration_cap():
    X = AffineVariety.make(101, 4, [[(1, (1, 1, 1, 1)), (1, (0, 0, 0, 0))]])
    with pytest.raises(ValueError, match="above the cap"):
        count_points(X, 2)
    # explicit low cap triggers on modest sizes too
    Y = AffineVariety.make(5, 2, [[(1, (1, 1))]])
    with pytest.raises(ValueError, match="above the cap"):
        count_points(Y, 2, cap=10)


def test_enumeration_cap_message():
    # near the cap the exact step count is printed
    Y = AffineVariety.make(5, 2, [[(1, (1, 1))]])
    with pytest.raises(ValueError, match="^enumeration needs 625 evaluation steps, above the cap 10;"
                                         " --cap raises it$"):
        count_points(Y, 2, cap=10)
    X = AffineVariety.make(7, 2, [[(1, (1, 1))]])
    with pytest.raises(ValueError, match="needs 79792266297612001 evaluation steps"):
        count_points(X, 10)
    # far above it, the count is p^e, refused without being built
    Z = AffineVariety.make(5, 10**7, [])
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^enumeration needs 5\^10000000 evaluation steps,"
                                         r" above the cap 100000000; --cap raises it$"):
        count_points(Z, 1)
    assert time.perf_counter() - start < 1.0


def test_enumeration_cap_binds_separable():
    # the histogram path does far less work than p^(kn) steps, but is held
    # to the same cap and the same messages as the sweep
    X = AffineVariety.make(7, 2, [[(1, (2, 0)), (1, (0, 2))]])
    with pytest.raises(
        ValueError,
        match="^enumeration needs 79792266297612001 evaluation steps, above the cap 100000000;"
              " --cap raises it$",
    ):
        count_points(X, 10)
    Y = AffineVariety.make(5, 2, [[(1, (2, 0)), (1, (0, 2)), (4, (0, 0))]])
    with pytest.raises(ValueError, match="^enumeration needs 625 evaluation steps, above the cap 10;"
                                         " --cap raises it$"):
        count_points(Y, 2, cap=10)


def test_unit_circle_over_extension():
    # x^2 + y^2 = 1 over F_{5^5}: q - chi(-1)^5 = 5^5 - 1, as -1 is a square mod 5
    X = AffineVariety.make(5, 2, [[(1, (2, 0)), (1, (0, 2)), (4, (0, 0))]])
    assert count_points(X, 5) == 5**5 - 1


def test_validation():
    with pytest.raises(ValueError, match="not prime"):
        AffineVariety.make(6, 1, [])
    with pytest.raises(ValueError, match="does not match"):
        AffineVariety(3, 2, (((1, (1,)),),))
    with pytest.raises(ValueError, match="negative exponent"):
        AffineVariety(3, 1, (((1, (-1,)),),))
    with pytest.raises(ValueError, match="not reduced"):
        AffineVariety(3, 1, (((4, (1,)),),))


def test_json_round_trip():
    X = AffineVariety.make(5, 2, [[(4, (0, 2)), (1, (3, 0)), (1, (1, 0))]])
    data = X.to_json()
    assert data["p"] == 5 and data["vars"] == 2
    assert AffineVariety.from_json(data) == X


def test_make_reduces_coefficients():
    X = AffineVariety.make(5, 1, [[(-1, (2,)), (7, (0,))]])
    assert X.equations == (((4, (2,)), (2, (0,))),)


def test_connected_groups():
    # xy + z^2 + w^2 = 1 over F_p, p = 1 mod 4: p(p^2 - 1) points, from the
    # histograms of the group {x, y} and of z and w
    X = AffineVariety.make(13, 4, [[(1, (1, 1, 0, 0)), (1, (0, 0, 2, 0)), (1, (0, 0, 0, 2)), (12, (0, 0, 0, 0))]])
    assert count_points(X, 1) == 13 * (13**2 - 1)
    # xy + z^2 + 1 over F_5^2, a free fourth variable and a system with one
    cases = [
        AffineVariety.make(5, 3, [[(1, (1, 1, 0)), (1, (0, 0, 2)), (1, (0, 0, 0))]]),
        AffineVariety.make(3, 4, [[(1, (1, 1, 0, 0)), (2, (0, 0, 1, 0))]]),
        AffineVariety.make(3, 3, [[(1, (2, 1, 0)), (1, (0, 0, 3))], [(1, (1, 0, 0)), (2, (0, 0, 0))]]),
    ]
    for X in cases:
        assert count_points(X, 1) == brute_force_count(X, 1), X
    assert count_points(cases[0], 2) == brute_force_count(cases[0], 2)


def test_huge_exponents_reduce_before_int64_products():
    # exponents reduce mod q - 1 (and stay positive, so x^e is 0 at x = 0)
    # before any int64 product: 2^62 + 1 once wrapped and counted 4
    X = AffineVariety.make(7, 2, [[(1, (1, 2**62 + 1)), (3, (2, 0)), (1, (0, 0))]])
    assert count_points(X, 1) == brute_force_count(X, 1) == 6
    # and 10^20 once failed with "Python int too large to convert to C long"
    Y = AffineVariety.make(5, 2, [[(1, (1, 10**20)), (1, (0, 0))]])
    assert count_points(Y, 1) == brute_force_count(Y, 1) == 4
    assert count_points(Y, 2) == brute_force_count(Y, 2)
