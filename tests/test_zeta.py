import math

import pytest
from fractions import Fraction

from oracles import homogenize
from wittkit.ntheory import kronecker_symbol, primes_upto
from wittkit.poly import Polynomial
from wittkit.rings import GF, QQ
from wittkit.zeta import (
    ClosedPointLedger,
    PointCountTable,
    closed_points,
    count_ghosts,
    count_irreducibles,
    euler_vs_ruelle,
    function_field_product_formula,
    hasse_check,
    is_fundamental_discriminant,
    ledger_projective_line,
    ledger_quadratic,
    ledger_spec_z,
    product_formula_defect,
    product_formula_scale,
    projective_plane_counts,
    rational_orders,
    ulp_distance,
    zeta_rational,
    zeta_reference,
    zeta_series,
)


def test_zeta_series_projective_line():
    table = PointCountTable.make(3, [3**n + 1 for n in range(1, 5)])
    s = zeta_series(table)
    # 1/((1-t)(1-3t)) = sum (3^{n+1}-1)/2 t^n, to order 4
    want = [Fraction(3 ** (n + 1) - 1, 2) for n in range(5)]
    assert s == Polynomial(QQ, want)


def test_zeta_rational_projective_line():
    table = PointCountTable.make(3, [3**n + 1 for n in range(1, 5)])
    z = zeta_rational(table, 0, 2)
    assert z.num.coeffs == (1,)
    assert z.den.coeffs == (1, -4, 3)  # (1-t)(1-3t)
    assert count_ghosts(z, 4) == list(table.counts)


def test_zeta_rational_rejects_wrong_degrees():
    table = PointCountTable.make(3, [3**n + 1 for n in range(1, 5)])
    with pytest.raises(ValueError, match="zeta not rational at given degrees"):
        zeta_rational(table, 0, 1)


def test_zeta_rational_rejects_corrupted_counts():
    counts = [3**n + 1 for n in range(1, 5)]
    counts[3] += 1
    with pytest.raises(ValueError, match="zeta not rational at given degrees"):
        zeta_rational(PointCountTable.make(3, counts), 0, 2)


def test_elliptic_curve_over_f5():
    # projective closure of y^2 = x^3 + x
    homog = homogenize([(1, (3, 0)), (1, (1, 0)), (4, (0, 2))])
    assert homog == [(1, (3, 0, 0)), (1, (1, 0, 2)), (4, (0, 2, 1))]
    table = projective_plane_counts(5, homog, 4)
    assert table.counts == (4, 32, 148, 640)
    z = zeta_rational(table, 2, 2)
    assert z.num.coeffs == (1, -2, 5)
    assert z.den.coeffs == (1, -6, 5)  # (1-t)(1-5t)
    assert hasse_check(z, 5)


def test_elliptic_curve_over_f7():
    # projective closure of y^2 = x^3 + 2
    homog = homogenize([(1, (3, 0)), (2, (0, 0)), (6, (0, 2))])
    table = projective_plane_counts(7, homog, 4)
    assert table.counts == (9, 63, 324, 2331)
    z = zeta_rational(table, 2, 2)
    assert z.num.coeffs == (1, 1, 7)
    assert hasse_check(z, 7)


def test_hasse_check_rejects():
    table = PointCountTable.make(3, [3**n + 1 for n in range(1, 5)])
    z = zeta_rational(table, 0, 2)
    assert not hasse_check(z, 3)  # numerator degree 0, not elliptic shape


def test_homogenize_errors():
    with pytest.raises(ValueError, match="above homogenization degree"):
        homogenize([(1, (3, 0))], 2)


def test_rational_orders_and_product_formula():
    assert rational_orders(Fraction(-360, 77)) == {2: 3, 3: 2, 5: 1, 7: -1, 11: -1}
    assert rational_orders(Fraction(1)) == {}
    for f in [Fraction(-360, 77), Fraction(12, 5), Fraction(1, 997),
              Fraction(2**40 * 3, 7**5)]:
        defect = product_formula_defect(f)
        assert defect <= 1e-12 * (1 + product_formula_scale(f))
    with pytest.raises(ValueError):
        rational_orders(Fraction(0))


def test_function_field_product_formula_exact_zero():
    F3 = GF(3)

    def P(coeffs):
        return Polynomial(F3, [F3.coerce(c) for c in coeffs])

    assert function_field_product_formula(P([1, 0, 1]), P([0, 1])) == 0
    assert function_field_product_formula(P([0, 0, 0, 1]), P([1, 1])) == 0
    assert function_field_product_formula(P([2]), P([1])) == 0
    with pytest.raises(ValueError):
        function_field_product_formula(P([]), P([1]))


def test_ledger_spec_z():
    ledger = ledger_spec_z(10)
    assert [(norm, mult) for norm, _, mult in ledger.entries] == [
        (2, 1), (3, 1), (5, 1), (7, 1)
    ]
    for norm, length, _ in ledger.entries:
        assert length == math.log(norm)


def test_fundamental_discriminants():
    good = [-4, 5, -3, 8, -8, 12, 13, -7, 21]
    bad = [9, 6, 1, -1, 0, 25, -9, 18]
    for d in good:
        assert is_fundamental_discriminant(d), d
    for d in bad:
        assert not is_fundamental_discriminant(d), d


def test_kronecker_symbol_values():
    assert kronecker_symbol(-4, 5) == 1
    assert kronecker_symbol(-4, 3) == -1
    assert kronecker_symbol(5, 2) == -1
    assert kronecker_symbol(17, 2) == 1
    assert kronecker_symbol(-4, 2) == 0


def test_ledger_quadratic():
    ledger = ledger_quadratic(-4, 25)
    assert [(norm, mult) for norm, _, mult in ledger.entries] == [
        (2, 1), (5, 2), (9, 1), (13, 2), (17, 2)
    ]
    with pytest.raises(ValueError, match="fundamental discriminant"):
        ledger_quadratic(9, 100)


def test_ledger_projective_line():
    ledger = ledger_projective_line(2, 10)
    assert [(norm, mult) for norm, _, mult in ledger.entries] == [
        (2, 3), (4, 1), (8, 2)
    ]
    with pytest.raises(ValueError, match="only prime q"):
        ledger_projective_line(4, 10)


def test_count_irreducibles_matches_necklace_formula():
    def moebius(n):
        out, m = 1, n
        for p in primes_upto(n + 1):
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                out = -out
        return out

    def necklace(q, d):
        return sum(
            moebius(e) * q ** (d // e) for e in range(1, d + 1) if d % e == 0
        ) // d

    for q in (2, 3, 5):
        for d in range(1, 6):
            assert count_irreducibles(q, d) == necklace(q, d), (q, d)


def test_closed_points_dispatch():
    assert closed_points("spec Z", 10).entries == ledger_spec_z(10).entries
    assert closed_points("quadratic:-4", 25).entries == ledger_quadratic(-4, 25).entries
    assert closed_points("curve:2", 10).entries == ledger_projective_line(2, 10).entries
    with pytest.raises(ValueError, match="unsupported source"):
        closed_points("motives", 10)


def test_euler_equals_ruelle_exactly():
    ledger = ledger_spec_z(1000)
    for s in (1.5, 2.0, 3.0):
        euler, ruelle = euler_vs_ruelle(ledger, s, 1000)
        assert ulp_distance(euler, ruelle) <= 4
    with pytest.raises(ValueError):
        euler_vs_ruelle(ledger, 1.0, 1000)


def test_truncated_euler_approaches_reference():
    s = 2.0
    ref = zeta_reference(s)
    gaps = []
    ledger = ledger_spec_z(10**4)
    for bound in (10**2, 10**3, 10**4):
        euler, _ = euler_vs_ruelle(ledger, s, bound)
        gaps.append(abs(euler - ref))
    assert gaps[0] > gaps[1] > gaps[2]


def test_zeta_reference_spot_value():
    assert abs(zeta_reference(2.0) - math.pi**2 / 6) < 1e-6


def test_ulp_distance():
    assert ulp_distance(1.0, 1.0) == 0
    assert ulp_distance(1.0, math.nextafter(1.0, 2.0)) == 1
    assert ulp_distance(-1.0, math.nextafter(-1.0, 0.0)) == 1
