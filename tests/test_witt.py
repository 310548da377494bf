import pytest
from fractions import Fraction

from wittkit.poly import Polynomial
from wittkit.rings import GF, QQ, ZZ
from wittkit.witt import (
    WittVector,
    canonical_projection,
    frobenius,
    from_ghost,
    ghost,
    poly_from_power_sums,
    power_sums,
    teichmuller,
    tensor_det,
    verschiebung,
    witt_add,
    witt_mul,
    witt_neg,
    witt_one,
    witt_sub,
    witt_zero,
)
from oracles import companion, frobenius_via_matrices, witt_mul_kronecker


def ZP(coeffs):
    return Polynomial(ZZ, coeffs)


def W(num, den=None):
    return WittVector(ZP(num), ZP(den) if den is not None else None)


def test_teichmuller_is_one_minus_rt():
    assert teichmuller(2).num.coeffs == (1, -2)
    assert teichmuller(2).den.coeffs == (1,)
    assert teichmuller(0) == witt_zero()
    assert teichmuller(Fraction(1, 2)).ring == QQ
    assert teichmuller(3, GF(5)).num.coeffs == (1, 2)


def test_witt_add_is_series_multiplication():
    s = witt_add(teichmuller(2), teichmuller(3))
    assert s.num.coeffs == (1, -5, 6)
    assert s.den.coeffs == (1,)
    assert witt_add(s, witt_zero()) == s


def test_witt_neg_and_sub():
    f = W([1, -5, 6])
    n = witt_neg(f)
    assert n.num.coeffs == (1,) and n.den.coeffs == (1, -5, 6)
    assert witt_add(f, n) == witt_zero()
    assert witt_sub(f, teichmuller(2)) == teichmuller(3)


def test_cancellation_in_constructor():
    # (1-2t)(1-3t) / (1-2t) reduces to 1-3t
    f = WittVector(ZP([1, -5, 6]), ZP([1, -2]))
    assert f.num.coeffs == (1, -3)
    assert f.den.coeffs == (1,)


def test_constructor_rejects_bad_constants():
    for num, den in [([2, -1], [1]), ([0, 1], [1]), ([1], [3, 1])]:
        with pytest.raises(ValueError, match="not a Witt vector"):
            W(num, den)
    with pytest.raises(ValueError, match="not defined over Z"):
        W([2, 1], [2])


def test_witt_mul_teichmuller_multiplicativity():
    assert witt_mul(teichmuller(2), teichmuller(3)) == teichmuller(6)
    got = witt_mul(witt_add(teichmuller(2), teichmuller(3)), teichmuller(5))
    assert got.num.coeffs == (1, -25, 150)
    assert witt_mul(W([1, -5, 6]), witt_one()) == W([1, -5, 6])
    assert witt_mul(W([1, -5, 6]), witt_zero()) == witt_zero()


def test_witt_mul_with_denominators():
    f = WittVector(ZP([1]), ZP([1, -2]))  # -[2]
    g = teichmuller(3)
    got = witt_mul(f, g)
    assert got.num.coeffs == (1,)
    assert got.den.coeffs == (1, -6)


def test_witt_mul_matches_kronecker_reference():
    vectors = [
        W([1, -5, 6]),
        W([1, 2, 7]),
        W([1, -1], [1, 3]),
        W([1, 0, 0, 4]),
    ]
    for f in vectors:
        for g in vectors:
            assert witt_mul(f, g) == witt_mul_kronecker(f, g)


def test_witt_mul_cap():
    f = W([1] + [0] * 9 + [1])  # degree 10 numerator
    with pytest.raises(ValueError, match="witt mul needs tensor degree 100, above the cap 64"):
        witt_mul(f, f)


def test_ghost_components():
    assert ghost(W([1, -5, 6]), 3) == [5, 13, 35]
    assert ghost(teichmuller(7), 4) == [7, 49, 343, 2401]
    assert ghost(witt_zero(), 3) == [0, 0, 0]
    # over F_5 the recurrence is division-free
    f5 = W([1, -5, 6]).map_ring(GF(5))
    assert ghost(f5, 3) == [0, 3, 0]


def test_ghost_of_quotient():
    f = WittVector(ZP([1]), ZP([1, -2]))
    assert ghost(f, 3) == [-2, -4, -8]


def test_from_ghost_round_trip():
    assert from_ghost([1, 1, 1, 1, 1, 1], 1, 0) == teichmuller(1).map_ring(QQ)
    assert from_ghost([6, 36, 216], 1, 0) == teichmuller(6).map_ring(QQ)
    f = W([1, -5, 6])
    g = ghost(f, 8)
    assert from_ghost(g, 2, 0) == f.map_ring(QQ)
    h = WittVector(ZP([1, 1]), ZP([1, -2, 3]))
    assert from_ghost(ghost(h, 9), 1, 2) == h.map_ring(QQ)


def test_from_ghost_needs_enough_data():
    with pytest.raises(ValueError):
        from_ghost([5, 13], 2, 2)


def test_frobenius_known_values():
    f = W([1, -5, 6])
    assert frobenius(f, 2).num.coeffs == (1, -13, 36)
    assert frobenius(f, 3).num.coeffs == (1, -35, 216)
    assert frobenius(f, 1) == f
    assert frobenius(teichmuller(2), 5) == teichmuller(32)
    with pytest.raises(ValueError):
        frobenius(f, 0)


def test_frobenius_matches_matrix_reference():
    vectors = [W([1, -5, 6]), W([1, 2, -1], [1, 1]), teichmuller(4)]
    for f in vectors:
        for nu in (2, 3, 4):
            assert frobenius(f, nu) == frobenius_via_matrices(f, nu)


def test_verschiebung_spreads_coefficients():
    assert verschiebung(teichmuller(3), 2).num.coeffs == (1, 0, -3)
    f = WittVector(ZP([1, 1]), ZP([1, -2]))
    v = verschiebung(f, 3)
    assert v.num.coeffs == (1, 0, 0, 1)
    assert v.den.coeffs == (1, 0, 0, -2)


def test_frobenius_verschiebung_composition():
    # F_nu V_nu = multiplication by nu in the additive sense
    f = teichmuller(3)
    got = frobenius(verschiebung(f, 2), 2)
    assert got == witt_add(f, f)
    assert got.num.coeffs == (1, -6, 9)


def test_canonical_projection():
    assert canonical_projection(W([1, -5, 6])) == 5
    assert canonical_projection(teichmuller(9)) == 9
    assert canonical_projection(WittVector(ZP([1]), ZP([1, -2]))) == -2
    # projection is additive
    f, g = W([1, 2, 7]), W([1, -1], [1, 3])
    assert canonical_projection(witt_add(f, g)) == canonical_projection(
        f
    ) + canonical_projection(g)
    # and multiplicative across witt_mul
    assert canonical_projection(witt_mul(f, g)) == canonical_projection(
        f
    ) * canonical_projection(g)


def test_power_sums_match_companion_traces():
    P = ZP([1, -5, 6])
    sums = power_sums(P, 5)
    C = companion(P.reversal())
    assert sums == [C.pow(k).trace() for k in range(1, 6)]
    assert sums == [2**k + 3**k for k in range(1, 6)]
    assert poly_from_power_sums(ZZ, sums, 2) == P


def test_tensor_det_known():
    assert tensor_det(ZP([1, -2]), ZP([1, -3])).coeffs == (1, -6)
    got = tensor_det(ZP([1, -5, 6]), ZP([1, -2]))
    assert got.coeffs == (1, -10, 24)  # roots 4 and 6
    assert tensor_det(ZP([1]), ZP([1, -5, 6])).coeffs == (1,)


def test_prime_field_witt_arithmetic():
    F5 = GF(5)
    a = teichmuller(2, F5)
    b = teichmuller(3, F5)
    assert witt_add(a, b).num.coeffs == (1, 0, 1)
    assert witt_mul(a, b).num.coeffs == (1, 4)  # [6] = [1] mod 5
    assert frobenius(witt_add(a, b), 2).num.coeffs == (1, 2, 1)


def test_json_round_trip():
    for f in [W([1, -5, 6]), WittVector(ZP([1, 1]), ZP([1, -2])),
              teichmuller(Fraction(2, 3)), teichmuller(4, GF(7))]:
        assert WittVector.from_json(f.to_json()) == f
    data = W([1, -5, 6]).to_json()
    assert data == {"num": [1, -5, 6], "den": [1], "ring": "Z"}


def test_power_series_to_order():
    f = WittVector(ZP([1]), ZP([1, -1]))
    assert f.series(4) == ZP([1, 1, 1, 1, 1])
    assert WittVector(ZP([1, -1])).series(4) == ZP([1, -1])  # degree <= order
