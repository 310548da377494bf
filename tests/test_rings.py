import pytest
from fractions import Fraction

from wittkit.ntheory import primes_upto
from wittkit.rings import GF, QQ, ZZ, ring_by_name


def test_integer_ring_basics():
    cases = [
        (ZZ.add(3, 4), 7),
        (ZZ.sub(3, 4), -1),
        (ZZ.mul(-3, 4), -12),
        (ZZ.neg(5), -5),
        (ZZ.div(12, 4), 3),
        (ZZ.div(-12, 4), -3),
        (ZZ.inv(1), 1),
        (ZZ.inv(-1), -1),
        (ZZ.from_int(9), 9),
        (ZZ.coerce(Fraction(6, 2)), 3),
    ]
    for got, want in cases:
        assert got == want
    assert ZZ.zero == 0 and ZZ.one == 1
    assert not ZZ.is_field


def test_integer_ring_inexact_division():
    with pytest.raises(ValueError, match="inexact division"):
        ZZ.div(7, 2)
    with pytest.raises(ValueError):
        ZZ.inv(2)
    with pytest.raises(TypeError, match="not an integer"):
        ZZ.coerce(Fraction(1, 2))


def test_rational_field():
    half = Fraction(1, 2)
    assert QQ.add(half, half) == 1
    assert QQ.mul(half, Fraction(2, 3)) == Fraction(1, 3)
    assert QQ.inv(Fraction(-2, 5)) == Fraction(-5, 2)
    assert QQ.div(Fraction(1), Fraction(3)) == Fraction(1, 3)
    assert QQ.is_field
    # integers serialize as ints, proper fractions as strings
    assert QQ.to_json(Fraction(4, 2)) == 2
    assert QQ.to_json(Fraction(1, 3)) == "1/3"
    assert QQ.from_json("1/3") == Fraction(1, 3)
    assert QQ.from_json(-5) == -5


def test_prime_field():
    F5 = GF(5)
    assert F5.name == "Fp:5"
    assert F5.add(3, 4) == 2
    assert F5.mul(3, 4) == 2
    assert F5.neg(2) == 3
    assert F5.inv(2) == 3
    assert F5.div(1, 4) == 4
    assert F5.coerce(-1) == 4
    assert F5.coerce(Fraction(1, 2)) == 3
    assert F5.is_field
    for a in range(1, 5):
        assert F5.mul(a, F5.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        F5.inv(0)


def test_gf_requires_prime():
    with pytest.raises(ValueError):
        GF(6)
    assert GF(7) is GF(7)


def test_ring_by_name_round_trip():
    for ring in (ZZ, QQ, GF(5), GF(101)):
        assert ring_by_name(ring.name) == ring
    with pytest.raises(ValueError):
        ring_by_name("Fq:8")


def test_gf_cache_is_bounded():
    old = GF(5)
    for p in [q for q in primes_upto(400) if q != 5][:64]:
        GF(p)
    assert GF.cache_info().currsize <= 64
    new = GF(5)
    assert new is not old  # evicted and rebuilt
    assert new == old and hash(new) == hash(old)
