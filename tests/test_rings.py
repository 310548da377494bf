import pytest
from fractions import Fraction

from wittkit.ntheory import primes_upto
from wittkit.rings import GF, QQ, ZZ, ring_by_name


def test_integer_ring_basics():
    cases = [
        (ZZ.coerce(3 + 4), 7),
        (ZZ.coerce(3 - 4), -1),
        (ZZ.coerce(-3 * 4), -12),
        (ZZ.coerce(-5), -5),
        (ZZ.div(12, 4), 3),
        (ZZ.div(-12, 4), -3),
        (ZZ.inv(1), 1),
        (ZZ.inv(-1), -1),
        (ZZ.coerce(9), 9),
        (ZZ.coerce(Fraction(6, 2)), 3),
    ]
    for got, want in cases:
        assert got == want
    assert ZZ.coerce(0) == 0 and ZZ.coerce(1) == 1
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
    assert QQ.coerce(half + half) == 1
    assert QQ.coerce(half * Fraction(2, 3)) == Fraction(1, 3)
    assert QQ.inv(Fraction(-2, 5)) == Fraction(-5, 2)
    assert QQ.div(Fraction(1), Fraction(3)) == Fraction(1, 3)
    assert type(QQ.div(1, 3)) is Fraction and QQ.div(1, 3) == Fraction(1, 3)
    assert QQ.is_field
    # integers serialize as ints, proper fractions as strings
    assert QQ.to_json(Fraction(4, 2)) == 2
    assert QQ.to_json(Fraction(1, 3)) == "1/3"
    assert QQ.coerce("1/3") == Fraction(1, 3)
    assert QQ.coerce(-5) == -5


def test_prime_field():
    F5 = GF(5)
    assert F5.name == "Fp:5"
    assert F5.coerce(3 + 4) == 2
    assert F5.coerce(3 * 4) == 2
    assert F5.coerce(-2) == 3
    assert F5.inv(2) == 3
    assert F5.div(1, 4) == 4
    assert F5.coerce(-1) == 4
    assert F5.coerce(Fraction(1, 2)) == 3
    assert F5.is_field
    for a in range(1, 5):
        assert F5.coerce(a * F5.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        F5.inv(0)


def test_descriptors_keep_no_element_arithmetic():
    # elements are plain numbers; a ring only normalises, divides and serialises
    for ring in (ZZ, QQ, GF(5)):
        for name in ("add", "sub", "neg", "mul", "from_int", "zero", "one", "eq",
                     "is_zero", "format", "from_json"):
            assert not hasattr(ring, name), (ring, name)


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
