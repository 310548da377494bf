import random
import time

import numpy as np
import pytest

from wittkit.finitefield import FiniteField, finite_field_make, smallest_irreducible
from wittkit.ntheory import euler_phi, primes_upto
from wittkit.rings import GF


def test_smallest_irreducible_known():
    """The modulus fixes each field's element encoding, so every printed field
    element depends on it; F_2^23 is at the field size limit."""
    cases = [
        ((2, 1), (0, 1)),        # t
        ((2, 2), (1, 1, 1)),     # t^2 + t + 1
        ((2, 3), (1, 1, 0, 1)),  # t^3 + t + 1, not t^3 + t^2 + 1
        ((3, 2), (1, 0, 1)),     # t^2 + 1
        ((5, 1), (0, 1)),
        ((2, 23), (1, 0, 0, 0, 0, 1) + (0,) * 17 + (1,)),  # t^23 + t^5 + 1
        ((3, 14), (2, 1) + (0,) * 12 + (1,)),  # t^14 + t + 2
        ((1009, 2), (11, 0, 1)),
        ((101, 3), (1, 1, 0, 1)),
        ((17, 4), (3, 0, 0, 0, 1)),
        ((7, 4), (1, 1, 0, 0, 1)),
    ]
    for (p, n), want in cases:
        assert smallest_irreducible(p, n).coeffs == want, (p, n)


def test_field_construction_and_published_generator():
    F8 = FiniteField(2, 3)
    assert F8.q == 8
    assert F8.modulus.coeffs == (1, 1, 0, 1)
    assert F8.gen == (0, 1, 0)  # t itself generates F_8^x
    F5 = FiniteField(5, 1)
    assert F5.gen == (2,)  # smallest generator of F_5^x
    F9 = FiniteField(3, 2)
    assert F9.is_generator(F9.gen)


def test_generator_search_skips_constants():
    """For n > 1 the search starts past the constants of F_p, which
    cannot generate; it finds the generator a search from code 1 finds."""
    for p in primes_upto(59):
        n = 1
        while p**n <= 2 * 10**5:
            F = FiniteField(p, n)
            first = next(c for c in range(1, F.q) if F.is_generator(F.decode(c)))
            assert F.gen == F.decode(first), (p, n)
            n += 1


def test_field_size_limit():
    with pytest.raises(ValueError, match="above the cap 10000000"):
        FiniteField(2, 24)


def test_field_size_limit_refuses_huge_degrees_at_once():
    # decided from bit lengths: 3^(10^8) is never built
    for n in (10**7, 10**8):
        start = time.perf_counter()
        with pytest.raises(ValueError,
                           match=rf"^finite field needs 3\^{n} elements, above the cap 10000000$"):
            FiniteField(3, n)
        assert time.perf_counter() - start < 0.5


def test_arithmetic_field_axioms_small():
    F9 = FiniteField(3, 2)
    elems = list(F9.enumerate())
    assert len(elems) == 9
    for a in elems:
        assert F9.add(a, F9.neg(a)) == F9.zero
        if a != F9.zero:
            assert F9.mul(a, F9.inv(a)) == F9.one
    # commutativity and distributivity on a sample
    rng = random.Random(3)
    for _ in range(30):
        a, b, c = (F9.decode(rng.randrange(9)) for _ in range(3))
        assert F9.add(a, b) == F9.add(b, a)
        assert F9.mul(a, b) == F9.mul(b, a)
        assert F9.mul(a, F9.add(b, c)) == F9.add(F9.mul(a, b), F9.mul(a, c))


def test_generator_has_full_order():
    for p, n in [(2, 3), (3, 2), (5, 2), (7, 1), (2, 8)]:
        F = FiniteField(p, n)
        order = F.q - 1
        seen = set()
        cur = F.one
        for _ in range(order):
            seen.add(cur)
            cur = F.mul(cur, F.gen)
        assert cur == F.one
        assert len(seen) == order
        # generator count matches phi(q - 1)
        if F.q <= 64:
            gens = sum(1 for a in F.enumerate() if a != F.zero and F.is_generator(a))
            assert gens == euler_phi(order)


def test_discrete_log_matches_enumeration():
    for p, n in [(2, 3), (3, 2), (5, 2), (11, 1)]:
        F = FiniteField(p, n)
        cur = F.one
        for k in range(F.q - 1):
            assert F.discrete_log(F.gen, cur) == k
            cur = F.mul(cur, F.gen)


def test_discrete_log_known_values():
    F8 = finite_field_make(2, 3)
    t = (0, 1, 0)
    t2 = F8.mul(t, t)
    assert F8.discrete_log(F8.gen, t2) == 2
    F5 = finite_field_make(5, 1)
    assert F5.discrete_log(F5.gen, (3,)) == 3  # 2^3 = 8 = 3 mod 5


def test_discrete_log_errors():
    F8 = FiniteField(2, 3)
    with pytest.raises(ValueError, match="discrete log of 0"):
        F8.discrete_log(F8.gen, F8.zero)
    with pytest.raises(ValueError, match="not a generator"):
        F8.discrete_log(F8.one, F8.gen)


def test_from_int_and_frobenius_compatibility():
    F9 = FiniteField(3, 2)
    assert F9.from_int(7) == (1, 0)
    assert F9.from_int(-1) == (2, 0)
    # x -> x^p is additive in characteristic p
    rng = random.Random(9)
    for _ in range(20):
        a, b = F9.decode(rng.randrange(9)), F9.decode(rng.randrange(9))
        lhs = F9.pow(F9.add(a, b), 3)
        rhs = F9.add(F9.pow(a, 3), F9.pow(b, 3))
        assert lhs == rhs


def test_make_caches():
    assert finite_field_make(2, 3) is finite_field_make(2, 3)


def test_make_cache_is_bounded_and_rebuilds_identically():
    F = finite_field_make(2, 3)
    tables = F.tables()
    assert F.tables() is tables
    for p in primes_upto(400)[:64]:  # 64 other fields evict F
        finite_field_make(p, 1)
    assert finite_field_make.cache_info().currsize == 64
    G = finite_field_make(2, 3)
    assert G is not F and G is finite_field_make(2, 3)
    assert G.describe() == F.describe()
    for old, new in zip(tables, G.tables()):
        assert np.array_equal(old, new)


def test_describe():
    d = FiniteField(2, 3).describe()
    assert d["size"] == 8
    assert d["generator"] == "t"
