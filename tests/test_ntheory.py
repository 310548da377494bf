import math

import pytest

from wittkit.ntheory import (
    PRIMALITY_BOUND,
    factorize,
    is_prime,
    primes_upto,
    sqrt_mod_prime,
)
from wittkit.util import capped_power


def test_sqrt_mod_prime_matches_exhaustive_squares():
    """Every residue of every odd prime below 2000, which includes the
    Tonelli-Shanks branch for p = 1 mod 8; None exactly on non-residues."""
    primes = primes_upto(2000)[1:]
    assert any(p % 8 == 1 for p in primes)
    for p in primes:
        squares = {x * x % p for x in range(p)}
        for a in range(p):
            r = sqrt_mod_prime(a, p)
            if a in squares:
                assert r is not None and 0 <= r < p and r * r % p == a, (a, p, r)
            else:
                assert r is None, (a, p, r)


def test_is_prime_refuses_above_its_certified_bound():
    assert PRIMALITY_BOUND == 3317044064679887385961981
    assert is_prime(PRIMALITY_BOUND - 168)  # the largest prime below the bound
    assert not is_prime(PRIMALITY_BOUND - 2)  # 17 * 1709 * 1366183751 * 83570142193
    for n in (PRIMALITY_BOUND, 10**30, 2**4000 + 1):
        with pytest.raises(ValueError, match=f"^primality test needs n = {n}, above the cap"
                                             f" {PRIMALITY_BOUND - 1}$"):
            is_prime(n)


def test_factorize_keeps_certified_prime_cofactors():
    """A cofactor beyond trial division is kept when is_prime certifies
    it; a composite one, or one at or above PRIMALITY_BOUND, is refused."""
    assert factorize(10**18 + 3) == {10**18 + 3: 1}
    assert factorize(10**18 + 6) == {2: 1, 7: 1, 919: 1, 77724234416291: 1}
    assert factorize(-3 * 10007) == {3: 1, 10007: 1}
    # trial division to isqrt(n) would split a composite n or prove a prime one
    with pytest.raises(ValueError, match="^factoring 1000036000099 needs trial divisors to"
                                         " 1000017, above the cap 1000000$"):
        factorize(1000003 * 1000033)
    for n in (PRIMALITY_BOUND, 2**89 - 1):  # a composite and a prime at or above the bound
        with pytest.raises(ValueError, match=f"^factoring {n} needs trial divisors to"
                                             f" {math.isqrt(n)}, above the cap 1000000$"):
            factorize(n)


def test_capped_power():
    """The exact power up to the cap; above it the exact power, and within a
    factor 2^128 above it the power written p^e."""
    assert capped_power(7, 9, 10**8, "s", "u") == 7**9
    assert capped_power(2, 20, 2**20, "s", "u") == 2**20  # at the cap
    for p, e, cap, need in [
        (7, 20, 10**8, "79792266297612001"),
        (2, 100, 10**8, str(2**100)),  # above the cap, but within 2^128 of it
        (2, 10**9, 10**8, "2^1000000000"),
        (3, 10**8, 10**7, "3^100000000"),
    ]:
        with pytest.raises(ValueError) as refusal:
            capped_power(p, e, cap, "s", "u")
        assert str(refusal.value) == f"s needs {need} u, above the cap {cap}"
    with pytest.raises(ValueError) as refusal:
        capped_power(3, 10**8, 10, "s", "u", "--c")
    assert str(refusal.value) == "s needs 3^100000000 u, above the cap 10; --c raises it"
