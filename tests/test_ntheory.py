import pytest

from wittkit.ntheory import (
    PRIMALITY_BOUND,
    bounded_power,
    factorize,
    is_prime,
    primes_upto,
    sqrt_mod_prime,
)


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
        with pytest.raises(ValueError, match=f"certified only below {PRIMALITY_BOUND}"):
            is_prime(n)


def test_factorize_keeps_certified_prime_cofactors():
    """A cofactor beyond trial division is kept when is_prime certifies
    it; a composite one, or one at or above PRIMALITY_BOUND, is refused."""
    assert factorize(10**18 + 3) == {10**18 + 3: 1}
    assert factorize(10**18 + 6) == {2: 1, 7: 1, 919: 1, 77724234416291: 1}
    assert factorize(-3 * 10007) == {3: 1, 10007: 1}
    with pytest.raises(ValueError, match="^factor beyond trial-division limit 1000000: "
                                         "1000036000099$"):
        factorize(1000003 * 1000033)
    for n in (PRIMALITY_BOUND, 2**89 - 1):  # a composite and a prime at or above the bound
        with pytest.raises(ValueError, match=f"limit 1000000 and primality bound "
                                             f"{PRIMALITY_BOUND}: {n}$"):
            factorize(n)


def test_bounded_power():
    assert bounded_power(7, 20, 10**8) == 7**20
    assert bounded_power(2, 100, 10**8) == 2**100  # above the limit, but within 2^128 of it
    assert bounded_power(2, 10**9, 10**8) is None
    assert bounded_power(3, 10**8, 10**7) is None
