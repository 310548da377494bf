"""Elementary number theory helpers shared across the package.

Everything here is exact and desk-scale: the sieve stops at SIEVE_LIMIT,
factoring at trial divisors to TRIAL_DIVISION_LIMIT or a certified cofactor.
kronecker_symbol is the one quadratic character; callers check p prime.
Primality is trial division by the primes up to 127, then Miller-Rabin
on the first k prime bases, which is exact below psi_k (Jaeschke 1993;
Sorenson & Webster, "Strong pseudoprimes to twelve prime bases", Math.
Comp. 2017): the bases 2..41 certify every n below psi_13 ~ 3.3 * 10^24,
and is_prime refuses from there on.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right

from .util import over_cap

TRIAL_DIVISION_LIMIT = 10**6
SIEVE_LIMIT = 2 * 10**6

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_SMALL_PRODUCT = math.prod(_SMALL_PRIMES)
# the primes 43..127: below 43^2, coprime to the primes up to 41 means prime
_NEXT_PRODUCT = math.prod(q for q in range(43, 128) if math.gcd(q, _SMALL_PRODUCT) == 1)
# psi_k for k = 1..13: the least strong pseudoprime to the first k prime bases
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
        3825123056546413051, 318665857834031151167461, 3317044064679887385961981)
PRIMALITY_BOUND = _PSI[-1]


def is_prime(n: int) -> bool:
    """Exact primality below PRIMALITY_BOUND = psi_13; ValueError above.

    Trial division is a gcd with the product of the primes up to 41,
    which decides n < 43^2, then one with the primes 43..127, which
    decides n < 131^2; beyond, Miller-Rabin runs on the first k prime
    bases for the least k with n < psi_k.
    """
    if n < 43 * 43:
        if math.gcd(n, _SMALL_PRODUCT) != 1:  # prime only if it is that divisor
            return n <= 41 and n in _SMALL_PRIMES
        return n > 1
    if n >= PRIMALITY_BOUND:
        raise ValueError(over_cap("primality test", f"n = {n}", PRIMALITY_BOUND - 1))
    if math.gcd(n, _SMALL_PRODUCT) != 1 or math.gcd(n, _NEXT_PRODUCT) != 1:
        return False
    if n < 131 * 131:
        return True
    m = n - 1
    s = (m & -m).bit_length() - 1
    d = m >> s
    for a in _SMALL_PRIMES[: bisect_right(_PSI, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == m:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == m:
                break
        else:
            return False
    return True


def primes_upto(bound: int) -> list[int]:
    """All primes p <= bound, by Eratosthenes; ValueError above SIEVE_LIMIT."""
    if bound > SIEVE_LIMIT:
        raise ValueError(over_cap("prime sieve", f"bound {bound}", SIEVE_LIMIT))
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(2, bound + 1) if sieve[p]]


def factorize(n: int) -> dict[int, int]:
    """Factor |n| by trial division up to TRIAL_DIVISION_LIMIT.

    The cofactor is tested with is_prime before the division and after
    each prime divided out, so a prime one ends it at once. A cofactor
    left composite, or at or above PRIMALITY_BOUND, raises ValueError,
    as does n = 0.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    factors: dict[int, int] = {}
    certified = n < PRIMALITY_BOUND and is_prime(n)
    limit = TRIAL_DIVISION_LIMIT
    pairs = ((d, d + 2) for d in range(5, limit + 1, 6))
    for q in itertools.chain((2, 3), itertools.chain.from_iterable(pairs)):
        if n == 1 or certified:
            break
        if n % q == 0:
            while n % q == 0:
                factors[q] = factors.get(q, 0) + 1
                n //= q
            certified = n < PRIMALITY_BOUND and is_prime(n)
    if n > 1 and not certified:  # trial division to isqrt(n) would split n or prove it prime
        raise ValueError(over_cap(f"factoring {n}", f"trial divisors to {math.isqrt(n)}", limit))
    if n > 1:
        factors[n] = 1
    return factors


def euler_phi(n: int) -> int:
    """Euler totient; phi(1) = 1."""
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    result = n
    for p in factorize(n) if n > 1 else {}:
        result -= result // p
    return result


def kronecker_symbol(d: int, p: int) -> int:
    """(d|p) for a prime p that the caller has checked: Euler's criterion
    d^((p-1)/2) mod p for odd p; for p = 2, 0 on even d, +1 on d = +-1
    mod 8 and -1 on d = +-3 mod 8."""
    if p == 2:
        return (0, 1, 0, -1, 0, -1, 0, 1)[d % 8]
    r = pow(d, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def sqrt_mod_prime(a: int, p: int) -> int | None:
    """A square root of a mod p, or None if a is a non-residue.

    Tonelli-Shanks; p must be an odd prime (p = 2 returns a % 2).
    """
    a %= p
    if p == 2 or a == 0:
        return a
    if kronecker_symbol(a, p) != 1:
        return None
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = q * 2^s with q odd
    q = (p - 1) >> s
    z = 2
    while kronecker_symbol(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r
