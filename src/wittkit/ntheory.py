"""Elementary number theory helpers shared across the package.

Everything here is exact and desk-scale. Factoring is trial division up
to a limit, with the cofactor left over certified prime by is_prime.
Primality is trial division by the primes up to 127, then Miller-Rabin
on the first k prime bases, which is exact below psi_k (Jaeschke 1993;
Sorenson & Webster, "Strong pseudoprimes to twelve prime bases", Math.
Comp. 2017): the bases 2..41 certify every n below psi_13 ~ 3.3 * 10^24,
and is_prime refuses from there on.
"""

from __future__ import annotations

import math
from bisect import bisect_right

TRIAL_DIVISION_LIMIT = 10**6

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
        raise ValueError(f"primality is certified only below {PRIMALITY_BOUND}")
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
    """All primes p <= bound, by Eratosthenes."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(2, bound + 1) if sieve[p]]


def factorize(n: int, limit: int = TRIAL_DIVISION_LIMIT) -> dict[int, int]:
    """Factor |n| by trial division up to limit.

    A cofactor above limit**2 is kept if is_prime certifies it; a
    composite one, or one at or above PRIMALITY_BOUND, raises ValueError,
    as does n = 0.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    factors: dict[int, int] = {}
    for p in [2, 3]:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n and d <= limit:
        for q in (d, d + 2):
            while n % q == 0:
                factors[q] = factors.get(q, 0) + 1
                n //= q
        d += 6
    if n > 1:
        if n > limit * limit and (n >= PRIMALITY_BOUND or not is_prime(n)):
            bound = f" and primality bound {PRIMALITY_BOUND}" if n >= PRIMALITY_BOUND else ""
            raise ValueError(f"factor beyond trial-division limit {limit}{bound}: {n}")
        factors[n] = factors.get(n, 0) + 1
    return factors


def euler_phi(n: int) -> int:
    """Euler totient; phi(1) = 1."""
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    result = n
    for p in factorize(n) if n > 1 else {}:
        result -= result // p
    return result


def sqrt_mod_prime(a: int, p: int) -> int | None:
    """A square root of a mod p, or None if a is a non-residue.

    Tonelli-Shanks; p must be an odd prime (p = 2 returns a % 2).
    """
    a %= p
    if p == 2 or a == 0:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p - 1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
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
