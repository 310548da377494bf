"""Elementary number theory helpers shared across the package.

Everything here is exact and desk-scale: trial division and sieves only,
no probabilistic primality.
"""

from __future__ import annotations

import math

TRIAL_DIVISION_LIMIT = 10**6


def is_prime(n: int) -> bool:
    """Trial-division primality test."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
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
    """Factor |n| by trial division.

    Raises ValueError if a cofactor above limit**2 remains that is not
    certified prime by the attempted divisors, or on n = 0.
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
        if n > limit * limit:
            raise ValueError(f"factor beyond trial-division limit {limit}: {n}")
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
