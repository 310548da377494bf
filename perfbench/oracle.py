"""Reference arithmetic for checking outputs, independent of wittkit.

Everything is plain integers and Fractions with the textbook method,
so a wrong answer from the program cannot be reproduced here by
sharing its code.
"""

from __future__ import annotations

import math
from fractions import Fraction


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def primes_below(n: int) -> list[int]:
    return [v for v in range(2, n) if is_prime(v)]


def legendre(a: int, p: int) -> int:
    """Euler's criterion for an odd prime p."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def kronecker(d: int, p: int) -> int:
    """(d|p) for a prime p, with the p = 2 rule for d = 1 mod 4."""
    if p == 2:
        return 0 if d % 2 == 0 else (1 if d % 8 in (1, 7) else -1)
    return legendre(d, p)


def prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def euler_phi(n: int) -> int:
    for p in prime_factors(n):
        n = n // p * (p - 1)
    return n


def mobius(n: int) -> int:
    k = 0
    for p in prime_factors(n):
        if n % (p * p) == 0:
            return 0
        k += 1
    return -1 if k % 2 else 1


def necklace(q: int, d: int) -> int:
    """Monic irreducibles of degree d over F_q (Gauss)."""
    return sum(mobius(e) * q ** (d // e) for e in range(1, d + 1) if d % e == 0) // d


def ghost(num: list, den: list, order: int) -> list:
    """g_1..g_order of f = num/den, the coefficients of -t f'/f, from the
    power series of f (num[0] = den[0] = 1)."""
    c = []
    for n in range(order + 1):
        acc = num[n] if n < len(num) else 0
        for k in range(1, min(n, len(den) - 1) + 1):
            acc -= den[k] * c[n - k]
        c.append(acc if den[0] == 1 else Fraction(acc) / den[0])
    g = []
    for n in range(1, order + 1):
        acc = -n * c[n]
        for k in range(1, n):
            acc -= g[k - 1] * c[n - k]
        g.append(acc)
    return g


def affine_count(p: int, terms: list) -> int:
    """Points of one equation sum c x^i y^j = 0 over F_p, by a double loop."""
    return sum(
        1
        for x in range(p)
        for y in range(p)
        if sum(c * pow(x, i, p) * pow(y, j, p) for c, (i, j) in terms) % p == 0
    )
