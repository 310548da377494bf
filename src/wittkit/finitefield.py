"""Explicit finite fields F_{p^n} at desk scale.

Elements are coefficient tuples (c_0, ..., c_{n-1}) of residues mod the
chosen irreducible modulus, constant term first. Element k of the
enumeration has digits of k base p, so "lexicographically smallest"
always means smallest under that integer encoding; both the modulus and
the published generator are picked that way, making field descriptions
reproducible across runs.
"""

from __future__ import annotations

import math
from typing import Iterator

from .ntheory import factorize, is_prime
from .poly import Polynomial
from .rings import GF

DEFAULT_FIELD_LIMIT = 10**7

FFElem = tuple[int, ...]


def _poly_powmod(base: Polynomial, e: int, mod: Polynomial) -> Polynomial:
    acc = Polynomial.one(base.ring)
    base = base % mod
    while e:
        if e & 1:
            acc = (acc * base) % mod
        base = (base * base) % mod
        e >>= 1
    return acc


def _is_irreducible(f: Polynomial, p: int) -> bool:
    """Degree-n modulus test: x^{p^n} = x mod f, and no subfield roots."""
    n = f.degree
    x = Polynomial.t(f.ring)
    if _poly_powmod(x, p**n, f) != x % f:
        return False
    for ell in factorize(n) if n > 1 else {}:
        g = _poly_powmod(x, p ** (n // ell), f) - x
        if f.gcd(g).degree != 0:
            return False
    return True


def monic_polys(p: int, d: int) -> Iterator[Polynomial]:
    """The p^d monic polynomials of degree d over F_p, in code order:
    the k-th has the base-p digits of k as its low coefficients."""
    Fp = GF(p)
    for k in range(p**d):
        coeffs = []
        for _ in range(d):
            coeffs.append(k % p)
            k //= p
        yield Polynomial(Fp, coeffs + [1])


def smallest_irreducible(p: int, n: int) -> Polynomial:
    """Lexicographically smallest monic irreducible of degree n over F_p."""
    for f in monic_polys(p, n):
        if _is_irreducible(f, p):
            return f
    raise ValueError(f"no irreducible of degree {n} over F_{p}")  # unreachable


class FiniteField:
    """F_{p^n} with a fixed modulus and a fixed published generator."""

    def __init__(self, p: int, n: int, limit: int = DEFAULT_FIELD_LIMIT):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if n < 1:
            raise ValueError("n must be >= 1")
        if p**n > limit:
            raise ValueError(f"field size {p}^{n} exceeds limit {limit}")
        self.p = p
        self.n = n
        self.q = p**n
        self.base = GF(p)
        self.modulus = smallest_irreducible(p, n)
        self.zero: FFElem = (0,) * n
        self.one: FFElem = (1,) + (0,) * (n - 1)
        self.gen = self._find_generator()

    # --- element encoding ---

    def encode(self, a: FFElem) -> int:
        code = 0
        for c in reversed(a):
            code = code * self.p + c
        return code

    def decode(self, code: int) -> FFElem:
        if not 0 <= code < self.q:
            raise ValueError(f"element code out of range: {code}")
        digits = []
        for _ in range(self.n):
            digits.append(code % self.p)
            code //= self.p
        return tuple(digits)

    def enumerate(self) -> Iterator[FFElem]:
        for code in range(self.q):
            yield self.decode(code)

    def from_int(self, m: int) -> FFElem:
        return (m % self.p,) + (0,) * (self.n - 1)

    # --- arithmetic ---

    def add(self, a: FFElem, b: FFElem) -> FFElem:
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def neg(self, a: FFElem) -> FFElem:
        p = self.p
        return tuple(-x % p for x in a)

    def sub(self, a: FFElem, b: FFElem) -> FFElem:
        return self.add(a, self.neg(b))

    def mul(self, a: FFElem, b: FFElem) -> FFElem:
        pa = Polynomial(self.base, a)
        pb = Polynomial(self.base, b)
        r = (pa * pb) % self.modulus
        return tuple(r[i] for i in range(self.n))

    def pow(self, a: FFElem, e: int) -> FFElem:
        if e < 0:
            return self.pow(self.inv(a), -e)
        acc = self.one
        base = a
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    def inv(self, a: FFElem) -> FFElem:
        if a == self.zero:
            raise ZeroDivisionError("0 is not invertible")
        return self.pow(a, self.q - 2)

    # --- generator and logs ---

    def is_generator(self, g: FFElem) -> bool:
        if g == self.zero:
            return False
        for ell in factorize(self.q - 1) if self.q > 2 else {}:
            if self.pow(g, (self.q - 1) // ell) == self.one:
                return False
        return True

    def _find_generator(self) -> FFElem:
        for code in range(1, self.q):
            g = self.decode(code)
            if self.is_generator(g):
                return g
        raise ValueError("no generator found")  # unreachable: F_q^* is cyclic

    def discrete_log(self, g: FFElem, x: FFElem) -> int:
        """k with g^k = x, 0 <= k < q-1, by baby-step giant-step."""
        if x == self.zero:
            raise ValueError("discrete log of 0 is undefined")
        if not self.is_generator(g):
            raise ValueError("base is not a generator")
        order = self.q - 1
        m = math.isqrt(order - 1) + 1
        baby = {}
        cur = self.one
        for j in range(m):
            baby.setdefault(cur, j)
            cur = self.mul(cur, g)
        giant = self.inv(self.pow(g, m))
        cur = x
        for i in range(m):
            if cur in baby:
                return (i * m + baby[cur]) % order
            cur = self.mul(cur, giant)
        raise ValueError("discrete log not found")  # unreachable for generators

    # --- formatting ---

    def format_element(self, a: FFElem) -> str:
        from .poly import format_poly

        return format_poly(Polynomial(self.base, a))

    def describe(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "size": self.q,
            "modulus": str(self.modulus),
            "generator": self.format_element(self.gen),
        }

    def __repr__(self):
        return f"FiniteField({self.p}, {self.n})"


_cache: dict[tuple[int, int], FiniteField] = {}


def finite_field_make(p: int, n: int, limit: int = DEFAULT_FIELD_LIMIT) -> FiniteField:
    key = (p, n)
    if key not in _cache:
        _cache[key] = FiniteField(p, n, limit=limit)
    return _cache[key]

