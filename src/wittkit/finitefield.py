"""Explicit finite fields F_{p^n} of at most DEFAULT_FIELD_LIMIT elements.

Elements are coefficient tuples (c_0, ..., c_{n-1}) of ints mod p,
residues mod the chosen monic irreducible modulus, constant term first;
no other module knows that encoding. The plain-int F_p[t] kernel of
`poly` (`_mulmod`/`_powmod`) serves field arithmetic, the generator
search and discrete logs; its distinct-degree loop `_factor_degrees`
tests each modulus candidate and stops a reducible one at its smallest
factor degree. `FiniteField.tables()` builds exp/log/digit tables over
element codes lazily, once per field.

Element k of the enumeration has the digits of k base p, so
"lexicographically smallest" always means smallest under that integer
encoding; both the modulus and the published generator are picked that
way, making field descriptions reproducible across runs.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator

from .ntheory import factorize, is_prime
from .poly import Polynomial, _factor_degrees, _mulmod, _powmod, format_poly
from .rings import GF
from .util import capped_power

DEFAULT_FIELD_LIMIT = 10**7

FFElem = tuple[int, ...]


def _is_irreducible(f: Polynomial, p: int) -> bool:
    """Whether a monic f is irreducible over F_p: the distinct-degree loop's
    first pair is (deg f, 1), where a reducible f yields a lower degree first."""
    return f.degree <= 1 or next(_factor_degrees(f.coeffs, p)) == (f.degree, 1)


def monic_polys(p: int, d: int) -> Iterator[Polynomial]:
    """The p^d monic polynomials of degree d over F_p, in code order:
    the k-th has the base-p digits of k as its low coefficients."""
    Fp = GF(p)
    for k in range(p**d):
        yield Polynomial(Fp, [k // p**i % p for i in range(d)] + [1])


def smallest_irreducible(p: int, n: int) -> Polynomial:
    """Lexicographically smallest monic irreducible of degree n over F_p."""
    for f in monic_polys(p, n):
        if _is_irreducible(f, p):
            return f
    raise ValueError(f"no irreducible of degree {n} over F_{p}")  # unreachable


class FiniteField:
    """F_{p^n} with a fixed modulus and a fixed published generator."""

    def __init__(self, p: int, n: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if n < 1:
            raise ValueError("n must be >= 1")
        self.p, self.n = p, n
        self.q = capped_power(p, n, DEFAULT_FIELD_LIMIT, "finite field", "elements")
        self.base = GF(p)
        self.modulus = smallest_irreducible(p, n)
        self._low: FFElem = self.modulus.coeffs[:n]
        self.zero: FFElem = (0,) * n
        self.one: FFElem = (1,) + (0,) * (n - 1)
        self._order_primes = list(factorize(self.q - 1)) if self.q > 2 else []
        self.gen = self._find_generator()
        self._tables: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

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

    def mul(self, a: FFElem, b: FFElem) -> FFElem:
        return _mulmod(a, b, self._low, self.p)

    def pow(self, a: FFElem, e: int) -> FFElem:
        if e < 0:
            return self.pow(self.inv(a), -e)
        return _powmod(a, e, self._low, self.p)

    def inv(self, a: FFElem) -> FFElem:
        if a == self.zero:
            raise ZeroDivisionError("0 is not invertible")
        return self.pow(a, self.q - 2)

    # --- generator, logs and tables ---

    def is_generator(self, g: FFElem) -> bool:
        if g == self.zero:
            return False
        for ell in self._order_primes:
            if self.pow(g, (self.q - 1) // ell) == self.one:
                return False
        return True

    def _find_generator(self) -> FFElem:
        # for n > 1, codes below p are constants of F_p: orders divide p - 1
        for code in range(self.p if self.n > 1 else 1, self.q):
            g = self.decode(code)
            if self.is_generator(g):
                return g
        raise ValueError("no generator found")  # unreachable: F_q^* is cyclic

    def discrete_log(self, g: FFElem, x: FFElem) -> int:
        """k with g^k = x, 0 <= k < q-1, by baby-step giant-step.

        A one-shot log stays BSGS rather than a lookup in tables():
        O(sqrt q) kernel steps instead of building q-entry tables."""
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

    def tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(exp, log, digits) over element codes, built on first use.

        exp[k] is the code of gen^k for 0 <= k < q-1; log[c] is the k
        with exp[k] = c, and log[0] = -1 for the zero element, code 0;
        digits[c] is the element with code c as a row of n coefficients.
        All int64 and read-only."""
        if self._tables is None:
            import numpy as np

            p, n, q = self.p, self.n, self.q
            exp = np.empty(q - 1, dtype=np.int64)
            cur = self.one
            for k in range(q - 1):
                exp[k] = self.encode(cur)
                cur = _mulmod(cur, self.gen, self._low, p)
            log = np.full(q, -1, dtype=np.int64)
            log[exp] = np.arange(q - 1, dtype=np.int64)
            weights = p ** np.arange(n, dtype=np.int64)
            digits = np.arange(q, dtype=np.int64)[:, None] // weights % p
            for table in (exp, log, digits):
                table.flags.writeable = False
            self._tables = (exp, log, digits)
        return self._tables

    # --- formatting ---

    def format_element(self, a: FFElem) -> str:
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


@functools.lru_cache(maxsize=64)
def finite_field_make(p: int, n: int) -> FiniteField:
    """The shared FiniteField(p, n); the 64 most recently used fields,
    with any tables they built, stay cached."""
    return FiniteField(p, n)
