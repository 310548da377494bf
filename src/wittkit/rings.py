"""Coefficient rings used throughout: Z, Q, and prime fields F_p.

Ring elements are plain Python numbers, combined with Python's
operators: ints over Z, fractions.Fraction over Q, ints over F_p. A
ring is a small descriptor that only normalises, divides and
serialises: coerce gives the canonical form (over F_p the one place an
int is reduced to [0, p)), div and inv divide with each ring's meaning,
and to_json and the name tag serialise. Polynomials and Witt vectors
accumulate with operators and coerce each result coefficient once, so
the same code runs over any of the rings.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .ntheory import is_prime


class Ring:
    """Base descriptor: normalise, divide, serialise."""

    name: str
    is_field: bool
    characteristic: int

    def coerce(self, x):
        """Canonical form of an element-like value (int always allowed), or fail."""
        raise NotImplementedError

    def div(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def to_json(self, a):
        return a

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, Ring) and self.name == other.name

    def __hash__(self):
        return hash(self.name)


class IntegerRing(Ring):
    name = "Z"
    is_field = False
    characteristic = 0

    def div(self, a, b):
        """Exact division; raises on a non-integral quotient."""
        if b == 0:
            raise ZeroDivisionError("division by zero in Z")
        q, r = divmod(a, b)
        if r != 0:
            raise ValueError(f"inexact division {a}/{b} in Z")
        return q

    def inv(self, a):
        if a in (1, -1):
            return a
        raise ValueError(f"{a} is not a unit in Z")

    def coerce(self, x):
        if isinstance(x, bool) or not isinstance(x, int):
            if isinstance(x, Fraction) and x.denominator == 1:
                return int(x)
            raise TypeError(f"not an integer: {x!r}")
        return x


class RationalField(Ring):
    name = "Q"
    is_field = True
    characteristic = 0

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in Q")
        return Fraction(a) / b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 is not invertible")
        return 1 / Fraction(a)

    def coerce(self, x):
        if isinstance(x, bool):
            raise TypeError(f"not a rational: {x!r}")
        if isinstance(x, (int, Fraction, str)):
            return Fraction(x)
        raise TypeError(f"not a rational: {x!r}")

    def to_json(self, a):
        if a.denominator == 1:
            return int(a)
        return f"{a.numerator}/{a.denominator}"


class PrimeField(Ring):
    is_field = True

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.name = f"Fp:{p}"

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"0 is not invertible in F_{self.p}")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def coerce(self, x):
        if isinstance(x, bool) or not isinstance(x, int):
            if isinstance(x, Fraction):
                return self.div(x.numerator, x.denominator)
            raise TypeError(f"not an element of F_{self.p}: {x!r}")
        return x % self.p


ZZ = IntegerRing()
QQ = RationalField()

@functools.lru_cache(maxsize=64)
def GF(p: int) -> PrimeField:
    """Cached prime-field descriptor; an evicted one is rebuilt equal,
    since rings compare and hash by name."""
    return PrimeField(p)


def ring_by_name(name: str) -> Ring:
    """Inverse of the ring tag used in serialized output."""
    if name == "Z":
        return ZZ
    if name == "Q":
        return QQ
    if name.startswith("Fp:"):
        return GF(int(name[3:]))
    raise ValueError(f"unknown ring tag {name!r}")
