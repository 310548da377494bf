"""Coefficient rings used throughout: Z, Q, and prime fields F_p.

A ring is a small descriptor object exposing arithmetic on opaque element
values. Z uses Python ints, Q uses fractions.Fraction, F_p uses ints
reduced to [0, p). Polynomials and Witt vectors call through the
descriptor so the same code runs over any of them.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .ntheory import is_prime


class Ring:
    """Base descriptor. Subclasses fill in the element operations."""

    name: str
    is_field: bool
    characteristic: int

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    @property
    def zero(self):
        return self.from_int(0)

    @property
    def one(self):
        return self.from_int(1)

    def eq(self, a, b) -> bool:
        return a == b

    def is_zero(self, a) -> bool:
        return self.eq(a, self.zero)

    def coerce(self, x):
        """Accept an element-like value (int always allowed) or fail."""
        raise NotImplementedError

    def to_json(self, a):
        return a

    def from_json(self, x):
        return self.coerce(x)

    def format(self, a) -> str:
        return str(a)

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

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

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

    def from_int(self, n: int):
        return n

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

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in Q")
        return a / b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 is not invertible")
        return 1 / Fraction(a)

    def from_int(self, n: int):
        return Fraction(n)

    def coerce(self, x):
        if isinstance(x, bool):
            raise TypeError(f"not a rational: {x!r}")
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x)
        raise TypeError(f"not a rational: {x!r}")

    def to_json(self, a):
        if a.denominator == 1:
            return int(a)
        return f"{a.numerator}/{a.denominator}"

    def format(self, a) -> str:
        return str(a)


class PrimeField(Ring):
    is_field = True

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.name = f"Fp:{p}"

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"0 is not invertible in F_{self.p}")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def from_int(self, n: int):
        return n % self.p

    def coerce(self, x):
        if isinstance(x, bool) or not isinstance(x, int):
            if isinstance(x, Fraction):
                return self.div(self.from_int(x.numerator), self.from_int(x.denominator))
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
