"""Dense univariate polynomials over a ring descriptor.

Coefficients are plain numbers (int over Z and F_p, Fraction over Q),
stored ascending with trailing zeros trimmed; the zero polynomial has
degree -1. Arithmetic uses Python's operators on the one list product
`_product` and list sum `_sum`, which the parser shares; the constructor
normalises every coefficient through the ring's coerce, which is where
F_p reduces mod p. Division and gcd follow the usual conventions: gcd is
monic over a field, primitive with positive leading coefficient over Z.

F_p[t] has one kernel, on plain-int residue lists that run ascending
like `coeffs`: long division mod p, the Euclid `_gcd_mod`, products
(`_product`, then a reduction) and powers mod a monic modulus, and the
one distinct-degree loop `_factor_degrees`: one p-th power of t^(p^(d-1))
per degree d, its gcd with f after subtracting t, divided out until that
gcd is 1. It picks every field modulus in `finitefield` and serves the
function-field product formula in `zeta`. The kernel's Euclid is the gcd
over F_p. Over Z, and through it over Q, a constant input gives 1, and a
certificate at a power of 256 proves nearly every coprime pair of the
Witt ops. The rest take Brown's dense modular gcd, from Euclid images
modulo primes just below 2^61, combined by CRT and certified by exact
trial division. The primitive remainder sequence gcd is the tests' oracle.
"""

from __future__ import annotations

from itertools import repeat, zip_longest
from math import gcd as int_gcd, lcm
from typing import Iterator, Sequence

from .ntheory import is_prime
from .rings import QQ, ZZ, Ring


class Polynomial:
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: Ring, coeffs: Sequence):
        cs = [ring.coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.ring = ring
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, ring: Ring) -> "Polynomial":
        return cls(ring, [])

    @classmethod
    def one(cls, ring: Ring) -> "Polynomial":
        return cls(ring, [1])

    @classmethod
    def t(cls, ring: Ring) -> "Polynomial":
        return cls(ring, [0, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, n: int):
        if 0 <= n < len(self.coeffs):
            return self.coeffs[n]
        return self.ring.coerce(0)

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def constant(self):
        return self[0]

    def _check(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        return Polynomial(self.ring, _sum(self.coeffs, other.coeffs))

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, [-c for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        return Polynomial(self.ring, _product(self.coeffs, other.coeffs))

    def scale(self, c) -> "Polynomial":
        c = self.ring.coerce(c)
        return Polynomial(self.ring, [c * a for a in self.coeffs])

    def shift(self, k: int) -> "Polynomial":
        """Multiply by t^k."""
        if self.is_zero():
            return self
        return Polynomial(self.ring, [0] * k + list(self.coeffs))

    def reversal(self, degree: int | None = None) -> "Polynomial":
        """t^d * p(1/t) for d = degree (defaults to deg p)."""
        d = self.degree if degree is None else degree
        if d < self.degree:
            raise ValueError("reversal degree below polynomial degree")
        return Polynomial(self.ring, [self[d - i] for i in range(d + 1)])

    def map_ring(self, ring: Ring) -> "Polynomial":
        return Polynomial(ring, self.coeffs)

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Quotient and remainder by long division; each quotient
        coefficient comes from ring.div, so over Z it must be integral."""
        self._check(other)
        R = self.ring
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return Polynomial.zero(R), self
        lead = other.leading()
        quot = [0] * (dq + 1)
        for i in range(dq, -1, -1):
            c = R.div(rem[i + other.degree], lead)
            if not c:
                continue
            quot[i] = c
            for j, b in enumerate(other.coeffs):
                rem[i + j] -= c * b
        return Polynomial(R, quot), Polynomial(R, rem[: other.degree])  # the rest is 0 in R

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return self.divmod(other)[1]

    def exact_div(self, other: "Polynomial") -> "Polynomial":
        """Division that must leave no remainder; over Z every quotient
        coefficient must also be integral. Raises "inexact division"."""
        try:
            quot, rem = self.divmod(other)
        except ValueError:
            raise ValueError("inexact division") from None
        if not rem.is_zero():
            raise ValueError("inexact division")
        return quot

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        return self.scale(self.ring.inv(self.leading()))

    def content(self) -> int:
        """Gcd of integer coefficients, sign of the leading coefficient."""
        if self.ring != ZZ:
            raise ValueError("content is defined over Z")
        if self.is_zero():
            return 0
        g = int_gcd(*self.coeffs)
        return g if self.leading() > 0 else -g

    def primitive(self) -> "Polynomial":
        c = self.content()
        if c in (0, 1):
            return self
        return Polynomial(ZZ, [a // c for a in self.coeffs])

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic gcd over a field; primitive, positive-leading over Z.

        Over Z the contents are dropped first, so the result is the
        primitive part of the gcd (1 for two nonzero constants); two zero
        inputs give zero. Over Q it is the Z gcd of the primitive integer
        multiples, made monic (Gauss's lemma), which avoids the
        coefficient growth of Euclid over Q. Over F_p it is the Euclid
        mod p that also computes the images of the Z gcd.
        """
        self._check(other)
        R = self.ring
        if R == ZZ:
            return _gcd_zz(self.primitive(), other.primitive())
        if R == QQ:
            return _gcd_zz(_integral(self), _integral(other)).map_ring(QQ).monic()
        return Polynomial(R, _gcd_mod(self.coeffs, other.coeffs, R.p))

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Polynomial({self.ring!r}, {list(self.coeffs)!r})"


def _product(a: Sequence, b: Sequence) -> list:
    """Schoolbook product of ascending coefficient lists; [] for an empty factor."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _sum(a: Sequence, b: Sequence) -> list:
    """The sum of two ascending coefficient lists, trailing zeros trimmed."""
    out = [x + y for x, y in zip_longest(a, b, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return out


# Moduli of the Z[t] gcd: the primes just below 2^61, in descending order.
_GCD_PRIMES = (2**61 - 1, 2**61 - 31, 2**61 - 45, 2**61 - 229)


def _gcd_primes():
    """_GCD_PRIMES, then every smaller prime in turn."""
    yield from _GCD_PRIMES
    n = _GCD_PRIMES[-1] - 2
    while True:
        if is_prime(n):
            yield n
        n -= 2


def _divmod_mod(a: Sequence[int], b: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and trimmed remainder mod p, b trimmed; the row is reduced
    mod p only at each leading term and at the end."""
    nb = len(b) - 1
    inv = pow(b[-1], -1, p)
    r = list(a)
    q = [0] * max(len(r) - nb, 0)
    for i in range(len(r) - 1, nb - 1, -1):
        c = r[i] * inv % p
        if c:
            q[i - nb] = c
            r[i - nb : i] = [x - c * y for x, y in zip(r[i - nb : i], b)]
    r = [x % p for x in r[:nb]]
    while r and not r[-1]:
        r.pop()
    return q, r


def _gcd_mod(a: Sequence[int], b: Sequence[int], p: int) -> Sequence[int]:
    """Monic gcd mod p of trimmed residue lists; [] if both are zero."""
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        a, b = b, _divmod_mod(a, b, p)[1]
    if b:
        return [1]
    inv = pow(a[-1], -1, p) if a else 0
    return [x * inv % p for x in a]


def _mulmod(a: Sequence[int], b: Sequence[int], low: tuple, p: int) -> tuple:
    """a * b mod (t^n + low(t)) over F_p, n = len(low); inputs need not
    be reduced mod p, the result is, padded to length n."""
    n = len(low)
    prod = _product(a, b)
    prod += [0] * (n - len(prod))
    # t^k = -low(t) t^(k-n), from the top coefficient down
    for k in range(len(prod) - 1, n - 1, -1):
        c = prod[k] % p
        if c:
            for i, m in enumerate(low, k - n):
                prod[i] -= c * m
    return tuple(c % p for c in prod[:n])


def _powmod(a: Sequence[int], e: int, low: tuple, p: int) -> tuple:
    """a^e mod (t^n + low(t)) over F_p for e >= 0, by square-and-multiply."""
    acc = (1,) + (0,) * (len(low) - 1)
    while e:
        if e & 1:
            acc = _mulmod(acc, a, low, p)
        a = _mulmod(a, a, low, p)
        e >>= 1
    return acc


def _factor_degrees(f: Sequence[int], p: int) -> Iterator[tuple[int, int]]:
    """(d, m) in ascending d for a monic residue list f, m the sum of the
    multiplicities of f's irreducible factors of degree d (distinct-degree
    factorisation). At step d, f has no factor of degree below d, so
    gcd(f, t^(p^d) - t) is the product of its distinct degree-d factors;
    dividing it out until the gcd is 1 counts each once per multiplicity.
    Once 2d > deg f, f is 1 or irreducible, so a reducible f yields a
    degree of at most deg f / 2 first."""
    h, d = (0, 1), 1  # h = t^(p^(d-1)) mod a multiple of f
    while len(f) > 2 * d:
        h, m = _powmod(h, p, tuple(f[:-1]), p), 0
        while len(g := _gcd_mod(f, _divmod_mod(_sum(h, (0, -1)), f, p)[1], p)) > 1:
            m += (len(g) - 1) // d
            f = _divmod_mod(f, g, p)[0]
        if m:
            yield d, m
        d += 1
    if len(f) > 1:
        yield len(f) - 1, 1


def _gcd_zz(a: Polynomial, b: Polynomial) -> Polynomial:
    """Gcd of primitive, positive-leading a and b: 1 for a constant input or if
    certified, else _gcd_brown. The certificate (Char, Geddes and Gonnet) takes
    m = max |c|, xi = 256^nb > 2(2m + 2), gamma = gcd(a(xi), b(xi)), not 0 as xi > m + 1.
    A factor g of a has roots |alpha| < 1 + m (Cauchy), so |g(xi)| > xi - 1 - m >= xi/2
    if deg g >= 1; a common one has g(xi) | gamma, so gamma < xi/2 proves gcd = 1."""
    A, B = a.coeffs, b.coeffs
    if len(A) == 1 or len(B) == 1:
        return Polynomial(ZZ, [1])
    # against degree 1 Brown is one O(n) division: 569 ms on (1-t^165110)/(1-t), certificate 10 ms
    if len(A) > 2 and len(B) > 2:
        nb = ((4 * max(max(A), -min(A), max(B), -min(B)) + 4).bit_length() + 7) >> 3
        # at degree 1,000: 7.3 vs Brown's 232 ms at 64 bits, 1,423 vs 242 ms at 1,024 bits
        if nb <= 8 and 2 * int_gcd(_packed(A, nb), _packed(B, nb)) < 1 << 8 * nb:
            return Polynomial(ZZ, [1])
    return _gcd_brown(a, b)


def _packed(cs: Sequence[int], nb: int) -> int:
    """sum c_i 256^(nb i) for |c_i| < 256^nb / 2, in linear time (Horner is quadratic)."""
    half = 1 << 8 * nb - 1
    cs = [c + half for c in cs]
    fields = bytes(cs) if nb == 1 else b"".join(map(int.to_bytes, cs, repeat(nb), repeat("little")))
    offsets = half.to_bytes(nb, "little") * len(cs)
    return int.from_bytes(fields, "little") - int.from_bytes(offsets, "little")


def _gcd_brown(a: Polynomial, b: Polynomial) -> Polynomial:
    """Gcd of primitive, positive-leading a and b (Brown's modular gcd).

    Primes dividing either leading coefficient are skipped, so an image
    mod p has degree at least that of the true gcd g, with equality for
    all but finitely many p: degree 0 proves g = 1, a higher degree marks
    an unlucky prime and a lower one restarts the CRT. Images are scaled
    to leading coefficient gcd(lc a, lc b), which lc(g) divides, and
    combined into the symmetric range; once the combination stops
    changing, its primitive part is returned if it divides a and b.
    """
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    A, B = a.coeffs, b.coeffs
    ell = int_gcd(A[-1], B[-1])
    G: list[int] = []
    M = 1
    for p in _gcd_primes():
        if A[-1] % p == 0 or B[-1] % p == 0:
            continue
        g = _gcd_mod([c % p for c in A], [c % p for c in B], p)
        if len(g) == 1:
            return Polynomial(ZZ, [1])
        if G and len(g) > len(G):
            continue
        image = [ell * c % p for c in g]
        if not G or len(g) < len(G):
            G, M = [c - p if 2 * c > p else c for c in image], p
            continue
        m_inv = pow(M, -1, p)
        Mp = M * p
        new = []
        for x, y in zip(G, image):
            z = x + M * ((y - x) * m_inv % p)
            new.append(z - Mp if 2 * z > Mp else z)
        if new == G:
            h = Polynomial(ZZ, G).primitive()
            if _divides(h, a) and _divides(h, b):
                return h
        G, M = new, Mp


def _integral(p: Polynomial) -> Polynomial:
    """The primitive integer multiple of a polynomial over Q."""
    den = lcm(*(c.denominator for c in p.coeffs))
    return Polynomial(ZZ, [c * den for c in p.coeffs]).primitive()


def _divides(h: Polynomial, f: Polynomial) -> bool:
    try:
        f.exact_div(h)
    except ValueError:
        return False
    return True


def format_poly(p: Polynomial, var: str = "t") -> str:
    """Human form, ascending powers: '1 - 5t + 6t^2'."""
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for i, c in enumerate(p.coeffs):
        if not c:
            continue
        text = str(c)
        neg = text.startswith("-")
        mag = text[1:] if neg else text
        if i == 0:
            body = mag
        else:
            power = var if i == 1 else f"{var}^{i}"
            body = power if mag == "1" else f"{mag}{power}"
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(parts)

