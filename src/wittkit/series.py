"""Power series truncated at an order N, and Newton's identities.

A truncated series is a Polynomial of degree <= N; N travels beside it
wherever it matters (expansion, Padé), since trailing zero coefficients
are trimmed. Coefficients are plain numbers normalised by the ring's
coerce, as in Polynomial.

Newton's identities between the coefficients of a polynomial and its
power sums live here once: power_sums is the forward recurrence,
poly_from_power_sums the inverse. Ghost components and their inverse,
the zeta series of a point-count table, the tensor determinant and F_nu
are all built on this pair, which sums products over coefficient slices.

Padé reconstruction is rational-function reconstruction by the extended
Euclidean algorithm on Polynomial over Q; the Toeplitz solve it replaces
is a test oracle in tests/oracles.py.
"""

from __future__ import annotations

from operator import mul
from typing import Sequence

from .poly import Polynomial
from .rings import QQ, Ring


def series_of_rational(num: Polynomial, den: Polynomial, order: int) -> Polynomial:
    """num/den to the given order, as a Polynomial of degree <= order;
    den(0) must be a unit."""
    if num.ring != den.ring:
        raise ValueError("ring mismatch")
    R = num.ring
    inv = R.inv(den.constant())
    out = []
    for n in range(order + 1):
        acc = num[n]
        for k in range(1, min(n, den.degree) + 1):
            acc -= den[k] * out[n - k]
        out.append(R.coerce(inv * acc))
    return Polynomial(R, out)


def power_sums(P: Polynomial, m: int) -> list:
    """p_1..p_m with p_k = sum of a_i^k where P = prod(1 - a_i t).

    Newton's identity in the direction that needs no division, so any
    coefficient ring works. Equivalently -t P'/P = sum p_k t^k, which
    holds for any P with constant term 1, not only for products.
    """
    R, c, d = P.ring, P.coeffs, P.degree
    out: list = []
    for n in range(1, m + 1):
        lo = max(1, n - d)  # the terms out[k - 1] * c[n - k], k >= lo; c[n - k] = 0 below
        acc = -n * c[n] if n <= d else 0
        out.append(R.coerce(acc - sum(map(mul, out[lo - 1:n - 1], c[n - lo:0:-1]))))
    return out


def poly_from_power_sums(ring: Ring, sums: Sequence, degree: int) -> Polynomial:
    """Inverse of power_sums, to the given degree; the divisions by n are
    exact for genuine power-sum data (over Z they recover integer
    determinant coefficients)."""
    c: list = [ring.coerce(1)]
    for n in range(1, degree + 1):
        acc = sums[n - 1] + sum(map(mul, sums[:n - 1], c[n - 1:0:-1]))
        c.append(ring.div(-acc, n))
    return Polynomial(ring, c)


def pade_reconstruct(
    s: Polynomial, order: int, dnum: int, dden: int
) -> tuple[Polynomial, Polynomial]:
    """Rational form (P, Q) with deg P <= dnum, deg Q <= dden, Q(0) = 1.

    Rational-function reconstruction by the extended Euclidean algorithm
    (von zur Gathen & Gerhard, Modern Computer Algebra, chapter 5):
    Euclid on t^(N+1) and the series s to order N (deg s <= N) keeps the
    cofactor u of s in each remainder r = u s mod t^(N+1) and stops at
    the first r with deg r <= dnum. Every form that matches the data to
    order N >= dnum + dden equals r/u as a rational function, so there
    is none when u(0) = 0 or deg u > dden. The pair comes back in lowest
    terms: the cofactors of one Euclid row are coprime, so r and u share
    at most a power of t, and u(0) != 0. The candidate is re-expanded and
    must match every supplied coefficient.
    """
    if dnum < 0 or dden < 0:
        raise ValueError("degrees must be >= 0")
    if order < dnum + dden:
        raise ValueError(
            f"series order {order} below dnum + dden = {dnum + dden}"
        )
    if s.ring != QQ:
        raise ValueError("pade_reconstruct needs coefficients over Q")

    r0, r1 = Polynomial.one(QQ).shift(order + 1), s
    u0, u1 = Polynomial.zero(QQ), Polynomial.one(QQ)
    while r1.degree > dnum:
        quot, rem = r0.divmod(r1)
        r0, r1 = r1, rem
        u0, u1 = u1, u0 - quot * u1
    if u1.degree > dden or u1.constant() == 0:
        raise ValueError("no rational reconstruction")
    inv = QQ.inv(u1.constant())
    num, den = r1.scale(inv), u1.scale(inv)
    if series_of_rational(num, den, order) != s:
        raise ValueError("no rational reconstruction")
    return num, den
