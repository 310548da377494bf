"""Truncated power series with exact coefficients.

A series carries coefficients for orders 0..N. Arithmetic truncates to
the smaller order of the operands. exp and log are restricted to Q,
which is where they are needed (ghost reconstruction, zeta expansion).

Newton's identities between the coefficients of a polynomial and its
power sums live here once: power_sums is the forward recurrence,
poly_from_power_sums the inverse. Ghost components, exp, log, the
tensor determinant and F_nu are all built on this pair.
"""

from __future__ import annotations

from typing import Sequence

from .matrices import solve_linear_system
from .poly import Polynomial
from .rings import QQ, Ring


class TruncatedPowerSeries:
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: Ring, coeffs: Sequence, order: int | None = None):
        cs = [ring.coerce(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("order must be >= 0")
            cs = cs[: order + 1] + [ring.zero] * (order + 1 - len(cs))
        elif not cs:
            raise ValueError("empty series needs an explicit order")
        self.ring = ring
        self.coeffs = tuple(cs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int):
        if not 0 <= n <= self.order:
            raise IndexError(f"series truncated at order {self.order}")
        return self.coeffs[n]

    def __eq__(self, other):
        if not isinstance(other, TruncatedPowerSeries):
            return NotImplemented
        return self.ring == other.ring and self.coeffs == other.coeffs

    def __repr__(self):
        return f"TruncatedPowerSeries({self.ring!r}, {list(self.coeffs)!r})"

    def truncate(self, order: int) -> "TruncatedPowerSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedPowerSeries(self.ring, self.coeffs, order)

    def _join(self, other: "TruncatedPowerSeries") -> int:
        if self.ring != other.ring:
            raise ValueError("ring mismatch")
        return min(self.order, other.order)

    def __add__(self, other: "TruncatedPowerSeries") -> "TruncatedPowerSeries":
        N = self._join(other)
        R = self.ring
        return TruncatedPowerSeries(
            R, [R.add(self.coeffs[i], other.coeffs[i]) for i in range(N + 1)]
        )

    def __neg__(self) -> "TruncatedPowerSeries":
        R = self.ring
        return TruncatedPowerSeries(R, [R.neg(c) for c in self.coeffs])

    def __sub__(self, other: "TruncatedPowerSeries") -> "TruncatedPowerSeries":
        return self + (-other)

    def __mul__(self, other: "TruncatedPowerSeries") -> "TruncatedPowerSeries":
        N = self._join(other)
        R = self.ring
        out = [R.zero] * (N + 1)
        for i in range(N + 1):
            a = self.coeffs[i]
            if R.is_zero(a):
                continue
            for j in range(N + 1 - i):
                out[i + j] = R.add(out[i + j], R.mul(a, other.coeffs[j]))
        return TruncatedPowerSeries(R, out)

    def scale(self, c) -> "TruncatedPowerSeries":
        R = self.ring
        c = R.coerce(c)
        return TruncatedPowerSeries(R, [R.mul(c, a) for a in self.coeffs])

    def __str__(self):
        from .poly import format_poly

        head = format_poly(Polynomial(self.ring, self.coeffs))
        return f"{head} + O(t^{self.order + 1})"


def series_of_polynomial(p: Polynomial, order: int) -> TruncatedPowerSeries:
    return TruncatedPowerSeries(p.ring, list(p.coeffs), order)


def series_of_rational(num: Polynomial, den: Polynomial, order: int) -> TruncatedPowerSeries:
    """Expand num/den to the given order; den(0) must be a unit."""
    if num.ring != den.ring:
        raise ValueError("ring mismatch")
    R = num.ring
    d0 = den.constant()
    inv = R.inv(d0)
    out = []
    for n in range(order + 1):
        acc = num[n]
        for k in range(1, min(n, den.degree) + 1):
            acc = R.sub(acc, R.mul(den[k], out[n - k]))
        out.append(R.mul(inv, acc))
    return TruncatedPowerSeries(R, out)


def power_sums(P: Polynomial, m: int) -> list:
    """p_1..p_m with p_k = sum of a_i^k where P = prod(1 - a_i t).

    Newton's identity in the direction that needs no division, so any
    coefficient ring works. Equivalently -t P'/P = sum p_k t^k, which
    holds for any P with constant term 1, not only for products.
    """
    R = P.ring
    out: list = []
    for n in range(1, m + 1):
        acc = R.mul(R.from_int(-n), P[n])
        for k in range(max(1, n - P.degree), n):  # P[n - k] = 0 for smaller k
            acc = R.sub(acc, R.mul(out[k - 1], P[n - k]))
        out.append(acc)
    return out


def poly_from_power_sums(ring: Ring, sums: Sequence, degree: int) -> Polynomial:
    """Inverse of power_sums, to the given degree; the divisions by n are
    exact for genuine power-sum data (over Z they recover integer
    determinant coefficients)."""
    c: list = [ring.one]
    for n in range(1, degree + 1):
        acc = sums[n - 1]
        for k in range(1, n):
            acc = ring.add(acc, ring.mul(sums[k - 1], c[n - k]))
        c.append(ring.div(ring.neg(acc), ring.from_int(n)))
    return Polynomial(ring, c)


def series_exp(s: TruncatedPowerSeries) -> TruncatedPowerSeries:
    """exp of a series with constant term 0, over Q.

    exp(s) has power sums -n*s_n, since -t (d/dt) log exp(s) = -t s'.
    """
    if s.ring != QQ:
        raise ValueError("exp needs coefficients over Q")
    if s.coeffs[0] != 0:
        raise ValueError("exp needs constant term 0")
    N = s.order
    sums = [-n * s.coeffs[n] for n in range(1, N + 1)]
    return series_of_polynomial(poly_from_power_sums(QQ, sums, N), N)


def series_log(s: TruncatedPowerSeries) -> TruncatedPowerSeries:
    """log of a series with constant term 1, over Q: L_n = -p_n / n."""
    if s.ring != QQ:
        raise ValueError("log needs coefficients over Q")
    if s.coeffs[0] != 1:
        raise ValueError("log needs constant term 1")
    sums = power_sums(Polynomial(QQ, s.coeffs), s.order)
    return TruncatedPowerSeries(QQ, [QQ.zero] + [-p / n for n, p in enumerate(sums, 1)])


def pade_reconstruct(
    s: TruncatedPowerSeries, dnum: int, dden: int
) -> tuple[Polynomial, Polynomial]:
    """Rational form (P, Q) with deg P <= dnum, deg Q <= dden, Q(0) = 1.

    The denominator comes from the exact Toeplitz system on orders
    dnum+1 .. dnum+dden; the candidate is then re-expanded and must
    match every supplied coefficient, so the answer is a true rational
    form of the data, not just a local fit.
    """
    if dnum < 0 or dden < 0:
        raise ValueError("degrees must be >= 0")
    if s.order < dnum + dden:
        raise ValueError(
            f"series order {s.order} below dnum + dden = {dnum + dden}"
        )
    if s.ring != QQ:
        raise ValueError("pade_reconstruct needs coefficients over Q")

    def coeff(n: int):
        return s.coeffs[n] if n >= 0 else QQ.zero

    if dden == 0:
        q_tail: list = []
    else:
        A = [
            [coeff(n - j) for j in range(1, dden + 1)]
            for n in range(dnum + 1, dnum + dden + 1)
        ]
        b = [QQ.neg(coeff(n)) for n in range(dnum + 1, dnum + dden + 1)]
        sol = solve_linear_system(QQ, A, b)
        if sol is None:
            raise ValueError("no rational reconstruction")
        q_tail = sol
    den = Polynomial(QQ, [QQ.one] + q_tail)
    num = Polynomial(
        QQ,
        [
            sum((den[j] * coeff(n - j) for j in range(min(n, dden) + 1)), QQ.zero)
            for n in range(dnum + 1)
        ],
    )
    if series_of_rational(num, den, s.order).coeffs != s.coeffs:
        raise ValueError("no rational reconstruction")
    return num, den
