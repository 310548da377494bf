"""The rational Witt ring of Z, Q, or F_p.

An element is a reduced rational function f = num/den with
num(0) = den(0) = 1; its coefficients are plain numbers, normalised by
the ring descriptor (see rings). Addition is multiplication of rational
functions, multiplication is the tensor construction on companion-matrix
pairs, and the ghost components g_n (with ghost(1 - at) = (a, a^2, ...))
turn both operations into pointwise arithmetic.

The tensor determinant det(1 - t A (x) B) is evaluated through Newton
power sums rather than a literal Kronecker matrix: the power sums of
A (x) B are products of those of A and B, and both directions of the
Newton recurrence (series.power_sums, series.poly_from_power_sums) are
division-free or exactly divisible, so the path is exact over Z and, by
lifting representatives, over F_p. Ghost components and F_nu use the
same recurrence, and from_ghost inverts the ghost map by the inverse
recurrence followed by Padé reconstruction (series.pade_reconstruct).
The literal Kronecker/Berkowitz matrix routes live in the test suite,
as the oracle these are checked against.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .poly import Polynomial
from .rings import QQ, ZZ, PrimeField, Ring, ring_by_name
from .series import pade_reconstruct, poly_from_power_sums, power_sums, series_of_rational
from .util import over_cap

# witt_mul refuses a product whose tensor determinants have a larger degree
WITT_MUL_DEGREE_CAP = 64
# frobenius and verschiebung refuse a nu whose product with the degree of
# f is larger: at each cap the command takes about 1 s for degrees 1 to 6
FROBENIUS_CAP = 5 * 10**4
VERSCHIEBUNG_CAP = 10**6
# ghost refuses an order whose product with the degree of f is larger: at
# the cap `witt ghost 1-2t --order 10000` takes about 1 s on a 2-core Xeon,
# printing components of up to 3,011 digits
GHOST_CAP = 10**4


class WittVector:
    """Canonical reduced rational function with constant terms 1."""

    __slots__ = ("ring", "num", "den")

    def __init__(self, num: Polynomial, den: Polynomial | None = None, *, constant=None):
        # a `constant` given: num/den is in lowest terms with it (lowest_terms), no gcd
        if den is None:
            den = Polynomial.one(num.ring)
        if num.ring != den.ring:
            raise ValueError("ring mismatch")
        R = num.ring
        if constant is None:
            num, den, constant = lowest_terms(num, den)
        if constant != 1:
            if R.is_field:
                num, den = num.scale(R.inv(constant)), den.scale(R.inv(constant))
            else:
                try:
                    num, den = (Polynomial(R, [R.div(c, constant) for c in p.coeffs])
                                for p in (num, den))
                except ValueError:
                    raise ValueError("not defined over Z") from None
        self.ring, self.num, self.den = R, num, den

    def __eq__(self, other):
        if not isinstance(other, WittVector):
            return NotImplemented
        return self.ring == other.ring and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.ring, self.num, self.den))

    def __str__(self):
        if self.den.degree == 0:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"WittVector({self.num!r}, {self.den!r})"

    def map_ring(self, ring: Ring) -> "WittVector":
        return WittVector(self.num.map_ring(ring), self.den.map_ring(ring))

    def series(self, order: int) -> Polynomial:
        """The power series of f to the given order (degree <= order)."""
        return series_of_rational(self.num, self.den, order)

    def to_json(self) -> dict:
        R = self.ring
        return {
            "num": [R.to_json(c) for c in self.num.coeffs],
            "den": [R.to_json(c) for c in self.den.coeffs],
            "ring": R.name,
        }

    @classmethod
    def from_json(cls, data: dict) -> "WittVector":
        R = ring_by_name(data["ring"])
        return cls(Polynomial(R, data["num"]), Polynomial(R, data["den"]))


def lowest_terms(num: Polynomial, den: Polynomial) -> tuple:
    """(num / g, den / g, c) for g = gcd(num, den), where c is the constant term
    of both quotients; "not a Witt vector" when those differ or are 0."""
    if den.is_zero():
        raise ZeroDivisionError("denominator is zero")
    if not num.is_zero() and (g := num.gcd(den)).degree > 0:
        num, den = num.exact_div(g), den.exact_div(g)
    if not (c := num.constant()) or c != den.constant():
        raise ValueError("not a Witt vector: f(0) != 1")
    return num, den, c


def witt_zero(ring: Ring = ZZ) -> WittVector:
    return WittVector(Polynomial.one(ring))


def witt_one(ring: Ring = ZZ) -> WittVector:
    return teichmuller(1, ring)


def teichmuller(r, ring: Ring | None = None) -> WittVector:
    """[r] = 1 - rt."""
    if ring is None:
        ring = QQ if isinstance(r, Fraction) else ZZ
    return WittVector(Polynomial(ring, [1, -ring.coerce(r)]))


def witt_add(f: WittVector, g: WittVector) -> WittVector:
    if f.ring != g.ring:
        raise ValueError("ring mismatch")
    return WittVector(f.num * g.num, f.den * g.den)


def witt_neg(f: WittVector) -> WittVector:
    return WittVector(f.den, f.num)


def witt_sub(f: WittVector, g: WittVector) -> WittVector:
    return witt_add(f, witt_neg(g))


def tensor_det(P: Polynomial, Q: Polynomial) -> Polynomial:
    """det(1 - t A(x)B) for companion matrices A, B of P, Q.

    Power sums multiply under the Kronecker product. Over F_p the
    computation lifts representatives to Z and reduces afterwards,
    which commutes with taking determinants.
    """
    R = P.ring
    if P.constant() != 1 or Q.constant() != 1:
        raise ValueError("tensor_det needs constant terms 1")
    if isinstance(R, PrimeField):
        return tensor_det(Polynomial(ZZ, P.coeffs), Polynomial(ZZ, Q.coeffs)).map_ring(R)
    d = P.degree * Q.degree
    sp = power_sums(P, d)
    sq = power_sums(Q, d)
    return poly_from_power_sums(R, [a * b for a, b in zip(sp, sq)], d)


def witt_mul(f: WittVector, g: WittVector) -> WittVector:
    if f.ring != g.ring:
        raise ValueError("ring mismatch")
    worst = max(f.num.degree, f.den.degree) * max(g.num.degree, g.den.degree)
    if worst > WITT_MUL_DEGREE_CAP:  # the largest of the four tensor determinants
        raise ValueError(over_cap("witt mul", f"tensor degree {worst}", WITT_MUL_DEGREE_CAP))
    num = tensor_det(f.num, g.num) * tensor_det(f.den, g.den)
    den = tensor_det(f.num, g.den) * tensor_det(f.den, g.num)
    return WittVector(num, den)


def ghost(f: WittVector, N: int) -> list:
    """g_1..g_N, the coefficients of -t (d/dt) log f.

    -t (d/dt) log(num/den) splits into the power sums of num minus those
    of den, so no series expansion is needed.
    """
    # a constant f still lists N zeros, so it counts as degree 1
    _check_cap(f, N, "--order", "witt ghost", GHOST_CAP, least_degree=1)
    return [f.ring.coerce(a - b) for a, b in zip(power_sums(f.num, N), power_sums(f.den, N))]


def from_ghost(g: Sequence, dnum: int, dden: int) -> WittVector:
    """Reconstruct f over Q with the given ghost components.

    The ghost components of f are its power sums, so the inverse Newton
    recurrence expands f to order N = len(g), and Padé reconstruction
    rationalizes that series; raises "no rational reconstruction" if no
    (dnum, dden) form matches every ghost component supplied.
    """
    gq = [QQ.coerce(x) for x in g]
    N = len(gq)
    if N < 1:
        raise ValueError("ghost sequence is empty")
    num, den = pade_reconstruct(poly_from_power_sums(QQ, gq, N), N, dnum, dden)
    return WittVector(num, den)


def _frobenius_poly(P: Polynomial, nu: int) -> Polynomial:
    """det(1 - t A^nu) for the companion matrix A of P, via power sums."""
    R = P.ring
    if isinstance(R, PrimeField):
        return _frobenius_poly(Polynomial(ZZ, P.coeffs), nu).map_ring(R)
    n = P.degree
    sp = power_sums(P, nu * n)
    return poly_from_power_sums(R, [sp[nu * k - 1] for k in range(1, n + 1)], n)


def _check_cap(f: WittVector, k: int, quantity: str, name: str, cap: int,
               least_degree: int = 0) -> None:
    """Refuse k < 1, or k times the degree of f above cap: the work
    behind ghost, F_nu and V_nu grows with that product."""
    degree = max(f.num.degree, f.den.degree, least_degree)
    if k < 1 or k * degree > cap:
        raise ValueError(f"{quantity} must be >= 1" if k < 1 else
                         over_cap(name, f"{quantity} * degree = {k} * {degree}", cap))


def frobenius(f: WittVector, nu: int) -> WittVector:
    """F_nu: on matrix pairs (A, B) -> (A^nu, B^nu); F_nu[a] = [a^nu]."""
    _check_cap(f, nu, "nu", "frobenius", FROBENIUS_CAP)
    if nu == 1:
        return f
    return WittVector(_frobenius_poly(f.num, nu), _frobenius_poly(f.den, nu))


def verschiebung(f: WittVector, nu: int) -> WittVector:
    """V_nu: f(t) -> f(t^nu)."""
    _check_cap(f, nu, "nu", "verschiebung", VERSCHIEBUNG_CAP)
    if nu == 1:
        return f
    R = f.ring

    def spread(p: Polynomial) -> Polynomial:
        out = [0] * (p.degree * nu + 1)
        out[::nu] = p.coeffs
        return Polynomial(R, out)

    return WittVector(spread(f.num), spread(f.den))


def canonical_projection(f: WittVector):
    """f -> -f'(0)/f(0); equals the first ghost component."""
    return f.ring.coerce(f.den[1] - f.num[1])
