"""Slow reference routes, kept as oracles for the library's fast paths.

Nothing in wittkit imports this module. It holds the literal matrix
constructions that the Newton power-sum routes in wittkit replace:

- Matrix, det_one_minus_t (Berkowitz, division-free) and companion;
- companion_pair, the Almkvist representative (A, B) of a Witt vector;
- witt_mul_kronecker and frobenius_via_matrices, which compute the
  product and F_nu through literal Kronecker products and matrix powers;
- ghost_via_series, the ghost map read off the expanded series;
- count_irreducibles_by_enumeration, a test of every monic candidate;
- field_mul_reference, field_pow_reference and is_irreducible_reference,
  finite-field arithmetic through Polynomial objects instead of the
  plain-int kernel in wittkit.finitefield;
- solve_linear_system and pade_reconstruct_toeplitz, Padé reconstruction
  by an exact Gauss-Jordan solve of the Toeplitz system instead of the
  extended Euclidean algorithm in wittkit.series;
- adaptive_simpson and transform_simpson, a second integrator for the
  Gauss-Legendre transforms in wittkit.explicit.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple, Sequence

from wittkit.explicit import TestFunction
from wittkit.finitefield import _is_irreducible
from wittkit.ntheory import factorize
from wittkit.poly import Polynomial
from wittkit.rings import GF, QQ, Ring
from wittkit.series import TruncatedPowerSeries, series_of_rational
from wittkit.witt import WittVector


class Matrix:
    __slots__ = ("ring", "rows")

    def __init__(self, ring: Ring, rows: Sequence[Sequence]):
        rs = tuple(tuple(ring.coerce(x) for x in row) for row in rows)
        for row in rs:
            if len(row) != len(rs):
                raise ValueError("matrix must be square")
        self.ring = ring
        self.rows = rs

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "Matrix":
        return cls(
            ring, [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]
        )

    @property
    def size(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.ring == other.ring and self.rows == other.rows

    def __hash__(self):
        return hash((self.ring, self.rows))

    def __repr__(self):
        return f"Matrix({self.ring!r}, {[list(r) for r in self.rows]!r})"

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ring != other.ring:
            raise ValueError("ring mismatch")
        if self.size != other.size:
            raise ValueError("size mismatch")
        R = self.ring
        n = self.size
        cols = list(zip(*other.rows))
        out = []
        for row in self.rows:
            out_row = []
            for col in cols:
                acc = R.zero
                for a, b in zip(row, col):
                    acc = R.add(acc, R.mul(a, b))
                out_row.append(acc)
            out.append(out_row)
        return Matrix(R, out)

    def pow(self, k: int) -> "Matrix":
        if k < 0:
            raise ValueError("negative matrix power")
        acc = Matrix.identity(self.ring, self.size)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def trace(self):
        R = self.ring
        acc = R.zero
        for i in range(self.size):
            acc = R.add(acc, self.rows[i][i])
        return acc

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; (n*m) x (n*m)."""
        if self.ring != other.ring:
            raise ValueError("ring mismatch")
        R = self.ring
        m = other.size
        out = []
        for i in range(self.size):
            for k in range(m):
                out.append(
                    [
                        R.mul(self.rows[i][j], other.rows[k][l])
                        for j in range(self.size)
                        for l in range(m)
                    ]
                )
        return Matrix(R, out)


def det_one_minus_t(M: Matrix) -> Polynomial:
    """det(1 - tM) as a polynomial in t, by the Berkowitz algorithm.

    Division-free, so it works over Z and over F_p for any p. The
    Berkowitz vector of char(x) = det(xI - M), read with descending
    powers of x, is exactly det(1 - tM) read with ascending powers of t.
    """
    R = M.ring
    n = M.size
    if n == 0:
        return Polynomial.one(R)
    rows = M.rows
    # char vector of the trailing 1x1 principal submatrix
    vec = [R.one, R.neg(rows[n - 1][n - 1])]
    for i in range(n - 2, -1, -1):
        m = n - i - 1  # current submatrix size
        a = rows[i][i]
        row = [rows[i][j] for j in range(i + 1, n)]
        col = [rows[j][i] for j in range(i + 1, n)]
        sub = [[rows[j][k] for k in range(i + 1, n)] for j in range(i + 1, n)]
        # dot products row . sub^k . col for k = 0..m-1
        dots = []
        cur = col
        for _ in range(m):
            acc = R.zero
            for rj, cj in zip(row, cur):
                acc = R.add(acc, R.mul(rj, cj))
            dots.append(acc)
            nxt = []
            for srow in sub:
                s = R.zero
                for sv, cv in zip(srow, cur):
                    s = R.add(s, R.mul(sv, cv))
                nxt.append(s)
            cur = nxt
        toep = [R.one, R.neg(a)] + [R.neg(d) for d in dots]
        out = [R.zero] * (m + 2)
        for j, v in enumerate(vec):
            if R.is_zero(v):
                continue
            for k in range(m + 2 - j):
                out[j + k] = R.add(out[j + k], R.mul(toep[k], v))
        vec = out
    return Polynomial(R, vec)


def companion(monic: Polynomial) -> Matrix:
    """Companion matrix of a monic polynomial (in the x variable)."""
    R = monic.ring
    n = monic.degree
    if n < 0 or not R.eq(monic.leading(), R.one):
        raise ValueError("companion matrix needs a monic polynomial")
    rows = [
        [R.one if j == i - 1 else R.zero for j in range(n - 1)] + [R.neg(monic[i])]
        for i in range(n)
    ]
    return Matrix(R, rows)


class MatrixPair(NamedTuple):
    A: Matrix
    B: Matrix


def companion_pair(f: WittVector) -> MatrixPair:
    """Almkvist representative (A, B) with det(1-tA)/det(1-tB) = f."""
    A = companion(f.num.reversal())
    B = companion(f.den.reversal())
    if det_one_minus_t(A) != f.num or det_one_minus_t(B) != f.den:
        raise RuntimeError("companion pair failed det re-expansion")
    return MatrixPair(A, B)


def witt_mul_kronecker(f: WittVector, g: WittVector) -> WittVector:
    """Literal Kronecker products and division-free determinants."""
    pf, pg = companion_pair(f), companion_pair(g)
    num = det_one_minus_t(pf.A.kron(pg.A)) * det_one_minus_t(pf.B.kron(pg.B))
    den = det_one_minus_t(pf.A.kron(pg.B)) * det_one_minus_t(pf.B.kron(pg.A))
    return WittVector(num, den)


def frobenius_via_matrices(f: WittVector, nu: int) -> WittVector:
    """Literal matrix powers and division-free determinants."""
    if nu < 1:
        raise ValueError("nu must be >= 1")
    pair = companion_pair(f)
    return WittVector(
        det_one_minus_t(pair.A.pow(nu)), det_one_minus_t(pair.B.pow(nu))
    )


def ghost_via_series(f: WittVector, N: int) -> list:
    """g_1..g_N by expanding f to order N and running Newton's identity
    on the series coefficients."""
    R = f.ring
    c = f.series(N).coeffs
    out: list = []
    for n in range(1, N + 1):
        acc = R.mul(R.from_int(-n), c[n])
        for k in range(1, n):
            acc = R.sub(acc, R.mul(out[k - 1], c[n - k]))
        out.append(acc)
    return out


def count_irreducibles_by_enumeration(q: int, degree: int) -> int:
    """Monic irreducibles of the given degree over F_q, one test each."""
    R = GF(q)
    return sum(
        _is_irreducible(Polynomial(R, list(low) + [1]), q)
        for low in itertools.product(range(q), repeat=degree)
    )


def field_mul_reference(modulus: Polynomial, a, b) -> tuple:
    """a * b in F_p[t]/(modulus) through Polynomial objects."""
    pa = Polynomial(modulus.ring, a)
    pb = Polynomial(modulus.ring, b)
    r = (pa * pb) % modulus
    return tuple(r[i] for i in range(modulus.degree))


def _poly_powmod(base: Polynomial, e: int, mod: Polynomial) -> Polynomial:
    acc = Polynomial.one(base.ring)
    base = base % mod
    while e:
        if e & 1:
            acc = (acc * base) % mod
        base = (base * base) % mod
        e >>= 1
    return acc


def field_pow_reference(modulus: Polynomial, a, e: int) -> tuple:
    """a^e in F_p[t]/(modulus) for e >= 0, through Polynomial objects."""
    r = _poly_powmod(Polynomial(modulus.ring, a), e, modulus)
    return tuple(r[i] for i in range(modulus.degree))


def is_irreducible_reference(f: Polynomial, p: int) -> bool:
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


def solve_linear_system(ring: Ring, A: Sequence[Sequence], b: Sequence):
    """One exact solution of Ax = b over a field, or None if inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    if not ring.is_field:
        raise ValueError("linear solve needs a field")
    rows = [list(r) + [b[i]] for i, r in enumerate(A)]
    nrows = len(rows)
    ncols = len(A[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if not ring.is_zero(rows[i][c])), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = ring.inv(rows[r][c])
        rows[r] = [ring.mul(inv, x) for x in rows[r]]
        for i in range(nrows):
            if i != r and not ring.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [ring.sub(x, ring.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if not ring.is_zero(rows[i][ncols]):
            return None
    x = [ring.zero] * ncols
    for i, c in enumerate(pivots):
        x[c] = rows[i][ncols]
    return x


def pade_reconstruct_toeplitz(
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


def _adaptive_simpson(f, a, b, fa, fm, fb, whole, tol, depth):
    m = (a + b) / 2
    lm, rm = (a + m) / 2, (m + b) / 2
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6 * (fa + 4 * flm + fm)
    right = (b - m) / 6 * (fm + 4 * frm + fb)
    if depth <= 0:
        return left + right
    if abs(left + right - whole) < 15 * tol:
        return left + right + (left + right - whole) / 15
    return _adaptive_simpson(
        f, a, m, fa, flm, fm, left, tol / 2, depth - 1
    ) + _adaptive_simpson(f, m, b, fm, frm, fb, right, tol / 2, depth - 1)


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-12, depth: int = 48):
    """Second integrator, for cross-checking the quadrature."""
    fa, fm, fb = f(a), f((a + b) / 2), f(b)
    whole = (b - a) / 6 * (fa + 4 * fm + fb)
    return _adaptive_simpson(f, a, b, fa, fm, fb, whole, tol, depth)


def transform_simpson(phi: TestFunction, alpha: complex, tol: float = 1e-12) -> complex:
    """Phi(alpha) by adaptive Simpson; independent of transform."""
    a, b = phi.support
    alpha_c = complex(alpha)
    return complex(
        adaptive_simpson(lambda t: math.exp(t * alpha_c.real) * phi(t)
                         * complex(math.cos(t * alpha_c.imag), math.sin(t * alpha_c.imag)),
                         a, b, tol=tol)
    )
