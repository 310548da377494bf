"""Slow reference routes, kept as oracles for the library's fast paths.

Nothing in wittkit imports this module. It holds the literal matrix
constructions that the Newton power-sum routes in wittkit replace:

- Matrix, det_one_minus_t (Berkowitz, division-free) and companion;
- companion_pair, the Almkvist representative (A, B) of a Witt vector;
- witt_mul_kronecker and frobenius_via_matrices, which compute the
  product and F_nu through literal Kronecker products and matrix powers;
- ghost_via_series, the ghost map read off the expanded series;
- count_irreducibles_by_enumeration, a test of every monic candidate;
- field_mul_reference and field_pow_reference, finite-field arithmetic
  through Polynomial objects, instead of the plain-int F_p[t] kernel in
  wittkit.poly;
- is_irreducible_reference, Rabin's test (t^(p^n) = t mod f, and no
  common factor with t^(p^(n/l)) - t for a prime l | n) through
  Polynomial objects with a Euclid of Polynomial.__mod__ steps: an
  algorithm independent of the distinct-degree loop
  wittkit.poly._factor_degrees that wittkit.finitefield._is_irreducible
  runs;
- brute_force_count, a point count by evaluating every equation at every
  point of F_{p^n}^k in that Polynomial-object arithmetic, and _count_sweep,
  the same enumeration on the field tables with the last variable swept as
  a numpy vector per assignment of the others, both instead of the value
  histograms over groups of variables in wittkit.counting;
- _poly_irreducible_factors, factorization over F_p by trial division
  by every monic candidate, the oracle of the factor degrees that the
  distinct-degree loop wittkit.poly._factor_degrees reads;
- solve_linear_system and pade_reconstruct_toeplitz, Padé reconstruction
  by an exact Gauss-Jordan solve of the Toeplitz system instead of the
  extended Euclidean algorithm in wittkit.series;
- adaptive_simpson and transform_simpson, a second integrator for the
  Gauss-Legendre transforms in wittkit.explicit;
- gcd_prs_reference, the gcd over Z by the primitive pseudo-remainder
  sequence instead of the modular gcd in wittkit.poly;
- parse_witt_reference, the expression parser evaluated over Q with
  Fraction coefficients and mapped to Z afterwards, instead of the
  evaluation over Z in wittkit.parser;
- is_prime_trial_division, primality by odd trial divisors up to
  sqrt(n), instead of the deterministic Miller-Rabin in wittkit.ntheory;
- kronecker_binary, the Kronecker symbol by the binary algorithm with
  quadratic reciprocity (Cohen, A Course in Computational Algebraic
  Number Theory, Alg. 1.4.10), and square_table, the quadratic character
  mod an odd prime read off the list of squares, both instead of
  Euler's criterion in wittkit.ntheory.kronecker_symbol;
- _redei_solutions, the Rédei conic search over the whole rectangle
  |y|, |z| <= bound with a test of x <= bound per candidate, instead of
  the lattice points of the ellipse p y^2 + l z^2 <= bound^2 in
  wittkit.reciprocity;
- _orbit_partition and orbit_of, the Frobenius orbit walks that stop at
  the first index already seen and step through frobenius_step's
  FiniteLevelPoint objects, instead of the one walk wittkit.orbits._orbit;
- linking_table_reference, the linking table with two kronecker_symbol
  calls per pair (reciprocity_check), instead of the residue table per
  prime in wittkit.reciprocity.linking_table;
- zeta_reference_one_array, the reference sum as one np.sum over the
  whole 8 MB array, instead of the 2^15-term blocks of
  wittkit.zeta.zeta_reference;
- power_sums_reference and poly_from_power_sums_reference, both Newton
  recurrences as index loops over Polynomial.__getitem__, instead of the
  sums of products over coefficient slices in wittkit.series.

It also keeps the helpers that only the tests use: property_seed, the
seed of the generated inputs; homogenize, plane-curve terms made
homogeneous; frobenius_step, F_p on a FiniteLevelPoint; and legendre,
the symbol (a/p) with p checked to be an odd prime.
"""

from __future__ import annotations

import itertools
import math
import os
from itertools import product
from typing import NamedTuple, Sequence

import numpy as np

from wittkit.explicit import TestFunction
from wittkit.finitefield import _is_irreducible, finite_field_make, monic_polys
from wittkit.ntheory import factorize, kronecker_symbol, primes_upto
from wittkit.orbits import FiniteLevelPoint, frobenius_power
from wittkit.parser import ParseError, _Tokens
from wittkit.poly import Polynomial
from wittkit.reciprocity import _check_odd_prime, reciprocity_check
from wittkit.rings import GF, QQ, ZZ, Ring
from wittkit.series import series_of_rational
from wittkit.witt import WittVector

DEFAULT_PROPERTY_SEED = 20260823


def property_seed() -> int:
    """Seed for randomized property tests; WITT_ORBIT_SEED overrides."""
    raw = os.environ.get("WITT_ORBIT_SEED")
    if raw is None:
        return DEFAULT_PROPERTY_SEED
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"WITT_ORBIT_SEED must be an integer, got {raw!r}") from None


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
            ring, [[int(i == j) for j in range(n)] for i in range(n)]
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
                acc = R.coerce(0)
                for a, b in zip(row, col):
                    acc = R.coerce(acc + a * b)
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
        acc = R.coerce(0)
        for i in range(self.size):
            acc = R.coerce(acc + self.rows[i][i])
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
                        R.coerce(self.rows[i][j] * other.rows[k][l])
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
    vec = [R.coerce(1), R.coerce(-rows[n - 1][n - 1])]
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
            acc = R.coerce(0)
            for rj, cj in zip(row, cur):
                acc = R.coerce(acc + rj * cj)
            dots.append(acc)
            nxt = []
            for srow in sub:
                s = R.coerce(0)
                for sv, cv in zip(srow, cur):
                    s = R.coerce(s + sv * cv)
                nxt.append(s)
            cur = nxt
        toep = [R.coerce(1), R.coerce(-a)] + [R.coerce(-d) for d in dots]
        out = [R.coerce(0)] * (m + 2)
        for j, v in enumerate(vec):
            if not v:
                continue
            for k in range(m + 2 - j):
                out[j + k] = R.coerce(out[j + k] + toep[k] * v)
        vec = out
    return Polynomial(R, vec)


def companion(monic: Polynomial) -> Matrix:
    """Companion matrix of a monic polynomial (in the x variable)."""
    R = monic.ring
    n = monic.degree
    if n < 0 or monic.leading() != 1:
        raise ValueError("companion matrix needs a monic polynomial")
    rows = [
        [int(j == i - 1) for j in range(n - 1)] + [R.coerce(-monic[i])]
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
    c = f.series(N)
    out: list = []
    for n in range(1, N + 1):
        acc = R.coerce(-n * c[n])
        for k in range(1, n):
            acc = R.coerce(acc - out[k - 1] * c[n - k])
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


def brute_force_count(X, n):
    """Independent oracle: direct enumeration through the Polynomial-object
    field arithmetic of oracles.py instead of the table-driven evaluator."""
    F = finite_field_make(X.p, n)
    elems = list(F.enumerate())
    count = 0
    for codes in _tuples(len(elems), X.nvars):
        point = [elems[c] for c in codes]
        ok = True
        for eq in X.equations:
            acc = F.zero
            for coeff, exps in eq:
                term = F.from_int(coeff)
                for var, e in enumerate(exps):
                    if e:
                        power = field_pow_reference(F.modulus, point[var], e)
                        term = field_mul_reference(F.modulus, term, power)
                acc = F.add(acc, term)
            if acc != F.zero:
                ok = False
                break
        if ok:
            count += 1
    return count


def _count_sweep(field, equations, nvars: int) -> int:
    """Common zeros in F_q^nvars of one or more equations, by enumeration:
    one numpy vector over the last variable per assignment of the others."""
    exp, log, digits = field.tables()
    p, q = field.p, field.q
    m = q - 1  # order of the multiplicative group, always >= 1
    exp2 = np.concatenate((exp, exp))  # exp2[i + j] = g^(i + j) for i, j < m
    columns = np.ascontiguousarray(digits.T)  # column c: the digits of code c
    # each equation as (log of its coefficient, exponents), zero terms dropped
    eqs = [
        [(int(log[field.encode(field.from_int(c))]), exps) for c, exps in eq if c]
        for eq in equations
    ]
    # ylog[e][y - 1] = log(y^e) mod m for every nonzero code y of the last variable
    ylog = {e: e * log[1:] % m for e in {exps[-1] for eq in eqs for _, exps in eq}}
    total = 0
    for outer in product(range(q), repeat=nvars - 1):
        ok = None
        for eq in eqs:
            # digits of the equation at each value of the last variable
            acc = np.zeros((field.n, q), dtype=np.int64)
            const = np.zeros(field.n, dtype=np.int64)
            for c_log, exps in eq:
                if any(x == 0 and e for x, e in zip(outer, exps)):
                    continue
                # log of the coefficient times the outer factors
                c_log += sum(e * int(log[x]) for x, e in zip(outer, exps) if e)
                c_log %= m
                if exps[-1]:
                    term = np.zeros(q, dtype=np.int64)
                    term[1:] = exp2[c_log + ylog[exps[-1]]]
                    acc += np.take(columns, term, axis=1)
                else:
                    const += columns[:, exp[c_log]]
            acc += const[:, None]
            # a column is zero mod p where the equation vanishes; acc // p * p
            # because numpy's int64 % is several times slower than //
            zero_here = np.all(acc == acc // p * p, axis=0)
            ok = zero_here if ok is None else (ok & zero_here)
        total += int(np.count_nonzero(ok))
    return total


def _tuples(base, length):
    if length == 0:
        yield ()
        return
    for rest in _tuples(base, length - 1):
        for c in range(base):
            yield rest + (c,)


def is_irreducible_reference(f: Polynomial, p: int) -> bool:
    """Rabin's test: x^{p^n} = x mod f, and no subfield roots."""
    n = f.degree
    x = Polynomial.t(f.ring)
    if _poly_powmod(x, p**n, f) != x % f:
        return False
    for ell in factorize(n) if n > 1 else {}:
        g = _poly_powmod(x, p ** (n // ell), f) - x
        if _euclid(f, g).degree != 0:
            return False
    return True


def _euclid(a: Polynomial, b: Polynomial) -> Polynomial:
    """Gcd over a field by Polynomial.__mod__ steps, up to a unit."""
    while not b.is_zero():
        a, b = b, a % b
    return a


def _poly_irreducible_factors(f: Polynomial) -> dict[Polynomial, int]:
    """Monic irreducible factorization over F_p by trial division in
    lexicographic order; composite candidates never divide the reduced
    remainder, exactly like integer trial division."""
    p = f.ring.characteristic
    if f.is_zero():
        raise ValueError("cannot factor 0")
    rem = f.monic()
    out: dict[Polynomial, int] = {}
    d = 1
    while rem.degree >= 2 * d:
        for cand in monic_polys(p, d):
            quot, r = rem.divmod(cand)
            while r.is_zero():
                out[cand] = out.get(cand, 0) + 1
                rem = quot
                quot, r = rem.divmod(cand)
        d += 1
    if rem.degree >= 1:
        out[rem] = out.get(rem, 0) + 1
    return out


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
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = ring.inv(rows[r][c])
        rows[r] = [ring.coerce(inv * x) for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [ring.coerce(x - f * y) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if rows[i][ncols]:
            return None
    x = [ring.coerce(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = rows[i][ncols]
    return x


def pade_reconstruct_toeplitz(
    s: Polynomial, order: int, dnum: int, dden: int
) -> tuple[Polynomial, Polynomial]:
    """Rational form (P, Q) with deg P <= dnum, deg Q <= dden, Q(0) = 1.

    The denominator comes from the exact Toeplitz system on orders
    dnum+1 .. dnum+dden; the candidate is then re-expanded and must
    match every supplied coefficient, so the answer is a true rational
    form of the data, not just a local fit.
    """
    if dnum < 0 or dden < 0:
        raise ValueError("degrees must be >= 0")
    if order < dnum + dden:
        raise ValueError(
            f"series order {order} below dnum + dden = {dnum + dden}"
        )
    if s.ring != QQ:
        raise ValueError("pade_reconstruct needs coefficients over Q")

    def coeff(n: int):
        return s[n] if n >= 0 else QQ.coerce(0)

    if dden == 0:
        q_tail: list = []
    else:
        A = [
            [coeff(n - j) for j in range(1, dden + 1)]
            for n in range(dnum + 1, dnum + dden + 1)
        ]
        b = [QQ.coerce(-coeff(n)) for n in range(dnum + 1, dnum + dden + 1)]
        sol = solve_linear_system(QQ, A, b)
        if sol is None:
            raise ValueError("no rational reconstruction")
        q_tail = sol
    den = Polynomial(QQ, [QQ.coerce(1)] + q_tail)
    num = Polynomial(
        QQ,
        [
            sum((den[j] * coeff(n - j) for j in range(min(n, dden) + 1)), QQ.coerce(0))
            for n in range(dnum + 1)
        ],
    )
    if series_of_rational(num, den, order) != s:
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


def gcd_prs_reference(self: Polynomial, other: Polynomial) -> Polynomial:
    """Primitive, positive-leading gcd over Z by the primitive PRS."""
    a, b = self.primitive(), other.primitive()
    # primitive pseudo-remainder sequence: stays in Z, growth
    # clamped by taking contents out at every step
    while not b.is_zero():
        r = a
        lcb = b.leading()
        while not r.is_zero() and r.degree >= b.degree:
            shift = r.degree - b.degree
            r = r.scale(lcb) - b.scale(r.leading()).shift(shift)
        a, b = b, r.primitive()
    return a.primitive()


# rational functions as (num, den) pairs over Q; reduction waits for the end
_RF = tuple[Polynomial, Polynomial]


def _one() -> Polynomial:
    return Polynomial.one(QQ)


def _rf_add(a: _RF, b: _RF) -> _RF:
    return (a[0] * b[1] + b[0] * a[1], a[1] * b[1])


def _rf_neg(a: _RF) -> _RF:
    return (-a[0], a[1])


def _rf_mul(a: _RF, b: _RF) -> _RF:
    return (a[0] * b[0], a[1] * b[1])


def _rf_div(a: _RF, b: _RF, pos: int) -> _RF:
    if b[0].is_zero():
        raise ParseError("division by zero", pos)
    return (a[0] * b[1], a[1] * b[0])


def _rf_pow(a: _RF, e: int, pos: int) -> _RF:
    if e < 0:
        return _rf_pow(_rf_div((_one(), _one()), a, pos), -e, pos)
    num, den = _one(), _one()
    for _ in range(e):
        num, den = num * a[0], den * a[1]
    return (num, den)


def _parse_expr(toks: _Tokens) -> _RF:
    sign = 1
    if toks.peek()[0] in ("+", "-"):
        sign = -1 if toks.advance()[0] == "-" else 1
    acc = _parse_term(toks)
    if sign < 0:
        acc = _rf_neg(acc)
    while toks.peek()[0] in ("+", "-"):
        op = toks.advance()[0]
        rhs = _parse_term(toks)
        acc = _rf_add(acc, _rf_neg(rhs) if op == "-" else rhs)
    return acc


def _parse_term(toks: _Tokens) -> _RF:
    acc = _parse_factor(toks)
    while True:
        kind, _, pos = toks.peek()
        if kind in ("*", "/"):
            toks.advance()
            rhs = _parse_factor(toks)
            acc = _rf_mul(acc, rhs) if kind == "*" else _rf_div(acc, rhs, pos)
        elif kind in ("int", "t", "("):
            acc = _rf_mul(acc, _parse_factor(toks))
        else:
            return acc


def _parse_factor(toks: _Tokens) -> _RF:
    acc = _parse_atom(toks)
    while toks.peek()[0] == "^":
        _, _, pos = toks.advance()
        sign = 1
        if toks.peek()[0] == "-":
            toks.advance()
            sign = -1
        kind, value, vpos = toks.advance()
        if kind != "int":
            raise ParseError(f"expected integer exponent, found {kind!r}", vpos)
        acc = _rf_pow(acc, sign * value, pos)
    return acc


def _parse_atom(toks: _Tokens) -> _RF:
    kind, value, pos = toks.advance()
    if kind == "int":
        return (Polynomial(QQ, [value]), _one())
    if kind == "t":
        return (Polynomial.t(QQ), _one())
    if kind == "(":
        inner = _parse_expr(toks)
        close, _, cpos = toks.advance()
        if close != ")":
            raise ParseError(f"expected ')', found {close!r}", cpos)
        return inner
    if kind == "-":
        return _rf_neg(_parse_factor(toks))
    raise ParseError(f"expected integer, 't' or '(', found {kind!r}", pos)


def parse_witt_reference(expr: str) -> WittVector:
    """Parse and canonicalize; integral results are returned over Z."""
    toks = _Tokens(expr)
    num, den = _parse_expr(toks)
    kind, _, pos = toks.peek()
    if kind != "end":
        raise ParseError(f"unexpected {kind!r}", pos)
    w = WittVector(num, den)
    try:
        return w.map_ring(ZZ)
    except (TypeError, ValueError):
        return w


def is_prime_trial_division(n: int) -> bool:
    """Primality by trial division."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def kronecker_binary(a: int, b: int) -> int:
    """(a|b) for any integers, Cohen's Alg. 1.4.10: strip twos with the
    (2|b) rule, then reduce by reciprocity as in Euclid's algorithm."""
    if b == 0:
        return 1 if abs(a) == 1 else 0
    if a % 2 == 0 and b % 2 == 0:
        return 0
    k = 1
    while b % 2 == 0:
        b //= 2
        if a % 8 in (3, 5):
            k = -k
    if b < 0:
        b = -b
        if a < 0:
            k = -k
    while a != 0:  # b is odd and positive here
        while a % 2 == 0:
            a //= 2
            if b % 8 in (3, 5):
                k = -k
        if a & b & 2:  # (-1)^((a-1)(b-1)/4), also for negative a
            k = -k
        a, b = b % abs(a), abs(a)
    return k if b == 1 else 0


def legendre(a: int, p: int) -> int:
    """(a/p); p must be an odd prime."""
    _check_odd_prime(p)
    return kronecker_symbol(a, p)


def square_table(p: int) -> list[int]:
    """The quadratic character mod an odd prime p, indexed by residue:
    0 at 0, +1 on the squares x^2 mod p, -1 elsewhere."""
    table = [-1] * p
    table[0] = 0
    for x in range(1, p):
        table[x * x % p] = 1
    return table


def _redei_solutions(p: int, l: int, q: int, bound: int) -> list[tuple[int, int, int]]:
    """Primitive solutions of x^2 = p y^2 + l z^2 with y even, x > 0,
    q not dividing z, within |x|, |y|, |z| <= bound."""
    out = []
    for z in range(1, bound + 1):
        if z % q == 0:
            continue
        lz2 = l * z * z
        for y in range(0, bound + 1, 2):
            x2 = p * y * y + lz2
            x = math.isqrt(x2)
            if x * x != x2 or x > bound:
                continue
            if math.gcd(math.gcd(x, y), z) != 1:
                continue
            out.append((x, y, z))
    return out


def frobenius_step(P: FiniteLevelPoint) -> FiniteLevelPoint:
    return frobenius_power(P, P.p)


def orbit_of(P: FiniteLevelPoint) -> list[FiniteLevelPoint]:
    """Iterate frobenius_step until the start returns."""
    orbit = [P]
    cur = frobenius_step(P)
    while cur.a != P.a:
        orbit.append(cur)
        cur = frobenius_step(cur)
    return orbit


def _orbit_partition(p: int, n: int) -> list[list[int]]:
    """Frobenius orbits of the faithful indices, each led by its
    smallest member, listed in order of that leader."""
    m = max(p**n - 1, 1)
    if m == 1:
        return [[0]]
    seen = bytearray(m)
    orbits = []
    for a in range(1, m):
        if seen[a] or math.gcd(a, m) != 1:
            continue
        orbit = []
        cur = a
        while not seen[cur]:
            seen[cur] = 1
            orbit.append(cur)
            cur = cur * p % m
        orbits.append(orbit)
    return orbits


def linking_table_reference(bound: int) -> list[tuple]:
    """All ordered pairs of distinct odd primes below bound, in (p, l)
    order, each symbol by its own kronecker_symbol call."""
    odd_primes = primes_upto(bound - 1)[1:]  # drop 2
    return [reciprocity_check(p, l) for p in odd_primes for l in odd_primes if p != l]


def zeta_reference_one_array(s: float) -> float:
    """sum_{n<=10^6} n^{-s} in double precision, one np.sum of all terms."""
    n = np.arange(1, 10**6 + 1, dtype=np.float64)
    return float(np.sum(np.power(n, -s, out=n)))  # in place: one 8 MB array, not two


def power_sums_reference(P: Polynomial, m: int) -> list:
    """p_1..p_m with p_k = sum of a_i^k where P = prod(1 - a_i t).

    Newton's identity in the direction that needs no division, so any
    coefficient ring works. Equivalently -t P'/P = sum p_k t^k, which
    holds for any P with constant term 1, not only for products.
    """
    R = P.ring
    out: list = []
    for n in range(1, m + 1):
        acc = -n * P[n]
        for k in range(max(1, n - P.degree), n):  # P[n - k] = 0 for smaller k
            acc -= out[k - 1] * P[n - k]
        out.append(R.coerce(acc))
    return out


def poly_from_power_sums_reference(ring: Ring, sums: Sequence, degree: int) -> Polynomial:
    """Inverse of power_sums, to the given degree; the divisions by n are
    exact for genuine power-sum data (over Z they recover integer
    determinant coefficients)."""
    c: list = [ring.coerce(1)]
    for n in range(1, degree + 1):
        acc = sums[n - 1]
        for k in range(1, n):
            acc += sums[k - 1] * c[n - k]
        c.append(ring.div(-acc, n))
    return Polynomial(ring, c)


def homogenize(terms: list[tuple[int, tuple[int, int]]], degree: int | None = None):
    """Plane-curve terms in (x, y) -> homogeneous terms in (x, y, z)."""
    if degree is None:
        degree = max(ex + ey for _, (ex, ey) in terms)
    out = []
    for c, (ex, ey) in terms:
        if ex + ey > degree:
            raise ValueError("term degree above homogenization degree")
        out.append((c, (ex, ey, degree - ex - ey)))
    return out
