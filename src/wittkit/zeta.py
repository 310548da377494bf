"""Zeta functions of desk-scale varieties, product formulas, and
closed-point ledgers with their Euler/Ruelle products.

The zeta series of a point-count table N_1..N_m is exp(sum N_n t^n/n);
its rational form is a Witt vector whose negated ghost components
recover the counts. Ledgers list closed points as (norm, length,
multiplicity) rows with length = log(norm), which is what makes the
Euler and Ruelle products term-for-term identical.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .counting import DEFAULT_ENUM_CAP, AffineVariety, count_points
from .finitefield import monic_polys
from .ntheory import factorize, is_prime, primes_upto
from .poly import Polynomial
from .rings import QQ, ZZ
from .series import TruncatedPowerSeries, pade_reconstruct, series_exp
from .util import kahan_sum
from .witt import WittVector, ghost

# --- zeta as a Witt vector ---


@dataclass(frozen=True)
class PointCountTable:
    p: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if any(c < 0 for c in self.counts):
            raise ValueError("negative point count")

    @classmethod
    def make(cls, p: int, counts) -> "PointCountTable":
        return cls(p, tuple(int(c) for c in counts))


def zeta_series(counts: PointCountTable) -> TruncatedPowerSeries:
    """exp(sum_{n<=m} N_n t^n / n) over Q."""
    m = len(counts.counts)
    log_z = TruncatedPowerSeries(
        QQ, [0] + [Fraction(N, n) for n, N in enumerate(counts.counts, start=1)], m
    )
    return series_exp(log_z)


def count_ghosts(z: WittVector, m: int) -> list[int]:
    """Point counts encoded by a rational zeta: N_n = -ghost_n(z)."""
    return [z.ring.neg(g) for g in ghost(z, m)]


def zeta_rational(counts: PointCountTable, dnum: int, dden: int) -> WittVector:
    """Rational form of the zeta series, verified before it is returned.

    Checks: integral coefficients, and negated ghost components equal to
    every supplied count. Failures raise "zeta not rational at given
    degrees".
    """
    s = zeta_series(counts)
    try:
        num, den = pade_reconstruct(s, dnum, dden)
    except ValueError as e:
        raise ValueError(f"zeta not rational at given degrees: {e}") from None
    z = WittVector(num, den)
    try:
        z = z.map_ring(ZZ)
    except (TypeError, ValueError):
        raise ValueError(
            "zeta not rational at given degrees: non-integral coefficients"
        ) from None
    if count_ghosts(z, len(counts.counts)) != list(counts.counts):
        raise ValueError(
            "zeta not rational at given degrees: ghost components disagree with counts"
        )
    return z


def hasse_check(z: WittVector, p: int) -> bool:
    """Numerator of an elliptic zeta: 1 - at + pt^2 with |a| <= floor(2 sqrt p)."""
    num = z.num
    if num.degree != 2 or num[2] != p:
        return False
    a = -num[1]
    return abs(a) <= math.isqrt(4 * p)


# --- projective closures of plane curves ---


def projective_plane_counts(
    p: int, homogeneous: list[tuple[int, tuple[int, int, int]]], m: int,
    cap: int = DEFAULT_ENUM_CAP,
) -> PointCountTable:
    """Counts of a projective plane curve F(x, y, z) = 0 over F_{p^n}.

    The plane is split into the disjoint cells z = 1; z = 0, y = 1;
    z = 0, y = 0, x = 1, so the three counts add with no overlap.
    """

    def substitute(fix: dict[int, int]) -> list[tuple[int, tuple[int, ...]]]:
        """Set some of the three variables to constants 0/1, keep the rest."""
        keep = [i for i in range(3) if i not in fix]
        acc: dict[tuple[int, ...], int] = {}
        for c, exps in homogeneous:
            val = c
            for i, v in fix.items():
                if exps[i] and v == 0:
                    val = 0
                # v == 1 leaves the coefficient unchanged
            if val == 0:
                continue
            key = tuple(exps[i] for i in keep)
            acc[key] = (acc.get(key, 0) + val) % p
        return [(c, e) for e, c in acc.items() if c != 0] or [(0, (0,) * len(keep))]

    z1 = AffineVariety.make(p, 2, [substitute({2: 1})])
    z0y1 = AffineVariety.make(p, 1, [substitute({2: 0, 1: 1})])
    corner_terms = substitute({2: 0, 1: 0, 0: 1})
    corner_value = sum(c for c, _ in corner_terms) % p
    counts = []
    for n in range(1, m + 1):
        c = count_points(z1, n, cap=cap) + count_points(z0y1, n, cap=cap)
        if corner_value == 0:
            c += 1
        counts.append(c)
    return PointCountTable.make(p, counts)


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


# --- product formulas ---


def rational_orders(f: Fraction) -> dict[int, int]:
    """ord_p(f) for each prime p dividing numerator or denominator."""
    if f == 0:
        raise ValueError("f must be nonzero")
    ords: dict[int, int] = {}
    if abs(f.numerator) != 1:
        for p, e in factorize(abs(f.numerator)).items():
            ords[p] = ords.get(p, 0) + e
    if f.denominator != 1:
        for p, e in factorize(f.denominator).items():
            ords[p] = ords.get(p, 0) - e
    return dict(sorted(ords.items()))


def product_formula_defect(f: Fraction) -> float:
    """|sum_p ord_p(f) log p - log |f||, double precision, Kahan order."""
    f = Fraction(f)
    ords = rational_orders(f)
    terms = [e * math.log(p) for p, e in ords.items()]
    terms.append(-math.log(abs(f)))
    return abs(kahan_sum(terms))


def product_formula_scale(f: Fraction) -> float:
    """sum_p |ord_p(f)| log p; sets the relative tolerance for the defect."""
    return kahan_sum(abs(e) * math.log(p) for p, e in rational_orders(Fraction(f)).items())


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
            while (rem % cand).is_zero():
                out[cand] = out.get(cand, 0) + 1
                rem = rem.exact_div(cand)
        d += 1
    if rem.degree >= 1:
        out[rem] = out.get(rem, 0) + 1
    return out


def function_field_product_formula(num: Polynomial, den: Polynomial) -> int:
    """sum over monic irreducibles pi of ord_pi(f) deg(pi), plus
    ord_infinity = deg den - deg num; always exactly 0."""
    if num.ring != den.ring:
        raise ValueError("ring mismatch")
    if num.is_zero() or den.is_zero():
        raise ValueError("f must be a nonzero rational function")
    total = 0
    for piece, sign in ((num, 1), (den, -1)):
        if piece.degree >= 1:
            for pi, e in _poly_irreducible_factors(piece).items():
                total += sign * e * pi.degree
    total += den.degree - num.degree
    return total


# --- closed-point ledgers ---


@dataclass(frozen=True)
class LedgerEntry:
    norm: int
    length: float
    multiplicity: int


@dataclass(frozen=True)
class ClosedPointLedger:
    source: str
    bound: float
    entries: tuple[LedgerEntry, ...]


def _merge(source: str, bound: float, raw: list[tuple[int, int]]) -> ClosedPointLedger:
    by_norm: dict[int, int] = {}
    for norm, mult in raw:
        by_norm[norm] = by_norm.get(norm, 0) + mult
    entries = tuple(
        LedgerEntry(norm, math.log(norm), by_norm[norm]) for norm in sorted(by_norm)
    )
    return ClosedPointLedger(source, bound, entries)


def ledger_spec_z(bound: float) -> ClosedPointLedger:
    """One closed point per rational prime p <= bound."""
    return _merge("spec Z", bound, [(p, 1) for p in primes_upto(int(bound))])


def is_fundamental_discriminant(d: int) -> bool:
    if d in (0, 1):
        return False

    def squarefree(m: int) -> bool:
        m = abs(m)
        return all(e == 1 for e in factorize(m).values()) if m > 1 else True

    if d % 4 == 1:
        return squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and squarefree(m)
    return False


def kronecker_symbol(d: int, p: int) -> int:
    """(d|p) for prime p, including the p = 2 rule."""
    from .reciprocity import legendre

    if p == 2:
        if d % 2 == 0:
            return 0
        return 1 if d % 8 in (1, 7) else -1
    return legendre(d % p, p)


def ledger_quadratic(d: int, bound: float) -> ClosedPointLedger:
    """Closed points of norm <= bound in the quadratic field of
    fundamental discriminant d: split p gives two norm-p points, inert p
    one norm-p^2 point, ramified p one norm-p point."""
    if abs(d) > 10**4:
        raise ValueError("discriminant magnitude limited to 10^4")
    if not is_fundamental_discriminant(d):
        raise ValueError(
            f"{d} is not a fundamental discriminant (need d = 1 mod 4 squarefree,"
            " or d = 4m with m = 2 or 3 mod 4 squarefree)"
        )
    raw = []
    for p in primes_upto(int(bound)):
        chi = kronecker_symbol(d, p)
        if chi == 1:
            raw.append((p, 2))
        elif chi == 0:
            raw.append((p, 1))
        elif p * p <= bound:
            raw.append((p * p, 1))
    return _merge(f"quadratic {d}", bound, raw)


def count_irreducibles(q: int, degree: int) -> int:
    """Monic irreducibles of the given degree over F_q, by Gauss's
    necklace formula (1/d) sum_{e | d} mu(e) q^(d/e); only the
    squarefree e, products of distinct primes of d, contribute."""
    if not is_prime(q):
        raise ValueError("only prime q supported for the projective-line ledger")
    if degree < 1:
        raise ValueError("degree must be >= 1")
    primes = list(factorize(degree)) if degree > 1 else []
    total = 0
    for k in range(len(primes) + 1):
        for subset in itertools.combinations(primes, k):
            total += (-1) ** k * q ** (degree // math.prod(subset))
    return total // degree


def ledger_projective_line(q: int, bound: float) -> ClosedPointLedger:
    """Closed points of P^1 over F_q with norm q^deg <= bound: the monic
    irreducibles plus the point at infinity (degree 1)."""
    if not is_prime(q):
        raise ValueError("only prime q supported for the projective-line ledger")
    raw = [(q, 1)]  # the point at infinity
    d = 1
    while q**d <= bound:
        raw.append((q**d, count_irreducibles(q, d)))
        d += 1
    return _merge(f"curve over F_{q}", bound, raw)


def closed_points(source: str, bound: float) -> ClosedPointLedger:
    """Dispatcher: 'spec Z', 'quadratic:<d>', or 'curve:<q>'."""
    if not math.isfinite(bound):
        raise ValueError(f"--bound must be a finite number, got {bound!r}")
    if source == "spec Z":
        return ledger_spec_z(bound)
    if source.startswith("quadratic:"):
        return ledger_quadratic(int(source.split(":", 1)[1]), bound)
    if source.startswith("curve:"):
        return ledger_projective_line(int(source.split(":", 1)[1]), bound)
    raise ValueError(
        f"unsupported source {source!r}; use 'spec Z', 'quadratic:<d>' or 'curve:<q>'"
    )


# --- Euler versus Ruelle products ---


def euler_vs_ruelle(
    ledger: ClosedPointLedger, s: float, bound: float
) -> tuple[float, float]:
    """Truncated prod (1 - N^{-s})^{-mult} and prod (1 - e^{-s l})^{-mult}.

    The Euler factor is evaluated through exp(-s log N), the Ruelle
    factor through the stored length, so the two sides are identical
    computations whenever length = log(norm) holds exactly.
    """
    if not s > 1:  # also refuses nan
        raise ValueError("s must be > 1")
    euler = 1.0
    ruelle = 1.0
    for e in ledger.entries:
        if e.norm > bound:
            break
        euler *= (1.0 - math.exp(-s * math.log(e.norm))) ** (-e.multiplicity)
        ruelle *= (1.0 - math.exp(-s * e.length)) ** (-e.multiplicity)
    return euler, ruelle


def zeta_reference(s: float, terms: int = 10**6) -> float:
    """sum_{n<=terms} n^{-s} in double precision."""
    n = np.arange(1, terms + 1, dtype=np.float64)
    return float(np.sum(n ** (-s)))


def ulp_distance(a: float, b: float) -> int:
    """Number of representable doubles strictly between a and b."""
    if a == b:
        return 0
    if (a < 0) != (b < 0):
        raise ValueError("ulp distance across zero is not meaningful here")
    ia = np.float64(a).view(np.int64)
    ib = np.float64(b).view(np.int64)
    return abs(int(ia) - int(ib))
