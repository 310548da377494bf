"""Numerical check of the explicit formula: a truncated sum over zeta
zeros against a sum over prime powers plus an archimedean integral,
both applied to smooth bump functions supported in R^{>0}.

Phi(alpha) = integral of e^{t alpha} phi(t) dt over the support, by
Gauss-Legendre quadrature with node doubling; an adaptive-Simpson
integrator in tests/oracles.py is the independent cross-check.
Truncation is raw: K zeros, primes up to the bound, no smoothing
factors.

The zero side integrates its 2 * len(table) + 2 transforms in blocks of
neighbouring alphas, one column each, through the same doubling loop as
a single transform. Each column stops at its own first agreeing
doubling, so a column's value is the one `transform` gives. A block has
at most QUAD_BLOCK_ROWS columns, set by the byte budget QUAD_BLOCK_BYTES.
The values are cached per (bump, table) for the last
ZERO_SIDE_CACHE_BUMPS bumps; every K slices the same array.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np
from scipy.special import roots_legendre

from .ntheory import primes_upto
from .util import kahan_sum

QUAD_START_NODES = 32
QUAD_MAX_NODES = 2**16
QUAD_REL_TOL = 1e-12
# Byte budget of one block of integrand values, rows x nodes x 16 B of
# complex128. Blocks have QUAD_BLOCK_ROWS rows, so even at QUAD_MAX_NODES
# the largest block costs 16 x 65,536 x 16 B = 16 MiB; bumps with radius
# up to 0.9 and the bundled zeros converge by 2,048 nodes (512 KiB).
QUAD_BLOCK_BYTES = 16 * 2**20
QUAD_BLOCK_ROWS = QUAD_BLOCK_BYTES // (QUAD_MAX_NODES * 16)
# Bumps whose zero-side transforms stay cached, 32 KiB each for the
# bundled table. A 45 s witt-explicit benchmark run draws 90-102 distinct
# cold bumps and repeats any earlier one, so fewer entries would turn
# repeats into misses.
ZERO_SIDE_CACHE_BUMPS = 128


@dataclass(frozen=True)
class TestFunction:
    """Bump exp(-1/(1 - ((t-c)/r)^2)) on (c-r, c+r), zero outside."""

    __test__ = False  # keep pytest from collecting despite the Test prefix

    c: float
    r: float

    def __post_init__(self):
        if self.r <= 0:
            raise ValueError("radius must be positive")
        if self.c - self.r <= 0:
            raise ValueError("support must lie inside the positive reals")

    @property
    def support(self) -> tuple[float, float]:
        return (self.c - self.r, self.c + self.r)

    def values(self, t: np.ndarray) -> np.ndarray:
        u = (np.asarray(t, dtype=np.float64) - self.c) / self.r
        inside = np.abs(u) < 1
        safe = np.where(inside, 1.0 - u * u, 1.0)
        return np.where(inside, np.exp(-1.0 / safe), 0.0)

    def __call__(self, t: float) -> float:
        u = (t - self.c) / self.r
        if abs(u) >= 1:
            return 0.0
        return math.exp(-1.0 / (1.0 - u * u))


@dataclass(frozen=True)
class ZeroTable:
    gammas: tuple[float, ...]

    def __len__(self):
        return len(self.gammas)


def load_zeros(path) -> ZeroTable:
    """Read a one-zero-per-line table; '#' starts a comment.

    Validates strict monotonicity (error names the line) and that the
    first zero looks like the first zero of zeta (in [14, 14.2])."""
    gammas: list[float] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            try:
                value = float(text)
            except ValueError:
                raise ValueError(f"non-numeric value at line {lineno}") from None
            if not math.isfinite(value) or value <= 0:
                raise ValueError(f"nonpositive zero at line {lineno}")
            if gammas and value <= gammas[-1]:
                raise ValueError(f"non-monotone at line {lineno}")
            gammas.append(value)
    if not gammas:
        raise ValueError("no zeros")
    if not 14.0 <= gammas[0] <= 14.2:
        raise ValueError(
            f"first zero {gammas[0]} outside [14, 14.2]; wrong or truncated table?"
        )
    return ZeroTable(tuple(gammas))


def bundled_zeros_path():
    """Path of the zero table shipped with the package."""
    return resources.files("wittkit").joinpath("data/zeta_zeros_1000.txt")


@functools.lru_cache(maxsize=1)
def load_bundled_zeros() -> ZeroTable:
    """The bundled table, read once; a ZeroTable is immutable."""
    return load_zeros(bundled_zeros_path())


@functools.lru_cache(maxsize=(QUAD_MAX_NODES // QUAD_START_NODES).bit_length())
def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights; one entry per doubling level."""
    x, w = roots_legendre(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _quad_doubling(vec_f, a: float, b: float):
    """Gauss-Legendre on [a, b], doubling nodes until successive values
    agree to 1e-12 relative (absolute for values below 1).

    `vec_f(t)` gives the integrand at the nodes t, shape (n,) for one
    integral (returned as float or complex) or (m, n) for a block of m
    (returned as an array). Each row keeps the value of its own first
    agreeing doubling; the loop ends when every row has one."""
    mid, half = (a + b) / 2, (b - a) / 2
    prev = None
    n = QUAD_START_NODES
    while n <= QUAD_MAX_NODES:
        x, w = _gl_nodes(n)
        val = half * np.sum(w * vec_f(mid + half * x), axis=-1)
        if prev is None:
            out, done = val, np.zeros(np.shape(val), dtype=bool)
        else:
            agree = ~done & (np.abs(val - prev) < QUAD_REL_TOL * np.maximum(1.0, np.abs(val)))
            out = np.where(agree, val, out)
            done = done | agree
            if done.all():
                return out.item() if out.ndim == 0 else out
        prev = val
        n *= 2
    raise RuntimeError(f"quadrature did not converge within {QUAD_MAX_NODES} nodes")


def _transform_integrand(phi: TestFunction, alpha):
    """t -> e^{t alpha} phi(t); alpha is a complex or an (m, 1) column."""

    def integrand(t: np.ndarray) -> np.ndarray:
        z = t * alpha
        np.exp(z, out=z)
        z *= phi.values(t)
        return z

    return integrand


def transform(phi: TestFunction, alpha: complex) -> complex:
    """Phi(alpha) = integral e^{t alpha} phi(t) dt over the support."""
    a, b = phi.support
    return complex(_quad_doubling(_transform_integrand(phi, complex(alpha)), a, b))


@functools.lru_cache(maxsize=ZERO_SIDE_CACHE_BUMPS)
def _zero_transforms(phi: TestFunction, zeros: ZeroTable) -> np.ndarray:
    """Phi at 0, 1, then 1/2 + i gamma and 1/2 - i gamma for each gamma of
    the table, integrated in blocks of QUAD_BLOCK_ROWS neighbouring alphas."""
    gammas = np.asarray(zeros.gammas, dtype=np.float64)
    alphas = np.zeros(2 * len(gammas) + 2, dtype=np.complex128)
    alphas[1] = 1.0
    alphas[2:].real = 0.5
    alphas[2::2].imag = gammas
    alphas[3::2].imag = -gammas
    a, b = phi.support
    values = np.concatenate([
        _quad_doubling(_transform_integrand(phi, alphas[i:i + QUAD_BLOCK_ROWS, None]), a, b)
        for i in range(0, len(alphas), QUAD_BLOCK_ROWS)
    ])
    values.flags.writeable = False
    return values


def zero_side(phi: TestFunction, zeros: ZeroTable, K: int) -> float:
    """Phi(0) + Phi(1) - sum over the first K zeros of Phi at 1/2 +- i gamma.

    Both members of each conjugate pair are integrated independently;
    the imaginary residue must stay below 1e-10 and is then dropped.
    The transforms for the whole table are integrated once per bump and
    cached, so every K up to the table size slices the same values."""
    if K < 0 or K > len(zeros):
        raise ValueError(f"K must be between 0 and the table size {len(zeros)}")
    values = _zero_transforms(phi, zeros)
    total = values[0] + values[1]
    pairs = values[2:2 * K + 2:2] + values[3:2 * K + 3:2]
    re = kahan_sum([float(total.real)] + (-pairs.real).tolist())
    im = kahan_sum([float(total.imag)] + (-pairs.imag).tolist())
    if abs(im) >= 1e-10:
        raise AssertionError(f"zero side imaginary residue {im} above 1e-10")
    return re


def prime_side(phi: TestFunction, prime_bound: int) -> float:
    """sum over p <= bound and k >= 1 of log p * phi(k log p), plus the
    archimedean integral of phi(t)/(1 - e^{-2t}) over the support."""
    lo, hi = phi.support
    if math.log(prime_bound) < hi:
        raise ValueError(
            f"prime bound too small: support reaches {hi:.6f}, log bound is"
            f" {math.log(prime_bound):.6f}"
        )
    terms = []
    # a prime with log p >= hi has no k log p inside the support
    for p in primes_upto(min(prime_bound, math.ceil(math.exp(hi)) + 1)):
        lp = math.log(p)
        if lp >= hi:
            break
        k = max(1, math.floor(lo / lp) + 1)
        while k * lp < hi:
            terms.append(lp * phi(k * lp))
            k += 1
    prime_sum = kahan_sum(terms)

    def integrand(t: np.ndarray) -> np.ndarray:
        return phi.values(t) / (1.0 - np.exp(-2.0 * t))

    archimedean = float(_quad_doubling(integrand, lo, hi))
    return prime_sum + archimedean


def explicit_formula_defect(
    phi: TestFunction, zeros: ZeroTable, K: int, prime_bound: int
) -> dict:
    """Report both sides, their absolute difference, and how the defect
    moves along K in {10, 100, 1000} where the table has enough zeros."""
    # every row slices one zero side; integrate no zero the report skips
    used = max(K, 1000)
    if len(zeros) > used:
        zeros = ZeroTable(zeros.gammas[:used])
    zs = zero_side(phi, zeros, K)
    ps = prime_side(phi, prime_bound)
    report = {
        "bump": {"c": phi.c, "r": phi.r},
        "K": K,
        "prime_bound": prime_bound,
        "zero_side": zs,
        "prime_side": ps,
        "defect": abs(zs - ps),
        "convergence": [],
    }
    for k in (10, 100, 1000):
        if k <= len(zeros):
            report["convergence"].append(
                {"K": k, "defect": abs(zero_side(phi, zeros, k) - ps)}
            )
    return report
