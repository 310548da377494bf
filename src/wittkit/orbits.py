"""Finite-level periodic-orbit packets over a closed point.

A point at level (p, n) is a character index a mod m = p^n - 1, labeling
chi_a(g^k) = e^{2 pi i a k / m} for the field's fixed generator g.
Frobenius precomposes with the p-power map, so it sends a to a*p mod m.
Faithful points (gcd(a, m) = 1) fall into orbits of length exactly n,
and the packet over the closed point consists of phi(m)/n such orbits,
each of suspension length n log p. Packets stop at p^n = PACKET_SIZE_CAP
and listings at LIST_LIMIT_CAP orbits, refused by util.over_cap.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .finitefield import DEFAULT_FIELD_LIMIT, finite_field_make
from .ntheory import euler_phi, factorize, is_prime
from .util import capped_power, over_cap

# the largest --list-limit; the longest listing it admits (2645371 1) prints in about 1 s
LIST_LIMIT_CAP = 5 * 10**5
# the largest residue field p^n of a packet; m = p^n - 1 <= 10^9 too: 10^9 + 1 is no prime power
PACKET_SIZE_CAP = 10**9


@dataclass(frozen=True)
class FiniteLevelPoint:
    p: int
    n: int
    a: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.n < 1:
            raise ValueError("level must be >= 1")
        if not 0 <= self.a < self.m:
            raise ValueError(f"index {self.a} out of range mod {self.m}")

    @property
    def m(self) -> int:
        return max(self.p**self.n - 1, 1)

    @property
    def faithful(self) -> bool:
        return math.gcd(self.a, self.m) == 1


@dataclass(frozen=True)
class PacketSummary:
    p: int
    n: int
    orbit_count: int
    orbit_length: int
    suspension_length: float
    faithful_count: int


def frobenius_power(P: FiniteLevelPoint, nu: int) -> FiniteLevelPoint:
    """F_nu on characters: index a -> a * nu mod m."""
    if nu < 1:
        raise ValueError("nu must be >= 1")
    return FiniteLevelPoint(P.p, P.n, (P.a * nu) % P.m)


def _orbit(a: int, p: int, m: int) -> list[int]:
    """The Frobenius walk a, a p, a p^2, ... mod m until a returns."""
    orbit = [a]
    cur = a * p % m
    while cur != a:
        orbit.append(cur)
        cur = cur * p % m
    return orbit


def orbit_of(P: FiniteLevelPoint) -> list[FiniteLevelPoint]:
    """The Frobenius orbit of P, starting at P."""
    return [FiniteLevelPoint(P.p, P.n, a) for a in _orbit(P.a, P.p, P.m)]


def _orbit_partition(p: int, n: int) -> list[tuple[int, ...]]:
    """Frobenius orbits of the faithful indices mod m = p^n - 1, each led by
    its smallest member, in order of that leader; a sieve over the primes
    of m marks the other indices, so walks start only at leaders. An orbit
    not of length n, or orbits that overlap, would falsify the model."""
    m = p**n - 1
    seen = bytearray(m)
    for q in factorize(m):
        seen[::q] = b"\1" * len(range(0, m, q))
    faithful = seen.count(0)
    orbits = []
    a = seen.find(0)  # a = 0 is faithful only for m = 1
    while a >= 0:
        orbit = _orbit(a, p, m)
        if len(orbit) != n:
            raise AssertionError(f"orbit {orbit} of length {len(orbit)}, expected {n}")
        for b in orbit:
            seen[b] = 1
        orbits.append(tuple(orbit))  # an exact tuple of ints: the collector untracks it
        a = seen.find(0, a + 1)
    if len(orbits) * n != faithful:
        raise AssertionError("orbit partition does not cover the faithful points")
    return orbits


def packet_summary(p: int, n: int) -> PacketSummary:
    """Orbit packet over the closed point with residue field F_{p^n}, with
    no walk: p has order exactly n mod m = p^n - 1 (0 < p^k - 1 < m for
    0 < k < n), so each of the phi(m) faithful points lies on an orbit
    of length n, and there are phi(m)/n of them."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1:
        raise ValueError("n must be >= 1")
    size = capped_power(p, n, PACKET_SIZE_CAP, "orbits packet", "residue field elements")
    faithful = euler_phi(size - 1)
    return PacketSummary(p=p, n=n, orbit_count=faithful // n, orbit_length=n,
                         suspension_length=n * math.log(p), faithful_count=faithful)


def check_list_limit(list_limit: int) -> None:
    """Refuse a --list-limit outside 0..LIST_LIMIT_CAP, whatever the format."""
    if list_limit < 0:
        raise ValueError(f"orbits packet --list-limit {list_limit} is below 0")
    if list_limit > LIST_LIMIT_CAP:
        raise ValueError(over_cap("orbits packet", f"--list-limit {list_limit}", LIST_LIMIT_CAP))


def packet_report(p: int, n: int, list_limit: int = 10**4) -> dict:
    """JSON-ready packet summary; the orbit listing is walked and included
    only when the faithful count stays within list_limit."""
    check_list_limit(list_limit)
    s = packet_summary(p, n)
    field = finite_field_make(p, n) if p**n <= DEFAULT_FIELD_LIMIT else None
    report = {**vars(s), "generator": field.format_element(field.gen) if field else None}
    if s.faithful_count <= list_limit:
        return {**report, "orbits": _orbit_partition(p, n)}
    omitted = f"faithful count {s.faithful_count} above listing limit {list_limit}"
    return {**report, "orbits": None, "orbits_omitted": omitted}


def evaluate_integer(f: int, P: FiniteLevelPoint) -> complex:
    """Eq. of the character pairing: 0 when p | f, else chi_a at the
    discrete log of f in F_{p^n}."""
    if f % P.p == 0:
        return 0j
    field = finite_field_make(P.p, P.n)
    k = field.discrete_log(field.gen, field.from_int(f))
    return cmath.exp(2j * cmath.pi * P.a * k / P.m)


def frobenius_equivariance_check(f: int, P: FiniteLevelPoint, nu: int) -> bool:
    """evaluate(f, F_nu(P)) = evaluate(f, P)^nu, to within 1e-9."""
    if math.gcd(nu, P.m) != 1:
        raise ValueError(f"nu = {nu} is not invertible mod {P.m}")
    lhs = evaluate_integer(f, frobenius_power(P, nu))
    rhs = evaluate_integer(f, P) ** nu
    return abs(lhs - rhs) < 1e-9
