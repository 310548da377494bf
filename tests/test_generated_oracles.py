"""Fast paths against the slow reference routes in oracles.py, on
generated inputs. Each draw is seeded from property_seed(), so
WITT_ORBIT_SEED replays a failing draw."""

import random
from fractions import Fraction

from oracles import count_irreducibles_by_enumeration, ghost_via_series
from wittkit.finitefield import monic_polys
from wittkit.poly import Polynomial
from wittkit.rings import GF, QQ, ZZ
from wittkit.series import poly_from_power_sums, power_sums
from wittkit.util import property_seed
from wittkit.witt import WittVector, ghost
from wittkit.zeta import count_irreducibles


def random_coeff(rng, ring):
    if ring == QQ:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return ring.coerce(rng.randint(-9, 9))


def random_poly(rng, ring, max_degree):
    deg = rng.randint(0, max_degree)
    return Polynomial(ring, [ring.one] + [random_coeff(rng, ring) for _ in range(deg)])


def test_ghost_matches_series_route():
    rng = random.Random(property_seed() + 10)
    for ring in (ZZ, QQ, GF(2), GF(5), GF(7)):
        for _ in range(20):
            f = WittVector(random_poly(rng, ring, 4), random_poly(rng, ring, 4))
            N = rng.randint(1, 14)
            assert ghost(f, N) == ghost_via_series(f, N), (f, N)


def test_power_sums_round_trip():
    rng = random.Random(property_seed() + 11)
    # over F_p the inverse divides by 1..degree, so degree stays below p
    for ring, max_degree in ((ZZ, 7), (QQ, 5), (GF(5), 4), (GF(7), 6)):
        for _ in range(20):
            P = random_poly(rng, ring, max_degree)
            d = P.degree
            assert poly_from_power_sums(ring, power_sums(P, d), d) == P, P


def test_monic_polys_in_code_order():
    got = [p.coeffs for p in monic_polys(3, 2)]
    assert got == [(a, b, 1) for b in range(3) for a in range(3)]
    assert [p.coeffs for p in monic_polys(5, 0)] == [(1,)]


def test_count_irreducibles_matches_enumeration():
    # (7, 5) is left out: 16807 irreducibility tests take about 10 s
    for q in (2, 3, 5, 7):
        for d in range(1, 6):
            if q**d <= 5**5:
                assert count_irreducibles(q, d) == count_irreducibles_by_enumeration(q, d)
