"""End-to-end acceptance checks: ring laws, the zeta dictionary, orbit
packets, the explicit formula, and reciprocity. Each test prints one
PASS line with its measured runtime; the slow ones assert a budget."""

import itertools
import math
import random
import time

from oracles import homogenize, property_seed
from wittkit.explicit import TestFunction, explicit_formula_defect, load_bundled_zeros
from wittkit.ntheory import euler_phi, primes_upto
from wittkit.orbits import (
    LIST_LIMIT_CAP,
    FiniteLevelPoint,
    evaluate_integer,
    frobenius_equivariance_check,
    packet_report,
    packet_summary,
)
from wittkit.poly import Polynomial
from wittkit.reciprocity import linking_table, redei_symbol
from wittkit.rings import GF, QQ, ZZ
from wittkit.witt import (
    WittVector,
    frobenius,
    ghost,
    teichmuller,
    verschiebung,
    witt_add,
    witt_mul,
)
from wittkit.zeta import (
    PointCountTable,
    count_ghosts,
    euler_vs_ruelle,
    function_field_product_formula,
    hasse_check,
    ledger_spec_z,
    product_formula_defect,
    product_formula_scale,
    projective_plane_counts,
    ulp_distance,
    zeta_rational,
    zeta_reference,
)

GHOST_ORDER = 12


def random_witt(rng, ring, max_deg=3):
    def side():
        deg = rng.randint(0, max_deg)
        return Polynomial(
            ring, [ring.coerce(1)] + [ring.coerce(rng.randint(-9, 9)) for _ in range(deg)]
        )

    return WittVector(side(), side())


def test_criterion_1_witt_ring_laws():
    start = time.monotonic()
    rng = random.Random(property_seed())
    cases = 0
    for ring in (ZZ, QQ, GF(5)):
        for _ in range(100):
            f, g, h = (random_witt(rng, ring) for _ in range(3))
            gf, gg, gh_ = (ghost(v, GHOST_ORDER) for v in (f, g, h))

            s = witt_add(f, g)
            assert s == witt_add(g, f)
            assert witt_add(s, h) == witt_add(f, witt_add(g, h))
            assert ghost(s, GHOST_ORDER) == [ring.coerce(x + y) for x, y in zip(gf, gg)]

            p = witt_mul(f, g)
            assert p == witt_mul(g, f)
            assert witt_mul(p, h) == witt_mul(f, witt_mul(g, h))
            assert ghost(p, GHOST_ORDER) == [ring.coerce(x * y) for x, y in zip(gf, gg)]

            lhs = witt_mul(f, witt_add(g, h))
            rhs = witt_add(witt_mul(f, g), witt_mul(f, h))
            assert lhs == rhs
            assert ghost(lhs, GHOST_ORDER) == [
                ring.coerce(x * (y + z)) for x, y, z in zip(gf, gg, gh_)
            ]
            cases += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30
    print(f"\n[criterion 1] PASS witt ring laws: {cases} cases, "
          f"ghost-checked to order {GHOST_ORDER}, {elapsed:.2f}s")


def test_criterion_2_teichmuller_spot_checks():
    start = time.monotonic()
    for r in range(-20, 21):
        t = teichmuller(r)
        assert t.num.coeffs == ((1, -r) if r else (1,))
        assert t.den.coeffs == (1,)
    for a in range(-20, 21):
        for b in range(-20, 21):
            assert witt_mul(teichmuller(a), teichmuller(b)) == teichmuller(a * b)
    elapsed = time.monotonic() - start
    print(f"\n[criterion 2] PASS teichmuller: [r] = 1 - rt and [a][b] = [ab] "
          f"for |a|,|b| <= 20, {elapsed:.2f}s")


def test_criterion_3_frobenius_laws():
    start = time.monotonic()
    rng = random.Random(property_seed() + 3)
    for _ in range(50):
        f = random_witt(rng, ZZ)
        for mu in range(2, 7):
            for nu in range(2, 7):
                assert frobenius(frobenius(f, mu), nu) == frobenius(f, mu * nu)
    for _ in range(50):
        f = random_witt(rng, ZZ)
        nu = rng.randint(2, 6)
        total = f
        for _ in range(nu - 1):
            total = witt_add(total, f)
        assert frobenius(verschiebung(f, nu), nu) == total
    elapsed = time.monotonic() - start
    print(f"\n[criterion 3] PASS frobenius laws: F_mu F_nu = F_munu (50 cases, "
          f"mu,nu <= 6) and F_nu V_nu = nu-fold sum (50 cases), {elapsed:.2f}s")


def test_criterion_4_zeta_ghost_identity():
    start = time.monotonic()
    line = PointCountTable.make(3, [3**n + 1 for n in range(1, 5)])
    z_line = zeta_rational(line, 0, 2)
    assert count_ghosts(z_line, 4) == list(line.counts)
    assert z_line.den.coeffs == (1, -4, 3)

    curves = [
        (5, [(1, (3, 0)), (1, (1, 0)), (4, (0, 2))]),   # y^2 = x^3 + x
        (7, [(1, (3, 0)), (2, (0, 0)), (6, (0, 2))]),   # y^2 = x^3 + 2
    ]
    for p, affine in curves:
        table = projective_plane_counts(p, homogenize(affine), 4)
        z = zeta_rational(table, 2, 2)
        assert count_ghosts(z, 4) == list(table.counts)
        assert hasse_check(z, p)
        assert abs(-z.num[1]) <= math.isqrt(4 * p)
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(f"\n[criterion 4] PASS zeta-ghost identity: P1/F3 and elliptic curves "
          f"over F5, F7, counts to n = 4, Hasse bound holds, {elapsed:.2f}s")


def test_criterion_5_product_formulas():
    from fractions import Fraction

    start = time.monotonic()
    rng = random.Random(property_seed() + 5)
    for _ in range(1000):
        num = rng.randint(1, 10**6) * rng.choice((1, -1))
        den = rng.randint(1, 10**6)
        f = Fraction(num, den)
        assert product_formula_defect(f) <= 1e-12 * (1 + product_formula_scale(f))

    exact = 0
    for _ in range(200):
        q = rng.choice((2, 3, 5))
        ring = GF(q)

        def rand_poly():
            while True:
                deg = rng.randint(0, 6)
                coeffs = [rng.randrange(q) for _ in range(deg)] + [rng.randrange(1, q)]
                poly = Polynomial(ring, coeffs)
                if not poly.is_zero():
                    return poly

        assert function_field_product_formula(rand_poly(), rand_poly()) == 0
        exact += 1
    elapsed = time.monotonic() - start
    print(f"\n[criterion 5] PASS product formulas: 1000 rationals within "
          f"1e-12 relative, {exact} function-field cases exactly zero, {elapsed:.2f}s")


def test_criterion_6_ruelle_equals_euler():
    start = time.monotonic()
    ledger = ledger_spec_z(10**4)
    for s in (1.5, 2.0, 3.0):
        euler, ruelle = euler_vs_ruelle(ledger, s, 10**4)
        assert ulp_distance(euler, ruelle) <= 4
        ref = zeta_reference(s)
        gaps = [
            abs(euler_vs_ruelle(ledger, s, bound)[0] - ref)
            for bound in (10**2, 10**3, 10**4)
        ]
        assert gaps[0] > gaps[1] > gaps[2]
    elapsed = time.monotonic() - start
    print(f"\n[criterion 6] PASS ruelle = euler: <= 4 ulps at s in (1.5, 2, 3), "
          f"bound 1e4; reference gap shrinks through 1e2, 1e3, 1e4, {elapsed:.2f}s")


def test_criterion_7_orbit_packets():
    start = time.monotonic()
    checked = 0
    for p in primes_upto(20):
        for n in range(1, 7):
            m = p**n - 1
            if m > 10**6:
                continue
            s = packet_summary(p, n)
            assert s.orbit_length == (1 if m <= 1 else n)
            assert s.orbit_count == euler_phi(max(m, 1)) // s.orbit_length
            # the listing walks every orbit and raises on any length violation
            listing = packet_report(p, n, list_limit=LIST_LIMIT_CAP)["orbits"]
            assert listing is None or [len(o) for o in listing] == [n] * s.orbit_count
            checked += 1
    elapsed = time.monotonic() - start
    print(f"\n[criterion 7] PASS orbit packets: {checked} levels with p < 20, "
          f"n <= 6, p^n - 1 <= 1e6; zero exceptions, {elapsed:.2f}s")


def test_criterion_8_character_evaluation():
    start = time.monotonic()
    rng = random.Random(property_seed() + 8)
    levels = [(3, 2), (5, 1), (5, 2), (7, 2), (11, 1), (13, 1), (3, 4)]

    for _ in range(200):
        p, n = rng.choice(levels)
        m = p**n - 1
        P = FiniteLevelPoint(p, n, rng.randrange(m))
        f = rng.randint(1, 500)
        g = rng.randint(1, 500)
        while f % p == 0:
            f += 1
        while g % p == 0:
            g += 1
        lhs = evaluate_integer(f * g, P)
        rhs = evaluate_integer(f, P) * evaluate_integer(g, P)
        assert abs(lhs - rhs) < 1e-9

    for _ in range(200):
        p, n = rng.choice(levels)
        m = p**n - 1
        P = FiniteLevelPoint(p, n, rng.randrange(m))
        f = rng.randint(1, 500)
        while f % p == 0:
            f += 1
        nu = rng.randint(1, 50)
        while math.gcd(nu, m) != 1:
            nu += 1
        assert frobenius_equivariance_check(f, P, nu)

    # additivity fails: chi(1 + 1) != chi(1) + chi(1) for a faithful character
    witness = FiniteLevelPoint(5, 1, 1)
    lhs = evaluate_integer(2, witness)
    rhs = evaluate_integer(1, witness) + evaluate_integer(1, witness)
    gap = abs(lhs - rhs)
    assert gap > 0.5
    elapsed = time.monotonic() - start
    print(f"\n[criterion 8] PASS character evaluation: multiplicative on 200 "
          f"pairs, equivariant on 200 cases; additivity-failure witness "
          f"p=5 n=1 a=1, f=g=1: |chi(2) - 2 chi(1)| = {gap:.6f}, {elapsed:.2f}s")


def test_criterion_9_explicit_formula():
    start = time.monotonic()
    phi = TestFunction(1.5, 0.7)
    zeros = load_bundled_zeros()
    report = explicit_formula_defect(phi, zeros, 1000, 10**4)
    defects = {row["K"]: row["defect"] for row in report["convergence"]}
    assert sorted(defects) == [10, 100, 1000]
    assert defects[10] > defects[100] > defects[1000]
    assert defects[1000] * 10 <= defects[10]
    elapsed = time.monotonic() - start
    assert elapsed < 120
    print(f"\n[criterion 9] PASS explicit formula: bump c=1.5 r=0.7, prime "
          f"bound 1e4; defects K=10: {defects[10]:.3e}, K=100: "
          f"{defects[100]:.3e}, K=1000: {defects[1000]:.3e}, {elapsed:.2f}s")


def test_criterion_10_reciprocity_exhaustive():
    start = time.monotonic()
    table = linking_table(500)
    primes = [p for p in primes_upto(500) if p > 2]
    assert len(table) == len(primes) * (len(primes) - 1)
    assert all(ok for *_, ok in table)
    elapsed = time.monotonic() - start
    print(f"\n[criterion 10] PASS reciprocity: {len(table)} ordered odd-prime "
          f"pairs below 500, zero violations, {elapsed:.2f}s")


def test_criterion_11_redei_borromean():
    start = time.monotonic()
    for perm in itertools.permutations((5, 41, 61)):
        assert redei_symbol(*perm) == -1
    elapsed = time.monotonic() - start
    assert elapsed < 10
    print(f"\n[criterion 11] PASS redei symbol: (5, 41, 61) = -1 under all six "
          f"orderings, pairwise symbols +1 verified as preconditions, "
          f"{elapsed:.2f}s")
