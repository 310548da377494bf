"""Fast paths against the slow reference routes in oracles.py, on
generated inputs. Each draw is seeded from property_seed(), so
WITT_ORBIT_SEED replays a failing draw."""

import random
from fractions import Fraction

from oracles import (
    count_irreducibles_by_enumeration,
    field_mul_reference,
    field_pow_reference,
    ghost_via_series,
    is_irreducible_reference,
)
from wittkit.cli import main
from wittkit.explicit import (
    TestFunction,
    ZeroTable,
    _zero_transforms,
    explicit_formula_defect,
    load_bundled_zeros,
    transform,
    transform_simpson,
    zero_side,
)
from wittkit.finitefield import (
    DEFAULT_FIELD_LIMIT,
    _is_irreducible,
    _mulmod,
    _powmod,
    finite_field_make,
    monic_polys,
    smallest_irreducible,
)
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
    # (7, 5) is left out: 16807 irreducibility tests take about 2.5 s
    for q in (2, 3, 5, 7):
        for d in range(1, 6):
            if q**d <= 5**5:
                assert count_irreducibles(q, d) == count_irreducibles_by_enumeration(q, d)


def test_field_kernel_matches_reference():
    rng = random.Random(property_seed() + 12)
    for p in (2, 3, 5, 7, 101):
        for n in range(1, 5):
            f = smallest_irreducible(p, n)
            low = f.coeffs[:n]
            # 101^4 is above the field limit: that size runs on the bare kernel
            F = finite_field_make(p, n) if p**n <= DEFAULT_FIELD_LIMIT else None
            for _ in range(20):
                a, b = (tuple(rng.randrange(p) for _ in range(n)) for _ in range(2))
                e = rng.randrange(3 * p**n)
                want_mul = field_mul_reference(f, a, b)
                want_pow = field_pow_reference(f, a, e)
                assert _mulmod(a, b, low, p) == want_mul, (p, n, a, b)
                assert _powmod(a, e, low, p) == want_pow, (p, n, a, e)
                if F is not None:
                    assert F.mul(a, b) == want_mul and F.pow(a, e) == want_pow


def test_is_irreducible_matches_reference():
    for p in (2, 3, 5):
        for d in range(5):
            for f in monic_polys(p, d):
                assert _is_irreducible(f, p) == is_irreducible_reference(f, p), f


def test_tables_match_reference_multiplication():
    rng = random.Random(property_seed() + 13)
    fields = [(2, 1), (3, 1), (2, 4), (3, 3), (5, 2), (7, 2), (11, 1), (2, 7), (7, 3)]
    for p, n in rng.sample(fields, 5):
        F = finite_field_make(p, n)
        exp, log, digits = F.tables()
        assert exp.shape == (F.q - 1,) and log.shape == (F.q,)
        assert digits.shape == (F.q, n)
        cur = F.one
        for k in range(F.q - 1):
            code = sum(c * p**i for i, c in enumerate(cur))
            assert exp[k] == code and log[code] == k, (p, n, k)
            cur = field_mul_reference(F.modulus, cur, F.gen)
        assert cur == F.one and log[0] == -1
        for code in range(F.q):
            assert list(digits[code]) == [code // p**i % p for i in range(n)]


def random_bump(rng):
    r = round(rng.uniform(0.3, 0.9), 4)
    return TestFunction(round(rng.uniform(r + 0.3, 3.0), 4), r)


def test_batched_transforms_match_one_column_route():
    rng = random.Random(property_seed() + 14)
    bundled = load_bundled_zeros().gammas
    for _ in range(3):
        phi = random_bump(rng)
        # zeros drawn from the whole table, so one block mixes columns that
        # converge at different doublings
        zeros = ZeroTable(tuple(sorted(rng.sample(bundled, 150))))
        alphas = [0.0, 1.0] + [a for g in zeros.gammas for a in (0.5 + 1j * g, 0.5 - 1j * g)]
        batched = _zero_transforms(phi, zeros).tolist()
        assert len(batched) == len(alphas)
        for alpha, value in zip(alphas, batched):
            assert value == transform(phi, alpha), (phi, alpha)
        low = [k for k, a in enumerate(alphas) if abs(complex(a).imag) < 250]
        for k in [1] + rng.sample(low[2:], 2):
            assert abs(batched[k] - transform_simpson(phi, alphas[k])) < 1e-10, (phi, alphas[k])


def test_zero_side_output_is_plain_python(capsys):
    rng = random.Random(property_seed() + 15)
    phi = random_bump(rng)
    zeros = load_bundled_zeros()
    for K in (0, 10, 1000):
        assert type(zero_side(phi, zeros, K)) is float
    argv = ["explicit-formula", "run", "--bump", f"{phi.c},{phi.r}",
            "--max-zeros", "100", "--prime-bound", "2000"]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert "\nzero side  = " in text and "np." not in text
    assert main(argv + ["--format", "json"]) == 0
    assert "np." not in capsys.readouterr().out
    report = explicit_formula_defect(phi, zeros, 100, 2000)
    values = [report["zero_side"], report["prime_side"], report["defect"]]
    values += [row["defect"] for row in report["convergence"]]
    assert all(type(v) is float for v in values)
