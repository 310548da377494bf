"""Fast paths against the slow reference routes in oracles.py, on
generated inputs. Each draw is seeded from property_seed(), so
WITT_ORBIT_SEED replays a failing draw."""

import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import hypothesis
import pytest
from hypothesis import strategies as st

from oracles import (
    _count_sweep,
    _orbit_partition as _orbit_walk,
    _poly_irreducible_factors,
    _redei_solutions as _redei_rectangle,
    brute_force_count,
    count_irreducibles_by_enumeration,
    field_mul_reference,
    field_pow_reference,
    gcd_prs_reference,
    ghost_via_series,
    is_irreducible_reference,
    is_prime_trial_division,
    kronecker_binary,
    linking_table_reference,
    orbit_of as orbit_of_walk,
    pade_reconstruct_toeplitz,
    parse_witt_reference,
    poly_from_power_sums_reference,
    power_sums_reference,
    property_seed,
    square_table,
    transform_simpson,
    zeta_reference_one_array,
)
from wittkit import cli, parser, poly
from wittkit.cli import main
from wittkit.counting import AffineVariety, count_points
from wittkit.explicit import (
    TestFunction,
    ZeroTable,
    _zero_transforms,
    explicit_formula_defect,
    load_bundled_zeros,
    transform,
    zero_side,
)
from wittkit.finitefield import (
    DEFAULT_FIELD_LIMIT,
    _is_irreducible,
    finite_field_make,
    monic_polys,
    smallest_irreducible,
)
from wittkit.ntheory import _PSI, factorize, is_prime, kronecker_symbol, primes_upto
from wittkit.orbits import FiniteLevelPoint, orbit_of, packet_report, packet_summary
from wittkit.parser import ParseError, parse_witt
from wittkit.poly import _GCD_PRIMES, Polynomial, _factor_degrees, _gcd_primes, _mulmod, _powmod
from wittkit.reciprocity import REDEI_SEARCH_START, _redei_solutions, linking_table
from wittkit.rings import GF, QQ, ZZ
from wittkit.series import (
    pade_reconstruct,
    poly_from_power_sums,
    power_sums,
    series_of_rational,
)
from wittkit.witt import WittVector, ghost
from wittkit.zeta import (
    count_irreducibles,
    function_field_product_formula,
    zeta_reference,
)


def random_coeff(rng, ring):
    if ring == QQ:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return ring.coerce(rng.randint(-9, 9))


def random_poly(rng, ring, max_degree):
    deg = rng.randint(0, max_degree)
    return Polynomial(ring, [ring.coerce(1)] + [random_coeff(rng, ring) for _ in range(deg)])


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


def test_newton_pair_matches_index_loops():
    """The slice sums of series against the index loops they replaced, over
    Z, Q and F_p: the zero polynomial, degree 0, m below the degree, m = 0
    and 200-bit coefficients, and inverse data that need not divide."""
    rng = random.Random(property_seed() + 25)

    def coeff(ring, bits):
        c = rng.randint(-2**bits, 2**bits)
        return Fraction(c, rng.randint(1, 2**bits)) if ring == QQ else c

    def outcome(f, *args):
        try:
            return f(*args)
        except (ValueError, ZeroDivisionError) as exc:
            return type(exc).__name__, str(exc)

    for ring in (ZZ, QQ, GF(5), GF(7), GF(2**61 - 1)):
        cases = [Polynomial.zero(ring), Polynomial(ring, [3]), Polynomial.one(ring)]
        for _ in range(40):
            bits = rng.choice((3, 200))
            cases.append(Polynomial(ring, [coeff(ring, bits) for _ in range(rng.randint(1, 8))]))
        for P in cases:
            for m in sorted({0, 1, max(P.degree - 1, 0), P.degree + 5, 3 * P.degree}):
                sums = power_sums(P, m)
                assert sums == power_sums_reference(P, m), (P, m)
                assert [type(x) for x in sums] == [type(x) for x in power_sums_reference(P, m)]
                # over F_p the inverse divides by 1..degree, so degree stays below p
                degree = min(m, ring.characteristic - 1) if ring.characteristic else m
                for data in (sums, [coeff(ring, bits) for _ in range(m)]):
                    got = outcome(poly_from_power_sums, ring, data, degree)
                    assert got == outcome(poly_from_power_sums_reference, ring, data, degree), (
                        ring, data, degree)


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
    """Rabin's test in oracles.py against the distinct-degree loop on every
    monic polynomial over F_2 and F_3 of degree at most 6, over F_5 and F_7
    of degree at most 4 and over F_11 of degree at most 3; and on seeded
    inputs where the loop stops at its first factor degree d: products of
    two distinct irreducibles of degree d and squares g^2 with deg g = d,
    both first read as (d, 2), and random monic polynomials of degree 7 to 12."""
    for p, top in ((2, 6), (3, 6), (5, 4), (7, 4), (11, 3)):
        for d in range(top + 1):
            for f in monic_polys(p, d):
                assert _is_irreducible(f, p) == is_irreducible_reference(f, p), f
    rng = random.Random(property_seed() + 53)

    def monic(p, d):
        return Polynomial(GF(p), [rng.randrange(p) for _ in range(d)] + [1])

    def irreducible(p, d):
        while not is_irreducible_reference(f := monic(p, d), p):
            pass
        return f

    for p in (2, 3, 5):
        for d in range(1, 7):
            g = irreducible(p, d)
            for f in [g * g] + [g * h for h in (irreducible(p, d) for _ in range(3)) if h != g]:
                assert next(_factor_degrees(f.coeffs, p)) == (d, 2), f
                assert not _is_irreducible(f, p) and not is_irreducible_reference(f, p), f
        for _ in range(40):
            f = monic(p, rng.randint(7, 12))
            assert _is_irreducible(f, p) == is_irreducible_reference(f, p), f


def test_degree_blocks_match_trial_division():
    """Distinct-degree factorisation against trial division by every
    monic candidate, as {deg pi: sum of multiplicities}, on random
    numerators with planted squared and cubed factors, on constants and
    linears, and on p-th powers such as (t+1)^p, (t^p - t)^2 and
    t^(p^2) - t."""
    rng = random.Random(property_seed() + 14)

    def power(f, e):
        out = Polynomial.one(f.ring)
        for _ in range(e):
            out = out * f
        return out

    cases = []
    for p in (2, 3, 5, 7, 11, 13):
        F = GF(p)
        t = Polynomial.t(F)

        def rand(deg):
            return Polynomial(F, [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)])

        frob = power(t, p) - t
        cases += [rand(0), rand(1), power(t + Polynomial.one(F), p), power(frob, 2),
                  power(t, p * p) - t, power(frob, p)]
        for _ in range(22):
            planted = power(rand(rng.randint(1, 3)), rng.choice((2, 3)))
            cases.append(rand(rng.randint(0, 8 if p <= 5 else 5)) * planted)
    assert len(cases) >= 150
    for f in cases:
        want: dict[int, int] = {}
        for pi, e in _poly_irreducible_factors(f).items():
            want[pi.degree] = want.get(pi.degree, 0) + e
        assert dict(_factor_degrees(f.monic().coeffs, f.ring.characteristic)) == want, f
        assert function_field_product_formula(f, Polynomial.one(f.ring)) == 0


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


VARIETY_KINDS = (
    "separable", "free variable", "constant", "mixed monomial", "two equations",
    "connected groups",
)


def random_exponent(rng, p):
    """Mostly small; one in five up to 3 p^3, past the order of the unit
    group of every field drawn, so that exponents reduce mod q - 1."""
    return rng.randint(1, 7) if rng.random() < 0.8 else rng.randint(8, 3 * p**3)


def random_equation(rng, p, k, kind):
    """Terms c x_v^e, several powers of one variable allowed, coefficients
    drawn from 0..p+2 so that some are zero or reduce to zero mod p."""
    if kind == "constant":
        return [(rng.randint(0, p + 2), (0,) * k) for _ in range(rng.randint(1, 2))]
    # a free variable is one that no term mentions
    mentioned = range(k - 1) if kind == "free variable" else range(k)
    eq = []
    for _ in range(rng.randint(1, 5)):
        exps = [0] * k
        exps[rng.choice(mentioned)] = random_exponent(rng, p)
        eq.append((rng.randint(0, p + 2), tuple(exps)))
    if kind == "mixed monomial":
        exps = [rng.randint(1, 3) for _ in range(k)]
        eq.append((rng.randint(1, p - 1), tuple(exps)))
    if kind == "connected groups":
        # one or two monomials in a pair of variables, as in xy + z^2
        for _ in range(rng.randint(1, 2)):
            exps = [0] * k
            for v in rng.sample(range(k), 2):
                exps[v] = random_exponent(rng, p)
            eq.append((rng.randint(1, p - 1), tuple(exps)))
    if rng.random() < 0.7:
        eq.append((rng.randint(0, p - 1), (0,) * k))
    return eq


def test_count_matches_sweep_and_enumeration():
    rng = random.Random(property_seed() + 27)
    for i in range(180):
        kind = VARIETY_KINDS[i % len(VARIETY_KINDS)]
        p = rng.choice((2, 3, 5, 7, 11))
        k = rng.randint(2 if kind in ("free variable", "mixed monomial", "connected groups") else 1, 3)
        n = rng.randint(1, 3)
        # the sweep runs p^((k-1)n) numpy passes
        while n > 1 and p ** ((k - 1) * n) > 1000:
            n -= 1
        eqs = [random_equation(rng, p, k, kind)]
        if kind == "two equations":
            eqs.append(random_equation(rng, p, k, "separable"))
        X = AffineVariety.make(p, k, eqs)
        got = count_points(X, n)
        assert got == _count_sweep(finite_field_make(p, n), X.equations, k), (X, n)
        if p ** (k * n) <= 200:
            assert got == brute_force_count(X, n), (X, n)


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
        # the batch holds Phi(1/2 + i gamma) only; its conjugate must equal
        # Phi(1/2 - i gamma) integrated on its own, exactly
        rows = _zero_transforms(phi, zeros).tolist()
        assert len(rows) == len(zeros) + 2
        alphas, batched = [0.0, 1.0], rows[:2]
        for g, value in zip(zeros.gammas, rows[2:]):
            alphas += [0.5 + 1j * g, 0.5 - 1j * g]
            batched += [value, value.conjugate()]
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


def _pade_outcome(route, s, order, dnum, dden):
    try:
        return route(s, order, dnum, dden)
    except ValueError as exc:
        return str(exc)


def test_pade_matches_toeplitz_route():
    rng = random.Random(property_seed() + 16)
    solved = 0
    for case in range(800):
        dnum, dden = rng.randint(0, 4), rng.randint(0, 4)
        if case % 4 == 2:  # degenerate: no numerator or no denominator freedom
            dnum, dden = (0, dden) if rng.random() < 0.5 else (dnum, 0)
        if case % 4 == 3:  # data of lower degree than requested
            true_num, true_den = rng.randint(0, dnum), rng.randint(0, dden)
        else:
            true_num, true_den = rng.randint(0, 4), rng.randint(0, 4)
        num = Polynomial(QQ, [rng.randint(-5, 5) for _ in range(true_num + 1)])
        den = Polynomial(QQ, [1] + [rng.randint(-5, 5) for _ in range(true_den)])
        order = dnum + dden + rng.randint(0, 3)
        s = series_of_rational(num, den, order)
        if case % 4 == 1:  # one coefficient perturbed
            coeffs = [s[n] for n in range(order + 1)]
            coeffs[rng.randrange(order + 1)] += rng.choice((-1, 1))
            s = Polynomial(QQ, coeffs)
        fast = _pade_outcome(pade_reconstruct, s, order, dnum, dden)
        slow = _pade_outcome(pade_reconstruct_toeplitz, s, order, dnum, dden)
        assert type(fast) is type(slow), (s, dnum, dden, fast, slow)
        if isinstance(fast, str):
            assert fast == slow
            continue
        solved += 1
        (P, Q), (P2, Q2) = fast, slow
        assert P * Q2 == P2 * Q, (s, dnum, dden)
        assert P.degree <= dnum and Q.degree <= dden and Q.constant() == 1
        assert P.gcd(Q).degree == 0  # lowest terms
    assert 200 < solved < 700  # both outcomes are exercised


def test_parser_round_trip():
    rng = random.Random(property_seed() + 17)
    for case in range(300):
        ring = (ZZ, QQ)[case % 2]
        w = WittVector(random_poly(rng, ring, 4), random_poly(rng, ring, 4))
        want = w
        if ring == QQ:  # integral Q vectors come back over Z
            try:
                want = w.map_ring(ZZ)
            except (TypeError, ValueError):
                pass
        assert parse_witt(str(w)) == want, w


def random_expr_atom(rng, depth):
    r = rng.random()
    if depth > 1 or r < 0.45:
        return rng.choice(["1", "2", "3", "0", "t", "2t", "1/2", "3/4", "12/8", "t/t"])
    if r < 0.6:
        return f"(1{rng.choice('-+')}{random_expr(rng, depth + 1)})"
    if r < 0.75:
        exp = rng.choice(["2", "-1", "-2", "0"])
        return f"({random_expr(rng, depth + 1)})^{exp}"
    return rng.choice(["(t-t)", "t^-1", "0t", f"({random_expr(rng, depth + 1)})"])


def random_expr(rng, depth=0):
    """Rational literals, negative exponents, t/t and zero subterms."""
    text = random_expr_atom(rng, depth)
    for _ in range(rng.randint(0, 2)):
        text += rng.choice(["+", "-", "*", "/", " "]) + random_expr_atom(rng, depth)
    return text


# Witt vectors over Z or Q when the subterm has no pole at 0, refusals otherwise
EXPR_SHAPES = ["1-t({})", "(2-t({}))/(2+t)", "1/2+1/2-t({})", "(1-t)^-2(1+t({}))", "{}"]


def _parse_outcome(route, text):
    try:
        w = route(text)
    except ParseError as exc:
        return "ParseError", str(exc), exc.pos
    except ValueError as exc:
        return "ValueError", str(exc)
    return w.ring.name, w.num.coeffs, w.den.coeffs, [type(c) for c in w.num.coeffs]


PARSER_FIXED = [
    "1/2 - t", "(2-t)/2", "(1-t)^-2", "t/t", "1 + 0t - 0", "1/(t-t)",
    "2-t", "(2-4t)/(2+2t)", "(3-t)/(3+t)", "1 + t^-1", "0", "(1-2t)/(1-2t)^2",
    # the monomial power, e = 0 and the zero base
    "t^0", "0^0", "(0t)^3", "(2t)^3", "(-t)^5", "(t-t)^0", "3t^6/(1-t)^2",
    "1-(0t)^3", "1+(2t)^3", "1-(-t)^5*(t-t)^0", "(t-t)^-1", "0^-2",
    # one literal of each (num, den) degree shape of the witt mul workload
    "(1-2t+3t^2)/(1+t-t^2)", "(1+t-3t^3)/(1-2t^2+t^3)",
    "(1-t+2t^2-t^4)/(1+3t^2-2t^3+t^4)", "(1+2t-t^3+3t^5)/(1-t+t^2-2t^4+t^5)",
    "(1-3t+t^2+2t^4-t^6)/(1+t-t^3+2t^5+3t^6)", "(1-t-t^2)/(1+2t-t^2+t^3-3t^6)",
    "(1+3t^2-t^3+t^5-2t^6)/(1-2t+t^2)", "(1+t^2-2t^3)/(1-t+3t^3-t^4+t^5)",
    "(1-2t-t^2+t^4+2t^5)/(1+t-t^3)", "(1+t-2t^2+t^4)/(1-3t+t^2)",
    "(1-t^2)/(1+2t+t^2-t^3+3t^4)"]


def parser_cases():
    """The fixed literals, then 1,188 random draws."""
    rng = random.Random(property_seed() + 23)
    yield from PARSER_FIXED
    for _ in range(1188):
        yield rng.choice(EXPR_SHAPES).format(random_expr(rng))


def test_parser_matches_q_route():
    seen = set()
    for text in parser_cases():
        got = _parse_outcome(parse_witt, text)
        assert got == _parse_outcome(parse_witt_reference, text), text
        seen.add(got[1].split(" at position")[0] if got[0].endswith("Error") else got[0])
    # the Z result, the Q fallback and each refusal are all exercised
    assert {"Z", "Q", "division by zero", "not a Witt vector: f(0) != 1"} <= seen, seen


def test_parse_budget_covers_the_list_work(monkeypatch):
    """Every entry a list product, sum or negation walks or writes is
    charged before it happens, so the budget bounds the parse's list work.
    Refused expressions count what ran before the refusal."""
    made, done = [], [0]

    class Tokens(parser._Tokens):
        def __init__(self, text):
            super().__init__(text)
            made.append(self)

    def product(a, b):
        out = poly._product(a, b)
        done[0] += len(a) + (len(a) - a.count(0)) * len(b) + len(out)
        return out

    def total(a, b):
        done[0] += 2 * max(len(a), len(b))
        return poly._sum(a, b)

    def negate(a, toks, pos, neg=parser._rf_neg):
        out = neg(a, toks, pos)
        done[0] += 2 * len(a[0])
        return out

    monkeypatch.setattr(parser, "_Tokens", Tokens)
    monkeypatch.setattr(parser, "_product", product)
    monkeypatch.setattr(parser, "_sum", total)
    monkeypatch.setattr(parser, "_rf_neg", negate)
    big = ["*".join(["t^1000"] * 400), "(1-t)^1000", "(1-t)^500*(1-t)^500",
           "1-t^300000" + "+1-1" * 500, "1-" + "-" * 400 + "t^300000",
           "(1-t)^7*(1+2t)^9/(1-t)^4/(3+t)^2 - t^40*(1-t)^-3"]
    for text in itertools.chain(parser_cases(), big):
        done[0] = 0
        try:
            parse_witt(text)
        except ValueError:
            pass
        assert made[-1].work >= done[0], text


def random_zpoly(rng, max_degree, bits=40):
    """Degree 0..max_degree, coefficients up to 2^bits, leading of either sign."""
    bound = 2**bits
    lead = rng.choice((-1, 1)) * rng.randint(1, bound)
    return Polynomial(ZZ, [rng.randint(-bound, bound) for _ in range(rng.randint(0, max_degree))] + [lead])


def planted_pair(rng, factors):
    """(h * u, h * v) with h a product of `factors` random factors."""
    h = Polynomial.one(ZZ)
    for _ in range(factors):
        h = h * random_zpoly(rng, 6)
    return h * random_zpoly(rng, 6), h * random_zpoly(rng, 6)


def test_gcd_matches_prs_on_planted_factors():
    rng = random.Random(property_seed() + 18)
    nontrivial = 0
    for case in range(150):
        a, b = planted_pair(rng, 1 + case % 3)
        g = a.gcd(b)
        assert repr(g) == repr(gcd_prs_reference(a, b)), (a, b)
        nontrivial += g.degree > 0
    assert nontrivial > 100  # the CRT and trial-division branch, not the degree-0 exit


def test_gcd_matches_prs_on_coprime_pairs():
    rng = random.Random(property_seed() + 19)
    for _ in range(150):
        a, b = planted_pair(rng, 0)
        g = a.gcd(b)
        assert repr(g) == repr(gcd_prs_reference(a, b)), (a, b)
        assert g == Polynomial.one(ZZ), (a, b)


def _c(n):
    return Polynomial(ZZ, [n])


def test_gcd_unlucky_primes_and_edge_cases():
    rng = random.Random(property_seed() + 20)
    P, P1 = _GCD_PRIMES[:2]
    t, one, zero = Polynomial.t(ZZ), Polynomial.one(ZZ), Polynomial.zero(ZZ)
    h = Polynomial(ZZ, [1])
    while h.degree < 1:
        h = random_zpoly(rng, 4).primitive()
    cases = [
        # unlucky at P: the image t (or t * h) has too high a degree
        ((t + _c(P), t), one),
        (((t + _c(P)) * h, t * h), h),
        # unlucky at P (P1 restarts on the lower degree), and unlucky at P1
        # after a good P (P1 is skipped); neither wrong image is a prefix
        # of the right one, so truncating it would not pass by luck
        (((t + _c(1 + P)) * h, (t + one) * h), h),
        (((t + _c(1 + P1)) * h, (t + one) * h), h),
        # unlucky at P and P1 with equal images, so the CRT settles on a
        # wrong answer that only the trial division rejects
        ((t + _c(P * P1), t), one),
        (((t + _c(P * P1)) * h, t * h), h),
        # leading coefficient divisible by P: skipping P is what stops its
        # image h, of too low a degree, from looking like the best one
        ((h * (_c(P) * t + one), h * (_c(P) * t + one) * (t + _c(2))), h * (_c(P) * t + one)),
        ((zero, zero), zero),
        ((zero, -_c(6) * t - _c(4)), _c(3) * t + _c(2)),
        ((-_c(6) * t - _c(4), zero), _c(3) * t + _c(2)),
        ((_c(6), _c(4)), one),
        ((_c(-5), zero), one),
        ((_c(-5), t), one),
        ((-h * (t + one), -h * (t - one)), h),
        ((-(_c(2) * h), _c(4) * h * t), h),
    ]
    for (a, b), want in cases:
        for x, y in ((a, b), (b, a)):
            got = x.gcd(y)
            assert repr(got) == repr(want), (x, y, got)
            assert repr(got) == repr(gcd_prs_reference(x, y)), (x, y)
            # Brown's loop itself, which the certificate bypasses on coprime rows
            got = poly._gcd_brown(x.primitive(), y.primitive())
            assert repr(got) == repr(want), (x, y, got)


def test_gcd_certificate_matches_prs_and_brown(monkeypatch):
    """Polynomial.gcd, whose coprime pairs the certificate at xi = 256^nb
    settles, against the PRS oracle and against Brown's loop alone, on
    coprime pairs, planted factors (t - m with m at the inputs' norm
    among them), coprime pairs the certificate must decline, constant and
    linear inputs, coefficients on both sides of the xi <= 2^64 gate, and
    the Q route."""
    rng = random.Random(property_seed() + 28)
    brown, loop = poly._gcd_brown, []
    monkeypatch.setattr(poly, "_gcd_brown", lambda a, b: loop.append(1) or brown(a, b))
    t = Polynomial.t(ZZ)

    def lin(m):
        return t - _c(m)

    def gcd_ran_loop(a, b, want=None):
        """Check a.gcd(b) against the oracles; True if Brown's loop ran."""
        loop.clear()
        got = a.gcd(b)
        ran = bool(loop)
        assert repr(got) == repr(gcd_prs_reference(a, b)), (a, b, got)
        assert repr(got) == repr(brown(a.primitive(), b.primitive())), (a, b, got)
        assert want is None or got == want, (a, b, got)
        return ran

    def small(max_degree, bits):
        return random_zpoly(rng, max_degree, bits)

    # a common root m at the norm: with xi = 256, the least power above 201, gamma
    # would be 56 < 128; with gamma <= xi as the test, (t - 1)(t + 3), (t - 1)(t + 5)
    # would pass at gamma = 255
    assert gcd_ran_loop(lin(200) * lin(-1), lin(200) * lin(1), lin(200))
    assert gcd_ran_loop(lin(1) * lin(-3), lin(1) * lin(-5), lin(1))
    for _ in range(60):
        u, v = small(5, rng.choice((3, 8, 20))), small(5, rng.choice((3, 8, 20)))
        norm = max(map(abs, u.coeffs + v.coeffs))
        h = lin(rng.choice((norm, -norm, norm + 1, 1 - norm)))
        gcd_ran_loop(h * u, h * v)
    for _ in range(60):
        gcd_ran_loop(*planted_pair(rng, rng.randint(1, 2)))
    # coprime pairs whose gamma is at least xi/2 (631 at xi = 256 for the first):
    # answered 1 by the loop
    declined = [([-5, -6, 4], [8, 1, 3]), ([4, -6, 6], [-5, 6, 7]), ([3, 6, 4], [-8, 8, 9]),
                ([7, -9, 6], [6, -1, -7, 2]), ([-7, -5, 3], [-9, 3, -8, 4])]
    for a, b in declined:
        assert gcd_ran_loop(Polynomial(ZZ, a), Polynomial(ZZ, b), Polynomial.one(ZZ)), (a, b)
    certified = 0
    for _ in range(200):
        a, b = (Polynomial(ZZ, small(4, rng.choice((3, 8, 40, 61))).coeffs + (0, 0, 1))
                for _ in range(2))
        certified += not gcd_ran_loop(a, b)
    assert certified > 180  # the certificate, not the loop, settles nearly all of them
    # constant and linear inputs never take the certificate
    for _ in range(40):
        f, g = small(4, 20), small(1, 20)
        assert not gcd_ran_loop(_c(rng.choice((-1, 1)) * rng.randint(1, 99)), f)
        gcd_ran_loop(g, f)
        gcd_ran_loop(g * f, g * small(4, 8))
    # the gate: xi <= 2^64 admits max |c| = 2^62 - 2, the next coefficient goes to the loop
    for top, ran in ((2**62 - 2, False), (2**62 - 1, True)):
        for _ in range(10):
            a = Polynomial(ZZ, [rng.randint(-top, top) for _ in range(4)] + [top])
            b = Polynomial(ZZ, [rng.randint(-top, top) for _ in range(3)] + [-top])
            assert gcd_ran_loop(a, b) == ran, (a, b)
            h = small(2, 8)
            gcd_ran_loop(a * h, b * h)
    # over Q, the Z gcd of the primitive integer multiples, made monic
    for _ in range(60):
        a, b = planted_pair(rng, rng.randint(0, 1))
        qa = a.map_ring(QQ).scale(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        qb = b.map_ring(QQ).scale(Fraction(-rng.randint(1, 9), rng.randint(1, 9)))
        want = gcd_prs_reference(a, b).map_ring(QQ).monic()
        assert qa.gcd(qb) == want, (qa, qb)


def test_gcd_primes_are_primes():
    sympy = pytest.importorskip("sympy")
    primes = list(itertools.islice(_gcd_primes(), 40))
    assert primes[: len(_GCD_PRIMES)] == list(_GCD_PRIMES)
    assert primes[0] == sympy.prevprime(2**61)
    for p, q in zip(primes, primes[1:]):
        assert sympy.isprime(q) and q == sympy.prevprime(p), (p, q)
    rng = random.Random(property_seed() + 21)
    # strong pseudoprimes to the bases up to 7 and up to 23
    odd = [3215031751, 3825123056546413051] + [rng.randrange(2**40, 2**64) | 1 for _ in range(500)]
    for n in odd:
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_matches_trial_division_and_sympy():
    """Miller-Rabin against trial division below 2 * 10^4, and against
    sympy on random 40-80-bit odd n; every psi_k, the least strong
    pseudoprime to the first k prime bases, is composite."""
    assert [is_prime(n) for n in range(-5, 2 * 10**4)] == [
        is_prime_trial_division(n) for n in range(-5, 2 * 10**4)
    ]
    sympy = pytest.importorskip("sympy")
    rng = random.Random(property_seed() + 24)
    odd = [rng.randrange(2**39, 2**80) | 1 for _ in range(400)]
    odd += [sympy.nextprime(n) for n in odd[:100]]
    odd += [3215031751, 3825123056546413051, 318665857834031151167461]
    odd += list(_PSI[:-1])
    for n in odd:
        assert is_prime(n) == sympy.isprime(n), n
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)


def test_kronecker_symbol_matches_binary_and_squares():
    """Euler's criterion and the p = 2 rule against the binary algorithm
    on p = 2 and every odd p < 2000, with negative d and multiples of p,
    and against the table of squares; against the binary algorithm alone
    on random 61-bit primes."""
    rng = random.Random(property_seed() + 25)
    for d in range(-24, 25):  # every class mod 8, both signs
        assert kronecker_symbol(d, 2) == kronecker_binary(d, 2), d
    for p in primes_upto(2000)[1:]:
        squares = square_table(p)
        ds = [0, 1, -1, p, -p, rng.randrange(-10**6, 10**6) * p]
        ds += [rng.randrange(-10**12, 10**12) for _ in range(12)]
        for d in ds:
            assert kronecker_symbol(d, p) == kronecker_binary(d, p) == squares[d % p], (d, p)
    big = []
    while len(big) < 20:
        n = rng.getrandbits(61) | (1 << 60) | 1
        if is_prime(n):
            big.append(n)
    for p in big:
        for d in [p, -p, 2, -1] + [rng.randrange(-(2**70), 2**70) for _ in range(10)]:
            assert kronecker_symbol(d, p) == kronecker_binary(d, p), (d, p)


def test_factorize_matches_sympy():
    """Products of small prime powers, some with one 13-19-digit prime,
    against sympy.factorint, key order included."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(property_seed() + 26)
    small = primes_upto(1000)
    for _ in range(60):
        n = math.prod(rng.choice(small) ** rng.randint(1, 3) for _ in range(rng.randint(0, 4)))
        if rng.random() < 0.5:
            n *= sympy.nextprime(rng.randrange(10**12, 10**18))
        n *= rng.choice((1, -1))
        want = dict(sorted(sympy.factorint(abs(n)).items()))
        got = factorize(n)
        assert list(got.items()) == list(want.items()), n


def test_gcd_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(property_seed() + 22)
    for case in range(60):
        a, b = planted_pair(rng, case % 3)
        g = sympy.Poly(a.coeffs[::-1], x, domain="ZZ").gcd(sympy.Poly(b.coeffs[::-1], x, domain="ZZ"))
        want = [int(c) for c in g.primitive()[1].all_coeffs()[::-1]]
        assert a.gcd(b) == Polynomial(ZZ, want), (a, b)


def _canonical(f):
    """Every coefficient in the ring's canonical form, trailing zeros trimmed."""
    R = f.ring
    if f.coeffs and not f.coeffs[-1]:
        return False
    if R == ZZ:
        return all(type(c) is int for c in f.coeffs)
    if R == QQ:
        return all(type(c) is Fraction for c in f.coeffs)
    return all(type(c) is int and 0 <= c < R.p for c in f.coeffs)


def test_poly_ops_match_sympy_and_stay_canonical():
    """+, -, *, divmod, exact_div and gcd over Z, Q and F_p against sympy;
    every result coefficient is canonical, so a missing mod-p reduction
    or an int left over Q fails here."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(property_seed() + 23)

    def draw(ring, max_degree):
        n = rng.randint(0, max_degree + 1)
        return Polynomial(ring, [random_coeff(rng, ring) for _ in range(n)])

    def to_sympy(f, domain):
        cs = [sympy.Rational(Fraction(c).numerator, Fraction(c).denominator) for c in f.coeffs]
        if f.ring.characteristic:
            return sympy.Poly.from_list(cs[::-1], x, modulus=f.ring.p)
        return sympy.Poly.from_list(cs[::-1], x, domain=domain)

    def coeffs(ring, g):
        """sympy's answer as canonical coefficients of `ring`; raises
        TypeError over Z if it is not integral."""
        cs = [ring.coerce(Fraction(int(c.p), int(c.q))) for c in g.all_coeffs()[::-1]]
        while cs and not cs[-1]:
            cs.pop()
        return tuple(cs)

    def check(got, want, *args):
        assert _canonical(got), (got, args)
        assert got.coeffs == coeffs(got.ring, want), (got, want, args)

    for ring in (ZZ, QQ, GF(2), GF(5), GF(7)):
        for case in range(30):
            a, b = draw(ring, 5), draw(ring, 4)
            h = Polynomial.one(ring)
            if case % 2:  # plant a monic common factor for gcd and exact_div
                tail = [random_coeff(rng, ring) for _ in range(rng.randint(1, 3))]
                h = Polynomial(ring, tail + [1])
                a, b = a * h, b * h
            sa, sb = to_sympy(a, "QQ"), to_sympy(b, "QQ")
            check(a + b, sa + sb, a, b)
            check(a - b, sa - sb, a, b)
            check(a * b, sa * sb, a, b)
            if b.is_zero():
                continue
            # over Z the divisor of divmod needs a unit leading coefficient
            d = b if ring.is_field else Polynomial(ZZ, b.coeffs[:-1] + (rng.choice((1, -1)),))
            q, r = a.divmod(d)
            sq, sr = sa.div(to_sympy(d, "QQ"))
            check(q, sq, a, d)
            check(r, sr, a, d)
            check((a * b).exact_div(b), sa, a, b)
            sq, sr = sa.div(sb)
            if sr.is_zero and all(c.q == 1 or ring.is_field for c in sq.all_coeffs()):
                check(a.exact_div(b), sq, a, b)
            else:
                with pytest.raises(ValueError, match="inexact division"):
                    a.exact_div(b)
            domain = "ZZ" if ring == ZZ else "QQ"
            g = to_sympy(a, domain).gcd(to_sympy(b, domain))
            check(a.gcd(b), g.primitive()[1] if ring == ZZ else g, a, b)
            if not a.is_zero():
                assert a.gcd(b).degree >= h.degree, (a, b, h)


def _admissible_triples(limit):
    primes = [v for v in primes_upto(limit - 1) if v % 4 == 1]
    for p, l, q in itertools.combinations(primes, 3):
        if kronecker_symbol(p, l) == kronecker_symbol(p, q) == kronecker_symbol(l, q) == 1:
            yield p, l, q


def test_redei_search_matches_rectangle():
    # the windows redei_symbol walks, from REDEI_SEARCH_START up to the
    # first that holds a solution, then seeded windows up to 256, among
    # them the x of a solution (x = bound lies on the ellipse) and x - 1
    rng = random.Random(property_seed() + 41)
    triples = list(_admissible_triples(400))
    assert len(triples) == 802
    for p, l, q in triples:
        bound = REDEI_SEARCH_START
        while True:
            want = _redei_rectangle(p, l, q, bound)
            assert _redei_solutions(p, l, q, bound) == want, (p, l, q, bound)
            if want:
                break
            bound *= 2
        extra = {rng.randint(1, 64)}
        if want[0][0] <= 256:
            extra |= {want[0][0], want[0][0] - 1}
        if rng.random() < 0.05:
            extra.add(rng.randint(65, 256))
        for bound in extra:
            assert _redei_solutions(p, l, q, bound) == _redei_rectangle(p, l, q, bound), (
                p, l, q, bound)


def test_linking_table_matches_kronecker_reference():
    # every bound from 5 to 400, each against the pairs below it of the
    # reference table at 400 (the same (p, l) order), and the cap itself
    reference = linking_table_reference(400)
    for bound in range(5, 401):
        want = [row for row in reference if row[0] < bound and row[1] < bound]
        assert linking_table(bound) == want, bound
    assert linking_table(2000) == linking_table_reference(2000)


def test_zeta_reference_matches_one_array_sum():
    # bit for bit, at the workload's four s and at seeded s in (1, 50]
    rng = random.Random(property_seed() + 49)
    for s in [1.5, 2.0, 2.5, 3.0] + [50 - 49 * rng.random() for _ in range(200)]:
        assert zeta_reference(s).hex() == zeta_reference_one_array(s).hex(), s
    # in blocks of 2^15 terms the peak stays below 1 MiB; the whole array's
    # 8 MB shows in the same measure
    peaks = []
    for f in (zeta_reference, zeta_reference_one_array):
        tracemalloc.start()
        try:
            f(2.0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 2**20 < 8 * 10**6 < peaks[1], peaks


def test_orbit_walk_matches_reference_walks():
    # every level p^n <= 5,000: the packet's listing against the walk that
    # stops at the first seen index, and orbit_of against the walk through
    # frobenius_step, at every index of the small levels and seeded ones
    rng = random.Random(property_seed() + 43)
    for p in primes_upto(5000):
        for n in range(1, 13):
            if p**n > 5000:
                break
            m = p**n - 1
            walk = list(map(tuple, _orbit_walk(p, n)))  # the listing's rows are tuples
            assert packet_report(p, n)["orbits"] == walk, (p, n)
            indices = range(m) if m <= 100 else {0, m - 1, *rng.sample(range(m), 3)}
            for a in indices:
                P = FiniteLevelPoint(p, n, a)
                assert orbit_of(P) == orbit_of_walk(P), P


def test_packet_summary_matches_reference_walk():
    # the summary counts phi(m)/n orbits with no walk: against the reference
    # walk at generated levels p^n <= 2 * 10^5, with the listing printed,
    # omitted, or at its limit
    rng = random.Random(property_seed() + 47)
    levels = [(p, n) for p in primes_upto(2000) for n in range(1, 18) if p**n <= 2 * 10**5]
    for p, n in rng.sample(levels, 40) + [(2, 1), (2, 17), (3, 11), (13, 4)]:
        walk = list(map(tuple, _orbit_walk(p, n)))  # the listing's rows are tuples
        s = packet_summary(p, n)
        assert (s.orbit_count, s.orbit_length) == (len(walk), n), (p, n)
        assert s.faithful_count == sum(map(len, walk)), (p, n)
        limit = rng.choice((0, s.faithful_count - 1, s.faithful_count, 10**4))
        report = packet_report(p, n, list_limit=limit)
        assert {k: report[k] for k in vars(s)} == vars(s), (p, n)
        listed = s.faithful_count <= limit
        assert report["orbits"] == (walk if listed else None), (p, n, limit)
        assert ("orbits_omitted" in report) != listed, (p, n, limit)


# the values a table may hold: bools, ints past the int64 range, and the
# floats whose text differs between encoders or from repr
_TABLE_VALUES = st.one_of(
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63, max_value=2**256),
    st.integers(min_value=-(2**256), max_value=-(2**63) - 1),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300]),
)


@st.composite
def _numeric_tables(draw):
    """(rows, columns): rows of one width, columns None or distinct names."""
    width = draw(st.integers(min_value=1, max_value=8))
    names = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_0123456789", min_size=1, max_size=8)
    columns = draw(st.none() | st.lists(names, min_size=width, max_size=width, unique=True))
    rows = draw(st.lists(st.tuples(*[_TABLE_VALUES] * width), max_size=12))
    return rows, None if columns is None else tuple(columns)


# documents for the JSON writer: the strings, floats and ints whose text differs
# between encoders or from str, in every container json takes, nested
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**64, -(2**64), 2**63, -(2**63) - 1]),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300]),
    st.text(),
    st.sampled_from(['"', "\\", "\0", "a\"b\\c", "\n\r\t\x08\x0c\x1f\x7f", "é ß 中文 😀",
                     "\u2028\u2029", "\ud800"]),
)
_JSON_DOCS = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=24,
)


def test_render_matches_pure_python_encoder(tmp_path, monkeypatch):
    """The tables that _write_table writes against json.dumps(doc, indent=2,
    sort_keys=True), csv.writer and str: on hypothesis-generated numeric
    tables and generated listings; the JSON that _write_json and _render
    write on generated documents, refusals included; and the JSON that
    _render writes on every command's document in the render grid."""

    def check_table(rows, columns):
        value = [dict(zip(columns, row)) for row in rows] if columns else rows
        want = json.dumps({"result": {"rows": value}}, indent=2, sort_keys=True)
        got = '{\n  "result": {\n    "rows": ' + cli._write_table(rows, columns, "json")
        assert got + "\n  }\n}" == want
        names = columns or tuple(f"c{i}" for i in range(len(rows[0]) if rows else 1))
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        assert "".join(line + "\n" for line in cli._write_table(rows, names, "csv")) == (
            buf.getvalue())
        assert cli._write_table(rows, names, "plain") == [
            " ".join(map(str, row)) for row in rows]

    for rows in ([], [(math.nan, -0.0, 5e-324)], [(True, 2**64, -(2**63) - 1, 1e300)]):
        check_table(rows, None)
        check_table(rows, ("z", "y", "x", "w")[:len(rows[0]) if rows else 1])

    @hypothesis.seed(property_seed() + 50)
    @hypothesis.settings(max_examples=400, deadline=None, database=None)
    @hypothesis.given(_numeric_tables())
    def check_generated(table):
        check_table(*table)

    check_generated()

    rng = random.Random(property_seed() + 48)

    def expected(args, result):
        key, columns, _ = cli.TABULAR_COMMANDS.get(cli._command_name(args), (None, (), 0))
        if key:
            result = {**result, key: [dict(zip(columns, row)) for row in result[key]]}
        doc = {"command": cli._command_name(args), "config": cli._config_dict(args),
               "result": result}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def json_text(doc):  # json.dumps's text, or the type and message of its refusal
        try:
            return json.dumps(doc, indent=2, sort_keys=True)
        except (TypeError, ValueError) as exc:
            return type(exc), str(exc)

    def written(doc):
        try:
            return "".join(cli._write_json(doc, "", []))
        except (TypeError, ValueError) as exc:
            return type(exc), str(exc)

    ghost_args = cli.build_parser().parse_args(["witt", "ghost", "1-2t", "--format", "json"])

    @hypothesis.seed(property_seed() + 51)
    @hypothesis.settings(max_examples=400, deadline=None, database=None)
    @hypothesis.given(_JSON_DOCS)
    def check_document(doc):
        assert written(doc) == json_text(doc)
        result = {"doc": doc, "pretty": "1 - 2t"}
        assert cli._render(ghost_args, result, None) == expected(ghost_args, result)

    check_document()
    for doc in ([], {}, (), [[]], {"": {}}, ((),), [None, True, False, (1, [2.5, {}])]):
        assert written(doc) == json_text(doc)
    # refused alike, with the same error and message: a 4,301-digit int (Python's
    # str() limit) and objects json does not take
    for doc in (10**4300, [1, {"a": -(10**4300)}], {"a": object()}, [b"x"], [{1, 2}]):
        assert isinstance(json_text(doc), tuple), doc
        assert written(doc) == json_text(doc), doc

    args = cli.build_parser().parse_args(["orbits", "packet", "7", "3"])
    result, lines = args.func(args)
    listings = [[], [[0]], [[5]], [[1, 2, 4]], [[1], [2]], result["orbits"]]
    for _ in range(30):
        n = rng.randint(1, 12)
        listings.append([[rng.randrange(10**rng.randint(1, 10)) for _ in range(n)]
                         for _ in range(rng.randint(1, 60))])
    for rows in listings:
        case = {**result, "orbits": rows}
        assert cli._render(args, case, lines) == expected(args, case), rows[:3]
    grid = json.loads((Path(__file__).parent / "data" / "golden_render.json").read_text())
    monkeypatch.chdir(tmp_path)
    for name, data in grid["varieties"].items():
        Path(name).write_text(json.dumps(data))
    argvs = [c["argv"] for c in grid["cases"]
             if c["exit"] == 0 and c["argv"][-2:] == ["--format", "json"]]
    names = set()
    for argv in argvs + [argv + ["--format", "json"] for argv in grid["numeric"]]:
        args = cli.build_parser().parse_args(argv)
        result, lines = args.func(args)
        assert cli._render(args, result, lines) == expected(args, result), argv
        names.add(cli._command_name(args))
    assert len(names) == 19


def _leaves(p: argparse.ArgumentParser, words: tuple = ()) -> list:
    """(command words, parser) of every leaf of an argparse tree."""
    sub = [a for a in p._actions if isinstance(a, argparse._SubParsersAction)]
    if not sub:
        return [(list(words), p)]
    return [leaf for word, q in sub[0].choices.items() for leaf in _leaves(q, words + (word,))]


# tokens for a declared value by its type: (well-formed, bad); the bad ones do
# not convert, are negative numbers, or start with "-" as options do
_ARGV_VALUES = {
    int: (["0", "2", "3", "5", "7", "11", "41", " 7", "1_1"], ["x", "1.5", "", "-3"]),
    float: (["0.5", "2", "32", "1e2", "nan"], ["x", "", "-2", "-1e3"]),
    None: (["1-t", "(1-2t)/(1-3t)", "1-3t/2", "12/5", "spec Z", "curve:2", "quadratic:5",
            "1,0,1", "1", "", "v.json"], ["-360/77", "-", "--", "-t"]),
}


@st.composite
def _argvs(draw, leaves, values=_ARGV_VALUES):
    """An argv drawn from one leaf's declarations: its command words, a value for
    each positional and for some options (the required ones mostly), the options
    before, between or after the positionals; then, half the time, a change that
    argparse reads differently or refuses. `values` holds the (well-formed, bad)
    tokens of each declared type, as _ARGV_VALUES does, and of each option dest
    that has its own."""
    words, leaf = draw(st.sampled_from(leaves))
    acts = [a for a in leaf._actions if a.default is not argparse.SUPPRESS]

    def value(a):
        good, bad = values[a.dest] if a.dest in values else values[a.type]
        if a.choices:
            good, bad = list(a.choices), ["yaml"]
        return draw(st.sampled_from(good if draw(st.integers(0, 9)) else bad))

    argv = [value(a) for a in acts if not a.option_strings for _ in range(a.nargs or 1)]
    argv = argv[:len(argv) + draw(st.sampled_from([0, 0, 0, -1]))]
    if draw(st.integers(0, 5)) == 0:
        argv.append(draw(st.sampled_from(values[None][0])))  # one positional too many
    options = [a for a in acts if a.option_strings
               if draw(st.integers(0, 9)) > (0 if a.required else 6)]
    for a in draw(st.permutations(options)):
        at = draw(st.sampled_from([0, len(argv), draw(st.integers(0, len(argv)))]))
        argv[at:at] = [a.option_strings[0], value(a)]
    change = draw(st.sampled_from(["none"] * 9 + [
        "repeat", "equals", "abbreviate", "help", "dashdash", "negative", "stray", "command",
        "verb"]))
    flags = [i for i, tok in enumerate(argv) if tok.startswith("--") and i + 1 < len(argv)]
    if change == "repeat" and flags:  # the flag again, with a value that may be bad
        flag, at = argv[draw(st.sampled_from(flags))], draw(st.sampled_from([0, len(argv)]))
        argv[at:at] = [flag, draw(st.sampled_from(["plain", "json", "3", "x"]))]
    elif change == "stray":  # one positional too many, cut off from the others by an option
        pair = [argv.pop(flags[0]), argv.pop(flags[0])] if flags else ["--format", "plain"]
        argv = [draw(st.sampled_from(["1-t", "7", "x"]))] + pair + argv
    elif change == "equals" and flags:
        i = draw(st.sampled_from(flags))
        argv[i:i + 2] = [argv[i] + "=" + argv[i + 1]]
    elif change == "abbreviate" and flags:
        i = draw(st.sampled_from(flags))
        argv[i] = argv[i][:draw(st.integers(min(3, len(argv[i])), len(argv[i])))]  # "--" too
    elif change == "help":
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["-h", "--help"])))
    elif change == "dashdash":
        argv.insert(draw(st.integers(0, len(argv))), "--")
    elif change == "negative":
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["-3", "-0.5"])))
    elif change in ("command", "verb"):
        at = 0 if change == "command" else len(words) - 1
        words = [*words]
        words[at] = draw(st.sampled_from([words[at][:-1], words[at] + "s", "bogus", ""]))
    return words + argv


def test_canonical_parse_matches_argparse(tmp_path, monkeypatch):
    """The canonical-form parse against argparse, on argvs drawn from each leaf's
    declarations: it declines, or returns the Namespace argparse returns; and main
    gives the same exit code, stdout and stderr with it and without it."""
    monkeypatch.chdir(tmp_path)
    circle = {"p": 5, "vars": 2, "equations": [[[1, [2, 0]], [1, [0, 2]], [-1, [0, 0]]]]}
    Path("v.json").write_text(json.dumps(circle))
    tree = cli.build_parser()
    leaves = _leaves(tree)
    assert len(leaves) == 19
    for words, leaf in leaves:  # what the canonical parse takes: -h, and store actions
        for a in leaf._actions[1:]:  # with one value per option and no str default to convert
            assert type(a) is argparse._StoreAction, words
            assert a.nargs is None or type(a.nargs) is int and not a.option_strings, words
            assert not (a.type and isinstance(a.default, str)), words
    declined = []

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # any escape is compared by repr on both routes
                code = repr(exc)
        return code, out.getvalue(), err.getvalue()

    @hypothesis.seed(property_seed() + 52)
    @hypothesis.settings(max_examples=500, deadline=None, database=None)
    @hypothesis.given(_argvs(leaves))
    def check(argv):
        Path("v.json").write_text(json.dumps(circle))  # --out may have written over it
        fast = cli._parse_canonical(argv)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                slow = tree.parse_args(argv)
            except SystemExit as exc:
                slow = exc.code
        if fast is not None:  # by repr, which tells 1 from 1.0 and "1", and matches nan
            assert {k: repr(v) for k, v in vars(fast).items()} == (
                {k: repr(v) for k, v in vars(slow).items()}), argv
        declined.append(fast is None)
        got = run(argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "_parse_canonical", lambda argv: None)
            assert run(argv) == got, argv

    check()
    assert 100 < sum(declined) < len(declined) - 100, sum(declined)
