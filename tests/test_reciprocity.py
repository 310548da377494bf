import gc
import itertools

import pytest

from oracles import legendre
from wittkit.ntheory import primes_upto
from wittkit.reciprocity import (
    LINKING_BOUND_CAP,
    RedeiTriple,
    linking_table,
    reciprocity_check,
    redei_scan,
    redei_symbol,
)
from wittkit.zeta import closed_points


def test_legendre_matches_exhaustive_squares():
    for p in primes_upto(100):
        if p == 2:
            continue
        squares = {(x * x) % p for x in range(1, p)}
        for a in range(p):
            want = 0 if a == 0 else (1 if a in squares else -1)
            assert legendre(a, p) == want, (a, p)


def test_legendre_rejects_even_modulus():
    with pytest.raises(ValueError):
        legendre(3, 2)
    with pytest.raises(ValueError):
        legendre(3, 9)


def test_reciprocity_check_values():
    # rows are (p, l, p mod 4, l mod 4, (p/l), (l/p), relation holds)
    *_, s_pl, s_lp, ok = reciprocity_check(3, 5)
    assert (s_pl, s_lp) == (-1, -1)
    assert ok
    *_, s_pl, s_lp, ok = reciprocity_check(3, 7)
    assert (s_pl, s_lp) == (-1, 1)
    assert ok
    *_, s_pl, s_lp, ok = reciprocity_check(13, 17)
    assert (s_pl, s_lp) == (1, 1)
    assert reciprocity_check(3, 7)[:4] == (3, 7, 3, 3)


def test_linking_table_small():
    table = linking_table(12)
    assert len(table) == 12  # ordered pairs from {3, 5, 7, 11}
    assert table[0][:2] == (3, 5)
    assert all(ok for *_, ok in table)
    assert linking_table(5) == []
    with pytest.raises(ValueError):
        linking_table(4)


def test_linking_table_no_violations_to_200():
    assert all(ok for *_, ok in linking_table(200))


def test_rows_are_plain_tuples_the_collector_untracks():
    # a tuple subclass (a NamedTuple row) stays tracked by the cyclic
    # collector; exact tuples of numbers are untracked at the first
    # collection, so thousands of rows add nothing to later full ones
    rows = linking_table(400) + list(closed_points("spec Z", 10**4).entries)
    assert len(rows) == 77 * 76 + 1229
    gc.collect()
    assert all(type(row) is tuple for row in rows)
    assert not any(gc.is_tracked(row) for row in rows)


def test_linking_table_cap():
    # at the cap the table still answers: 302 odd primes below 2,000
    assert LINKING_BOUND_CAP == 2000
    assert len(linking_table(LINKING_BOUND_CAP)) == 302 * 301
    with pytest.raises(ValueError, match=r"^linking table needs --bound 2001, above the cap 2000$"):
        linking_table(2001)


def test_redei_borromean_triple():
    assert redei_symbol(5, 41, 61) == -1
    detail = redei_symbol(5, 41, 61, details=True)
    assert detail.symbol == -1
    assert detail.solution == (11, 4, 1)
    x, y, z = detail.solution
    assert x * x == 5 * y * y + 41 * z * z
    assert detail.solutions_checked >= 1


def test_redei_permutation_invariance():
    for triple, want in [((5, 41, 61), -1), ((5, 29, 109), 1), ((13, 17, 53), -1)]:
        for perm in itertools.permutations(triple):
            assert redei_symbol(*perm) == want, perm


def test_redei_preconditions():
    with pytest.raises(ValueError, match="not 1 mod 4"):
        redei_symbol(3, 41, 61)
    with pytest.raises(ValueError, match="not prime"):
        redei_symbol(9, 41, 61)
    with pytest.raises(ValueError, match="distinct"):
        redei_symbol(5, 5, 61)
    with pytest.raises(ValueError, match="pairwise symbol"):
        redei_symbol(5, 13, 17)


def test_redei_scan_finds_known_triples():
    rows = redei_scan(120)
    assert len(rows) == 25
    table = {(p, l, q): sym for p, l, q, sym in rows}
    assert table[(5, 41, 61)] == -1
    assert table[(5, 29, 109)] == 1
    plus = [row for row in rows if row[3] == 1]
    assert len(plus) == sum(1 for sym in table.values() if sym == 1)


def test_redei_large_triple_pinned():
    # the first window that holds a solution is 8192
    assert redei_symbol(3001, 3041, 3037, details=True) == RedeiTriple(
        3001, 3041, 3037, -1, (7555, 128, 51), 3
    )
