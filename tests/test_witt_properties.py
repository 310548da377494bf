"""Randomized ring laws, each case cross-checked through the ghost map."""

import random

from oracles import property_seed
from wittkit.poly import Polynomial
from wittkit.rings import GF, QQ, ZZ
from wittkit.witt import (
    WittVector,
    frobenius,
    ghost,
    teichmuller,
    verschiebung,
    witt_add,
    witt_mul,
    witt_neg,
    witt_zero,
)

GHOST_ORDER = 12


def random_witt(rng, ring):
    def small_poly():
        deg = rng.randint(0, 3)
        coeffs = [ring.coerce(1)] + [ring.coerce(rng.randint(-9, 9)) for _ in range(deg)]
        return Polynomial(ring, coeffs)

    return WittVector(small_poly(), small_poly())


def gh(f):
    return ghost(f, GHOST_ORDER)


def test_addition_laws_with_ghost_oracle():
    rng = random.Random(property_seed())
    for ring in (ZZ, QQ, GF(5)):
        for _ in range(20):
            f, g, h = (random_witt(rng, ring) for _ in range(3))
            assert witt_add(f, g) == witt_add(g, f)
            assert witt_add(witt_add(f, g), h) == witt_add(f, witt_add(g, h))
            assert witt_add(f, witt_neg(f)) == witt_zero(ring)
            want = [ring.coerce(x + y) for x, y in zip(gh(f), gh(g))]
            assert gh(witt_add(f, g)) == want


def test_multiplication_laws_with_ghost_oracle():
    rng = random.Random(property_seed() + 1)
    for ring in (ZZ, QQ, GF(5)):
        for _ in range(12):
            f, g, h = (random_witt(rng, ring) for _ in range(3))
            assert witt_mul(f, g) == witt_mul(g, f)
            assert witt_mul(witt_mul(f, g), h) == witt_mul(f, witt_mul(g, h))
            want = [ring.coerce(x * y) for x, y in zip(gh(f), gh(g))]
            assert gh(witt_mul(f, g)) == want


def test_distributivity():
    rng = random.Random(property_seed() + 2)
    for ring in (ZZ, QQ, GF(5)):
        for _ in range(12):
            f, g, h = (random_witt(rng, ring) for _ in range(3))
            lhs = witt_mul(f, witt_add(g, h))
            rhs = witt_add(witt_mul(f, g), witt_mul(f, h))
            assert lhs == rhs


def test_frobenius_monoid_action():
    rng = random.Random(property_seed() + 3)
    for _ in range(15):
        f = random_witt(rng, ZZ)
        for mu in (2, 3):
            for nu in (2, 3):
                assert frobenius(frobenius(f, mu), nu) == frobenius(f, mu * nu)


def test_frobenius_ghost_reindexes():
    rng = random.Random(property_seed() + 4)
    for _ in range(15):
        f = random_witt(rng, ZZ)
        full = ghost(f, GHOST_ORDER)
        for nu in (2, 3, 4):
            part = ghost(frobenius(f, nu), GHOST_ORDER // nu)
            assert part == [full[nu * k - 1] for k in range(1, GHOST_ORDER // nu + 1)]


def test_verschiebung_ghost_stretches():
    rng = random.Random(property_seed() + 5)
    for _ in range(15):
        f = random_witt(rng, ZZ)
        base = ghost(f, GHOST_ORDER)
        for nu in (2, 3):
            got = ghost(verschiebung(f, nu), GHOST_ORDER)
            for n in range(1, GHOST_ORDER + 1):
                if n % nu == 0:
                    assert got[n - 1] == nu * base[n // nu - 1]
                else:
                    assert got[n - 1] == 0


def test_frobenius_is_multiplicative_on_teichmuller():
    for a in range(-6, 7):
        for nu in (2, 3, 5):
            assert frobenius(teichmuller(a), nu) == teichmuller(a**nu)
