"""Quadratic residue symbols as linking numbers, the reciprocity
relation, and the Rédei triple symbol.

Single symbols are ntheory.kronecker_symbol, with the primes checked
once per public call. linking_table reads its symbols from one table of
residues per prime instead: (r/l) for every r mod l, from the squares.

The Rédei symbol of distinct primes p, l, q = 1 mod 4 with all pairwise
Legendre symbols +1 is computed from a primitive solution of
x^2 - p y^2 - l z^2 = 0 normalized classically (y even, x > 0, q not
dividing z), evaluated as (x + y sqrt(p) / q). The solutions come from
one windowed search: x <= W bounds y and z too, as p, l >= 5, so the
window is the ellipse p y^2 + l z^2 <= W^2. The code checks its own
normalization: every found solution and both square roots of p mod q
must give one symbol, or the computation refuses to answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ntheory import is_prime, kronecker_symbol, primes_upto, sqrt_mod_prime
from .util import over_cap

REDEI_SEARCH_START = 64
REDEI_SEARCH_CAP = 2**20
# pi(B)^2 rows: `linking table --bound 2000` takes about 0.3 s as csv, 0.5 s as
# json, in a fresh process on a 2-core Xeon
LINKING_BOUND_CAP = 2000


def _check_odd_prime(p: int) -> None:
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")


def reciprocity_check(p: int, l: int) -> tuple:
    """Verified reciprocity relation for distinct odd primes: symbols
    equal when p or l is 1 mod 4, opposite when both are 3 mod 4. The
    row is (p, l, p mod 4, l mod 4, (p/l), (l/p), relation holds)."""
    if p == l:
        raise ValueError("primes must be distinct")
    _check_odd_prime(l)
    _check_odd_prime(p)
    return _linking_entry(p, l, kronecker_symbol(p, l), kronecker_symbol(l, p))


def _linking_entry(p: int, l: int, s_pl: int, s_lp: int) -> tuple:
    ok = s_pl == (-s_lp if p % 4 == l % 4 == 3 else s_lp)
    if not ok:
        raise AssertionError(f"quadratic reciprocity violated at ({p}, {l})")
    return (p, l, p % 4, l % 4, s_pl, s_lp, ok)  # an exact tuple: the collector untracks it


def linking_table(bound: int) -> list[tuple]:
    """All ordered pairs of distinct odd primes below bound, in (p, l)
    order, each the reciprocity_check row of its verified relation. (p/l)
    is read from the residue table of l and (l/p) from that of p."""
    if bound < 5:
        raise ValueError("bound must be >= 5")
    if bound > LINKING_BOUND_CAP:
        raise ValueError(over_cap("linking table", f"--bound {bound}", LINKING_BOUND_CAP))
    odd_primes = primes_upto(bound - 1)[1:]  # drop 2
    chi = {l: _residue_table(l) for l in odd_primes}
    return [_linking_entry(p, l, chi[l][p % l], chi[p][l % p])
            for p in odd_primes for l in odd_primes if p != l]


def _residue_table(l: int) -> list[int]:
    """(r/l) for r = 0..l-1: 0 at 0, +1 on the squares x^2 mod l, -1 elsewhere."""
    table = [-1] * l
    table[0] = 0
    for x in range(1, l // 2 + 1):
        table[x * x % l] = 1
    return table


@dataclass(frozen=True)
class RedeiTriple:
    p: int
    l: int
    q: int
    symbol: int
    solution: tuple[int, int, int]
    solutions_checked: int


def _redei_solutions(p: int, l: int, q: int, bound: int) -> list[tuple[int, int, int]]:
    """Primitive solutions of x^2 = p y^2 + l z^2 with y even, x > 0,
    q not dividing z and x <= bound, in order of z, then y. Only the
    lattice points of the ellipse p y^2 + l z^2 <= bound^2 are visited."""
    out = []
    w2 = bound * bound
    for z in range(1, math.isqrt(w2 // l) + 1):
        if z % q == 0:
            continue
        lz2 = l * z * z
        for y in range(0, math.isqrt((w2 - lz2) // p) + 1, 2):
            x2 = p * y * y + lz2
            x = math.isqrt(x2)
            if x * x == x2 and math.gcd(math.gcd(x, y), z) == 1:
                out.append((x, y, z))
    return out


def redei_symbol(p: int, l: int, q: int, *, details: bool = False):
    """The +-1 triple symbol; see the module docstring.

    Preconditions: p, l, q distinct primes = 1 mod 4, all pairwise
    Legendre symbols +1. The window W doubles from 64 until it holds a
    solution, and the search refuses a window above REDEI_SEARCH_CAP = 2^20;
    every solution of the first such window is checked.
    """
    for v in (p, l, q):
        if not is_prime(v):
            raise ValueError(f"{v} is not prime")
        if v % 4 != 1:
            raise ValueError(f"{v} is not 1 mod 4")
    if len({p, l, q}) != 3:
        raise ValueError("primes must be distinct")
    for a, b in ((p, l), (p, q), (l, q)):
        if kronecker_symbol(a, b) != 1 or kronecker_symbol(b, a) != 1:
            raise ValueError(f"pairwise symbol for ({a}, {b}) is not +1")

    r = sqrt_mod_prime(p, q)
    bound = REDEI_SEARCH_START
    while not (solutions := _redei_solutions(p, l, q, bound)):
        bound *= 2
        if bound > REDEI_SEARCH_CAP:
            need = f"a window x <= {bound}"
            raise ValueError(over_cap(f"redei({p}, {l}, {q})", need, REDEI_SEARCH_CAP))

    symbols = set()
    for x, y, z in solutions:
        for root in (r, q - r):
            u = (x + y * root) % q
            # (x+yr)(x-yr) = l z^2 mod q is a nonzero square times l... both
            # factors are units because q divides neither z nor the product
            if u == 0:
                raise AssertionError(f"normalization violated: q | x + y r at {(x, y, z)}")
            symbols.add(kronecker_symbol(u, q))
    if len(symbols) != 1:
        raise AssertionError(
            "normalization violated: solutions or roots disagree on the symbol"
        )
    symbol = symbols.pop()
    if details:
        return RedeiTriple(p, l, q, symbol, solutions[0], len(solutions))
    return symbol


def redei_scan(limit: int):
    """Admissible triples with p < l < q < limit and their symbols."""
    primes = [v for v in primes_upto(limit - 1) if v % 4 == 1]
    out = []
    for i, p in enumerate(primes):
        for j in range(i + 1, len(primes)):
            l = primes[j]
            if kronecker_symbol(p, l) != 1:
                continue
            for k in range(j + 1, len(primes)):
                q = primes[k]
                if kronecker_symbol(p, q) != 1 or kronecker_symbol(l, q) != 1:
                    continue
                out.append((p, l, q, redei_symbol(p, l, q)))
    return out
