"""Seeded op streams for the two workloads.

An op is one `wittkit` command line plus the facts the checker needs
(the generated inputs). Ops come in decks: every deck of a workload has
the same mix of op classes, and the seed only draws the inputs inside
each class and the order within the deck. A run executes whole decks,
so two seeds do the same amount of work of each kind and differ only in
the inputs.

Each workload's deck joins sub-decks of two op groups that stress
different layers: `witt` (Z-rational Witt arithmetic) with `explicit`
(explicit-formula bumps), and `zeta` (point counts and zeta functions)
with `arith` (orbit, reciprocity and ledger tables). A change to a
layer of one group is predicted to leave the other group's ops alone.

The program sees nothing but the argv and, for `zeta`, the variety JSON
files written here when their deck is built, before its first op.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path
from typing import Iterator, NamedTuple

from oracle import legendre, primes_below

class Op(NamedTuple):
    kind: str
    argv: list[str]
    meta: dict
    group: str = ""


def _shuffled_with_repeat(rng: random.Random, deck: list[Op], history: list[Op],
                          cheap) -> list[Op]:
    """Shuffle the deck and end it with an exact repeat of a recent op,
    whose stdout must match the earlier one byte for byte. The repeat is
    drawn from the cheap ops only, so every deck costs about the same."""
    rng.shuffle(deck)
    deck.append(rng.choice([op for op in history[-200:] + deck if cheap(op)]))
    return deck


# --- witt -------------------------------------------------------------------

def _int_poly(rng: random.Random, degree: int) -> list[int]:
    coeffs = [1] + [rng.randint(-3, 3) for _ in range(degree)]
    while coeffs[-1] == 0:
        coeffs[-1] = rng.randint(-3, 3)
    return coeffs


def _poly_text(coeffs: list[int]) -> str:
    out = ""
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            body = ("" if mag == 1 else str(mag)) + ("t" if i == 1 else f"t^{i}")
        out += ("-" if c < 0 else ("+" if out else "")) + body
    return out


def _witt_vector(rng: random.Random, dnum: int, dden: int) -> tuple[str, list, list]:
    num, den = _int_poly(rng, dnum), _int_poly(rng, dden)
    return f"({_poly_text(num)})/({_poly_text(den)})", num, den


# degrees (num, den) of the two factors of each product in one deck
_MUL_CLASSES = [
    ((2, 2), (2, 2)), ((2, 2), (2, 2)), ((2, 2), (2, 2)),
    ((3, 3), (3, 3)), ((3, 3), (3, 3)),
    ((4, 4), (4, 4)), ((4, 4), (4, 4)),
    ((5, 5), (5, 5)), ((5, 5), (5, 5)),
    ((6, 6), (6, 6)), ((6, 6), (6, 6)),
    ((2, 6), (6, 2)), ((3, 5), (5, 3)), ((4, 2), (2, 4)),
]
GHOST_ORDER = 12


def _witt_deck(rng: random.Random, history: list[Op], vdir: Path) -> list[Op]:
    deck = []
    for a, b in _MUL_CLASSES:
        (fs, fn, fd), (gs, gn, gd) = _witt_vector(rng, *a), _witt_vector(rng, *b)
        deck.append(Op("witt mul", ["witt", "mul", fs, gs, "--format", "json"],
                       {"f": (fn, fd), "g": (gn, gd)}))
    for verb in ("add", "add", "sub"):
        (fs, fn, fd), (gs, gn, gd) = (_witt_vector(rng, rng.randint(2, 6), rng.randint(2, 6))
                                      for _ in range(2))
        deck.append(Op(f"witt {verb}", ["witt", verb, fs, gs, "--format", "json"],
                       {"f": (fn, fd), "g": (gn, gd)}))
    fs, fn, fd = _witt_vector(rng, rng.randint(2, 6), rng.randint(2, 6))
    nu = rng.choice((2, 3))
    deck.append(Op("witt frobenius", ["witt", "frobenius", fs, str(nu), "--format", "json"],
                   {"f": (fn, fd), "nu": nu}))
    fs, fn, fd = _witt_vector(rng, rng.randint(2, 6), rng.randint(2, 6))
    deck.append(Op("witt ghost",
                   ["witt", "ghost", fs, "--order", str(GHOST_ORDER), "--format", "json"],
                   {"f": (fn, fd), "order": GHOST_ORDER}))
    return _shuffled_with_repeat(rng, deck, history, lambda op: op.kind != "witt mul")


# --- zeta -------------------------------------------------------------------

def _elliptic(rng: random.Random, p: int) -> dict:
    while True:
        a, b = rng.randrange(p), rng.randrange(p)
        if (4 * a**3 + 27 * b**2) % p:
            break
    # y^2 - x^3 - a x - b = 0, terms [coefficient, [x exponent, y exponent]]
    terms = [[1, [0, 2]], [p - 1, [3, 0]]]
    if a:
        terms.append([-a % p, [1, 0]])
    if b:
        terms.append([-b % p, [0, 0]])
    return {"shape": "elliptic", "p": p, "a": a, "b": b, "terms": terms}


def _conic(rng: random.Random, p: int) -> dict:
    a, b, c = (rng.randrange(1, p) for _ in range(3))
    # a x^2 + b y^2 - c = 0
    terms = [[a, [2, 0]], [b, [0, 2]], [-c % p, [0, 0]]]
    return {"shape": "conic", "p": p, "a": a, "b": b, "c": c, "terms": terms}


# (kind, p, n or max-n, shape) per sub-deck; the n = 4 count, in every
# other zeta sub-deck, is the tail
_ZETA_CLASSES = [
    ("rational", 5, 3, "elliptic"), ("rational", 5, 3, "elliptic"), ("rational", 5, 3, "conic"),
    ("rational", 7, 3, "elliptic"), ("rational", 7, 3, "elliptic"), ("rational", 7, 3, "conic"),
    ("rational", 11, 3, "elliptic"),
    ("count", 5, 1, None), ("count", 7, 1, None), ("count", 11, 1, None),
    ("count", 5, 2, None), ("count", 7, 2, None), ("count", 11, 2, None),
    ("count", 5, 3, None), ("count", 7, 3, None), ("count", 11, 3, None),
]
_ZETA_TAIL = ("count", 7, 4, "elliptic")


def _zeta_deck(rng: random.Random, history: list[Op], vdir: Path, tail: bool) -> list[Op]:
    deck = []
    for verb, p, n, shape in _ZETA_CLASSES + [_ZETA_TAIL] * tail:
        shape = shape or rng.choice(("elliptic", "conic"))
        var = _elliptic(rng, p) if shape == "elliptic" else _conic(rng, p)
        name = "-".join([shape, f"p{p}"] + [str(var[k]) for k in ("a", "b", "c") if k in var])
        path = vdir / f"{name}.json"
        if not path.exists():
            path.write_text(json.dumps({"p": p, "vars": 2, "equations": [var["terms"]]}))
        rel = str(path)
        if verb == "count":
            argv = ["zeta", "count", "--variety", rel, "--n", str(n), "--format", "json"]
        else:
            argv = ["zeta", "rational", "--variety", rel, "--max-n", str(n),
                    "--dnum", "2", "--dden", "1", "--format", "json"]
        deck.append(Op(f"zeta {verb}", argv, {"variety": var, "n": n}))
    return _shuffled_with_repeat(
        rng, deck, history, lambda op: op.kind == "zeta count" and op.meta["n"] <= 2)


# --- explicit --------------------------------------------------------------

# one cold bump per radius stratum and two warm repeats per deck
_R_STRATA = [(0.3, 0.4), (0.4, 0.5), (0.5, 0.6), (0.6, 0.7), (0.7, 0.8), (0.8, 0.9)]
_C_MAX = 3.0


def _bump_op(c: float, r: float, prime_bound: int, repeat: bool) -> Op:
    argv = ["explicit-formula", "run", "--bump", f"{c},{r}", "--max-zeros", "1000",
            "--prime-bound", str(prime_bound), "--format", "json"]
    return Op("explicit-formula run", argv, {"c": c, "r": r, "repeat": repeat})


def _explicit_deck(rng: random.Random, history: list[Op], vdir: Path) -> list[Op]:
    deck = []
    for lo, hi in _R_STRATA:
        r = round(rng.uniform(lo, hi), 4)
        c = round(rng.uniform(r + 0.3, _C_MAX), 4)
        deck.append(_bump_op(c, r, rng.randint(10**4, 10**5), repeat=False))
    rng.shuffle(deck)
    seen = [op for op in history if not op.meta["repeat"]] + deck
    for _ in range(2):
        old = rng.choice(seen)
        deck.append(_bump_op(old.meta["c"], old.meta["r"], rng.randint(10**4, 10**5), True))
    return deck


# --- arith --------------------------------------------------------------------

# orbit packets: (p, n) with p^n in two size bands
_ORBIT_SMALL = [(p, n) for p in primes_below(40) for n in range(2, 14)
                if 500 <= p**n <= 10**4]
_ORBIT_LARGE = [(p, n) for p in primes_below(40) for n in range(2, 14)
                if 10**4 < p**n <= 10**5]
# curve ledgers: (q, top degree) in two cost bands of similar members
_CURVE_MID = [(2, 8), (3, 5), (7, 3), (19, 2)]
_CURVE_HEAVY = [(2, 9), (5, 4), (29, 2), (31, 2)]
_REDEI_PRIMES = [v for v in primes_below(200) if v % 4 == 1]
_REDEI_TRIPLES = [
    (p, l, q)
    for i, p in enumerate(_REDEI_PRIMES)
    for j, l in enumerate(_REDEI_PRIMES[i + 1:], i + 1)
    for q in _REDEI_PRIMES[j + 1:]
    if legendre(p, l) == 1 and legendre(p, q) == 1 and legendre(l, q) == 1
]


def _fundamental_discriminant(rng: random.Random) -> int:
    def squarefree(m: int) -> bool:
        m = abs(m)
        return all(m % (k * k) for k in range(2, math.isqrt(m) + 1))

    while True:
        d = rng.randint(-1000, 1000)
        if d in (0, 1):
            continue
        if d % 4 == 1 and squarefree(d):
            return d
        if d % 4 == 0 and (d // 4) % 4 in (2, 3) and squarefree(d // 4):
            return d


def _curve_op(rng: random.Random, band: list, index: int) -> Op:
    q, d = band[index % len(band)]
    bound = rng.randint(q**d, q ** (d + 1) - 1)
    argv = ["zeta", "ledger", "--source", f"curve:{q}", "--bound", str(bound),
            "--format", "json"]
    return Op("zeta ledger curve", argv, {"source": f"curve:{q}", "bound": bound})


def _coeff_list(rng: random.Random, p: int) -> list[int]:
    coeffs = [rng.randrange(p) for _ in range(rng.randint(3, 7))]
    if coeffs[-1] == 0:
        coeffs[-1] = rng.randrange(1, p)
    return coeffs


def _arith_deck(rng: random.Random, history: list[Op], vdir: Path) -> list[Op]:
    deck = []
    for band in (_ORBIT_SMALL, _ORBIT_SMALL, _ORBIT_LARGE, _ORBIT_LARGE):
        p, n = rng.choice(band)
        deck.append(Op("orbits packet", ["orbits", "packet", str(p), str(n)],
                       {"p": p, "n": n}))
    bound = rng.randint(100, 400)
    deck.append(Op("linking table",
                   ["linking", "table", "--bound", str(bound), "--format", "csv"],
                   {"bound": bound}))
    # curve ledgers are the slowest arith ops, so sub-decks take the band
    # members in turn, and a deck of four sub-decks has each of them once
    index = sum(op.kind == "zeta ledger curve" for op in history) // 2
    deck.append(_curve_op(rng, _CURVE_MID, index))
    deck.append(_curve_op(rng, _CURVE_HEAVY, index))
    for _ in range(2):
        source, bound = f"quadratic:{_fundamental_discriminant(rng)}", rng.randint(500, 3000)
        deck.append(Op("zeta ledger quadratic",
                       ["zeta", "ledger", "--source", source, "--bound", str(bound),
                        "--format", "json"], {"source": source, "bound": bound}))
    for source in ("spec Z", f"quadratic:{_fundamental_discriminant(rng)}"):
        bound, s = rng.randint(1000, 10000), rng.choice((1.5, 2.0, 2.5, 3.0))
        deck.append(Op("zeta euler",
                       ["zeta", "euler", "--source", source, "--bound", str(bound),
                        "--s", str(s), "--format", "json"],
                       {"source": source, "bound": bound, "s": s}))
    for _ in range(4):
        p, l, q = rng.choice(_REDEI_TRIPLES)
        deck.append(Op("redei", ["redei", str(p), str(l), str(q), "--format", "json"],
                       {"p": p, "l": l, "q": q}))
    for _ in range(3):
        p = rng.choice((3, 5, 7))
        num, den = _coeff_list(rng, p), _coeff_list(rng, p)
        deck.append(Op("product-formula function-field",
                       ["product-formula", "function-field", "--p", str(p),
                        "--num", ",".join(map(str, num)), "--den", ",".join(map(str, den)),
                        "--format", "json"], {}))
    cheap = {"redei", "product-formula function-field", "zeta ledger quadratic"}
    return _shuffled_with_repeat(rng, deck, history, lambda op: op.kind in cheap)


# --- entry -------------------------------------------------------------------

# the workloads, and the sub-decks of one deck: (group, function that
# builds one, how many)
DECKS = {
    "witt-explicit": [("witt", _witt_deck, 3), ("explicit", _explicit_deck, 1)],
    "zeta-tables": [
        ("zeta", lambda rng, hist, vdir: _zeta_deck(rng, hist, vdir, tail=True), 1),
        ("zeta", lambda rng, hist, vdir: _zeta_deck(rng, hist, vdir, tail=False), 1),
        ("arith", _arith_deck, 4),
    ],
}


def stream(workload: str, seed: int, vdir: Path) -> Iterator[list[Op]]:
    """The workload's endless stream of decks. The same seed gives the
    same stream, and building a deck depends only on the decks before
    it, so any prefix can be rebuilt on its own."""
    rng = random.Random(f"{workload}:{seed}")
    history: dict[str, list[Op]] = {}
    while True:
        deck = []
        for group, build, count in DECKS[workload]:
            hist = history.setdefault(group, [])
            for _ in range(count):
                part = [op._replace(group=group) for op in build(rng, hist, vdir)]
                hist.extend(part)
                deck.extend(part)
        yield deck
