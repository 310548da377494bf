"""Output checks for every op kind, and the corruptions that prove them.

`check(op, stdout)` returns None when the printed answer is right and a
reason otherwise. The expected values come from `oracle`, never from
wittkit. `corrupt(op, stdout)` returns a copy of a right answer with one
number changed; the self-test requires `check` to reject it.
"""

from __future__ import annotations

import csv
import io
import json
import math
import struct

import oracle

ZETA_GHOST_ORDER = 6
# the exact affine zeta: (1 - a t + p t^2) / (1 - p t) for an elliptic
# curve, (1 - chi t) / (1 - p t) for a conic
ZETA_EXACT_DEGREES = (2, 1)
EXPLICIT_DEFECT_LIMIT = 1e-9
EULER_MAX_ULPS = 4
EULER_ULPS_PER_FACTOR = 2


def _result(op, stdout: str) -> dict:
    doc = json.loads(stdout)
    want = " ".join(op.kind.split()[:2])
    if doc["command"] != want:
        raise ValueError(f"command {doc['command']!r}, expected {want!r}")
    return doc["result"]


def _dump(op, stdout: str, result: dict) -> str:
    doc = json.loads(stdout)
    doc["result"] = result
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# --- witt ------------------------------------------------------------------

def _degree(coeffs: list) -> int:
    return len(coeffs) - 1


def _exact_degrees(verb: str, m: dict) -> tuple[int, int]:
    """Degree bounds (numerator, denominator) of the exact result. A root
    a of a numerator adds a^n to ghost_n and a root b of a denominator
    subtracts b^n, so a product pairs up the roots, a sum or difference
    joins them, and F_nu maps each root a to a^nu."""
    fn, fd = map(_degree, m["f"])
    if verb == "frobenius":
        return fn, fd
    gn, gd = map(_degree, m["g"])
    return {"mul": (fn * gn + fd * gd, fn * gd + fd * gn),
            "add": (fn + gn, fd + gd),
            "sub": (fn + gd, fd + gn)}[verb]


def _check_witt(op, stdout):
    res = _result(op, stdout)
    m = op.meta
    verb = op.kind.split()[1]
    if verb == "ghost":
        if res["ghost"] != oracle.ghost(*m["f"], m["order"]):
            return "ghost components differ from the series expansion"
        return None
    if res["ring"] != "Z" or res["num"][0] != 1 or res["den"][0] != 1:
        return "result is not a Z-rational vector with constant terms 1"
    # Ghosts g_1..g_N fix a series with constant term 1 modulo t^(N+1).
    # If A/B is printed and C/D is exact, A D - B C has degree at most N,
    # so it is 0 and the two agree as rational functions.
    dn, dd = _exact_degrees(verb, m)
    order = max(_degree(res["num"]) + dd, dn + _degree(res["den"]), 1)
    gh = oracle.ghost(res["num"], res["den"], order)
    if verb == "frobenius":
        gf = oracle.ghost(*m["f"], m["nu"] * order)
        want = [gf[m["nu"] * n - 1] for n in range(1, order + 1)]
    else:
        gf, gg = oracle.ghost(*m["f"], order), oracle.ghost(*m["g"], order)
        combine = {"mul": lambda a, b: a * b, "add": lambda a, b: a + b,
                   "sub": lambda a, b: a - b}[verb]
        want = [combine(a, b) for a, b in zip(gf, gg)]
    if gh != want:
        n = next(i for i, (a, b) in enumerate(zip(gh, want), 1) if a != b)
        return f"ghost_{n} of the result is {gh[n - 1]}, expected {want[n - 1]}"
    return None


def _corrupt_witt(op, stdout):
    res = _result(op, stdout)
    if "ghost" in res:
        res["ghost"][0] += 1
    elif len(res["num"]) > 1:
        # the top coefficient, which shows only in ghosts past t^deg(num)
        res["num"][-1] += 1 if res["num"][-1] != -1 else 2
    else:
        res["num"].append(1)
    return _dump(op, stdout, res)


# --- zeta count / rational ---------------------------------------------------

def expected_count(var: dict, n: int) -> int:
    """Affine points over F_{p^n}: N_1 by a direct loop; elliptic curves
    by the Hasse-Weil recurrence, conics by p^n - chi(-ab)^n."""
    p = var["p"]
    n1 = oracle.affine_count(p, var["terms"])
    if var["shape"] == "conic":
        eps = oracle.legendre(-var["a"] * var["b"], p)
        if n1 != p - eps:
            raise AssertionError("conic point count formula disagrees with the loop")
        return p**n - eps**n
    s1 = p - n1
    s_prev, s = 2, s1
    for _ in range(n - 1):
        s_prev, s = s, s1 * s - p * s_prev
    return p**n - s


def _check_zeta(op, stdout):
    res = _result(op, stdout)
    var, n = op.meta["variety"], op.meta["n"]
    if op.kind == "zeta count":
        want = expected_count(var, n)
        return None if res["count"] == want else f"count {res['count']}, expected {want}"
    want = [expected_count(var, k) for k in range(1, n + 1)]
    if res["counts"] != want:
        return f"counts {res['counts']}, expected {want}"
    dn, dd = ZETA_EXACT_DEGREES
    order = max(n, ZETA_GHOST_ORDER, _degree(res["num"]) + dd, dn + _degree(res["den"]))
    extended = [expected_count(var, k) for k in range(1, order + 1)]
    if [-g for g in oracle.ghost(res["num"], res["den"], order)] != extended:
        return "ghosts of the printed zeta disagree with the point counts"
    return None


def _corrupt_zeta(op, stdout):
    res = _result(op, stdout)
    if "count" in res:
        res["count"] += 1
    else:
        res["den"][-1] += 1
    return _dump(op, stdout, res)


# --- explicit formula --------------------------------------------------------

def _check_explicit(op, stdout):
    res = _result(op, stdout)
    if res["bump"] != {"c": op.meta["c"], "r": op.meta["r"]}:
        return "bump echo differs from the input"
    conv = res["convergence"]
    if [row["K"] for row in conv] != [10, 100, 1000]:
        return "convergence table is not K = 10, 100, 1000"
    d = [row["defect"] for row in conv]
    # K = 10 to K = 100 need not fall: for the bump (1.9229, 0.3167) both
    # this quadrature and adaptive Simpson give 3.0228e-5, then 3.3716e-5
    if not d[2] < min(d[0], d[1]):
        return f"defect at K=1000 is not below those at K=10 and 100: {d}"
    if not d[2] < EXPLICIT_DEFECT_LIMIT:
        return f"K=1000 defect {d[2]} not below {EXPLICIT_DEFECT_LIMIT}"
    if res["defect"] != abs(res["zero_side"] - res["prime_side"]):
        return "defect is not |zero side - prime side|"
    return None


def _corrupt_explicit(op, stdout):
    res = _result(op, stdout)
    res["convergence"][2]["defect"] = 2 * EXPLICIT_DEFECT_LIMIT
    return _dump(op, stdout, res)


def explicit_invariant(op, stdout: str):
    """What two runs of one bump must share whatever their prime bounds."""
    res = json.loads(stdout)["result"]
    return json.dumps({k: v for k, v in res.items() if k != "prime_bound"}, sort_keys=True)


# --- arith tables ------------------------------------------------------------

def _check_orbits(op, stdout):
    res = _result(op, stdout)
    p, n = op.meta["p"], op.meta["n"]
    m = p**n - 1
    phi = oracle.euler_phi(m)
    if res["faithful_count"] != phi or res["orbit_length"] != n:
        return f"faithful count {res['faithful_count']} / length {res['orbit_length']}"
    if res["orbit_count"] * res["orbit_length"] != phi:
        return f"orbit_count * orbit_length = {res['orbit_count'] * n}, phi = {phi}"
    if res["suspension_length"] != n * math.log(p):
        return "suspension length is not n log p"
    orbits = res["orbits"]
    if orbits is not None:
        leaders = [o[0] for o in orbits]
        if len(orbits) != res["orbit_count"] or leaders != sorted(leaders):
            return "orbit listing does not match the count or is out of order"
        seen = set()
        for o in orbits:
            if o[0] != min(o) or len(o) != n or o[-1] * p % m != o[0]:
                return f"orbit {o[:4]}... is not a closed Frobenius orbit"
            if any(b != a * p % m or math.gcd(a, m) != 1 for a, b in zip(o, o[1:])):
                return f"orbit {o[:4]}... is not a closed Frobenius orbit"
            seen.update(o)
        if len(seen) != phi:
            return "listed orbits do not cover the faithful indices once"
    return None


def _corrupt_orbits(op, stdout):
    res = _result(op, stdout)
    res["orbit_count"] += 1
    return _dump(op, stdout, res)


def _csv_rows(stdout: str) -> list[list[str]]:
    body = "".join(line for line in io.StringIO(stdout) if not line.startswith("#"))
    return list(csv.reader(io.StringIO(body)))


def _check_linking(op, stdout):
    rows = _csv_rows(stdout)
    if rows[0] != ["p", "l", "p_mod4", "l_mod4", "sym_pl", "sym_lp", "relation_ok"]:
        return "unexpected csv header"
    odd = oracle.primes_below(op.meta["bound"])[1:]
    want = [
        [str(v) for v in (p, l, p % 4, l % 4, oracle.legendre(p, l), oracle.legendre(l, p))]
        + ["True"]
        for p in odd for l in odd if p != l
    ]
    if rows[1:] != want:
        bad = next((r for r, w in zip(rows[1:], want) if r != w), None)
        return f"linking rows differ, first at {bad}" if bad else "wrong number of rows"
    return None


def _corrupt_linking(op, stdout):
    rows = _csv_rows(stdout)
    rows[1][4] = str(-int(rows[1][4]))
    head = "".join(line for line in io.StringIO(stdout) if line.startswith("#"))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return head + buf.getvalue()


def _ledger_rows(res) -> list[tuple]:
    return [(e["norm"], e["length"], e["multiplicity"]) for e in res["entries"]]


def expected_ledger(source: str, bound: int) -> list[tuple[int, int]]:
    """(norm, multiplicity) of the closed points of norm <= bound, from
    the prime list, the Kronecker symbol and the necklace formula."""
    raw = []
    if source == "spec Z":
        raw = [(p, 1) for p in oracle.primes_below(bound + 1)]
    elif source.startswith("quadratic:"):
        d = int(source.split(":")[1])
        for p in oracle.primes_below(bound + 1):
            chi = oracle.kronecker(d, p)
            if chi == 1:
                raw.append((p, 2))
            elif chi == 0:
                raw.append((p, 1))
            elif p * p <= bound:
                raw.append((p * p, 1))
    else:
        q, d = int(source.split(":")[1]), 1
        raw.append((q, 1))  # the point at infinity
        while q**d <= bound:
            raw.append((q**d, oracle.necklace(q, d)))
            d += 1
    merged: dict[int, int] = {}
    for norm, mult in raw:
        merged[norm] = merged.get(norm, 0) + mult
    return sorted(merged.items())


def _check_ledger(op, stdout):
    res = _result(op, stdout)
    want = [(norm, math.log(norm), mult)
            for norm, mult in expected_ledger(op.meta["source"], op.meta["bound"])]
    if _ledger_rows(res) != want:
        return "ledger rows differ from the necklace / Kronecker counts"
    return None


def _corrupt_ledger(op, stdout):
    res = _result(op, stdout)
    res["entries"][-1]["multiplicity"] += 1
    return _dump(op, stdout, res)


def ulp_distance(a: float, b: float) -> int:
    """Doubles from a to b, for finite a and b of the same sign."""
    ia, ib = struct.unpack("<2q", struct.pack("<2d", a, b))
    return abs(ia - ib)


def _check_euler(op, stdout):
    res = _result(op, stdout)
    euler, ruelle = res["euler"], res["ruelle"]
    if not (math.isfinite(euler) and math.isfinite(ruelle) and euler > 1 and ruelle > 1):
        return f"Euler {euler} or Ruelle {ruelle} is not a finite product above 1"
    ulps = ulp_distance(euler, ruelle)
    if ulps > EULER_MAX_ULPS or res["ulps"] != ulps:
        return f"Euler and Ruelle products {ulps} ulps apart, printed {res['ulps']}"
    # the exact product, summed as logs; the program multiplies the
    # factors one by one, which loses at most a few ulps per factor
    m = op.meta
    points = expected_ledger(m["source"], m["bound"])
    want = math.exp(math.fsum(-mult * math.log1p(-float(norm) ** -m["s"])
                              for norm, mult in points))
    off = ulp_distance(euler, want)
    if off > EULER_ULPS_PER_FACTOR * len(points):
        return f"Euler product {euler} is {off} ulps from the ledger's product {want}"
    return None


def _corrupt_euler(op, stdout):
    res = _result(op, stdout)
    res["euler"] = res["ruelle"] = res["euler"] * (1 + 1e-12)
    res["ulps"] = 0
    return _dump(op, stdout, res)


def _check_redei(op, stdout):
    res = _result(op, stdout)
    p, l, q = op.meta["p"], op.meta["l"], op.meta["q"]
    x, y, z = res["solution"]
    if x * x != p * y * y + l * z * z:
        return f"({x}, {y}, {z}) does not solve x^2 = {p} y^2 + {l} z^2"
    if x <= 0 or y % 2 or z % q == 0 or math.gcd(math.gcd(x, y), z) != 1:
        return f"({x}, {y}, {z}) is not normalised"
    roots = [r for r in range(q) if r * r % q == p % q]
    symbols = {oracle.legendre(x + y * r, q) for r in roots}
    if len(roots) != 2 or symbols != {res["symbol"]}:
        return f"symbol {res['symbol']}, recomputed {sorted(symbols)}"
    return None


def _corrupt_redei(op, stdout):
    res = _result(op, stdout)
    res["symbol"] = -res["symbol"]
    return _dump(op, stdout, res)


def _check_function_field(op, stdout):
    res = _result(op, stdout)
    return None if res["sum"] == 0 else f"weighted order sum {res['sum']}, expected 0"


def _corrupt_function_field(op, stdout):
    res = _result(op, stdout)
    res["sum"] += 1
    return _dump(op, stdout, res)


CHECKS = {
    "witt mul": (_check_witt, _corrupt_witt),
    "witt add": (_check_witt, _corrupt_witt),
    "witt sub": (_check_witt, _corrupt_witt),
    "witt frobenius": (_check_witt, _corrupt_witt),
    "witt ghost": (_check_witt, _corrupt_witt),
    "zeta count": (_check_zeta, _corrupt_zeta),
    "zeta rational": (_check_zeta, _corrupt_zeta),
    "explicit-formula run": (_check_explicit, _corrupt_explicit),
    "orbits packet": (_check_orbits, _corrupt_orbits),
    "linking table": (_check_linking, _corrupt_linking),
    "zeta ledger curve": (_check_ledger, _corrupt_ledger),
    "zeta ledger quadratic": (_check_ledger, _corrupt_ledger),
    "zeta euler": (_check_euler, _corrupt_euler),
    "redei": (_check_redei, _corrupt_redei),
    "product-formula function-field": (_check_function_field, _corrupt_function_field),
}


def check(op, stdout: str):
    try:
        return CHECKS[op.kind][0](op, stdout)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def corrupt(op, stdout: str) -> str:
    return CHECKS[op.kind][1](op, stdout)
