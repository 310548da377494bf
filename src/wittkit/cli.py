"""Command-line front end.

Subcommands: witt, zeta, orbits, explicit-formula, linking, redei,
product-formula. Every run echoes its resolved configuration; output
goes to stdout or --out. Formats: plain (default), json (validates
against schemas/cli_output.schema.json), csv (tabular results only);
`_render` builds only the format asked for. The tables (linking rows,
ledger entries, orbit listings) are exact tuples of numbers, written by
`_write_table`; their JSON is laid out from the C encoder's output, byte
for byte what json.dumps(doc, indent=2, sort_keys=True) writes with the
pure-Python encoder that indent forces. Exit codes: 0 success, 1
computation error, 2 usage error. The argparse tree is built once per
process (`build_parser` is cached) and reused by every `main` call;
parsing keeps no state between calls.

numpy is imported on first use, inside the library functions that need
it: `zeta count`, `zeta rational`, `zeta euler` and `explicit-formula
run` load it, and the other commands do not. No command loads scipy,
which only the tests and tools/make_gl_table.py use.

Identical invocations produce byte-identical output: no timestamps,
sorted JSON keys, fixed summation orders in the underlying modules.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import counting, explicit, orbits, reciprocity, zeta
from . import parser as wparser
from . import witt as wmod
from .poly import Polynomial, format_poly
from .rings import GF, QQ

# tabular command -> (result key of its rows, column names in row order,
# whether plain output prints the column names); `_write_table` writes the
# rows in the format asked for
TABULAR_COMMANDS = {
    "linking table": ("rows", ("p", "l", "p_mod4", "l_mod4", "sym_pl", "sym_lp", "relation_ok"),
                      True),
    "zeta ledger": ("entries", ("norm", "length", "multiplicity"), False),
}
_TABLE = "\0"  # stands in for a table in the JSON document; no argv string holds a NUL


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    sub.add_argument("--out", default="-", help="output file, - for stdout")


def _pretty_witt(w: wmod.WittVector) -> str:
    num, den = format_poly(w.num), format_poly(w.den)
    if w.den.degree <= 0:
        return num
    return f"({num}) / ({den})"


def _witt_result(w: wmod.WittVector) -> dict:
    data = w.to_json()
    data["pretty"] = _pretty_witt(w)
    return data


def _parse_bump(text: str) -> explicit.TestFunction:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"bump must be '<c>,<r>', got {text!r}")
    return explicit.TestFunction(float(parts[0]), float(parts[1]))


def _parse_coeff_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


# each handler returns (result_object, plain_lines); a tabular one returns
# its rows as tuples under its TABULAR_COMMANDS key and None for the lines

def _run_witt(args) -> tuple:
    op = args.verb
    f = wparser.parse_witt(args.series[0])
    if op == "ghost":
        values = [f.ring.to_json(g) for g in wmod.ghost(f, args.order)]
        return {"ghost": values}, [" ".join(str(v) for v in values)]
    if op == "project":
        value = f.ring.to_json(wmod.canonical_projection(f))
        return {"value": value}, [str(value)]
    if op in ("add", "mul", "sub"):
        g = wparser.parse_witt(args.series[1])
        if f.ring != g.ring:  # an integral text parses over Z, the other over Q
            f, g = f.map_ring(QQ), g.map_ring(QQ)
        w = {"add": wmod.witt_add, "mul": wmod.witt_mul, "sub": wmod.witt_sub}[op](f, g)
    elif op in ("frobenius", "verschiebung"):
        w = (wmod.frobenius if op == "frobenius" else wmod.verschiebung)(f, args.nu)
    else:
        w = f if op == "parse" else wmod.witt_neg(f)
    return _witt_result(w), [_pretty_witt(w)]


def _load_variety(path: str) -> counting.AffineVariety:
    with open(path) as fh:
        return counting.AffineVariety.from_json(json.load(fh))


def _run_zeta(args) -> tuple:
    if args.verb == "count":
        X = _load_variety(args.variety)
        count = counting.count_points(X, args.n, cap=args.cap)
        result = {"p": X.p, "n": args.n, "count": count}
        return result, [f"points over F_{X.p}^{args.n}: {count}"]
    if args.verb == "rational":
        if args.max_n < 1:
            raise ValueError(f"--max-n must be >= 1, got {args.max_n}")
        X = _load_variety(args.variety)
        table = zeta.PointCountTable(
            p=X.p, counts=tuple(counting.point_count_table(X, args.max_n, cap=args.cap))
        )
        w = zeta.zeta_rational(table, args.dnum, args.dden)
        result = _witt_result(w)
        result["counts"] = list(table.counts)
        lines = [_pretty_witt(w), "counts: " + " ".join(str(c) for c in table.counts)]
        return result, lines
    if args.verb == "ledger":
        ledger = zeta.closed_points(args.source, args.bound)
        return {"source": ledger.source, "bound": ledger.bound, "entries": ledger.entries}, None
    if args.verb == "euler":
        ledger = zeta.closed_points(args.source, args.bound)
        euler, ruelle = zeta.euler_vs_ruelle(ledger, args.s, args.bound)
        reference = zeta.zeta_reference(args.s)
        result = {
            "euler": euler,
            "ruelle": ruelle,
            "ulps": zeta.ulp_distance(euler, ruelle),
            "reference": reference,
            "gap": abs(euler - reference),
        }
        lines = [f"{k} = {v!r}" for k, v in result.items()]
        return result, lines
    raise AssertionError(args.verb)


def _run_orbits(args) -> tuple:
    plain = args.format == "plain"  # prints neither the listing nor the generator: no walk
    orbits.check_list_limit(args.list_limit)
    report = (vars(orbits.packet_summary(args.p, args.n)) if plain
              else orbits.packet_report(args.p, args.n, list_limit=args.list_limit))
    lines = [
        f"p = {report['p']}, n = {report['n']}",
        f"faithful characters: {report['faithful_count']}",
        f"orbits: {report['orbit_count']} of length {report['orbit_length']}",
        f"suspension length: {report['suspension_length']!r}",
    ]
    return report, lines


def _run_explicit(args) -> tuple:
    phi = _parse_bump(args.bump)
    zeros = explicit.load_zeros(args.zeros) if args.zeros else explicit.load_bundled_zeros()
    report = explicit.explicit_formula_defect(
        phi, zeros, args.max_zeros, args.prime_bound
    )
    lines = [
        f"zero side  = {report['zero_side']!r}",
        f"prime side = {report['prime_side']!r}",
        f"defect     = {report['defect']!r}",
    ] + [f"K={row['K']}: defect {row['defect']!r}" for row in report["convergence"]]
    return report, lines


def _run_linking(args) -> tuple:
    return {"bound": args.bound, "rows": reciprocity.linking_table(args.bound)}, None


def _run_redei(args) -> tuple:
    detail = reciprocity.redei_symbol(args.p, args.l, args.q, details=True)
    symbol = detail.symbol
    result = {
        "p": args.p, "l": args.l, "q": args.q, "symbol": symbol,
        "solution": list(detail.solution),
        "solutions_checked": detail.solutions_checked,
    }
    lines = [
        f"redei({args.p}, {args.l}, {args.q}) = {symbol}",
        "solution (x, y, z) = {} {} {}".format(*detail.solution),
    ]
    return result, lines


def _run_product_formula(args) -> tuple:
    if args.verb == "rational":
        try:
            value = Fraction(args.value)
        except ZeroDivisionError:
            raise ValueError(f"rational value {args.value!r} has a zero denominator") from None
        orders = zeta.rational_orders(value)
        result = {
            "value": str(value),
            "orders": {str(p): e for p, e in sorted(orders.items())},
            "defect": zeta.product_formula_defect(value),
            "scale": zeta.product_formula_scale(value),
        }
        lines = [f"{k} = {v}" for k, v in result.items()]
        return result, lines
    ring = GF(args.p)
    num_coeffs, den_coeffs = _parse_coeff_list(args.num), _parse_coeff_list(args.den)
    num = Polynomial(ring, num_coeffs)
    den = Polynomial(ring, den_coeffs)
    total = zeta.function_field_product_formula(num, den)
    result = {"p": args.p, "num": num_coeffs, "den": den_coeffs, "sum": total}
    return result, [f"weighted order sum = {total}"]


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="wittkit",
        description="Witt vectors, zeta functions, orbit packets, and "
        "arithmetic linking symbols.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p_witt = sub.add_parser("witt", help="rational Witt vector arithmetic")
    witt_sub = p_witt.add_subparsers(dest="verb", required=True)
    for verb, nargs in (
        ("parse", 1), ("add", 2), ("mul", 2), ("sub", 2), ("neg", 1),
        ("frobenius", 1), ("verschiebung", 1), ("ghost", 1), ("project", 1),
    ):
        p = witt_sub.add_parser(verb)
        p.add_argument("series", nargs=nargs,
                       help="power series as rational expressions in t")
        if verb in ("frobenius", "verschiebung"):
            p.add_argument("nu", type=int)
        if verb == "ghost":
            p.add_argument("--order", type=int, default=8)
        _common_flags(p)
        p.set_defaults(func=_run_witt)

    p_zeta = sub.add_parser("zeta", help="point counts, zeta series, ledgers")
    zeta_sub = p_zeta.add_subparsers(dest="verb", required=True)
    p = zeta_sub.add_parser("count")
    p.add_argument("--variety", required=True, help="variety description (JSON file)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int, default=counting.DEFAULT_ENUM_CAP)
    _common_flags(p)
    p.set_defaults(func=_run_zeta)
    p = zeta_sub.add_parser("rational")
    p.add_argument("--variety", required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--dnum", type=int, required=True)
    p.add_argument("--dden", type=int, required=True)
    p.add_argument("--cap", type=int, default=counting.DEFAULT_ENUM_CAP)
    _common_flags(p)
    p.set_defaults(func=_run_zeta)
    p = zeta_sub.add_parser("ledger")
    p.add_argument("--source", required=True,
                   help="'spec Z', 'quadratic:<d>', or 'curve:<q>'")
    p.add_argument("--bound", type=float, required=True)
    _common_flags(p)
    p.set_defaults(func=_run_zeta)
    p = zeta_sub.add_parser("euler")
    p.add_argument("--source", required=True)
    p.add_argument("--bound", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    _common_flags(p)
    p.set_defaults(func=_run_zeta)

    p_orb = sub.add_parser("orbits", help="finite-level orbit packets")
    orb_sub = p_orb.add_subparsers(dest="verb", required=True)
    p = orb_sub.add_parser("packet")
    p.add_argument("p", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--list-limit", type=int, default=10**4)
    _common_flags(p)
    p.set_defaults(func=_run_orbits, format="json")

    p_exp = sub.add_parser("explicit-formula", help="zero side vs prime side")
    exp_sub = p_exp.add_subparsers(dest="verb", required=True)
    p = exp_sub.add_parser("run")
    p.add_argument("--zeros", default=None,
                   help="zero table file; default: bundled first 1000 zeros")
    p.add_argument("--bump", default="1.5,0.7", help="test function as '<c>,<r>'")
    p.add_argument("--max-zeros", type=int, default=100)
    p.add_argument("--prime-bound", type=int, default=10**4)
    _common_flags(p)
    p.set_defaults(func=_run_explicit)

    p_link = sub.add_parser("linking", help="mod-2 linking of odd prime pairs")
    link_sub = p_link.add_subparsers(dest="verb", required=True)
    p = link_sub.add_parser("table")
    p.add_argument("--bound", type=int, required=True)
    _common_flags(p)
    p.set_defaults(func=_run_linking)

    p_redei = sub.add_parser("redei", help="triple symbol of three primes")
    p_redei.add_argument("p", type=int)
    p_redei.add_argument("l", type=int)
    p_redei.add_argument("q", type=int)
    _common_flags(p_redei)
    p_redei.set_defaults(func=_run_redei, verb=None)

    p_pf = sub.add_parser("product-formula", help="sum of weighted valuations")
    pf_sub = p_pf.add_subparsers(dest="verb", required=True)
    p = pf_sub.add_parser("rational")
    p.add_argument("value", help="rational number, e.g. 12/5 or -- -360/77")
    _common_flags(p)
    p.set_defaults(func=_run_product_formula)
    p = pf_sub.add_parser("function-field")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--num", required=True, help="ascending coefficients, e.g. 1,0,1")
    p.add_argument("--den", required=True, help="ascending coefficients")
    _common_flags(p)
    p.set_defaults(func=_run_product_formula)

    return top


def _command_name(args) -> str:
    if getattr(args, "verb", None):
        return f"{args.command} {args.verb}"
    return args.command


def _config_dict(args) -> dict:
    skip = {"func", "command", "verb"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _write_table(rows, columns, fmt: str):
    """A table of numbers and bools, rows of equal length, as `fmt` prints
    it. For csv and plain: the lines that csv.writer and
    " ".join(map(str, row)) write, one %-format per row. For json: the
    text of json.dumps(rows, indent=2) at depth 2 of the document, where
    result[key] sits, from the C encoder's tokens (json uses it only
    without indent): with no column names each row is an array, laid out
    by str.replace; with them an object, keys sorted, one %-format per row."""
    if fmt != "json":
        row = ("," if fmt == "csv" else " ").join(["%s"] * len(columns))
        return list(map(row.__mod__, rows))
    if not rows:
        return "[]"
    body = json.dumps(rows, separators=(",", ":"))[2:-2]
    inner, item = "\n      ", "\n        "  # the indents of a row and of a value
    if not columns:
        body = body.replace(",", "," + item).replace(f"],{item}[", f"{inner}],{inner}[{item}")
        return f"[{inner}[{item}{body}{inner}]\n    ]"
    width = len(columns)
    tokens = body.replace("],[", ",").split(",")
    order = sorted(range(width), key=columns.__getitem__)
    row = "{" + ",".join(f'{item}"{columns[i]}": %s' for i in order) + inner + "}"
    rows = map(row.__mod__, zip(*[tokens[i::width] for i in order]))
    return f"[{inner}" + f",{inner}".join(rows) + "\n    ]"


def _render(args, result, plain_lines) -> str:
    name = _command_name(args)
    config = _config_dict(args)
    key, columns, plain_columns = TABULAR_COMMANDS.get(name, (None, (), False))
    if args.format == "json":
        if name == "orbits packet":
            key = "orbits"  # its listing: rows without column names
        rows = result.get(key) if key else None
        if rows is not None:  # a placeholder; the table is written apart, by _write_table
            result = {**result, key: _TABLE}
        doc = {"command": name, "config": config, "result": result}
        text = json.dumps(doc, indent=2, sort_keys=True)
        if rows is not None:
            text = text.replace(json.dumps(_TABLE), _write_table(rows, columns, "json"))
        return text + "\n"
    header = [f"# wittkit {name}", "# config: " + " ".join(f"{k}={v}" for k, v in config.items())]
    if key:  # csv output is refused for the other commands
        sep = "," if args.format == "csv" else " "
        plain_lines = [sep.join(columns)] if plain_columns or args.format == "csv" else []
        plain_lines += _write_table(result[key], columns, args.format)
    return "\n".join(header + plain_lines) + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    name = _command_name(args)
    if args.format == "csv" and name not in TABULAR_COMMANDS:  # usage error
        print(
            f"csv output is not available for '{name}'; tabular commands: "
            + ", ".join(sorted(TABULAR_COMMANDS)),
            file=sys.stderr,
        )
        return 2
    try:
        text = _render(args, *args.func(args))
        if args.out == "-":
            sys.stdout.write(text)
        else:
            with open(args.out, "w") as fh:
                fh.write(text)
    except (ValueError, RuntimeError, AssertionError, ArithmeticError, OSError) as exc:
        print(f"wittkit: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
