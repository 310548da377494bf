"""Command-line front end.

Subcommands: witt, zeta, orbits, explicit-formula, linking, redei,
product-formula. Every run echoes its resolved configuration; output
goes to stdout or --out. Formats: plain (default), json (validates
against schemas/cli_output.schema.json), csv (tabular results only);
`_render` builds only the format asked for. JSON is byte for byte what
json.dumps(doc, indent=2, sort_keys=True) writes (its pure-Python
encoder, as indent is set): `_write_json` writes it in one recursion and
splices in the tables (linking rows, ledger entries, orbit listings:
exact tuples of numbers) that `_write_table` lays out from the C
encoder's output. Exit codes: 0 success, 1 computation error, 2 usage
error. `main` first tries `_parse_canonical`, which reads the leaves of
the cached argparse tree (`build_parser`) and returns its Namespace for
argv in canonical form; argparse parses the rest (help, abbreviations,
--flag=value, --, negative numbers, every usage error) and writes all
usage text. Parsing keeps no state between calls.

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
from json.encoder import encode_basestring_ascii

from . import counting, explicit, orbits, reciprocity, zeta
from . import parser as wparser
from . import witt as wmod
from .poly import Polynomial, format_poly
from .rings import GF, QQ
from .util import over_cap

# tabular command -> (result key of its rows, column names in row order,
# whether plain output prints the column names); `_write_table` writes the
# rows in the format asked for
TABULAR_COMMANDS = {
    "linking table": ("rows", ("p", "l", "p_mod4", "l_mod4", "sym_pl", "sym_lp", "relation_ok"),
                      True),
    "zeta ledger": ("entries", ("norm", "length", "multiplicity"), False),
}


def _common_flags(sub: argparse.ArgumentParser, func, **defaults) -> None:
    sub.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    sub.add_argument("--out", default="-", help="output file, - for stdout")
    sub.set_defaults(func=func, **defaults)


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
        if op != "mul":  # witt_add multiplies num by num, witt_sub num by den
            wparser.check_ring_op(f"witt {op}", (f.num, f.den),
                                  (g.num, g.den) if op == "add" else (g.den, g.num))
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

    def verbs(name: str, about: str):  # a command parser and the subparsers of its verbs
        return sub.add_parser(name, help=about).add_subparsers(dest="verb", required=True)

    witt_sub = verbs("witt", "rational Witt vector arithmetic")
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
        _common_flags(p, _run_witt)

    zeta_sub = verbs("zeta", "point counts, zeta series, ledgers")
    p = zeta_sub.add_parser("count")
    p.add_argument("--variety", required=True, help="variety description (JSON file)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int, default=counting.DEFAULT_ENUM_CAP)
    _common_flags(p, _run_zeta)
    p = zeta_sub.add_parser("rational")
    p.add_argument("--variety", required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--dnum", type=int, required=True)
    p.add_argument("--dden", type=int, required=True)
    p.add_argument("--cap", type=int, default=counting.DEFAULT_ENUM_CAP)
    _common_flags(p, _run_zeta)
    p = zeta_sub.add_parser("ledger")
    p.add_argument("--source", required=True,
                   help="'spec Z', 'quadratic:<d>', or 'curve:<q>'")
    p.add_argument("--bound", type=float, required=True)
    _common_flags(p, _run_zeta)
    p = zeta_sub.add_parser("euler")
    p.add_argument("--source", required=True)
    p.add_argument("--bound", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    _common_flags(p, _run_zeta)

    orb_sub = verbs("orbits", "finite-level orbit packets")
    p = orb_sub.add_parser("packet")
    p.add_argument("p", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--list-limit", type=int, default=10**4)
    _common_flags(p, _run_orbits, format="json")

    exp_sub = verbs("explicit-formula", "zero side vs prime side")
    p = exp_sub.add_parser("run")
    p.add_argument("--zeros", default=None,
                   help="zero table file; default: bundled first 1000 zeros")
    p.add_argument("--bump", default="1.5,0.7", help="test function as '<c>,<r>'")
    p.add_argument("--max-zeros", type=int, default=100)
    p.add_argument("--prime-bound", type=int, default=10**4)
    _common_flags(p, _run_explicit)

    link_sub = verbs("linking", "mod-2 linking of odd prime pairs")
    p = link_sub.add_parser("table")
    p.add_argument("--bound", type=int, required=True)
    _common_flags(p, _run_linking)

    p_redei = sub.add_parser("redei", help="triple symbol of three primes")
    p_redei.add_argument("p", type=int)
    p_redei.add_argument("l", type=int)
    p_redei.add_argument("q", type=int)
    _common_flags(p_redei, _run_redei, verb=None)

    pf_sub = verbs("product-formula", "sum of weighted valuations")
    p = pf_sub.add_parser("rational")
    p.add_argument("value", help="rational number, e.g. 12/5 or -- -360/77")
    _common_flags(p, _run_product_formula)
    p = pf_sub.add_parser("function-field")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--num", required=True, help="ascending coefficients, e.g. 1,0,1")
    p.add_argument("--den", required=True, help="ascending coefficients")
    _common_flags(p, _run_product_formula)

    return top


@functools.lru_cache(maxsize=1)
def _canonical_table(top: argparse.ArgumentParser) -> dict:
    """{command words: (options by string, positionals, Namespace defaults)} of each leaf."""
    table = {}

    def walk(p, words, ns):
        acts = [a for a in p._actions if a.default is not argparse.SUPPRESS]  # not -h
        sub = next((a for a in acts if type(a) is argparse._SubParsersAction), None)
        for word, q in sub.choices.items() if sub else ():
            walk(q, words + (word,), {**ns, sub.dest: word})
        if not sub:
            table[words] = ({s: a for a in acts for s in a.option_strings},
                            [a for a in acts if not a.option_strings],
                            {**ns, **p._defaults, **{a.dest: a.default for a in acts}})

    walk(top, (), {})
    return table


def _parse_canonical(argv):
    """build_parser().parse_args(argv) for argv in canonical form (command words, each
    option once as its exact string and a value, one run of positionals, no other "-"
    token, every check passing), else None."""
    table = _canonical_table(build_parser())
    words = next((w for w in (tuple(argv[:1]), tuple(argv[:2])) if w in table), None)
    if words is None:
        return None
    options, positionals, defaults = table[words]
    given, run, i = {}, [], len(words)  # action -> its value tokens
    try:
        while i < len(argv):
            j = next((j for j in range(i, len(argv)) if argv[j][:1] == "-"), len(argv))
            a = None if j > i else options.get(argv[i])
            if j > i and not run:
                run, i = argv[i:j], j
            elif a is None or a in given or argv[i + 1][:1] == "-":
                return None
            else:
                given[a], i = argv[i + 1:i + 2], i + 2
        if len(run) != sum(a.nargs or 1 for a in positionals) or any(
                a.required and a not in given for a in options.values()):
            return None
        for a in positionals:
            given[a], run = run[:a.nargs or 1], run[a.nargs or 1:]
        for a, texts in given.items():
            values = [a.type(text) if a.type else text for text in texts]
            if a.choices is not None and any(v not in a.choices for v in values):
                return None
            given[a] = values if a.nargs else values[0]
    except (IndexError, TypeError, ValueError, argparse.ArgumentTypeError):
        return None
    return argparse.Namespace(**{**defaults, **{a.dest: v for a, v in given.items()}})


def _command_name(args) -> str:
    if getattr(args, "verb", None):
        return f"{args.command} {args.verb}"
    return args.command


def _config_dict(args) -> dict:
    skip = {"func", "command", "verb"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _write_table(rows, columns, fmt: str):
    """A table of numbers and bools, rows of equal length, as `fmt` prints it: for csv
    and plain the lines csv.writer and " ".join(map(str, row)) write, one %-format per
    row; for json the text of json.dumps(rows, indent=2) at depth 2, where result[key]
    sits, from the tokens of the C encoder, which json uses only without indent: each
    row an array laid out by str.replace, or with column names an object, keys sorted."""
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


class _Spliced(str):
    """JSON text that _write_json copies as it stands: a table _write_table laid out."""


def _write_json(value, pad: str, out: list) -> list:
    """Append to `out` what json.dumps(value, indent=2, sort_keys=True) writes for `value`
    at indent `pad`, by json's token writers in one recursion; dict keys must be str."""
    if isinstance(value, str):
        out.append(value if type(value) is _Spliced else encode_basestring_ascii(value))
    elif value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))  # above 4,300 digits, json's ValueError
    elif isinstance(value, float):  # repr writes nan and inf for json's NaN and Infinity
        out.append(float.__repr__(value).replace("nan", "NaN").replace("inf", "Infinity"))
    elif isinstance(value, (list, tuple, dict)):
        is_dict, inner = isinstance(value, dict), pad + "  "
        opening, closing = "{}" if is_dict else "[]"
        sep = opening + "\n" + inner
        for item in sorted(value.items()) if is_dict else value:
            out.append(sep + encode_basestring_ascii(item[0]) + ": " if is_dict else sep)
            sep = ",\n" + inner
            _write_json(item[1] if is_dict else item, inner, out)
        out.append("\n" + pad + closing if value else opening + closing)
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")
    return out


def _render(args, result, plain_lines) -> str:
    name = _command_name(args)
    config = _config_dict(args)
    key, columns, plain_columns = TABULAR_COMMANDS.get(name, (None, (), False))
    if args.format == "json":
        if name == "orbits packet":
            key = "orbits"  # its listing: rows without column names
        if key and result.get(key) is not None:  # at depth 2, where _write_table lays it out
            result = {**result, key: _Spliced(_write_table(result[key], columns, "json"))}
        return "".join(_write_json({"command": name, "config": config, "result": result},
                                   "", [])) + "\n"
    header = [f"# wittkit {name}", "# config: " + " ".join(f"{k}={v}" for k, v in config.items())]
    if key:  # csv output is refused for the other commands
        sep = "," if args.format == "csv" else " "
        plain_lines = [sep.join(columns)] if plain_columns or args.format == "csv" else []
        plain_lines += _write_table(result[key], columns, args.format)
    return "\n".join(header + plain_lines) + "\n"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_canonical(argv) or build_parser().parse_args(argv)
    if [] in vars(args).values():  # argparse of 3.10 and 3.11 reads --flag=-- as []:
        build_parser().parse_args([s for t in argv for s in (  # refused here as --flag --
            (t[:-3], "--") if t[:1] == "-" and " " not in t and t.partition("=")[2] == "--"
            else (t,))])
        return 2  # not reached: the first such t is an option, and "--" never fills one
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
        if "for integer string conversion;" in str(exc):  # int -> str, not str -> int
            cap = sys.get_int_max_str_digits()
            exc = over_cap("printing an integer", f"over {cap} digits", cap)
        print(f"wittkit: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
