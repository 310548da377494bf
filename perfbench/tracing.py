"""Outside-in tracing of wittkit's layers.

`Tracer.install()` replaces public functions and methods of the loaded
wittkit modules with wrappers. A name bound by `from ... import` lives
in several modules, so every module attribute that holds the original
object is replaced. Timed wrappers record a span (id, name, start, end,
parent, op); hot leaves that cost about as much as a span are only
counted. Self time is a span's duration minus the time its child spans
cover, accumulated as the spans close, so it needs no second pass.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter

# spans whose self time is reported, and spans whose call count is reported
SELF_TIMED = [
    "cli.build_parser", "cli.main", "parser.parse_witt", "witt.witt_mul",
    "witt.tensor_det", "witt.canon", "poly.gcd", "poly.divmod",
    "series.pade_reconstruct", "series.series_exp", "finitefield.build",
    "counting.count_points", "counting.tables", "zeta.zeta_rational",
    "zeta.count_irreducibles", "zeta.closed_points", "zeta.euler_vs_ruelle",
    "explicit.quad", "explicit.zero_side", "explicit.prime_side", "explicit.load_zeros",
    "orbits.partition", "orbits.packet_report", "reciprocity.linking_table",
    "reciprocity.redei_symbol", "ntheory.primes_upto",
]
CALLS_TIMED = [
    "parser.parse_witt", "witt.canon", "poly.gcd", "poly.divmod", "finitefield.build",
    "counting.count_points", "zeta.count_irreducibles", "explicit.transform",
    "explicit.quad", "orbits.partition",
]
CALLS_COUNTED = [
    "poly.mul", "matrices.solve_linear_system", "finitefield.mul",
    "finitefield.is_irreducible", "reciprocity.legendre", "ntheory.is_prime",
    "ntheory.factorize",
]


def _bits(c) -> int:
    if isinstance(c, int):
        return abs(c).bit_length()
    return max(abs(c.numerator).bit_length(), c.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.op = -1
        self.group = ""
        self.next_id = 0
        self.stack: list[list[int]] = []  # [span id, ns covered by children]
        self.spans = array("q")  # id, name index, start, end, parent id, op
        self.names: list[str] = []
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()  # (op group, span name) -> ns
        self.counts: Counter = Counter()
        self.missing: list[str] = []

    # --- wrappers ---

    def timed(self, name: str, fn, after=None):
        """Span around fn; `after(args, result)` runs outside every span."""
        self.names.append(name)
        idx = len(self.names) - 1
        stack, spans, clock = self.stack, self.spans, time.perf_counter_ns
        calls, total_ns, self_ns = self.calls, self.total_ns, self.self_ns

        def wrapper(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                calls[name] += 1
                total_ns[name] += dur
                self_ns[self.group, name] += dur - frame[1]
                spans.extend((sid, idx, t0, t1, parent, self.op))
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(args, result)
                if stack:
                    stack[-1][1] += clock() - t1
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- patching ---

    def _replace(self, module: str, attr: str, make) -> None:
        """Replace module.attr in every wittkit module that holds it."""
        mod = sys.modules.get(module)
        orig = getattr(mod, attr, None)
        if orig is None:
            self.missing.append(f"{module}.{attr}")
            return
        new = make(orig)
        for m in [m for n, m in sys.modules.items() if n.split(".")[0] == "wittkit"]:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, new)

    def _method(self, module: str, cls: str, attr: str, make) -> None:
        klass = getattr(sys.modules.get(module), cls, None)
        if klass is None or attr not in vars(klass):
            self.missing.append(f"{module}.{cls}.{attr}")
            return
        setattr(klass, attr, make(vars(klass)[attr]))

    def install(self) -> None:
        import wittkit.cli  # noqa: F401  loads every module the CLI uses

        T, C = self.timed, self.counted

        def fn(module, attr, name, after=None):
            self._replace(module, attr, lambda f: T(name, f, after))

        def count(module, attr, name):
            self._replace(module, attr, lambda f: C(name, f))

        fn("wittkit.cli", "build_parser", "cli.build_parser")
        fn("wittkit.cli", "main", "cli.main")
        fn("wittkit.parser", "parse_witt", "parser.parse_witt")
        fn("wittkit.witt", "witt_mul", "witt.witt_mul")
        fn("wittkit.witt", "tensor_det", "witt.tensor_det")
        self._method("wittkit.witt", "WittVector", "__init__",
                     lambda f: T("witt.canon", f))
        self._method("wittkit.poly", "Polynomial", "gcd",
                     lambda f: T("poly.gcd", f, self._gcd_after))
        self._method("wittkit.poly", "Polynomial", "divmod", lambda f: T("poly.divmod", f))
        self._method("wittkit.poly", "Polynomial", "__mul__", lambda f: C("poly.mul", f))
        fn("wittkit.series", "pade_reconstruct", "series.pade_reconstruct")
        fn("wittkit.series", "series_exp", "series.series_exp")
        count("wittkit.matrices", "solve_linear_system", "matrices.solve_linear_system")
        self._method("wittkit.finitefield", "FiniteField", "__init__",
                     lambda f: T("finitefield.build", f))
        self._method("wittkit.finitefield", "FiniteField", "mul",
                     lambda f: C("finitefield.mul", f))
        count("wittkit.finitefield", "_is_irreducible", "finitefield.is_irreducible")
        fn("wittkit.counting", "count_points", "counting.count_points", self._points_after)
        self._method("wittkit.counting", "_FieldTables", "__init__",
                     lambda f: T("counting.tables", f))
        fn("wittkit.zeta", "zeta_rational", "zeta.zeta_rational")
        fn("wittkit.zeta", "count_irreducibles", "zeta.count_irreducibles")
        fn("wittkit.zeta", "closed_points", "zeta.closed_points")
        fn("wittkit.zeta", "euler_vs_ruelle", "zeta.euler_vs_ruelle")
        self._replace("wittkit.explicit", "transform", self._transform)
        self._replace("wittkit.explicit", "_quad_doubling", self._quad)
        fn("wittkit.explicit", "zero_side", "explicit.zero_side")
        fn("wittkit.explicit", "prime_side", "explicit.prime_side")
        fn("wittkit.explicit", "load_zeros", "explicit.load_zeros")
        fn("wittkit.orbits", "_orbit_partition", "orbits.partition")
        fn("wittkit.orbits", "packet_report", "orbits.packet_report")
        count("wittkit.reciprocity", "legendre", "reciprocity.legendre")
        fn("wittkit.reciprocity", "linking_table", "reciprocity.linking_table")
        fn("wittkit.reciprocity", "redei_symbol", "reciprocity.redei_symbol")
        self._replace("wittkit.reciprocity", "_redei_solutions", self._redei_search)
        count("wittkit.ntheory", "is_prime", "ntheory.is_prime")
        fn("wittkit.ntheory", "primes_upto", "ntheory.primes_upto")
        count("wittkit.ntheory", "factorize", "ntheory.factorize")

    # --- per-layer counters ---

    def _gcd_after(self, args, result) -> None:
        bits = max((_bits(c) for p in args[:2] for c in p.coeffs), default=0)
        if bits > self.counts["poly.gcd.max_bits"]:
            self.counts["poly.gcd.max_bits"] = bits
        if result.degree > 0:
            self.counts["poly.gcd.nontrivial"] += 1

    def _points_after(self, args, result) -> None:
        X, n = args[0], args[1]
        self.counts["counting.points"] += X.p ** (X.nvars * n)

    def _transform(self, f):
        inner = self.timed("explicit.transform", f)

        def transform(*args, **kwargs):
            before = self.calls["explicit.quad"]
            result = inner(*args, **kwargs)
            if self.calls["explicit.quad"] == before:
                self.counts["explicit.transform.hits"] += 1
            return result

        return transform

    def _quad(self, f):
        inner = self.timed("explicit.quad", f)
        counts = self.counts

        def quad(vec_f, a, b):
            def counted_f(t):
                counts["explicit.quad.nodes"] += len(t)
                return vec_f(t)

            return inner(counted_f, a, b)

        return quad

    def _redei_search(self, f):
        def search(p, l, q, bound):
            steps = (bound - bound // q) * (bound // 2 + 1)
            self.counts["reciprocity.redei.search_steps"] += steps
            return f(p, l, q, bound)

        return search

    # --- results ---

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        self_ns: Counter = Counter()
        for (_, name), ns in self.self_ns.items():
            self_ns[name] += ns
        for name in SELF_TIMED:
            out[f"{name}.self_s"] = self_ns[name] / 1e9
        for name in CALLS_TIMED:
            out[f"{name}.calls"] = self.calls[name]
        for name in CALLS_COUNTED:
            out[f"{name}.calls"] = self.counts[name]
        c = self.counts
        gcd_calls = self.calls["poly.gcd"]
        transforms = self.calls["explicit.transform"]
        count_s = self.total_ns["counting.count_points"] / 1e9
        out["poly.gcd.max_bits"] = c["poly.gcd.max_bits"]
        out["poly.gcd.nontrivial_ratio"] = c["poly.gcd.nontrivial"] / gcd_calls if gcd_calls else 0.0
        out["counting.points"] = c["counting.points"]
        out["counting.points_per_s"] = c["counting.points"] / count_s if count_s else 0.0
        out["explicit.transform.hit_ratio"] = (
            c["explicit.transform.hits"] / transforms if transforms else 0.0)
        out["explicit.quad.nodes"] = c["explicit.quad.nodes"]
        out["reciprocity.redei.search_steps"] = c["reciprocity.redei.search_steps"]
        return out

    def self_shares(self) -> dict[str, dict[str, float]]:
        """Per op group, each span name's share of the group's op time,
        largest first; every op runs inside its cli.main span."""
        totals: Counter = Counter()
        for (group, _), ns in self.self_ns.items():
            totals[group] += ns
        return {
            group: {name: ns / totals[group]
                    for (g, name), ns in self.self_ns.most_common() if g == group}
            for group in totals
        }

    def write_spans(self, path) -> None:
        s = self.spans
        with open(path, "w") as fh:
            for i in range(0, len(s), 6):
                fh.write(json.dumps({
                    "id": s[i], "name": self.names[s[i + 1]], "start_ns": s[i + 2],
                    "end_ns": s[i + 3], "parent": s[i + 4], "op": s[i + 5],
                }) + "\n")
