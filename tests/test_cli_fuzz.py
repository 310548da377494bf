"""The CLI on argvs drawn from each command's declarations, with values from
an edge pool: zero, huge and non-finite numbers, 10-digit and 1,400-digit
coefficients, malformed and deeply nested expressions, sources and fields
past their caps. Every case must exit 0, 1 or 2 within its time budget,
with no traceback. An exit-1 refusal is one `wittkit: error:` line, and
one that speaks of a cap, a limit or an excess is worded in the one shape
of util.over_cap. The draw is seeded from property_seed(), so
WITT_ORBIT_SEED replays it."""

import contextlib
import io
import json
import re
import time
from pathlib import Path

import hypothesis

from oracles import property_seed
from test_generated_oracles import _ARGV_VALUES, _argvs, _leaves
from wittkit import cli

CASE_BUDGET_S = 10.0  # catches runaways; about 1 s per case is a later goal
_HUGE = ["0", str(10**7), str(10**12), str(10**30)]
_INTS = _HUGE + ["2", "3", "5", "41"]
# edge values first, then ordinary ones that reach the work behind the refusals
EDGE_VALUES = {
    int: (_INTS, _ARGV_VALUES[int][1]),
    float: (_HUGE + ["nan", "inf", "1e300", "2", "32", "0.5"], _ARGV_VALUES[float][1]),
    None: (_HUGE + [
        "nan", "inf", "1e300", "1-9999999999t", "(1-7^500t)^8", "t^1000000000",
        "(" * 401 + "1-t" + ")" * 401, "1/0", "2-t", "(", "quadratic:20001", "curve:1000003",
        "1-t", "(1-2t)/(1-3t)", "1-3t/2", "spec Z", "curve:2", "quadratic:5", "1,0,1", "v.json",
    ], _ARGV_VALUES[None][1]),
    # fields such as 2 31 and 1009 3, for the p and n of a field
    "p": (_INTS + ["31", "1009"], _ARGV_VALUES[int][1]),
    "n": (_INTS + ["31", "23"], _ARGV_VALUES[int][1]),
    # --cap, the one flag that raises a cap, stays at or below its default: above
    # it the user asks for the work, and a field of up to 10^7 elements builds its
    # tables for minutes in gigabytes (F_5^10 at --cap 10^30)
    "cap": (["0", "10", str(10**7), str(10**8)], _ARGV_VALUES[int][1]),
}
# a size refusal says cap, limit or exceed; a flag such as --list-limit is not one
SIZE_WORDS = re.compile(r"(?<![\w-])(caps?|limits?|exceed\w*)\b", re.I)
ONE_SHAPE = re.compile(r"wittkit: error: \S.* needs \S.*, above the cap -?\d+"
                       r"(; --[a-z-]+ raises it)?( at position \d+)?\n")


def test_cli_edge_values(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    circle = json.dumps({"p": 5, "vars": 2, "equations": [[[1, [2, 0]], [1, [0, 2]],
                                                           [-1, [0, 0]]]]})
    leaves = _leaves(cli.build_parser())
    faults, times = [], []

    @hypothesis.seed(property_seed() + 54)
    @hypothesis.settings(max_examples=2000, deadline=None, database=None)
    @hypothesis.given(_argvs(leaves, EDGE_VALUES))
    def check(argv):
        Path("v.json").write_text(circle)  # --out may have written over it
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
            except BaseException as exc:  # noqa: BLE001 - any escape is a fault
                code = repr(exc)
        times.append((time.perf_counter() - start, argv))
        err = err.getvalue()
        if code not in (0, 1, 2) or "Traceback" in out.getvalue() + err:
            faults.append((argv, code, err))
        elif code == 1 and not (err.startswith("wittkit: error: ") and err.count("\n") == 1
                                and err.endswith("\n")):
            faults.append((argv, "not one line", err))
        elif code == 1 and SIZE_WORDS.search(err) and not ONE_SHAPE.fullmatch(err):
            faults.append((argv, "not the one shape", err))

    check()
    slowest = max(times, key=lambda pair: pair[0])
    assert not faults, faults[:5]
    assert slowest[0] < CASE_BUDGET_S, f"slowest case {slowest[0]:.2f} s: {slowest[1]}"
