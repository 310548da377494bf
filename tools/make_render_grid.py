#!/usr/bin/env python3
"""Regenerate the golden render grid of the CLI.

Runs every command and verb through `wittkit.cli.main` in each of the
formats plain, json and csv and with no --format at all, in-process,
from a temporary directory holding the grid's variety files under
their relative names (the config echo prints the path). The grid takes
in the csv refusals (exit 2), the computation refusals (exit 1) and the
edge cases of the two tabular commands: a header and no rows, a bound
refused as too small, the cap and the sieve limit.

Each case stores its argv, exit code and full stdout and stderr, except
the successful `explicit-formula run` and `zeta euler` runs: their
values come from numpy and can differ between numpy builds, so only
their argv (without --format) is stored and
tests/test_golden_outputs.py checks that the json result and the plain
lines of each carry the same values. Argparse usage errors are left
out, as their wording differs between Python versions. Run from the
repository root:

    PYTHONPATH=src python3 tools/make_render_grid.py [outfile]
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

from wittkit.cli import main as cli_main

FORMATS = (["--format", "plain"], ["--format", "json"], ["--format", "csv"], [])
NUMPY_VALUED = {("explicit-formula", "run"), ("zeta", "euler")}
VARIETIES = {
    # y^2 = x^3 + x over F_5, written as 4y^2 + x^3 + x = 0
    "curve5.json": {"p": 5, "vars": 2, "equations": [[[4, [0, 2]], [1, [3, 0]], [1, [1, 0]]]]},
    # the unit circle x^2 + y^2 = 1 over F_7
    "circle7.json": {"p": 7, "vars": 2,
                     "equations": [[[1, [2, 0]], [1, [0, 2]], [-1, [0, 0]]]]},
}
BASE_ARGVS = [
    ["witt", "parse", "(1-2t)/(1-3t)"],
    ["witt", "parse", "1-t/2"],
    ["witt", "add", "1-2t", "1-3t"],
    ["witt", "mul", "(1-2t)", "(1-3t)"],
    ["witt", "mul", "1-t", "(2-t)/2"],
    ["witt", "sub", "1-5t+6t^2", "1-2t"],
    ["witt", "neg", "1-2t"],
    ["witt", "frobenius", "1-5t+6t^2", "2"],
    ["witt", "verschiebung", "1-3t", "2"],
    ["witt", "ghost", "1-5t+6t^2", "--order", "4"],
    ["witt", "ghost", "1-t/2"],
    ["witt", "project", "1-5t+6t^2"],
    ["witt", "mul", "(2-t)", "(1-t)"],
    ["witt", "frobenius", "1-2t", "100000"],
    ["zeta", "count", "--variety", "curve5.json", "--n", "2"],
    ["zeta", "count", "--variety", "circle7.json", "--n", "3"],
    ["zeta", "rational", "--variety", "curve5.json", "--max-n", "4", "--dnum", "2", "--dden", "2"],
    ["zeta", "rational", "--variety", "circle7.json", "--max-n", "0", "--dnum", "1", "--dden", "1"],
    ["zeta", "ledger", "--source", "spec Z", "--bound", "20"],
    ["zeta", "ledger", "--source", "quadratic:-4", "--bound", "30"],
    ["zeta", "ledger", "--source", "curve:2", "--bound", "32"],
    ["zeta", "ledger", "--source", "spec Z", "--bound", "5"],
    ["zeta", "ledger", "--source", "spec Z", "--bound", "-1"],
    ["zeta", "ledger", "--source", "spec Z", "--bound", "1e12"],
    ["zeta", "ledger", "--source", "curve:2", "--bound", "inf"],
    ["zeta", "ledger", "--source", "motives", "--bound", "10"],
    ["zeta", "euler", "--source", "spec Z", "--bound", "100", "--s", "2"],
    ["zeta", "euler", "--source", "quadratic:-4", "--bound", "50", "--s", "3"],
    ["zeta", "euler", "--source", "spec Z", "--bound", "100", "--s", "nan"],
    ["orbits", "packet", "2", "3"],
    ["orbits", "packet", "3", "4", "--list-limit", "2"],
    ["orbits", "packet", "2", "40"],
    ["explicit-formula", "run", "--max-zeros", "10", "--prime-bound", "100"],
    ["explicit-formula", "run", "--bump", "2,0.5", "--max-zeros", "100", "--prime-bound", "1000"],
    ["explicit-formula", "run", "--max-zeros", "10", "--prime-bound", "1"],
    ["explicit-formula", "run", "--bump", "nan,1"],
    ["linking", "table", "--bound", "12"],
    ["linking", "table", "--bound", "30"],
    ["linking", "table", "--bound", "5"],
    ["linking", "table", "--bound", "-1"],
    ["linking", "table", "--bound", "2001"],
    ["redei", "5", "41", "61"],
    ["redei", "3", "41", "61"],
    ["product-formula", "rational", "12/5"],
    ["product-formula", "rational", "-3.5"],
    ["product-formula", "rational", "1/0"],
    ["product-formula", "function-field", "--p", "3", "--num", "1,0,1", "--den", "0,1"],
]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def main(argv):
    out_path = os.path.abspath(argv[1] if len(argv) > 1 else "tests/data/golden_render.json")
    rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                         text=True).stdout.strip()
    cases, numeric = [], []
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name, data in VARIETIES.items():
            with open(name, "w") as fh:
                json.dump(data, fh)
        for base in BASE_ARGVS:
            formats = FORMATS
            if tuple(base[:2]) in NUMPY_VALUED and run(base)[0] == 0:
                numeric.append(base)
                formats = (["--format", "csv"],)  # the refusal prints no value
            for fmt in formats:
                code, out, err = run(base + fmt)
                cases.append({"argv": base + fmt, "exit": code, "stdout": out, "stderr": err})
    doc = {
        "generated_by": "tools/make_render_grid.py",
        "rev": rev,
        "varieties": VARIETIES,
        "cases": cases,
        "numeric": numeric,
    }
    with open(out_path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(cases)} cases and {len(numeric)} numeric argvs to {out_path}",
          file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv)
