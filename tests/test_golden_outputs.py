"""Golden exact outputs: the witt and zeta ops of the first two decks of
seed 3 of both perfbench workloads, replayed through cli.main.

tests/data/golden_exact.json holds each op's argv, its variety JSON
inline, its exit code and the sha256 of its stdout and stderr. The
config echo prints the variety path, so each variety is written under
its recorded relative name and the op runs from that directory. The
explicit-formula and arith ops are left out: their float output can
differ between numpy builds and CPUs.

tests/data/golden_zeta_grid.json holds the full stdout, stderr and exit
code of `zeta rational` over --max-n 0..4, --dnum 0..3 and --dden 0..3
on the unit circle and on the elliptic curve y^2 = x^3 + x + 1 over
F_5. The grid covers the refusals (--max-n must be >= 1, series order below
dnum + dden, no rational reconstruction, non-integral coefficients) as
well as the successes.
"""

import hashlib
import json
from pathlib import Path

from wittkit.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "golden_exact.json").read_text())
ZETA_GRID = json.loads((DATA / "golden_zeta_grid.json").read_text())
RENDER_GRID = json.loads((DATA / "golden_render.json").read_text())
# the values each numpy-valued command prints, one per plain line, in order
NUMERIC_VALUES = {
    "explicit-formula run": lambda r: [r["zero_side"], r["prime_side"], r["defect"]]
    + [row["defect"] for row in r["convergence"]],
    "zeta euler": lambda r: [r[k] for k in ("euler", "ruelle", "ulps", "reference", "gap")],
}


def _run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_exact_outputs(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cases = GOLDEN["cases"]
    assert {c["argv"][0] for c in cases} == {"witt", "zeta"}
    mismatches = []
    for case in cases:
        variety = case["variety"]
        if variety:
            Path(variety["name"]).write_text(json.dumps(variety["data"]))
        code, out, err = _run(case["argv"], capsys)
        got = (code, _sha(out), _sha(err))
        want = (case["exit"], case["stdout_sha256"], case["stderr_sha256"])
        if got != want:
            mismatches.append(" ".join(case["argv"]))
    assert not mismatches, f"{len(mismatches)} of {len(cases)} differ: {mismatches[:5]}"


def test_golden_zeta_rational_grid(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, data in ZETA_GRID["varieties"].items():
        Path(name).write_text(json.dumps(data))
    cases = ZETA_GRID["cases"]
    assert len(cases) == 2 * 5 * 4 * 4
    mismatches = [
        " ".join(case["argv"])
        for case in cases
        if _run(case["argv"], capsys) != (case["exit"], case["stdout"], case["stderr"])
    ]
    assert not mismatches, f"{len(mismatches)} of {len(cases)} differ: {mismatches[:5]}"


def test_golden_render_grid(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, data in RENDER_GRID["varieties"].items():
        Path(name).write_text(json.dumps(data))
    cases = RENDER_GRID["cases"]
    assert {c["exit"] for c in cases} == {0, 1, 2}
    mismatches = [
        " ".join(case["argv"])
        for case in cases
        if _run(case["argv"], capsys) != (case["exit"], case["stdout"], case["stderr"])
    ]
    assert not mismatches, f"{len(mismatches)} of {len(cases)} differ: {mismatches[:5]}"
    assert len(RENDER_GRID["numeric"]) == 4
    for argv in RENDER_GRID["numeric"]:
        code, out, err = _run(argv + ["--format", "json"], capsys)
        assert (code, err) == (0, ""), argv
        doc = json.loads(out)
        plain = _run(argv + ["--format", "plain"], capsys)
        assert plain == _run(argv, capsys) and plain[0] == 0, argv
        lines = plain[1].splitlines()
        assert lines[0] == f"# wittkit {doc['command']}"
        values = [float(line.rsplit(" ", 1)[1]) for line in lines[2:]]
        assert values == NUMERIC_VALUES[doc["command"]](doc["result"]), argv
