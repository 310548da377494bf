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
