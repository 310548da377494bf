"""Golden exact outputs: the witt and zeta ops of the first two decks of
seed 3 of both perfbench workloads, replayed through cli.main.

tests/data/golden_exact.json holds each op's argv, its variety JSON
inline, its exit code and the sha256 of its stdout and stderr. The
config echo prints the variety path, so each variety is written under
its recorded relative name and the op runs from that directory. The
explicit-formula and arith ops are left out: their float output can
differ between numpy builds and CPUs.
"""

import hashlib
import json
from pathlib import Path

from wittkit.cli import main

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_exact.json").read_text())


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
        try:
            code = main(case["argv"])
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        got = (code, _sha(out), _sha(err))
        want = (case["exit"], case["stdout_sha256"], case["stderr_sha256"])
        if got != want:
            mismatches.append(" ".join(case["argv"]))
    assert not mismatches, f"{len(mismatches)} of {len(cases)} differ: {mismatches[:5]}"
