import json
import os
from importlib import resources

import jsonschema
import pytest

from wittkit.cli import main
from wittkit.util import DEFAULT_PROPERTY_SEED, property_seed

SCHEMA = json.loads(
    resources.files("wittkit").joinpath("schemas/cli_output.schema.json").read_text()
)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv + ["--format", "json"])
    assert code == 0, err
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    return doc


def variety_file(tmp_path):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({
        "p": 5, "vars": 2,
        "equations": [[[4, [0, 2]], [1, [3, 0]], [1, [1, 0]]]],
    }))
    return str(path)


def test_witt_mul_example(capsys):
    code, out, err = run_cli(capsys, ["witt", "mul", "(1-2t)", "(1-3t)"])
    assert code == 0
    body = [line for line in out.splitlines() if not line.startswith("#")]
    assert body == ["1 - 6t"]
    # the header echoes the resolved configuration
    assert any("format=plain" in line for line in out.splitlines())


def test_witt_mul_rejects_non_witt(capsys):
    code, out, err = run_cli(capsys, ["witt", "mul", "(2-t)", "(1-t)"])
    assert code == 1
    assert "not a Witt vector" in err
    assert out == ""


def test_orbits_packet_example(capsys):
    code, out, err = run_cli(capsys, ["orbits", "packet", "2", "3"])
    assert code == 0
    doc = json.loads(out)  # json is the default format here
    jsonschema.validate(doc, SCHEMA)
    assert doc["result"]["orbit_count"] == 2
    assert doc["result"]["orbit_length"] == 3


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["witt", "mul", "(1-t)", "(1-2t)", "--bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_csv_only_for_tabular(capsys):
    code, out, err = run_cli(capsys, ["witt", "mul", "(1-2t)", "(1-3t)",
                                      "--format", "csv"])
    assert code == 2
    assert "csv output is not available" in err


def test_json_outputs_validate(capsys, tmp_path):
    curve = variety_file(tmp_path)
    invocations = [
        ["witt", "parse", "(1-2t)/(1-3t)"],
        ["witt", "add", "(1-2t)", "(1-3t)"],
        ["witt", "mul", "(1-2t)", "(1-3t)"],
        ["witt", "sub", "(1-5t+6t^2)", "(1-2t)"],
        ["witt", "neg", "(1-2t)"],
        ["witt", "frobenius", "(1-5t+6t^2)", "2"],
        ["witt", "verschiebung", "(1-3t)", "2"],
        ["witt", "ghost", "(1-5t+6t^2)", "--order", "4"],
        ["witt", "project", "(1-5t+6t^2)"],
        ["zeta", "count", "--variety", curve, "--n", "2"],
        ["zeta", "rational", "--variety", curve, "--max-n", "4",
         "--dnum", "2", "--dden", "2"],
        ["zeta", "ledger", "--source", "spec Z", "--bound", "20"],
        ["zeta", "euler", "--source", "spec Z", "--bound", "100", "--s", "2"],
        ["orbits", "packet", "3", "2"],
        ["explicit-formula", "run", "--max-zeros", "10", "--prime-bound", "100"],
        ["linking", "table", "--bound", "12"],
        ["redei", "5", "41", "61"],
        ["product-formula", "rational", "12/5"],
        ["product-formula", "function-field", "--p", "3",
         "--num", "1,0,1", "--den", "0,1"],
    ]
    for argv in invocations:
        doc = run_json(capsys, argv)
        assert doc["command"]
        assert isinstance(doc["config"], dict)


def test_json_spot_values(capsys, tmp_path):
    doc = run_json(capsys, ["witt", "mul", "(1-2t)", "(1-3t)"])
    assert doc["result"] == {
        "num": [1, -6], "den": [1], "ring": "Z", "pretty": "1 - 6t"
    }
    doc = run_json(capsys, ["witt", "ghost", "(1-5t+6t^2)", "--order", "3"])
    assert doc["result"]["ghost"] == [5, 13, 35]
    doc = run_json(capsys, ["redei", "5", "41", "61"])
    assert doc["result"]["symbol"] == -1
    doc = run_json(capsys, ["zeta", "rational", "--variety", variety_file(tmp_path),
                            "--max-n", "4", "--dnum", "2", "--dden", "2"])
    assert doc["result"]["num"] == [1, -2, 5]
    assert doc["result"]["counts"] == [3, 31, 147, 639]
    doc = run_json(capsys, ["product-formula", "rational", "12/5"])
    assert doc["result"]["orders"] == {"2": 2, "3": 1, "5": -1}
    assert doc["result"]["defect"] < 1e-12 * (1 + doc["result"]["scale"])


def test_byte_identical_runs(capsys):
    outputs = []
    for _ in range(2):
        code, out, err = run_cli(capsys, ["orbits", "packet", "2", "4"])
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    for _ in range(2):
        code, out, err = run_cli(
            capsys,
            ["explicit-formula", "run", "--max-zeros", "10",
             "--prime-bound", "100", "--format", "json"],
        )
        assert code == 0
        outputs.append(out)
    assert outputs[2] == outputs[3]


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "result.json"
    code, out, err = run_cli(capsys, ["witt", "mul", "(1-2t)", "(1-3t)",
                                      "--format", "json", "--out", str(target)])
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    jsonschema.validate(doc, SCHEMA)
    assert doc["result"]["pretty"] == "1 - 6t"


def test_linking_csv_round_trip(capsys):
    code, out, err = run_cli(capsys, ["linking", "table", "--bound", "12",
                                      "--format", "csv"])
    assert code == 0
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    assert rows[0] == "p,l,p_mod4,l_mod4,sym_pl,sym_lp,relation_ok"
    assert len(rows) == 13  # header + 12 ordered pairs
    assert rows[1].startswith("3,5,")


def test_computation_error_messages(capsys):
    code, out, err = run_cli(capsys, ["zeta", "ledger", "--source", "motives",
                                      "--bound", "10"])
    assert code == 1
    assert "unsupported source" in err
    code, out, err = run_cli(capsys, ["redei", "3", "41", "61"])
    assert code == 1
    assert "not 1 mod 4" in err


def test_malformed_variety_file_refused(capsys, tmp_path):
    cases = [
        ({}, "missing field 'p'"),
        ({"p": 5, "vars": 2, "equations": 7}, "field 'equations' must be"),
        ({"p": "5", "vars": 2, "equations": []}, "field 'p' must be an integer"),
        ({"p": 5, "equations": []}, "missing field 'vars'"),
        ({"p": 5, "vars": 2, "equations": [[[1, 2]]]}, "field 'equations' must be"),
        ([5, 2], "must be a JSON object"),
    ]
    path = tmp_path / "bad.json"
    for data, message in cases:
        path.write_text(json.dumps(data))
        for verb in (["count", "--n", "1"], ["rational", "--max-n", "2",
                                              "--dnum", "1", "--dden", "1"]):
            code, out, err = run_cli(capsys, ["zeta", verb[0], "--variety", str(path)]
                                     + verb[1:])
            assert code == 1, data
            assert err.startswith("wittkit: error: ") and message in err, (data, err)
            assert out == ""


def test_property_seed_env_override(monkeypatch):
    monkeypatch.delenv("WITT_ORBIT_SEED", raising=False)
    assert property_seed() == DEFAULT_PROPERTY_SEED
    monkeypatch.setenv("WITT_ORBIT_SEED", "1234")
    assert property_seed() == 1234
    monkeypatch.setenv("WITT_ORBIT_SEED", "not-a-number")
    with pytest.raises(ValueError, match="WITT_ORBIT_SEED"):
        property_seed()


def test_non_finite_bound_refused(capsys):
    for source in ("spec Z", "quadratic:-4", "curve:2"):  # curve:2 last: unguarded, it never returns
        for verb in (["ledger"], ["euler", "--s", "2"]):
            code, out, err = run_cli(capsys, ["zeta"] + verb + ["--source", source,
                                                               "--bound", "inf"])
            assert code == 1
            assert "--bound" in err
            assert "Traceback" not in err
            assert out == ""


def test_nan_s_refused(capsys):
    code, out, err = run_cli(capsys, ["zeta", "euler", "--source", "spec Z",
                                      "--bound", "100", "--s", "nan"])
    assert code == 1
    assert "s must be > 1" in err
    assert "Traceback" not in err
    assert out == ""
