import argparse
import csv
import json
import os
import re
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from oracles import DEFAULT_PROPERTY_SEED, parse_witt_reference, property_seed
from wittkit import cli, orbits
from wittkit.cli import main
from wittkit.ntheory import SIEVE_LIMIT
from wittkit.parser import parse_witt
from wittkit.rings import QQ, ZZ
from wittkit.witt import witt_add, witt_mul, witt_sub

SCHEMA = json.loads(
    resources.files("wittkit").joinpath("schemas/cli_output.schema.json").read_text()
)


def run_cli(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # usage errors
        code = exc.code
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


def test_witt_mixed_z_and_q_operands(capsys):
    # an integral text parses over Z and the other over Q; the Z one is
    # mapped to Q, so both orders of the pair succeed
    pairs = [("1-t", "(2-t)/2"), ("1/(1-3t)", "1-t/3"), ("1", "(1-t/2)^2"), ("1-2t", "1/(1+t/2)")]
    ops = {"add": witt_add, "sub": witt_sub, "mul": witt_mul}
    for a, b in pairs + [(b, a) for a, b in pairs]:
        f, g = parse_witt_reference(a), parse_witt_reference(b)
        assert {f.ring, g.ring} == {QQ, ZZ}, (a, b)
        for verb, op in ops.items():
            want = op(f.map_ring(QQ), g.map_ring(QQ))
            code, out, err = run_cli(capsys, ["witt", verb, a, b])
            assert (code, err) == (0, ""), (verb, a, b, err)
            assert out.splitlines()[2:] == [cli._pretty_witt(want)], (verb, a, b)
            doc = run_json(capsys, ["witt", verb, a, b])
            assert doc["result"] == dict(want.to_json(), pretty=cli._pretty_witt(want))


def test_witt_add_and_sub_charge_their_products(capsys):
    # each operand passes its own parse budget; the products witt_add (num by
    # num) and witt_sub (num by den) make are charged before they run, with
    # the parser's weights, and a factor 1 is free
    refused = [
        (["witt", "add", "(1-3t)^900", "(1-3t)^900"], "witt add needs 52383573"),
        (["witt", "add", "(1-t)^1000", "(1-t)^1000"], "witt add needs 24143471"),
        (["witt", "sub", "(1-t)^1000", "1/(1-t)^1000"], "witt sub needs 24143471"),
        (["witt", "add", "(1-t)^780", "(1-t)^780"], "witt add needs 10008187"),
        (["witt", "sub", "1/(1-t/2)^780", "(1-t/3)^780"], "witt sub needs"),
    ]
    for argv, need in refused:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, argv)
        assert time.perf_counter() - start < 0.5, argv
        assert (code, out) == (1, ""), argv
        assert err.startswith(f"wittkit: error: {need}"), err
        assert err.endswith(" work units, above the cap 10000000\n"), err
    for argv in (["witt", "add", "(1-t)^779", "(1-t)^779"],
                 ["witt", "sub", "(1-t)^1000", "(1-t)^1000"],  # both products by 1
                 ["witt", "add", "(1-t)^1000", "1/(1-t)^1000"]):
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, ""), argv


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


def test_product_formula_help_examples_run_as_written(capsys, monkeypatch):
    """Each example in `product-formula rational --help` runs as typed; a
    negative value needs the `--` that keeps argparse from reading it as
    an option."""
    monkeypatch.setenv("COLUMNS", "200")  # one help line per argument
    code, out, err = run_cli(capsys, ["product-formula", "rational", "--help"])
    assert code == 0
    examples = re.search(r"e\.g\. (.*?)\n", out).group(1).split(" or ")
    assert examples == ["12/5", "-- -360/77"]
    for example in examples:
        code, out, err = run_cli(capsys, ["product-formula", "rational"] + example.split())
        assert code == 0, (example, err)
        assert out.splitlines()[-1].startswith("scale = "), example


def test_cached_parser_keeps_no_state_between_calls(capsys, monkeypatch):
    assert cli.build_parser.cache_info().maxsize == 1
    assert cli.build_parser() is cli.build_parser()
    sequence = [
        ["witt", "ghost", "1-2t", "--order", "5"],
        ["witt", "ghost", "1-2t"],  # default order 8
        ["orbits", "packet", "3", "4"],  # default json
        ["witt", "mul", "(1-t)", "(1-2t)", "--bogus"],  # usage error, exit 2
        ["witt", "parse", "1-3t"],  # default plain
        ["witt", "ghost", "1-2t", "--order", "5", "--format", "json"],
        ["witt", "ghost", "1-2t"],
    ]
    results = [run_cli(capsys, argv) for argv in sequence]
    assert [r[0] for r in results] == [0, 0, 0, 2, 0, 0, 0]
    build_uncached = cli.build_parser.__wrapped__
    for argv, got in zip(sequence, results):  # each against a freshly built tree
        fresh = build_uncached()
        monkeypatch.setattr(cli, "build_parser", lambda: fresh)
        assert run_cli(capsys, argv) == got, argv
        hits = cli._canonical_table.cache_info().hits  # the canonical parse read `fresh`
        cli._canonical_table(fresh)
        assert cli._canonical_table.cache_info().hits == hits + 1, argv
    assert [len(results[i][1].splitlines()[-1].split()) for i in (0, 1)] == [5, 8]
    assert json.loads(results[2][1])["config"]["format"] == "json"
    assert results[4][1].startswith("# wittkit witt parse\n# config: format=plain")


def test_csv_only_for_tabular(capsys):
    code, out, err = run_cli(capsys, ["witt", "mul", "(1-2t)", "(1-3t)",
                                      "--format", "csv"])
    assert code == 2
    assert "csv output is not available" in err
    # refused before the computation runs, so a failing one exits 2 too
    code, out, err = run_cli(capsys, ["redei", "3", "41", "61", "--format", "csv"])
    assert code == 2
    assert err == ("csv output is not available for 'redei'; tabular commands:"
                   " linking table, zeta ledger\n")
    assert out == ""


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


def test_out_to_unwritable_path_refused(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, ["witt", "parse", "1-t", "--out", str(target)])
    assert (code, out) == (1, "")
    assert err == f"wittkit: error: [Errno 2] No such file or directory: '{target}'\n"
    assert not target.parent.exists()


class _Forbidden(Exception):
    pass


def _forbidden(*args, **kwargs):
    raise _Forbidden


def test_no_format_builds_another_formats_text(capsys, tmp_path, monkeypatch):
    """json.dumps runs only for json and csv.writer only for csv, and a
    tabular handler hands its rows to the renderer as tuples, with no
    lines; every run still prints the golden render grid's bytes."""
    grid = json.loads((Path(__file__).parent / "data" / "golden_render.json").read_text())
    monkeypatch.chdir(tmp_path)
    for name, data in grid["varieties"].items():
        Path(name).write_text(json.dumps(data))
    golden = {tuple(c["argv"]): (c["exit"], c["stdout"], c["stderr"]) for c in grid["cases"]}
    argvs = {}  # the first successful argv of each command
    plain = [c["argv"][:-2] for c in grid["cases"]
             if c["argv"][-2:] == ["--format", "plain"] and c["exit"] == 0]
    for argv in plain + grid["numeric"]:
        argvs.setdefault(cli._command_name(cli.build_parser().parse_args(argv)), argv)
    assert len(argvs) == 19
    for name, argv in argvs.items():
        tabular = name in cli.TABULAR_COMMANDS
        for fmt in ("plain", "json", "csv") if tabular else ("plain", "json"):
            full = argv + ["--format", fmt]
            want = golden.get(tuple(full)) or run_cli(capsys, full)
            assert want[0] == 0, full
            with monkeypatch.context() as m:
                if fmt != "json":
                    m.setattr(json, "dumps", _forbidden)
                if fmt != "csv":
                    m.setattr(csv, "writer", _forbidden)
                assert run_cli(capsys, full) == want, full
        if tabular:
            args = cli.build_parser().parse_args(argv)
            key = cli.TABULAR_COMMANDS[name][0]
            result, lines = args.func(args)
            assert lines is None and all(isinstance(row, tuple) for row in result[key])


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
    # a malformed argument of a known source kind is an unsupported source too
    for source in ("motives", "quadratic:abc", "curve:", "curve:2.5", "quadratic"):
        code, out, err = run_cli(capsys, ["zeta", "ledger", "--source", source,
                                          "--bound", "10"])
        assert (code, out) == (1, "")
        assert err == (f"wittkit: error: unsupported source {source!r}; use 'spec Z',"
                       " 'quadratic:<d>' or 'curve:<q>'\n")
    for k in ("5000", "-1"):
        code, out, err = run_cli(capsys, ["explicit-formula", "run", "--max-zeros", k])
        assert (code, out) == (1, "")
        assert err == (f"wittkit: error: explicit-formula run --max-zeros {k} is not"
                       " between 0 and the table size 1000\n")
    code, out, err = run_cli(capsys, ["redei", "3", "41", "61"])
    assert code == 1
    assert "not 1 mod 4" in err


def test_max_n_below_one_refused_by_name(capsys, tmp_path):
    curve = variety_file(tmp_path)
    for value in ("0", "-3"):
        code, out, err = run_cli(capsys, ["zeta", "rational", "--variety", curve,
                                          "--max-n", value, "--dnum", "1", "--dden", "1"])
        assert code == 1
        assert err == f"wittkit: error: --max-n must be >= 1, got {value}\n"
        assert out == ""


def test_nineteen_digit_prime_answered(capsys):
    """Distinct-degree factorisation answers over F_p for p = 10^18 + 3,
    and a prime cofactor beyond trial division is certified by is_prime."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["product-formula", "function-field", "--p",
                                      "1000000000000000003", "--num", "1,0,1", "--den", "1"])
    assert time.perf_counter() - start < 1.0
    assert code == 0, err
    assert out.endswith("weighted order sum = 0\n")
    code, out, err = run_cli(capsys, ["product-formula", "rational", "1000000000000000003"])
    assert code == 0, err
    assert "orders = {'1000000000000000003': 1}" in out


def test_zero_denominator_refused(capsys):
    code, out, err = run_cli(capsys, ["product-formula", "rational", "1/0"])
    assert code == 1
    assert err == "wittkit: error: rational value '1/0' has a zero denominator\n"
    assert out == ""


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


def test_huge_enumeration_refused_up_front(capsys, tmp_path):
    path = tmp_path / "huge.json"
    for nvars in (10000, 10**7):
        path.write_text(json.dumps({"p": 5, "vars": nvars, "equations": []}))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, ["zeta", "count", "--variety", str(path), "--n", "1"])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert err == (f"wittkit: error: enumeration needs 5^{nvars} evaluation steps,"
                       " above the cap 100000000; --cap raises it\n")
        assert out == ""


def test_frobenius_and_verschiebung_refused_above_their_caps(capsys):
    cases = [
        (["witt", "frobenius", "1-2t", "100000"],
         "frobenius needs nu * degree = 100000 * 1, above the cap 50000"),
        (["witt", "frobenius", "(1-2t)*(1-3t)", "1000000"],
         "frobenius needs nu * degree = 1000000 * 2, above the cap 50000"),
        (["witt", "verschiebung", "1-2t", "10000000"],
         "verschiebung needs nu * degree = 10000000 * 1, above the cap 1000000"),
    ]
    for argv, message in cases:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, argv)
        assert time.perf_counter() - start < 0.5
        assert (code, out, err) == (1, "", f"wittkit: error: {message}\n")
    # at the caps both still answer
    code, out, _ = run_cli(capsys, ["witt", "frobenius", "1-t", "50000"])
    assert code == 0 and out.endswith("\n1 - t\n")
    code, out, _ = run_cli(capsys, ["witt", "verschiebung", "1-2t", "1000000"])
    assert code == 0 and out.endswith("\n1 - 2t^1000000\n")


def test_ghost_order_refused_above_its_cap(capsys):
    """--order times the degree (at least 1) is capped before any power
    sum; uncapped, on a 2-core Xeon, the first case ran 19 s at 801 MB
    and the second past 30 s."""
    cases = [
        (["witt", "ghost", "1-t", "--order", "10000000"],
         "witt ghost needs --order * degree = 10000000 * 1, above the cap 10000"),
        (["witt", "ghost", "1-2t-3t^2-t^5", "--order", "200000"],
         "witt ghost needs --order * degree = 200000 * 5, above the cap 10000"),
        (["witt", "ghost", "1", "--order", "100000000"],
         "witt ghost needs --order * degree = 100000000 * 1, above the cap 10000"),
        (["witt", "ghost", "1-t", "--order", "0"], "--order must be >= 1"),
        (["witt", "ghost", "1-t", "--order", "-3"], "--order must be >= 1"),
    ]
    for argv, message in cases:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, argv)
        assert time.perf_counter() - start < 0.5
        assert (code, out, err) == (1, "", f"wittkit: error: {message}\n")
    # at the cap it still answers
    code, out, _ = run_cli(capsys, ["witt", "ghost", "(1-t)/(1+t)", "--order", "5000"])
    assert code == 0 and out.endswith("\n" + " ".join(["2", "0"] * 2500) + "\n")


def test_powers_refused_above_the_cap(capsys):
    """A power is bounded by the expression budget alone: e * bits against
    EXPR_BITS_CAP before any multiplication, then its work. Both refusals
    below ran past 8 s before any cap; the two answers were refused by a
    cap on |exponent| * size that the budget replaced."""
    cases = [
        (["witt", "mul", "2^99999999", "1"],
         "expression needs 99999999 coefficient bits, above the cap 14000 at position 1"),
        (["witt", "add", "(1-t)^100000", "1"],
         "expression needs 100000 coefficient bits, above the cap 14000 at position 5"),
    ]
    for argv, message in cases:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, argv)
        assert time.perf_counter() - start < 0.5
        assert (code, out, err) == (1, "", f"wittkit: error: {message}\n")
    code, out, _ = run_cli(capsys, ["witt", "add", "1", "(1-t^2)^-501"])
    assert code == 0 and out.endswith(" + 501t^1000 - t^1002)\n")
    code, out, _ = run_cli(capsys, ["witt", "parse", "1-7^334t"])
    assert code == 0 and out.endswith(f"\n1 - {7**334}t\n")
    # at the old cap both kinds still answer
    code, out, _ = run_cli(capsys, ["witt", "parse", "(1-t)^1000"])
    assert code == 0 and out.endswith(" - 1000t^999 + t^1000\n")
    code, out, _ = run_cli(capsys, ["witt", "parse", "1-7^333t"])
    assert code == 0 and out.endswith(f"\n1 - {7**333}t\n")


def test_expression_budget_refused_fast(capsys):
    """One budget covers the whole expression: every list product, sum,
    negation and power, and the canonicalising gcd. The triple power ran
    8 s, the big coefficient ran 1.2 s and then failed on Python's
    4,300-digit limit, and the t^1000 chains ran 7 s and 48 s, the second
    printing 3.2 MB."""
    cases = [
        (["witt", "add", "(1-t)^1000*(1-t)^1000*(1-t)^1000", "1"],
         "expression needs 15293562 work units, above the cap 10000000 at position 16"),
        (["witt", "add", "(1-999999999t)^1000", "1"],
         "expression needs 30000 coefficient bits, above the cap 14000 at position 14"),
        (["witt", "parse", "1-(999999999t)^1000"],
         "expression needs 30000 coefficient bits, above the cap 14000 at position 14"),
        (["witt", "parse", "*".join(["t^1000"] * 400)],
         "expression needs 10107138 work units, above the cap 10000000 at position 237"),
        (["witt", "parse", "(1-" + "*".join(["t^1000"] * 300) + ")/(1-t)^500"],
         "expression needs 10107138 work units, above the cap 10000000 at position 240"),
        (["witt", "parse", "t^1000000000"],
         "expression needs 8000000008 work units, above the cap 10000000 at position 1"),
        (["witt", "parse", "1-t^300000" + "+1-1" * 500],
         "expression needs 12000056 work units, above the cap 10000000 at position 12"),
        (["witt", "parse", "1-" + "-" * 400 + "t^300000"],
         "expression needs 12000048 work units, above the cap 10000000 at position 398"),
        # the gcd is charged at the end, and the Q retry's Fraction coefficients
        (["witt", "parse", "(1-t^300000)/(1-t)^500"],
         "expression needs 475895137 work units, above the cap 10000000 at position 22"),
        (["witt", "parse", "(1-t^165111)/(1-t)"],
         "expression needs 10000001 work units, above the cap 10000000 at position 18"),
        (["witt", "parse", "(2-2t^37701)/(1-t)/(2+t)"],
         "expression needs 10000126 work units, above the cap 10000000 at position 24"),
        # more than 4,215 significant digits is above 2^14000, refused before
        # int(); 5,000 digits used to fail on Python's 4,300-digit limit
        (["witt", "parse", "1-" + "9" * 5000 + "t"],
         "integer literal needs over 16606 coefficient bits, above the cap 14000 at position 2"),
        (["witt", "parse", "1-" + "9" * 4299 + "t"],
         "integer literal needs over 14277 coefficient bits, above the cap 14000 at position 2"),
        (["witt", "parse", "1-" + "9" * 4215 + "t"],
         "expression needs 14002 coefficient bits, above the cap 14000 at position 4217"),
    ]
    for argv, message in cases:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (1, "", f"wittkit: error: {message}\n")
    # a product of two powers within the budget still answers, and so do
    # 10^4214 and a literal whose leading zeros make it long
    code, out, _ = run_cli(capsys, ["witt", "parse", "(1-t)^500*(1-t)^500"])
    assert code == 0 and out.endswith(" - 1000t^999 + t^1000\n")
    code, out, _ = run_cli(capsys, ["witt", "parse", "1-1" + "0" * 4214 + "t"])
    assert code == 0 and out.endswith(f"\n1 - {10**4214}t\n")
    code, out, _ = run_cli(capsys, ["witt", "parse", "1-" + "0" * 5000 + "2t"])
    assert code == 0 and out.endswith("\n1 - 2t\n")


def test_q_retry_charges_the_gcd_once(capsys):
    """A result that is not integral is the Z attempt's reduced pair divided by
    its constant term, so the budget charges the gcd once. The retry used to
    charge it again: (2-2t^32734)/(1-t)/(2+t) was refused at 10000110 work
    units. A text that is not a Witt vector fails over Q the same way, so it
    is refused without a retry."""
    expr = "(2-2t^32734)/(1-t)/(2+t)"
    code, out, err = run_cli(capsys, ["witt", "parse", expr])
    assert (code, err) == (0, "") and out.endswith(" + t^32733) / (1 + 1/2t)\n")
    for expr in ("(2-2t^5)/(1-t)/(2+t)", "(6-3t)/(3+t)/2", "(4-2t)^3/(8+t^4)/8"):
        got = parse_witt(expr)
        assert got.ring == QQ and got == parse_witt_reference(expr), expr
    for expr in ("2-t", "(2-t)/(3-t)", "t/(1-t)"):
        assert run_cli(capsys, ["witt", "parse", expr]) == (
            1, "", "wittkit: error: not a Witt vector: f(0) != 1\n"), expr


def test_nesting_depth_refused_by_name(capsys):
    """A parenthesis nests 2 levels and a unary sign 1, up to EXPR_DEPTH_CAP
    = 400, so that the 400 signs of the budget test still reach the budget.
    400 parentheses and 600 signs used to exit 1 with "maximum recursion
    depth exceeded", which names no cap."""
    cases = [
        ("(" * 400 + "1-t" + ")" * 400,
         "expression needs nesting depth 402, above the cap 400 at position 200"),
        ("1" + "-" * 600 + "t",
         "expression needs nesting depth 401, above the cap 400 at position 402"),
        ("(" * 201 + "1-t" + ")" * 201,
         "expression needs nesting depth 402, above the cap 400 at position 200"),
        ("1-" + "-" * 401 + "t",
         "expression needs nesting depth 401, above the cap 400 at position 402"),
        ("(" * 100 + "1" + "-" * 202 + "t" + ")" * 100,
         "expression needs nesting depth 401, above the cap 400 at position 302"),
    ]
    for expr, message in cases:
        assert run_cli(capsys, ["witt", "parse", expr]) == (1, "", f"wittkit: error: {message}\n")
    # depth 400 still answers
    for expr in ("(" * 200 + "1-t" + ")" * 200, "1-" + "-" * 400 + "t",
                 "(" * 100 + "1" + "-" * 201 + "t" + ")" * 100):
        code, out, err = run_cli(capsys, ["witt", "parse", expr])
        assert (code, err) == (0, "") and out.endswith("\n1 - t\n"), expr


def test_witt_mul_json_matches_committed_file(capsys):
    # the files CI compares the installed package against; the 6 x 6 product
    # (a seed-3 witt-explicit op) canonicalises degree-72 pairs by the certificate
    expected = (Path(__file__).parent / "data" / "witt_mul_expected.json").read_text()
    argv = ["witt", "mul", "(1-t+2t^2)/(1+t)", "(1+3t)/(1-t^2)", "--format", "json"]
    assert run_cli(capsys, argv) == (0, expected, "")
    expected = (Path(__file__).parent / "data" / "witt_mul_6x6_expected.json").read_text()
    argv = ["witt", "mul", "(1+3t+3t^2-t^3-t^5-3t^6)/(1-t-3t^3-2t^5+3t^6)",
            "(1-t^2+t^3-t^4+3t^5-t^6)/(1-2t-3t^2-3t^3-3t^4+3t^5+2t^6)", "--format", "json"]
    assert run_cli(capsys, argv) == (0, expected, "")


def test_linking_table_above_cap_refused(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["linking", "table", "--bound", "2000000"])
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (1, "")
    assert err == "wittkit: error: linking table needs --bound 2000000, above the cap 2000\n"


def test_packet_above_limit_refused(capsys):
    code, out, err = run_cli(capsys, ["orbits", "packet", "2", "40"])
    assert code == 1
    assert err == ("wittkit: error: orbits packet needs 1099511627776 residue field elements,"
                   " above the cap 1000000000\n")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["orbits", "packet", "2", "100000000"])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert err == ("wittkit: error: orbits packet needs 2^100000000 residue field elements,"
                   " above the cap 1000000000\n")
    assert out == ""


def test_packet_list_limit_above_cap_refused(capsys):
    # a listing of 10^9 orbits would need gigabytes: refused before any work
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["orbits", "packet", "999999937", "1",
                                      "--list-limit", "1000000000"])
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (1, "")
    assert err == ("wittkit: error: orbits packet needs --list-limit 1000000000, above the cap"
                   f" {orbits.LIST_LIMIT_CAP}\n")
    # at the cap the packet answers, its listing omitted above it
    code, out, err = run_cli(capsys, ["orbits", "packet", "999999937", "1",
                                      "--list-limit", str(orbits.LIST_LIMIT_CAP)])
    assert code == 0, err
    assert json.loads(out)["result"]["orbits_omitted"] == (
        f"faithful count 303796224 above listing limit {orbits.LIST_LIMIT_CAP}")


def test_packet_negative_list_limit_refused(capsys):
    # a negative limit lists nothing and used to print "above listing limit -1"
    code, out, err = run_cli(capsys, ["orbits", "packet", "2", "2", "--list-limit", "-1"])
    assert (code, out) == (1, "")
    assert err == "wittkit: error: orbits packet --list-limit -1 is below 0\n"
    code, out, err = run_cli(capsys, ["orbits", "packet", "2", "2", "--list-limit", "0"])
    assert code == 0, err
    assert json.loads(out)["result"]["orbits_omitted"] == (
        "faithful count 2 above listing limit 0")


def test_packet_list_limit_checked_in_plain_output(capsys):
    # plain output prints no listing, yet the flag is refused as in JSON
    for limit, message in [
        ("-1", "orbits packet --list-limit -1 is below 0"),
        ("1000000000",
         f"orbits packet needs --list-limit 1000000000, above the cap {orbits.LIST_LIMIT_CAP}"),
    ]:
        argv = ["orbits", "packet", "2", "2", "--list-limit", limit, "--format", "plain"]
        assert run_cli(capsys, argv) == (1, "", f"wittkit: error: {message}\n")
    code, out, err = run_cli(capsys, ["orbits", "packet", "2", "2", "--list-limit", "0",
                                      "--format", "plain"])
    assert code == 0 and "faithful characters: 2\n" in out, err


def test_huge_prime_arguments_answer_fast(capsys, tmp_path):
    """19-digit primes are checked by Miller-Rabin, not trial division,
    so each command answers or refuses at once."""
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"p": 10**18 + 3, "vars": 1, "equations": [[[1, [1]]]]}))
    cases = [
        ["orbits", "packet", "1000000000000000003", "1"],
        ["product-formula", "function-field", "--p", "1000000000000000003",
         "--num", "1,1", "--den", "1"],
        ["zeta", "ledger", "--source", "curve:1000000000000000003", "--bound", "10"],
        ["redei", "1000000000000000009", "5", "13"],
        ["zeta", "count", "--variety", str(path), "--n", "1"],
    ]
    for argv in cases:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, argv)
        assert time.perf_counter() - start < 2.0, argv
        assert code in (0, 1), (argv, err)
        assert "Traceback" not in err


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


def test_sieve_above_cap_refused_up_front(capsys):
    """A bound above SIEVE_LIMIT is refused before the sieve is allocated;
    1e12 bytes ended in a MemoryError traceback."""
    for source in ("spec Z", "quadratic:-4"):
        for verb in (["ledger"], ["euler", "--s", "2"]):
            code, out, err = run_cli(capsys, ["zeta"] + verb + ["--source", source,
                                                               "--bound", "1e12"])
            assert code == 1
            assert err == ("wittkit: error: prime sieve needs bound 1000000000000, above"
                           f" the cap {SIEVE_LIMIT}\n")
            assert "Traceback" not in err
            assert out == ""


def test_nan_s_refused(capsys):
    code, out, err = run_cli(capsys, ["zeta", "euler", "--source", "spec Z",
                                      "--bound", "100", "--s", "nan"])
    assert code == 1
    assert "s must be > 1" in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("bump, message", [
    ("nan,1", "bump c and r must be finite numbers, got nan,1.0"),
    ("2,nan", "bump c and r must be finite numbers, got 2.0,nan"),
    ("inf,1", "bump c and r must be finite numbers, got inf,1.0"),
    ("1500,1", "quadrature over the support [1499.0, 1501.0] is not finite at 32 nodes"),
    ("1e300,1", "quadrature over the support [1e+300, 1e+300] is not finite at 32 nodes"),
    ("10,1", "quadrature needs 32768 nodes, above the cap 16384"),
    ("20,1", "quadrature needs 32768 nodes, above the cap 16384"),
])
def test_unusable_bump_refused_fast(capsys, bump, message):
    """A non-finite c or r is refused when the bump is built; a finite bump
    whose e^{t alpha} overflows is refused at the first quadrature level,
    and one still open at the top of the bundled node table is refused
    there. None of them can converge, so no run computes further nodes."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["explicit-formula", "run", "--bump", bump])
    assert time.perf_counter() - start < 2.0
    assert code == 1
    assert err == f"wittkit: error: {message}\n"  # one line, no traceback
    assert out == ""


def _argparse_stores_empty() -> bool:
    """Whether this Python's argparse reads --flag=-- as [] (3.10 and 3.11), not
    as the value "--" (as newer releases do)."""
    probe = argparse.ArgumentParser()
    probe.add_argument("--x")
    return probe.parse_args(["--x=--"]).x == []


@pytest.mark.parametrize("argv", [
    "zeta ledger --source=-- --bound 0.5",
    "explicit-formula run --bump=--",
    "product-formula function-field --p 3 --num=-- --den 1",
    "witt parse 1-t --out=--",
    "zeta count --variety=-- --n 1",
    "witt ghost 1-t --order=--",
])
def test_flag_equals_double_dash_refused(capsys, tmp_path, monkeypatch, argv):
    """Where argparse stores [] for --flag=--, which no handler takes, the argv is
    refused as --flag -- is: exit 2, the leaf's usage and "expected one argument".
    Where argparse reads "--" as the value, the value is refused as any other bad
    one is, except that --out=-- names a file "--", which is then written."""
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, argv.split())
    assert "Traceback" not in err
    if _argparse_stores_empty():
        flag = next(t for t in argv.split() if t.endswith("=--"))[:-3]
        spaced = run_cli(capsys, argv.replace(f"{flag}=--", f"{flag} --").split())
        assert (code, out, err) == spaced
        assert code == 2 and err.endswith(f": error: argument {flag}: expected one argument\n")
        assert err.startswith("usage: wittkit " + " ".join(argv.split()[:2]))
    else:
        assert code in ((0,) if "--out=--" in argv else (1, 2)), err
