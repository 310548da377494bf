"""wittkit benchmark: one closed-loop CLI user per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds src/wittkit. A fresh
interpreter (worker.py) builds the workload's ops from the seed one deck
at a time (and, for the zeta ops, the variety files) and calls
`wittkit.cli.main(argv)` for one op after another, whole decks at a
time, until the ops have taken S seconds. Between ops, spread over the
run, it times fresh `python -m wittkit.cli` runs, the set-up every CLI
call pays. This
process then rebuilds the decks that ran, checks every output against
`oracle`, requires repeated ops to print the same bytes, and requires
the checks to reject a deliberately corrupted output of each op kind.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
reports the per-layer metrics instead: a traced worker runs for S/2
seconds of op time, an untraced worker replays the same ops (the ratio of their
wall times is the trace overhead), and two more fresh interpreters give
the layer microbenchmarks and `-X importtime` figures. The last line of
stdout is the JSON result; the lines before it are for people. The full
result, with its stamp, goes to perfbench/work/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
DEADLINE_S = 170  # the whole run, set-up included, must end within 180 s
SETUP_RUNS = 12  # spread over the op time; one more follows the last op
IMPORTTIME_RUNS = 3
TAIL_BEYOND = 10
SETUP_ARGV = ["-m", "wittkit.cli", "product-formula", "rational", "12/5"]
SETUP_EXPECT = "orders = {'2': 2, '3': 1, '5': -1}"
# spans predicted to lead each op group's self time; confirmed when each
# ranks within the top len(prediction) + 1
PREDICTED_DOMINANT = {
    "witt": ["poly.gcd", "parser.parse_witt", "cli.build_parser"],
    "zeta": ["counting.count_points", "counting.tables"],
    "explicit": ["explicit.quad"],
    "arith": ["zeta.count_irreducibles", "poly.divmod"],
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 1:
            raise BenchError("out of time")
        return left


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list[str], deadline: Deadline) -> subprocess.CompletedProcess:
    try:
        return subprocess.run([sys.executable] + argv, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=deadline.left())
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {' '.join(argv[:3])}") from None


# --- set-up and layer profiles -----------------------------------------------------------

def measure_imports(deadline: Deadline) -> dict[str, float]:
    """`-X importtime`: cumulative import of wittkit.cli and of scipy."""
    total, scipy = [], []
    for _ in range(IMPORTTIME_RUNS):
        proc = run_child(["-X", "importtime", "-c", "import wittkit.cli"], deadline)
        if proc.returncode != 0:
            raise BenchError(f"import wittkit.cli failed: {proc.stderr[-500:]}")
        rows = []
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cumulative, name = line.split("|")
            rows.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative)))
        total.append(next(us for _, name, us in rows if name == "wittkit.cli"))
        scipy_rows = [(depth, us) for depth, name, us in rows if name.split(".")[0] == "scipy"]
        top = min((d for d, _ in scipy_rows), default=0)
        scipy.append(sum(us for d, us in scipy_rows if d == top))
    return {"setup.import_s": statistics.median(total) / 1e6,
            "setup.import.scipy_s": statistics.median(scipy) / 1e6}


def measure_baseline(deadline: Deadline) -> dict[str, float]:
    proc = run_child([str(HERE / "microbench.py"), str(SRC)], deadline)
    if proc.returncode != 0:
        raise BenchError(f"microbench failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


# --- the closed loop -------------------------------------------------------------

def run_worker(args, run_dir: Path, vdir: Path, deadline: Deadline, *, trace: bool,
               seconds: float | None = None, max_ops: int | None = None,
               setup: bool = False):
    """Run the worker; returns its summary, the decks it ran, rebuilt
    here from the seed, and one (rc, latency_ns, stdout, stderr) per op."""
    run_dir.mkdir(parents=True, exist_ok=True)
    plan = run_dir / "plan.json"
    plan.write_text(json.dumps({
        "src": str(SRC), "workload": args.workload, "seed": args.seed, "vdir": str(vdir),
        "trace": trace, "seconds": seconds, "max_ops": max_ops,
        "setup_argv": SETUP_ARGV, "setup_runs": SETUP_RUNS if setup else 0,
    }))
    proc = run_child([str(HERE / "worker.py"), str(plan), str(run_dir)], deadline)
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr[-2000:]}")
    summary = json.loads((run_dir / "summary.json").read_text())
    decks = list(itertools.islice(workloads.stream(args.workload, args.seed, vdir),
                                  summary["decks"]))
    records = []
    with open(run_dir / "ops.bin", "rb") as fh:
        for _ in range(summary["ops"]):
            _, rc, dt, nout, nerr = (int(x) for x in fh.readline().split())
            records.append((rc, dt, fh.read(nout).decode(), fh.read(nerr).decode()))
    return summary, decks, records


# --- correctness -------------------------------------------------------------------

def repeat_groups(ops, outputs: list[str]) -> tuple[set[int], set[int]]:
    """(mismatched, repeats). Repeats are the ops whose stdout must equal
    an earlier op's, because the argv is the same or, for explicit-formula,
    the bump is; mismatched are the repeats whose stdout differs."""
    first: dict = {}
    bad, repeats = set(), set()
    for i, (op, out) in enumerate(zip(ops, outputs)):
        keys = [("argv", tuple(op.argv), out)]
        if op.kind == "explicit-formula run":
            try:
                keys.append(("bump", (op.meta["c"], op.meta["r"]),
                             checks.explicit_invariant(op, out)))
            except (ValueError, KeyError):
                pass  # unreadable output already fails its own check
        for kind, key, value in keys:
            if (kind, key) in first:
                repeats.add(i)
                if first[(kind, key)] != value:
                    bad.add(i)
            else:
                first[(kind, key)] = value
    return bad, repeats


def failures(ops, records) -> dict[int, str]:
    out: dict[int, str] = {}
    verdicts: dict[tuple, str | None] = {}
    for i, (op, (rc, _, text, err)) in enumerate(zip(ops, records)):
        if rc != 0:
            out[i] = f"exit code {rc}: {err.strip()[-300:]}"
            continue
        key = tuple(op.argv)
        if key not in verdicts:
            verdicts[key] = checks.check(op, text)
        if verdicts[key] is not None:
            out[i] = verdicts[key]
    for i in repeat_groups(ops, [r[2] for r in records])[0]:
        out.setdefault(i, "stdout differs from an earlier run of the same input")
    return out


def self_test(ops, records, failed: dict[int, str]) -> tuple[int, list[str]]:
    """Corrupt one passing output of every op kind, and one repeat; each
    corruption must be rejected. Returns (corruptions tried, escapes)."""
    tried, escaped, seen = 0, [], set()
    outputs = [r[2] for r in records]
    for i, op in enumerate(ops):
        if op.kind in seen or i in failed:
            continue
        seen.add(op.kind)
        tried += 1
        if checks.check(op, checks.corrupt(op, outputs[i])) is None:
            escaped.append(op.kind)
    repeats = sorted(repeat_groups(ops, outputs)[1] - set(failed))
    if repeats:
        i = repeats[0]
        tried += 1
        bad_copy = outputs[:i] + [checks.corrupt(ops[i], outputs[i])]
        if i not in repeat_groups(ops[:i + 1], bad_copy)[0]:
            escaped.append("repeat")
    return tried, escaped


# --- stamp ---------------------------------------------------------------------------

def stamp() -> dict:
    rev = None
    if (ROOT / ".git").exists():  # a checkout without it must not report an enclosing repo
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "wittkit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


# --- runs --------------------------------------------------------------------------------

def measure_plain(args, run_dir: Path, vdir: Path, deadline: Deadline, detail: dict):
    """The end-to-end metrics, from one untraced run that also samples
    the set-up time between ops."""
    summary, decks, records = run_worker(args, run_dir, vdir, deadline, trace=False,
                                         seconds=args.seconds, setup=True)
    setup = summary["setup"]
    detail["setup_ok"] = all(r["rc"] == 0 and SETUP_EXPECT in r["stdout"].splitlines()
                             for r in setup)
    detail["setup_runs"] = len(setup)
    # ops_per_s is the median over whole decks of each deck's rate: every
    # deck has the same mix, and the median keeps a burst of load from
    # other processes on the machine from moving the figure
    rates, start = [], 0
    for deck in decks:
        if start + len(deck) > len(records):
            break
        rates.append(len(deck) * 1e9 / sum(r[1] for r in records[start:start + len(deck)]))
        start += len(deck)
    lat = sorted(r[1] for r in records)
    tail_rank = max(len(lat) - TAIL_BEYOND - 1, 0)
    detail["tail"] = {"percentile": 100 * tail_rank / len(lat), "ops": len(lat),
                      "ops_beyond": TAIL_BEYOND}
    metrics = {
        "ops_per_s": statistics.median(rates),
        "op_p50_ms": statistics.median(lat) / 1e6,
        "op_tail_ms": lat[tail_rank] / 1e6,
        "setup_s": statistics.median(r["s"] for r in setup),
        "peak_rss_mb": summary["peak_rss_mb"],
    }
    return metrics, decks, records, {}


def measure_traced(args, run_dir: Path, vdir: Path, deadline: Deadline, detail: dict):
    """The per-layer metrics: a traced run, its untraced replay, the
    microbenchmarks and the import profile."""
    summary, decks, records = run_worker(args, run_dir / "traced", vdir, deadline,
                                         trace=True, seconds=args.seconds / 2)
    plain, _, replay = run_worker(args, run_dir / "plain", vdir, deadline, trace=False,
                                  max_ops=summary["ops"])
    metrics = dict(summary["layers"])
    metrics["trace.overhead"] = summary["wall_s"] / plain["wall_s"]
    metrics.update(measure_baseline(deadline))
    metrics.update(measure_imports(deadline))
    detail["dominant"] = {}
    for group, shares in summary["shares"].items():
        predicted = PREDICTED_DOMINANT[group]
        detail["dominant"][group] = {
            "predicted": predicted,
            "top_self_shares": {k: round(v, 4) for k, v in list(shares.items())[:8]},
            "confirmed": set(predicted) <= set(list(shares)[:len(predicted) + 1]),
        }
    detail["missing_hooks"] = summary["missing_hooks"]
    detail["omitted"] = {"baseline.redei_scan_400_s":
                         "about 7 s per call, too slow to repeat in every traced run"}
    (run_dir / "traced" / "trace.jsonl").replace(WORK / f"trace-{args.workload}.jsonl")
    changed = {i: "stdout changes when traced"
               for i, (a, b) in enumerate(zip(records, replay)) if a[2] != b[2]}
    return metrics, decks, records, changed


def run(args, spec: dict) -> dict:
    deadline = Deadline(DEADLINE_S)
    os.chdir(ROOT)
    run_dir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    vdir = (run_dir / "varieties").relative_to(ROOT)
    vdir.mkdir(parents=True, exist_ok=True)
    detail: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "stamp": stamp(), "setup_ok": True,
                    "load": "one client, closed loop, whole decks, fresh interpreter"}
    measure = measure_traced if args.trace else measure_plain
    try:
        metrics, decks, records, failed = measure(args, run_dir, vdir, deadline, detail)
        executed = [op for deck in decks for op in deck][:len(records)]
        failed.update(failures(executed, records))
        tried, escaped = self_test(executed, records, failed)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    names = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    detail["metrics"] = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                         for m in names}
    detail["fail_frac"] = len(failed) / len(records)
    detail["failures"] = {str(i): why for i, why in sorted(failed.items())[:20]}
    detail["self_test"] = {"corruptions": tried, "escaped": escaped}
    kinds: dict[str, list[int]] = {}
    for op, rec in zip(executed, records):
        kinds.setdefault(op.kind, []).append(rec[1])
    detail["kinds"] = {k: {"ops": len(v), "median_ms": statistics.median(v) / 1e6}
                       for k, v in sorted(kinds.items())}
    detail["result"] = {
        "correct": not failed and not escaped and tried > 0 and detail["setup_ok"],
        "attempted": len(records),
        "failed": len(failed),
        "metrics": detail["metrics"],
    }
    return detail


def report(detail: dict) -> None:
    print(f"# perfbench {detail['workload']} seed={detail['seed']} "
          f"seconds={detail['seconds']} trace={detail['trace']}")
    print("# stamp: " + json.dumps(detail["stamp"], sort_keys=True))
    for name, m in detail["metrics"].items():
        note = ""
        if name == "op_tail_ms":
            t = detail["tail"]
            note = f"  (p{t['percentile']:.1f}: {t['ops_beyond']} of {t['ops']} ops beyond)"
        if name == "setup_s":
            note = f"  (median of {detail['setup_runs']} runs spread over the ops)"
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}{note}")
    res = detail["result"]
    print(f"{'fail_frac':40s} {detail['fail_frac']:14.6g} ratio"
          f"  ({res['failed']} of {res['attempted']} ops)")
    st = detail["self_test"]
    print(f"# self-test: {st['corruptions'] - len(st['escaped'])} of {st['corruptions']} "
          f"corrupted outputs rejected" + (f"; escaped: {st['escaped']}" if st["escaped"] else ""))
    for i, why in detail["failures"].items():
        print(f"# failed op {i}: {why}")
    if "dominant" in detail:
        for group, d in detail["dominant"].items():
            print(f"# {group} ops: dominant spans predicted {d['predicted']}: "
                  f"{'confirmed' if d['confirmed'] else 'NOT confirmed'}; "
                  f"top self-time shares {d['top_self_shares']}")
        if detail["missing_hooks"]:
            print(f"# hooks not found: {detail['missing_hooks']}")
    for kind, k in detail["kinds"].items():
        print(f"# {kind:34s} {k['ops']:6d} ops  median {k['median_ms']:10.3f} ms")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.DECKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "wittkit" / "cli.py").is_file():
        print(f"perfbench: no wittkit sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        detail = run(args, spec)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    WORK.mkdir(exist_ok=True)
    name = f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    (WORK / name).write_text(json.dumps(detail, indent=1, sort_keys=True))
    report(detail)
    print(json.dumps(detail["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
