"""One closed-loop client in a fresh interpreter.

Usage: python worker.py PLAN_JSON OUT_DIR

Imports wittkit from the plan's source directory, builds the workload's
decks from its seed one at a time (`workloads.stream`), and calls
`wittkit.cli.main(argv)` for each op, one after the other, with stdout
and stderr captured. With `seconds` set it runs whole decks until that
much op time has passed; with `max_ops` it runs exactly that many ops.
With `setup_runs` set it also times a fresh `python <setup_argv>`
every `seconds / setup_runs` of op time and once after the last op,
outside the op clock, so the set-up samples spread over the same
stretch of time as the ops.
Per op it appends `index rc latency_ns len(stdout) len(stderr)` and the
two texts to OUT_DIR/ops.bin; at the end it writes OUT_DIR/summary.json
and, when tracing, OUT_DIR/trace.jsonl.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads


def _run_one(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the op fails; the client goes on to the next one
            traceback.print_exc()
            rc = -1
    return rc, out.getvalue(), err.getvalue()


def _setup_sample(argv: list[str]) -> dict:
    t0 = time.perf_counter_ns()
    proc = subprocess.run([sys.executable] + argv, capture_output=True, text=True)
    return {"s": (time.perf_counter_ns() - t0) / 1e9, "rc": proc.returncode,
            "stdout": proc.stdout}


def main(plan_path: str, out_dir: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    out = Path(out_dir)
    src = Path(plan["src"]).resolve()
    sys.path.insert(0, str(src))
    import wittkit
    import wittkit.cli as cli

    if Path(wittkit.__file__).resolve().parent.parent != src:
        print(f"wittkit imported from {wittkit.__file__}, not {src}", file=sys.stderr)
        return 3
    tracer = None
    if plan["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    seconds, max_ops, setup_argv = plan["seconds"], plan["max_ops"], plan["setup_argv"]
    setup_every = seconds * 1e9 / plan["setup_runs"] if plan["setup_runs"] else None
    decks = workloads.stream(plan["workload"], plan["seed"], Path(plan["vdir"]))
    done = started = op_ns = next_setup = 0
    setup = []
    clock = time.perf_counter_ns
    with open(out / "ops.bin", "wb") as fh:
        for deck in decks:
            if seconds is not None and op_ns >= seconds * 1e9:
                break
            if max_ops is not None and done >= max_ops:
                break
            started += 1
            for op in deck:
                if max_ops is not None and done >= max_ops:
                    break
                if setup_every is not None and op_ns >= next_setup \
                        and len(setup) < plan["setup_runs"]:
                    setup.append(_setup_sample(setup_argv))
                    next_setup += setup_every
                if tracer is not None:
                    tracer.op, tracer.group = done, op.group
                t0 = clock()
                rc, text, err = _run_one(cli, op.argv)
                dt = clock() - t0
                op_ns += dt
                bout, berr = text.encode(), err.encode()
                fh.write(f"{done} {rc} {dt} {len(bout)} {len(berr)}\n".encode())
                fh.write(bout)
                fh.write(berr)
                done += 1
    if setup_every is not None:
        setup.append(_setup_sample(setup_argv))
    summary = {
        "ops": done,
        "decks": started,
        "wall_s": op_ns / 1e9,
        "setup": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        summary["layers"] = tracer.metrics()
        summary["shares"] = tracer.self_shares()
        summary["missing_hooks"] = tracer.missing
        tracer.write_spans(out / "trace.jsonl")
    (out / "summary.json").write_text(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
