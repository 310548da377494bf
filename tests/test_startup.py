"""Start-up cost: numpy is imported on first use, so commands that need
no arrays never load it, and no command loads scipy, whose Gauss-Legendre
nodes ship with the package. Each check runs in a fresh interpreter,
since this test process has loaded both long ago."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wittkit

SRC = Path(wittkit.__file__).resolve().parent.parent
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def run_python(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable] + args, capture_output=True, text=True,
                          env=env, timeout=60)


def imported(importtime_log: str) -> set[str]:
    """Module names from the rows of `python -X importtime`."""
    return {line.rsplit("|", 1)[1].strip() for line in importtime_log.splitlines()
            if line.startswith("import time:") and "cumulative" not in line}


@pytest.mark.parametrize("argv, last_line", [
    (["witt", "mul", "1-t", "1+2t"], "1 + 2t"),
    (["product-formula", "rational", "12/5"], "scale = 4.0943445622221"),
    (["orbits", "packet", "7", "3"], "}"),  # with its orbit listing
])
def test_commands_without_arrays_load_neither_numpy_nor_scipy(argv, last_line):
    proc = run_python(["-X", "importtime", "-m", "wittkit.cli"] + argv)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == last_line
    names = imported(proc.stderr)
    assert "wittkit.counting" in names  # the log is read
    assert not {n for n in names if n.split(".")[0] in ("numpy", "scipy")}


def test_explicit_formula_loads_numpy_but_no_scipy():
    proc = run_python(["-X", "importtime", "-m", "wittkit.cli",
                       "explicit-formula", "run", "--max-zeros", "10"])
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1].startswith("K=1000: defect ")
    roots = {n.split(".")[0] for n in imported(proc.stderr)}
    assert "numpy" in roots  # the log is read
    assert "scipy" not in roots


def test_cli_import_loads_every_traced_module():
    """perfbench's tracer patches its hooks from sys.modules right after
    `import wittkit.cli`, so that import must load every wittkit module the
    tracer names (a name with no module in the package is a missing hook
    the tracer already reports)."""
    hooked = set(re.findall(r'"(wittkit\.\w+)"', TRACING.read_text()))
    assert {"wittkit.counting", "wittkit.explicit", "wittkit.orbits",
            "wittkit.reciprocity", "wittkit.zeta"} <= hooked
    existing = {name for name in hooked if importlib.util.find_spec(name) is not None}
    proc = run_python(["-c", "import sys, wittkit.cli; print(*sorted(sys.modules))"])
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert existing <= set(proc.stdout.split())


def test_star_import_loads_no_numpy():
    proc = run_python(["-c", "import sys; from wittkit import *; print('numpy' in sys.modules)"])
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "False\n"
