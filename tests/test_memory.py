"""Peak-memory gates for long relators, each run in a fresh child process.

The child caps its address space at 1 GiB (RLIMIT_AS), runs one CLI
command in-process and prints its exit code and peak resident set, so an
allocation that grows with the square of the degree fails here instead of
exhausting the machine's memory.  The peak is the child's VmHWM: Linux
carries ru_maxrss across execve, so a child's ru_maxrss is at least the
resident size of the test process that spawned it.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import finsep

pytestmark = pytest.mark.skipif(
    sys.platform != "linux", reason="reads the peak from /proc/self/status"
)

CHILD = textwrap.dedent("""
    import contextlib, io, json, resource, sys
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    from finsep.cli import run
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(sys.argv[1:])
    with open("/proc/self/status") as fh:
        hwm = next(line for line in fh if line.startswith("VmHWM:"))
    peak_mb = int(hwm.split()[1]) / 1024
    print(json.dumps({"code": code, "peak_mb": peak_mb, "out": out.getvalue()}))
""")


def _run_capped(*argv):
    src = str(Path(finsep.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *argv],
        capture_output=True, text=True, check=False, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def test_decide_on_a_degree_4000_relator_stays_small():
    # the search held a k*x^i row per degree and peaked at 110 MB here
    result = _run_capped("decide", "--relator", "x^4000 - x")
    assert result["code"] == 0 and "separable: yes" in result["out"]
    assert result["peak_mb"] < 30, result["peak_mb"]


def test_decide_at_the_degree_limit_finishes():
    # x^100000 - x is inside cli.MAX_DEGREE; the search was killed at 7.9 GB
    result = _run_capped("decide", "--relator", "x^100000 - x", "--json")
    assert result["code"] == 0
    assert json.loads(result["out"])["separable"] is True
    assert result["peak_mb"] < 256, result["peak_mb"]


def test_invariants_with_torsion_on_a_degree_2000_relator_finish():
    result = _run_capped("invariants", "--relator", "6x^2000 - 6x", "--json")
    assert result["code"] == 0
    doc = json.loads(result["out"])
    assert (doc["torsion"], doc["torsion_exponent"]) == (6, 2000)
