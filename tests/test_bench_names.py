"""The benchmark reaches finsep's functions by name; they must stay there."""

import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_name_the_benchmark_traces_is_finseps_own_function():
    # bench/run.py imports finsep afresh, so this runs in its own process:
    # inside this one, the re-import would leave other tests holding stale
    # modules
    code = "import run, tracing; tracing.check_untraced(run.load_finsep())"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONPATH": str(BENCH)},
    )
    assert proc.returncode == 0, proc.stderr
