"""Smoke test of the benchmark harness (``perfbench/selftest.py``).

The harness wraps pwdual functions by module and name, so a refactor that
unbinds a traced name fails here. No timings are asserted.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
