"""The benchmark's self-test, kept green by the test suite: every workload
prints its metrics, the trace-replay input is deterministic, and a trace
with one edited digest counts as a failed replay."""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, os.path.join("bench", "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "selftest ok" in proc.stdout
