"""The benchmark's self-test, kept green by the test suite: every workload
prints its metrics, the trace-replay input is deterministic, and a trace
with one edited digest counts as a failed replay.  Every span the traced
run records is reached."""

from __future__ import annotations

import os
import subprocess
import sys
from importlib import resources

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, os.path.join("bench", "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "selftest ok" in proc.stdout


def test_traced_boundaries_are_reached(tmp_path, monkeypatch):
    # every span the benchmark's tracer wraps must fire on a small mix, nested
    # as its per-layer metrics read them, or a layer's figure reads 0 unseen
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    import tracing
    from fracvault import fuzz, properties, scenario
    from fracvault import trace as fv_trace

    log = tracing.SpanLog()
    with tracing.instrumented(log):
        report = fuzz.run_fuzz(fuzz.FuzzPlan(seed=42, steps=800,
                                             mutant="drop-quorum-check"))
        suite = properties.run_suite(seed=0, steps=50, mutant="drop-only-vault",
                                     names=("mint_authorization",
                                            "attack_reenter_withdraw"))
        text = (resources.files("fracvault") / "scenarios" / "lifecycle.json").read_text()
        document = scenario.parse_scenario(text)
        path = str(tmp_path / "lifecycle.trace.jsonl")
        fv_trace.write_trace(path, document, scenario.run_scenario(document).records)
        fv_trace.replay_trace(path)
    assert not report.ok and not suite.passed
    names = [log.names[i] for i in log.name]
    assert {name for _, _, name in tracing._BOUNDARIES} <= set(names)
    nested = {(name, names[parent]) for name, parent in zip(names, log.parent)
              if parent >= 0}
    assert {("fuzz.replay_violates", "fuzz.shrink"),
            ("fuzz.step", "fuzz.replay_violates"),
            ("properties.replay", "properties.minimize")} <= nested
