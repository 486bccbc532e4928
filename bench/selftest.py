"""Self-test of the benchmark at tiny input sizes.

    python3 bench/selftest.py

Checks that every workload prints every metric of BENCHMARK.json with its
unit in both modes, that healthy runs count no failed operations, that the
trace-replay generator is deterministic, and that a trace with one edited
digest counts as a failed replay operation.  Exits non-zero on the first
failed check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import scenario_gen  # noqa: E402
import workloads  # noqa: E402


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    check(proc.returncode == 0, f"{workload} trace={trace} exited "
                                f"{proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_metric_printed(spec: dict) -> None:
    for workload in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = run_bench(workload, trace)
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload}: result keys {sorted(result)}")
            check(result["correct"], f"{workload} trace={trace}: incorrect output")
            check(result["attempted"] >= 1, f"{workload}: nothing attempted")
            expected = {m["name"]: m["unit"] for m in spec[section]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            check(printed == expected,
                  f"{workload} trace={trace}: metrics differ from {section}")
            check(all(isinstance(v["value"], (int, float))
                      for v in result["metrics"].values()),
                  f"{workload}: non-numeric metric")
            if workload == "mutant-hunt":
                check(result["attempted"] % 12 == 0,
                      "mutant-hunt did not count twelve hunts a pass")
            else:
                check(result["failed"] == 0,
                      f"healthy {workload} counted {result['failed']} failures")


def test_generator_deterministic() -> None:
    first = scenario_gen.build_scenario(7, 30)
    check(first == scenario_gen.build_scenario(7, 30),
          "same seed gave a different scenario")
    check(first != scenario_gen.build_scenario(8, 30),
          "different seeds gave the same scenario")


def test_edited_digest_fails_replay() -> None:
    text = scenario_gen.build_scenario(3, 20)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        path = os.path.join(workdir, "t.trace.jsonl")
        problem, count, _ = workloads.run_scenario_op(text, path)
        check(problem is None, f"tiny scenario failed: {problem}")
        check(workloads.replay_op(path, count) is None, "clean trace failed replay")
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        record = json.loads(lines[5])
        record["digest"] = "0" * len(record["digest"])
        lines[5] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        result = workloads.PassResult()
        result.record(workloads.replay_op(path, count))
        check(result.attempted == 1 and result.failed == 1 and result.problems,
              "an edited digest did not count as a failed, incorrect replay")


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    test_generator_deterministic()
    test_edited_digest_fails_replay()
    test_every_metric_printed(spec)
    print("selftest ok")


if __name__ == "__main__":
    main()
