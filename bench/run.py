"""Benchmark entry point.

    python3 bench/run.py --workload fuzz-long --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports ``fracvault`` from its
``src`` directory.  Set-up is timed first: the median of five fresh imports
of the program plus the median of five input generations, in seconds at
the nominal speed of the ``calibrate`` reference run between them.

With ``--trace 0`` it repeats untraced passes over the same inputs until
``--seconds`` have passed.  For each phase it reports the median over
passes of the phase time in units of the ``calibrate`` reference measured
in the same pass.  With ``--trace 1`` it runs an untraced, a traced and
another untraced pass, requires identical outputs from all three, and
reports the per-layer metrics.

Every output is checked.  A run-metadata line goes to standard output, and
the run record and span log to ``.bench_out/``.  The last line of standard
output is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time

import calibrate

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
# every fracvault module the workloads call into
PROGRAM_MODULES = ("fracvault", "fracvault.attackers", "fracvault.fuzz",
                   "fracvault.invariants", "fracvault.properties",
                   "fracvault.scenario", "fracvault.trace")


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the self-test")
    return parser.parse_args(argv)


def _git_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as fh:
            return fh.read().strip()
    return None


def _summary(values: list[float]) -> dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0],) * 3
    return {"min": min(values), "q1": q1, "median": statistics.median(values),
            "q3": q3, "max": max(values)}


def _import_program() -> float:
    """Import the program afresh; returns the seconds it took."""
    for name in [m for m in sys.modules if m.split(".")[0] == "fracvault"]:
        del sys.modules[name]
    start = time.perf_counter()
    for name in PROGRAM_MODULES:
        importlib.import_module(name)
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    sys.path.insert(0, SRC)
    setup_calibration = calibrate.Calibration()
    import_times = []
    for _ in range(SETUP_REPEATS):
        import_times.append(_import_program())
        setup_calibration.after(import_times[-1])
    import fracvault
    if not os.path.abspath(fracvault.__file__).startswith(SRC + os.sep):
        print(f"fracvault imported from {fracvault.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.size]

    problems: list[str] = []
    setup_times, prepared = [], []
    for _ in range(SETUP_REPEATS):
        begin = time.perf_counter()
        prepared.append(workload.prepare(args.seed, size))
        setup_times.append(time.perf_counter() - begin)
        setup_calibration.after(setup_times[-1])
    inputs = prepared[0]
    if any(p != inputs for p in prepared[1:]):
        problems.append("the same seed gave different inputs")
    setup_raw_s = statistics.median(import_times) + statistics.median(setup_times)
    setup_s = setup_raw_s * calibrate.REFERENCE_UNIT_S / setup_calibration.unit_s

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    passes = []
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        begin = time.perf_counter()
        while not passes or (not args.trace
                             and time.perf_counter() - begin < args.seconds):
            passes.append(workload.run_pass(inputs, None, workdir))
        if args.trace:
            log = tracing.SpanLog()
            with tracing.instrumented(log):
                traced = workload.run_pass(inputs, log, workdir)
            # untraced passes on both sides, so warm-up is not counted as
            # tracing overhead
            passes += [traced, workload.run_pass(inputs, None, workdir)]
    for result in passes:
        problems.extend(workload.verify(inputs, result))
    if any(p.outputs != passes[0].outputs for p in passes[1:]):
        problems.append("a repeated or traced pass produced different outputs")

    per_pass = {"primary_s": [p.phases["primary"] for p in passes],
                "secondary_s": [p.phases["secondary"] for p in passes],
                "reference_unit_s": [p.calibration.unit_s for p in passes]}
    for key in ("primary_ref", "secondary_ref"):
        per_pass[key] = [p.in_reference_units()[key] for p in passes]
    figures = [workload.figures(p) for p in passes]
    for key in figures[0]:
        per_pass[key] = [f[key] for f in figures]
    if args.trace:
        per_layer, span_table = tracing.layer_metrics(log)
        per_layer.update({"fuzz.detect_step": 0, "fuzz.shrunk_len": 0,
                          "trace.bytes": 0})
        per_layer.update(traced.counts)
        untraced = [p for p in passes if p is not traced]
        per_layer["bench.tracing_overhead_s"] = _nominal_s(traced) - \
            statistics.fmean(_nominal_s(p) for p in untraced)
        wanted = spec["per_layer"]
        values = per_layer
    else:
        # a pass whose reference missed a change of host speed is an outlier
        values = {name: statistics.median(v) for name, v in per_pass.items()}
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wanted = spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        metrics[metric["name"]] = {"value": values[metric["name"]],
                                   "unit": metric["unit"]}

    metadata = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "size": args.size, "python": platform.python_version(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(), "inputs": _describe(inputs),
        "repeats": len(passes), "setup_repeats": SETUP_REPEATS,
        "import_s_each": import_times, "prepare_s_each": setup_times,
        "setup_raw_s": setup_raw_s,
        "setup_reference_unit_s": setup_calibration.unit_s,
        "per_pass": {name: _summary(v) for name, v in per_pass.items()},
        "problems": problems,
    }
    print("run-metadata: " + json.dumps(metadata, sort_keys=True))
    record = {"metadata": metadata, "metrics": metrics}
    if args.trace:
        record["spans"] = span_table
        log.write(stem + ".spans.gz")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    result = {"correct": not problems,
              "attempted": sum(p.attempted for p in passes),
              "failed": sum(p.failed for p in passes),
              "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0


def _nominal_s(result) -> float:
    """Timed seconds of a pass at the nominal speed of the reference."""
    return sum(result.phases.values()) * calibrate.REFERENCE_UNIT_S \
        / result.calibration.unit_s


def _describe(inputs) -> object:
    """Seeds and sizes of the inputs, for the run record."""
    if isinstance(inputs, dict):
        return {"fuzz": [p.as_data() for p in inputs["fuzz"]],
                "suite": [list(s) for s in inputs["suite"]]}
    if inputs and isinstance(inputs[0], str):
        return [{"sha256": hashlib.sha256(t.encode()).hexdigest(),
                 "bytes": len(t)} for t in inputs]
    return [[full.seed, full.steps, head.steps] for full, head in inputs]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
