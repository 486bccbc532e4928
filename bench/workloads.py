"""The three benchmark workloads.

Each workload is one closed loop with one caller, driven only through the
library entry points the CLI commands call.  ``prepare(seed, size)`` makes
the inputs (untimed, counted in set-up).  ``run_pass(inputs, log, workdir)``
runs them once, timing two interleaved phases, ``primary`` and
``secondary``, and running the ``calibrate`` reference after each timed
call.  ``verify(inputs, result)`` runs the checks that call back into the
program, outside any timed or traced region.

* fuzz-long: healthy ``run_fuzz`` with all 8 invariants, 6 actors and the
  default weights.  Primary is a full-length run per fuzz seed, secondary
  the same seeds at one tenth of the length (the full run's prefix), so the
  ratio of the two shows how step cost grows with history.
* mutant-hunt: each built-in mutant is hunted by ``run_fuzz`` at a fixed
  step budget (primary) and by ``run_suite`` (secondary).  A hunt that ends
  without a violation is a failed operation.  The hunts do not depend on
  the run's seed; they use the seeds of the ROADMAP baseline rows.  Shrinking
  and minimisation make one hunt's time depend on its seed far more than on
  the program: one ``drop-burn-before-pay`` fuzz hunt took from 0.15 s to
  23 s over six seeds, and the suite hunts of one mutant set varied by a
  third, so seed-drawn hunts would give no figure two runs could compare.
* trace-replay: four seeded ``fracvault-scenario-v1`` documents (see
  ``scenario_gen``) are each parsed, run with a digest per step and written
  as a trace (primary), then replayed from the trace (secondary).
"""

from __future__ import annotations

import hashlib
import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

from fracvault import fuzz, properties, scenario
from fracvault import trace as fv_trace
from fracvault.mutations import MUTANTS

import scenario_gen
from calibrate import Calibration

# the seeds of the ROADMAP baseline rows: `fuzz --seed 42`, `suite` (seed 0)
HUNT_FUZZ_SEED = 42
HUNT_SUITE_SEED = 0

SIZES: dict[str, dict[str, int]] = {
    "full": {"fuzz_steps": 30_000, "fuzz_seeds": 2, "hunt_steps": 20_000,
             "suite_steps": 400, "scenario_tx": 1_500, "scenarios": 4},
    # for the self-test only
    "tiny": {"fuzz_steps": 300, "fuzz_seeds": 2, "hunt_steps": 300,
             "suite_steps": 20, "scenario_tx": 20, "scenarios": 2},
}


@dataclass
class PassResult:
    phases: dict[str, float] = field(
        default_factory=lambda: {"primary": 0.0, "secondary": 0.0})
    outputs: list = field(default_factory=list)  # must repeat exactly
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)  # incorrect outputs
    counts: dict[str, float] = field(default_factory=dict)
    calibration: Calibration = field(default_factory=Calibration)

    def record(self, failure: str | None, *, incorrect: bool = True) -> None:
        """Count one operation; a failure is also an incorrect output unless
        it is a verdict the program may legitimately miss."""
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            if incorrect:
                self.problems.append(failure)

    def timed(self, phase: str, log, label: str, call: Callable[[], Any]) -> Any:
        with log.span(f"bench.{label}") if log is not None else nullcontext():
            start = perf_counter()
            value = call()
            elapsed = perf_counter() - start
        self.phases[phase] += elapsed
        self.calibration.after(elapsed)
        return value

    def in_reference_units(self) -> dict[str, float]:
        return {f"{phase}_ref": seconds / self.calibration.unit_s
                for phase, seconds in self.phases.items()}


def _sub_seeds(seed: int, count: int) -> list[int]:
    return [seed * count + i for i in range(count)]


# --------------------------------------------------------------------- #
# fuzz-long
# --------------------------------------------------------------------- #

def prepare_fuzz_long(seed: int, size: dict) -> list[tuple[fuzz.FuzzPlan, fuzz.FuzzPlan]]:
    steps = size["fuzz_steps"]
    return [(fuzz.FuzzPlan(seed=s, steps=steps), fuzz.FuzzPlan(seed=s, steps=steps // 10))
            for s in _sub_seeds(seed, size["fuzz_seeds"])]


def run_fuzz_long(plans, log, workdir: str) -> PassResult:
    result = PassResult()
    for full, head in plans:
        for plan, phase, label in ((full, "primary", "fuzz_full"),
                                   (head, "secondary", "fuzz_head")):
            report = result.timed(phase, log, label, lambda: fuzz.run_fuzz(plan))
            problem = None
            if not report.ok:
                problem = f"seed {plan.seed}: healthy run violated " \
                          f"{report.violations[0].detail}"
            elif report.steps_executed != plan.steps:
                problem = f"seed {plan.seed}: ran {report.steps_executed} " \
                          f"of {plan.steps} steps"
            result.record(problem)
            result.outputs.append([plan.seed, plan.steps, report.final_digest,
                                   report.commits, report.reverts])
    result.counts = {"fuzz_steps": sum(p.steps for p, _ in plans),
                     "fuzz_head_steps": sum(p.steps for _, p in plans)}
    return result


# --------------------------------------------------------------------- #
# mutant-hunt
# --------------------------------------------------------------------- #

def prepare_mutant_hunt(seed: int, size: dict) -> dict:
    """The same twelve hunts for every seed (see the module docstring)."""
    mutants = sorted(MUTANTS)
    return {"fuzz": [fuzz.FuzzPlan(seed=HUNT_FUZZ_SEED, steps=size["hunt_steps"],
                                   mutant=m) for m in mutants],
            "suite": [(m, HUNT_SUITE_SEED, size["suite_steps"]) for m in mutants]}


def run_mutant_hunt(inputs, log, workdir: str) -> PassResult:
    result = PassResult()
    detect = shrunk = 0
    fuzz_reports = []
    # the two hunts of a mutant run back to back, so that both phases are
    # timed across the whole pass and not each in one stretch
    for plan, (mutant, seed, steps) in zip(inputs["fuzz"], inputs["suite"]):
        report = result.timed("primary", log, "hunt_fuzz",
                              lambda: fuzz.run_fuzz(plan))
        result.record(f"fuzz missed {plan.mutant} in {plan.steps} steps"
                      if report.ok else None, incorrect=False)
        if not report.ok:
            detect += report.violations[0].step
            shrunk += len(report.violations[0].trace)
        fuzz_reports.append(report.as_data())
        suite = result.timed("secondary", log, "hunt_suite",
                             lambda: properties.run_suite(seed=seed, steps=steps,
                                                          mutant=mutant))
        result.record(f"suite missed {mutant}" if suite.passed else None)
        result.outputs.append(suite.as_data())
    result.outputs[:0] = fuzz_reports
    result.counts = {"fuzz.detect_step": detect, "fuzz.shrunk_len": shrunk}
    return result


def verify_mutant_hunt(inputs, result: PassResult) -> list[str]:
    """The suite must catch every mutant, and every fuzz verdict's shrunk
    trace must still violate the same invariant."""
    problems = list(result.problems)
    for plan, report in zip(inputs["fuzz"], result.outputs):
        for violation in report["violations"]:
            trace = [fuzz.FuzzAction.from_data(a) for a in violation["trace"]]
            if not fuzz.replay_violates(plan, trace, violation["invariant"]):
                problems.append(f"{plan.mutant}: shrunk trace no longer "
                                f"violates {violation['invariant']}")
    return problems


# --------------------------------------------------------------------- #
# trace-replay
# --------------------------------------------------------------------- #

def prepare_trace_replay(seed: int, size: dict) -> list[str]:
    return [scenario_gen.build_scenario(s, size["scenario_tx"])
            for s in _sub_seeds(seed, size["scenarios"])]


def run_scenario_op(text: str, path: str) -> tuple[str | None, int, str]:
    """Parse, run and write the trace: (problem, transactions, final digest)."""
    document = scenario.parse_scenario(text)
    try:
        run = scenario.run_scenario(document)
    except scenario.ExpectationMismatch as exc:
        return f"pinned expect not met: {exc}", 0, ""
    fv_trace.write_trace(path, document, run.records)
    return None, len(run.records), run.records[-1].digest if run.records else ""


def replay_op(path: str, expected: int) -> str | None:
    try:
        replayed = fv_trace.replay_trace(path)
    except fv_trace.DigestMismatch as exc:
        return f"replay diverged: {exc}"
    if replayed != expected:
        return f"replayed {replayed} of {expected} transactions"
    return None


def run_trace_replay(texts, log, workdir: str) -> PassResult:
    result = PassResult()
    transactions = trace_bytes = 0
    for i, text in enumerate(texts):
        path = os.path.join(workdir, f"scenario{i}.trace.jsonl")
        problem, count, digest = result.timed(
            "primary", log, "scenario_run", lambda: run_scenario_op(text, path))
        result.record(problem)
        transactions += count
        if problem is None:
            result.record(result.timed("secondary", log, "replay",
                                       lambda: replay_op(path, count)))
            with open(path, "rb") as fh:
                data = fh.read()
            trace_bytes += len(data)
            result.outputs.append([hashlib.sha256(data).hexdigest(), count, digest])
    result.counts = {"scenario_tx": transactions, "trace.bytes": trace_bytes}
    return result


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds else 0.0


@dataclass(frozen=True)
class Workload:
    prepare: Callable[[int, dict], Any]
    run_pass: Callable[[Any, Any, str], PassResult]
    # the pass in the terms of the ROADMAP baseline, for the run record
    figures: Callable[[PassResult], dict[str, float]]
    verify: Callable[[Any, PassResult], list[str]] = lambda inputs, result: result.problems


WORKLOADS: dict[str, Workload] = {
    "fuzz-long": Workload(prepare_fuzz_long, run_fuzz_long, lambda r: {
        "fuzz_steps_per_s": _rate(r.counts["fuzz_steps"], r.phases["primary"]),
        "fuzz_head_steps_per_s": _rate(r.counts["fuzz_head_steps"],
                                       r.phases["secondary"])}),
    "mutant-hunt": Workload(prepare_mutant_hunt, run_mutant_hunt, lambda r: {
        "hunt_fuzz_s": r.phases["primary"], "hunt_suite_s": r.phases["secondary"]},
        verify_mutant_hunt),
    "trace-replay": Workload(prepare_trace_replay, run_trace_replay, lambda r: {
        "run_steps_per_s": _rate(r.counts["scenario_tx"], r.phases["primary"]),
        "replay_steps_per_s": _rate(r.counts["scenario_tx"], r.phases["secondary"])}),
}
