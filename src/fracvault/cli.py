"""Command-line front end.

Subcommands: ``run`` executes a scenario and writes its trace; ``fuzz``
drives a randomized campaign (optionally against a built-in mutant) and
writes a machine-readable report; ``replay`` re-executes a trace and
verifies every digest; ``suite`` runs the full property suite.  Exit status
is nonzero exactly when something failed: an expectation mismatch, an
invariant violation, a failing property, or a parse/digest error.

Reports land in ``--report``/``--trace`` paths when given, otherwise in
``$FRACVAULT_REPORT_DIR`` (default: the working directory).
"""

from __future__ import annotations

import json
import os
import pathlib
import sys

import click

from .fuzz import FuzzPlan, run_fuzz
from .ledger import normalize
from .mutations import MUTANTS
from .properties import run_suite
from .scenario import (ExpectationMismatch, ScenarioError, load_scenario,
                       run_scenario)
from .trace import DigestMismatch, replay_trace, write_trace


def _report_dir() -> pathlib.Path:
    return pathlib.Path(os.environ.get("FRACVAULT_REPORT_DIR", "."))


def _write_json(path: pathlib.Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(normalize(data), indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


@click.group()
def main() -> None:
    """Deterministic NFT-fractionalization simulator and property harness."""


@main.command("run")
@click.argument("scenario_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--trace", "trace_path", type=click.Path(dir_okay=False),
              default=None, help="Trace output path.")
def run_command(scenario_path: str, trace_path: str | None) -> None:
    """Execute a scenario file and write its transaction trace."""
    try:
        scenario = load_scenario(scenario_path)
    except ScenarioError as exc:
        click.echo(f"parse error: {exc}", err=True)
        sys.exit(1)
    destination = pathlib.Path(trace_path) if trace_path else \
        _report_dir() / (pathlib.Path(scenario_path).stem + ".trace.jsonl")
    try:
        run = run_scenario(scenario)
    except ExpectationMismatch as exc:
        click.echo(f"expectation mismatch: {exc}", err=True)
        sys.exit(1)
    except ScenarioError as exc:
        click.echo(f"scenario error: {exc}", err=True)
        sys.exit(1)
    destination.parent.mkdir(parents=True, exist_ok=True)
    write_trace(str(destination), scenario, run.records)
    click.echo(f"ok: {len(run.records)} transactions, trace at {destination}")


@main.command("fuzz")
@click.option("--seed", type=int, required=True)
@click.option("--steps", type=click.IntRange(min=0), default=10_000, show_default=True)
@click.option("--actors", type=click.IntRange(min=1), default=6, show_default=True)
@click.option("--mutant", type=click.Choice(sorted(MUTANTS)), default=None)
@click.option("--check-revert-atomicity", is_flag=True, default=False,
              help="Check that every failed transaction leaves the state as it "
                   "was: compare the world's objects by identity before and "
                   "after, and hash only if a revert left a different one.")
@click.option("--report", "report_path", type=click.Path(dir_okay=False),
              default=None)
def fuzz_command(seed: int, steps: int, actors: int, mutant: str | None,
                 check_revert_atomicity: bool, report_path: str | None) -> None:
    """Run a deterministic randomized campaign and check every invariant."""
    plan = FuzzPlan(seed=seed, steps=steps, actor_count=actors, mutant=mutant,
                    check_revert_atomicity=check_revert_atomicity)
    report = run_fuzz(plan)
    destination = pathlib.Path(report_path) if report_path else \
        _report_dir() / f"fuzz-seed{seed}-steps{steps}.json"
    _write_json(destination, report.as_data())
    for violation in report.violations:
        click.echo(f"violation: {violation.detail}")
        click.echo(f"  at step {violation.step}, minimized to "
                   f"{len(violation.trace)} steps")
    click.echo(f"{'ok' if report.ok else 'FAIL'}: {report.steps_executed} steps, "
               f"{report.commits} commits, {report.reverts} reverts, "
               f"report at {destination}")
    sys.exit(0 if report.ok else 1)


@main.command("replay")
@click.argument("trace_path", type=click.Path(exists=True, dir_okay=False))
def replay_command(trace_path: str) -> None:
    """Re-execute a trace and verify result, events and digest per step."""
    try:
        steps = replay_trace(trace_path)
    except DigestMismatch as exc:
        click.echo(f"replay diverged: {exc}", err=True)
        sys.exit(1)
    except ScenarioError as exc:
        click.echo(f"parse error: {exc}", err=True)
        sys.exit(1)
    click.echo(f"ok: replayed {steps} steps with matching digests")


@main.command("suite")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--steps", type=click.IntRange(min=0), default=10_000, show_default=True,
              help="Randomized transactions per property campaign.")
@click.option("--mutant", type=click.Choice(sorted(MUTANTS)), default=None)
@click.option("--report", "report_path", type=click.Path(dir_okay=False),
              default=None)
def suite_command(seed: int, steps: int, mutant: str | None,
                  report_path: str | None) -> None:
    """Run every property; one pass/fail line per property."""
    report = run_suite(seed=seed, steps=steps, mutant=mutant)
    for result in report.results:
        mark = "PASS" if result.passed else "FAIL"
        suffix = f"  {result.detail}" if result.detail else ""
        click.echo(f"{mark} {result.name}{suffix}")
    destination = pathlib.Path(report_path) if report_path else \
        _report_dir() / f"suite-seed{seed}-steps{steps}.json"
    _write_json(destination, report.as_data())
    click.echo(f"{'ok' if report.passed else 'FAIL'}: "
               f"{len(report.results)} properties, report at {destination}")
    sys.exit(0 if report.passed else 1)


if __name__ == "__main__":
    main()
