"""Trace files: one JSON line per executed transaction plus a header, with a
state digest after every step so replay detects any divergence.

Replay rebuilds the world from the header's genesis and deployment, applies
each recorded transaction's inputs, and compares result, return value,
events and digest against the record.  Any difference raises
``DigestMismatch`` naming the step and field; an edited or truncated trace
cannot replay clean.
"""

from __future__ import annotations

import json

from .ledger import canonical_json, normalize
from .scenario import (ScenarioError, TraceRecord, build_world, check_transaction,
                       check_world, execute_entry)

FORMAT = "fracvault-trace-v1"


class DigestMismatch(Exception):
    def __init__(self, step: int, field: str, expected, got):
        self.step = step
        self.field = field
        super().__init__(f"trace step {step}: {field} diverged; recorded "
                         f"{expected!r}, replay produced {got!r}")


def write_trace(path: str, scenario: dict, records: list[TraceRecord]) -> None:
    header = {"format": FORMAT,
              "genesis": scenario["genesis"],
              "deployment": scenario["deployment"],
              "mutant": scenario.get("mutant")}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(normalize(header)) + "\n")
        for record in records:
            fh.write(canonical_json(record.as_data()) + "\n")


def read_trace(path: str) -> tuple[dict, list[dict]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if not lines:
        raise ScenarioError("empty trace file")
    try:
        header = json.loads(lines[0])
        records = [json.loads(line) for line in lines[1:]]
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(header, dict):
        raise ScenarioError("trace header must be a JSON object")
    if header.get("format") != FORMAT:
        raise ScenarioError(f"unsupported trace format {header.get('format')!r}")
    check_world(header)
    for i, record in enumerate(records):
        check_transaction(record, f"record {i}")
    return header, records


def replay_trace(path: str) -> int:
    """Re-execute a trace and verify every record; returns the step count."""
    header, records = read_trace(path)
    scenario = {"format": "fracvault-scenario-v1",
                "genesis": header["genesis"],
                "deployment": header["deployment"],
                "mutant": header.get("mutant"),
                "transactions": []}
    state = build_world(scenario)
    for i, recorded in enumerate(records):
        produced = execute_entry(state, i, recorded).as_data()
        for field in ("result", "return", "events", "digest"):
            if produced[field] != recorded.get(field):
                raise DigestMismatch(i, field, recorded.get(field),
                                     produced[field])
    return len(records)
