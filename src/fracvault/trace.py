"""Trace files: one JSON line per executed transaction plus a header, with a
state digest after every step so replay detects any divergence.

A record's inputs are a ``system.FuzzAction`` in its ``as_data`` encoding
(sender, call, args, value, advance_clock); its outcome adds result,
return value, events and digest.  Replay rebuilds the world from the
header's genesis and deployment, runs each decoded record through
``scenario.execute_entry``, and compares the outcome against the record.
Any difference raises ``DigestMismatch`` naming the step and field; an
edited or truncated trace cannot replay clean.  A malformed line is a
``ScenarioError`` naming its line number and record.
"""

from __future__ import annotations

import json

from .ledger import canonical_json, normalize
from .scenario import (FuzzAction, ScenarioError, TraceRecord, build_world,
                       check_world, decode_transaction, execute_entry)

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


def read_trace(path: str) -> tuple[dict, list[tuple[FuzzAction, dict]]]:
    """The header, and each record decoded to its action next to its data."""
    header = None
    records: list[tuple[FuzzAction, dict]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            where = "header" if header is None else f"record {len(records)}"
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ScenarioError(f"line {number}: {where}: {exc.msg}") from exc
            if header is not None:
                records.append((decode_transaction(data, where), data))
                continue
            if not isinstance(data, dict):
                raise ScenarioError("trace header must be a JSON object")
            if data.get("format") != FORMAT:
                raise ScenarioError(f"unsupported trace format {data.get('format')!r}")
            check_world(data)
            header = data
    if header is None:
        raise ScenarioError("empty trace file")
    return header, records


def replay_trace(path: str) -> int:
    """Re-execute a trace and verify every record; returns the step count."""
    header, records = read_trace(path)
    state = build_world(header)  # its genesis, deployment and mutant
    for i, (action, recorded) in enumerate(records):
        for field, produced in execute_entry(state, i, action).outcome().items():
            if produced != recorded.get(field):
                raise DigestMismatch(i, field, recorded.get(field), produced)
    return len(records)
