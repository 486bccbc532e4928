"""Trace files: one JSON line per executed transaction plus a header, with a
state digest after every step so replay detects any divergence.

A record's inputs are a ``system.FuzzAction`` in its ``as_data`` encoding
(sender, call, args, value, advance_clock); its outcome adds result,
return value, events and digest, and ``step`` numbers it.  Each line is
``TraceRecord.line()``, the canonical JSON of the record.  Replay
rebuilds the world from the header's genesis and deployment, then reads,
decodes and runs one record at a time through ``scenario.execute_entry``
and compares its step number with its position and the outcome against
the record, so it holds one record, not the trace.  Any difference
raises ``DigestMismatch`` naming the step and field, so an edited field
fails replay.  A malformed line, a line cut in the middle
included, is a ``ScenarioError`` naming its line number and record,
raised when replay reaches it, after the records before it replayed.  A
trace cut at a record boundary replays clean as the shorter run: its step
count is the only sign of the cut.  Every ``DIGEST_CHECK_INTERVAL``
records replay folds the world's event log into its event hash
(``ChainState.fold_events``), so the replayed world keeps its state but
not its log.
"""

from __future__ import annotations

import json
from contextlib import closing
from typing import Iterator

from .ledger import DIGEST_CHECK_INTERVAL, canonical_json, normalize
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
            fh.write(record.line())


def read_trace(path: str) -> tuple[dict, Iterator[tuple[FuzzAction, dict]]]:
    """The validated header, and an iterator that reads and decodes one
    record at a time to its action next to its data.  The file stays open
    until the iterator is exhausted or closed."""
    lines = _header_then_records(path)
    return next(lines), lines


def _header_then_records(path: str) -> Iterator:
    """The header, then each record as ``(action, data)``; the file is
    closed when the generator finishes or is closed."""
    header = None
    index = 0
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            where = "header" if header is None else f"record {index}"
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ScenarioError(f"line {number}: {where}: {exc.msg}") from exc
            if header is not None:
                yield decode_transaction(data, where), data
                index += 1
                continue
            if not isinstance(data, dict):
                raise ScenarioError("trace header must be a JSON object")
            if data.get("format") != FORMAT:
                raise ScenarioError(f"unsupported trace format {data.get('format')!r}")
            check_world(data)
            header = data
            yield header
    if header is None:
        raise ScenarioError("empty trace file")


def replay_trace(path: str) -> int:
    """Re-execute a trace and verify every record as it is read; returns
    the step count."""
    header, records = read_trace(path)
    with closing(records):
        state = build_world(header)  # its genesis, deployment and mutant
        steps = 0
        for step, (action, recorded) in enumerate(records):
            numbered = recorded.get("step")
            if type(numbered) is not int or numbered != step:
                raise DigestMismatch(step, "step", numbered, step)
            if step % DIGEST_CHECK_INTERVAL == 0:
                state.fold_events()
            for field, produced in execute_entry(state, step, action).outcome().items():
                if produced != recorded.get(field):
                    raise DigestMismatch(step, field, recorded.get(field), produced)
            steps += 1
    return steps
