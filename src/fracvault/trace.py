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
count is the only sign of the cut.  The replayed world folds its own
event log (``ledger.FOLD_EVENTS``), so it keeps its state but not its log.

Where the process may use two CPUs and the trace has at least
``ddmin.PEER_MIN_STEPS`` record lines, counted in chunks once the file
is large enough to hold that many, replay is split (``ddmin.run_split``).
This process builds the world, forks a peer and checks the records
before the split, ``ddmin.SPLIT_SHARE`` of the lines, as above.  The
peer reads the trace again and runs those records unchecked (decode,
``system.run_action``); a digest and a comparison leave the world as it
was, so its world at the split is the checked one.  It then counts
their digests as taken (``ChainState.resume_digests``), so the cache's
cross-checks fall on the same calls as in one process, and checks the
rest.  The peer's count is taken only if it exits 0; otherwise this
process checks the rest itself and raises what one process raises.
"""

from __future__ import annotations

import json
import os
from contextlib import closing
from functools import partial
from itertools import islice
from typing import Iterator

from .ddmin import PEER_MIN_STEPS, run_split
from .ledger import ChainState, canonical_json, normalize
from .scenario import (FuzzAction, ScenarioError, TraceRecord, build_world,
                       check_world, decode_transaction, execute_entry)
from .system import run_action

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
    the step count.  A long trace is split between this process and a
    forked peer where the process may use two CPUs (``ddmin.run_split``)."""
    header, records = read_trace(path)
    with closing(records):
        state = build_world(header)  # its genesis, deployment and mutant
        return run_split(partial(_record_lines, path),
                         _Replay(state, records).check,
                         partial(_replay_from, path, state))


class _Replay:
    """A world replaying the records of a trace in order; ``step`` records
    have run."""

    step = 0

    def __init__(self, state: ChainState, records: Iterator):
        self.state, self.records = state, records

    def check(self, stop: int | None) -> int:
        """Run and check the records up to index ``stop``, or to the end if
        None: how many records have run."""
        state = self.state
        for action, recorded in islice(self.records, None if stop is None
                                       else stop - self.step):
            step = self.step
            numbered = recorded.get("step")
            if type(numbered) is not int or numbered != step:
                raise DigestMismatch(step, "step", numbered, step)
            for field, produced in execute_entry(state, step, action).outcome().items():
                if produced != recorded.get(field):
                    raise DigestMismatch(step, field, recorded.get(field), produced)
            self.step = step + 1
        return self.step

    def run(self, stop: int) -> None:
        """Run the records up to index ``stop`` unchecked, and count the
        digests of their outcomes as taken."""
        for action, _ in islice(self.records, stop - self.step):
            run_action(self.state, action)
            self.step += 1
        self.state.resume_digests(self.step)


def _replay_from(path: str, state: ChainState, split: int) -> int:
    """The peer of a split replay: ``state``, the world at genesis, runs the
    records of its own reading of the trace up to ``split`` unchecked and
    checks the rest; the step count."""
    records = read_trace(path)[1]
    with closing(records):
        replay = _Replay(state, records)
        replay.run(split)
        return replay.check(None)


# A record line that replays clean holds a 64-digit digest and the other
# fields replay compares, more than this many bytes: a smaller file cannot
# hold PEER_MIN_STEPS such records, and its lines are not counted.
_LINE_BYTES_MIN = 100
_CHUNK_BYTES = 1 << 20


def _record_lines(path: str) -> int:
    """The lines of the trace at ``path`` after its header, counted in
    chunks: its records and blank lines.  0, unread, for a file too small
    to hold ``PEER_MIN_STEPS`` records."""
    if os.stat(path).st_size < PEER_MIN_STEPS * _LINE_BYTES_MIN:
        return 0
    newlines, last = 0, b""
    with open(path, "rb") as fh:
        while chunk := fh.read(_CHUNK_BYTES):
            newlines += chunk.count(b"\n")
            last = chunk
    cut = not last.endswith(b"\n")  # a last line cut short has no newline
    return newlines + cut - 1
