"""Span tracing for the traced benchmark run, installed from outside the
program.

``instrumented(log)`` replaces the program's functions at each layer
boundary with wrappers that record a span (name, start, end, parent) into
``SpanLog`` and restores the originals on exit.  Spans stay in memory in
flat arrays and are written out once, after the run.  ``layer_metrics``
turns the log into the per-layer figures; a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import array
import gzip
import json
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator

from fracvault import attackers, fuzz, invariants, ledger, properties, scenario
from fracvault import trace as fv_trace
from fracvault.ledger import ChainState

# transact time is keyed by the python module of the called module's class
_LAYER_OF = {"fracvault.ledger": "native", "fracvault.vault": "vault",
             "fracvault.tokens": "tokens", "fracvault.governance": "governance",
             "fracvault.market": "market"}
MODULE_LAYERS = ("vault", "tokens", "governance", "market", "native")

# (owner, attribute, span name): plain call boundaries.  A function that other
# modules imported by name is patched in each importing module as well.
_BOUNDARIES: tuple[tuple[Any, str, str], ...] = (
    (fuzz.ActionGenerator, "generate", "fuzz.generate"),
    (fuzz, "_step_violation", "fuzz.step"),
    (fuzz, "shrink", "fuzz.shrink"),
    (fuzz, "replay_violates", "fuzz.replay_violates"),
    (fuzz, "build_fuzz_world", "fuzz.build_world"),
    (ChainState, "emit", "ledger.emit"),
    (ChainState, "digest", "ledger.digest"),
    (properties, "run_campaign", "properties.campaign"),
    (properties, "_minimize", "properties.minimize"),
    (properties, "_replay_fails", "properties.replay"),
    (attackers, "run_attack", "attackers.run_attack"),
    (scenario, "parse_scenario", "scenario.parse"),
    (scenario, "build_world", "scenario.build_world"),
    (fv_trace, "build_world", "scenario.build_world"),
    (scenario, "execute_entry", "scenario.execute"),
    (fv_trace, "execute_entry", "scenario.execute"),
    (fv_trace, "write_trace", "trace.write"),
    (fv_trace, "read_trace", "trace.read"),
)


class SpanLog:
    """Spans in parallel arrays; a span's parent is the span open when it began."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack: list[int] = []
        self.commits = 0
        self.max_doc_bytes = 0

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.open(self.intern(name))
        try:
            yield
        finally:
            self.close(index)

    def write(self, path: str) -> None:
        """A JSON header naming the fields and span names, then one line per
        span in start order: name id, distance back to the parent span (0
        for none), start minus the previous span's start and duration, both
        in integer nanoseconds."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names, "fields": [
                "name", "parent_back", "start_delta_ns", "duration_ns"]}) + "\n")
            previous = self.start[0] if self.start else 0.0
            lines = []
            for i, (name, parent, start, end) in enumerate(
                    zip(self.name, self.parent, self.start, self.end)):
                lines.append("%d %d %d %d\n" % (
                    name, i - parent if parent >= 0 else 0,
                    round((start - previous) * 1e9), round((end - start) * 1e9)))
                previous = start
                if len(lines) == 65536:
                    fh.writelines(lines)
                    lines.clear()
            fh.writelines(lines)


def _wrap(log: SpanLog, name: str, fn: Callable) -> Callable:
    name_id = log.intern(name)
    # open/close inlined with bound methods: this runs ~10 times per step
    names, parents, starts, ends = (log.name.append, log.parent.append,
                                    log.start.append, log.end)
    stack = log.stack

    def traced(*args, **kwargs):
        index = len(ends)
        names(name_id)
        parents(stack[-1] if stack else -1)
        ends.append(0.0)
        stack.append(index)
        starts(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            ends[index] = perf_counter()
            stack.pop()

    return traced


def _wrap_transact(log: SpanLog, fn: Callable) -> Callable:
    ids = {layer: log.intern(f"ledger.transact.{layer}")
           for layer in MODULE_LAYERS + ("other",)}

    def traced(state, sender, module_id, *args, **kwargs):
        module = state.modules.get(module_id)
        layer = _LAYER_OF.get(type(module).__module__, "other")
        index = log.open(ids[layer])
        try:
            result = fn(state, sender, module_id, *args, **kwargs)
        finally:
            log.close(index)
        log.commits += result.ok
        return result

    return traced


def _wrap_digest_of(log: SpanLog, fn: Callable) -> Callable:
    """Split ``digest_of`` into normalize, canonical JSON and the rest (hash).

    The two helpers are swapped in only while a digest runs, so event
    hashing under ``emit`` stays inside the emit span.  The outer normalize
    call puts the original back for its own recursion, so recursive calls
    pay no wrapper cost.
    """
    normalize, canonical_json = ledger.normalize, ledger.canonical_json
    outer_id = log.intern("ledger.digest_of")
    normalize_id = log.intern("ledger.digest.normalize")
    encode_id = log.intern("ledger.digest.encode")

    def traced_normalize(value):
        ledger.normalize = normalize
        index = log.open(normalize_id)
        try:
            return normalize(value)
        finally:
            log.close(index)

    def traced_canonical_json(data):
        index = log.open(encode_id)
        try:
            text = canonical_json(data)
        finally:
            log.close(index)
        log.max_doc_bytes = max(log.max_doc_bytes, len(text))
        return text

    def traced(data):
        index = log.open(outer_id)
        ledger.normalize, ledger.canonical_json = traced_normalize, traced_canonical_json
        try:
            return fn(data)
        finally:
            ledger.normalize, ledger.canonical_json = normalize, canonical_json
            log.close(index)

    return traced


@contextmanager
def instrumented(log: SpanLog) -> Iterator[SpanLog]:
    patches: list[tuple[Any, str, Any]] = []
    checkers = dict(invariants.CHECKERS)

    def patch(owner: Any, attr: str, wrapper: Callable) -> None:
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    try:
        for owner, attr, name in _BOUNDARIES:
            patch(owner, attr, _wrap(log, name, getattr(owner, attr)))
        patch(ChainState, "transact", _wrap_transact(log, ChainState.transact))
        patch(ledger, "digest_of", _wrap_digest_of(log, ledger.digest_of))
        for check_name, checker in checkers.items():
            invariants.CHECKERS[check_name] = _wrap(
                log, f"invariants.{check_name}", checker)
        yield log
    finally:
        invariants.CHECKERS.update(checkers)
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def _tenth_mean(values: list[float], tail: bool) -> float:
    if not values:
        return 0.0
    k = max(len(values) // 10, 1)
    part = values[-k:] if tail else values[:k]
    return sum(part) / len(part)


def layer_metrics(log: SpanLog) -> tuple[dict[str, float], dict[str, dict]]:
    """Per-layer figures (zero where a layer never ran) and, per span name,
    the count, total and self seconds."""
    names = log.names
    count: dict[tuple[str, str], int] = {}
    total: dict[tuple[str, str], float] = {}
    self_time: dict[tuple[str, str], float] = {}
    child = [0.0] * len(log.start)
    step_starts: dict[int, list[float]] = {}
    digest_times: list[float] = []
    # children always follow their parent, so one backward pass sees every
    # child before its parent
    for i in range(len(log.start) - 1, -1, -1):
        duration = log.end[i] - log.start[i]
        parent = log.parent[i]
        name = names[log.name[i]]
        key = (name, names[log.name[parent]] if parent >= 0 else "")
        count[key] = count.get(key, 0) + 1
        total[key] = total.get(key, 0.0) + duration
        self_time[key] = self_time.get(key, 0.0) + duration - child[i]
        if parent >= 0:
            child[parent] += duration
        if name == "ledger.digest":
            digest_times.append(duration)
        elif key == ("fuzz.generate", "bench.fuzz_full"):
            step_starts.setdefault(parent, []).append(log.start[i])
    digest_times.reverse()

    def pick(table: dict, name: str, parent: str | None = None):
        return sum(v for (n, p), v in table.items()
                   if n == name and (parent is None or p == parent))

    # a step runs from one generate call to the next, within one full-length run
    steps: list[list[float]] = []
    for starts in step_starts.values():
        starts.sort()
        steps.append([b - a for a, b in zip(starts, starts[1:])])
    layers = MODULE_LAYERS + ("other",)
    transact_calls = sum(pick(count, f"ledger.transact.{x}") for x in layers)
    metrics: dict[str, float] = {
        "fuzz.generate_s": pick(total, "fuzz.generate"),
        "fuzz.generate_calls": pick(count, "fuzz.generate"),
        "fuzz.step_us.head": 1e6 * _mean([_tenth_mean(s, False) for s in steps]),
        "fuzz.step_us.tail": 1e6 * _mean([_tenth_mean(s, True) for s in steps]),
        "fuzz.shrink_s": pick(total, "fuzz.shrink"),
        "fuzz.shrink_replays": pick(count, "fuzz.replay_violates", "fuzz.shrink"),
        "fuzz.shrink_replay_steps": pick(count, "fuzz.step", "fuzz.replay_violates"),
        "fuzz.shrink_world_build_s": pick(total, "fuzz.build_world",
                                          "fuzz.replay_violates"),
        "invariants.evals": sum(pick(count, f"invariants.{n}")
                                for n in invariants.CHECKERS),
        "ledger.transact_s": sum(pick(total, f"ledger.transact.{x}") for x in layers),
        "ledger.transact_calls": transact_calls,
        "ledger.commit_ratio": log.commits / transact_calls if transact_calls else 0.0,
        "ledger.emit_s": pick(total, "ledger.emit"),
        "ledger.digest_s": pick(total, "ledger.digest"),
        "ledger.digest_calls": pick(count, "ledger.digest"),
        "ledger.digest.normalize_s": pick(total, "ledger.digest.normalize"),
        "ledger.digest.encode_s": pick(total, "ledger.digest.encode"),
        "ledger.digest.hash_s": pick(self_time, "ledger.digest_of"),
        "ledger.digest_doc_kib": log.max_doc_bytes / 1024,
        "ledger.digest_ms.tail": 1e3 * _tenth_mean(digest_times, True),
        "properties.campaign_s": pick(total, "properties.campaign"),
        "properties.minimize_s": pick(total, "properties.minimize"),
        "properties.minimize_replays": pick(count, "properties.replay",
                                            "properties.minimize"),
        "attackers.run_attack_s": pick(total, "attackers.run_attack"),
        "scenario.parse_s": pick(total, "scenario.parse"),
        "scenario.build_world_s": pick(total, "scenario.build_world"),
        "scenario.execute_s": pick(total, "scenario.execute"),
        "trace.write_s": pick(total, "trace.write"),
        "trace.read_s": pick(total, "trace.read"),
    }
    for name in invariants.CHECKERS:
        metrics[f"invariants.{name}_s"] = pick(total, f"invariants.{name}")
    for layer in MODULE_LAYERS:
        metrics[f"{layer}.transact_s"] = pick(total, f"ledger.transact.{layer}")
        metrics[f"{layer}.transact_calls"] = pick(count, f"ledger.transact.{layer}")
    table = {name: {"count": pick(count, name), "total_s": pick(total, name),
                    "self_s": pick(self_time, name)} for name in names}
    return metrics, table


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0
