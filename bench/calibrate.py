"""A fixed reference computation that measures how fast the host runs now.

On a shared virtual machine the speed of the same Python code drifts by
10-20% over minutes, longer than one run can average out.  The workloads
run ``reference()`` after every timed call, for about a tenth of that
call's time, and report each phase in units of the mean reference time of
the same pass, and set-up time in seconds at the speed where one reference
call takes ``REFERENCE_UNIT_S``.  The reference uses only the standard
library, so a change to fracvault cannot move it.
"""

from __future__ import annotations

import hashlib
import json
from time import perf_counter

SHARE = 0.1  # reference time per second of measured time
# One reference call on a 2-core x86-64 VM with Python 3.11 at its faster
# times; set-up time is reported as seconds at this speed.
REFERENCE_UNIT_S = 0.010


class _Node:
    __slots__ = ("key", "value", "children")

    def __init__(self, key: str, value: int):
        self.key = key
        self.value = value
        self.children: list[_Node] = []


def _render(value):
    if isinstance(value, int):
        return str(value)
    if isinstance(value, list):
        return [_render(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _render(v) for k, v in value.items()}
    return value


def reference() -> str:
    """Work of the program's two kinds, in about equal parts: object and
    dict updates in Python, and rendering, canonical JSON and sha256 of a
    nested document (about 20 ms on a 2-core VM)."""
    table: dict[str, dict[str, int]] = {}
    root = _Node("root", 0)
    for i in range(8_000):
        key = f"acct{i % 1500}"
        entry = table.get(key)
        if entry is None:
            entry = table[key] = {"balance": 0, "nonce": i}
        entry["balance"] += i * 7 % 1000
        if i % 5 == 0:
            root.children.append(_Node(key, entry["balance"]))
    doc = {"accounts": table,
           "children": [[n.key, n.value] for n in root.children],
           "total": sum(n.value for n in root.children)}
    text = json.dumps(_render(doc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Calibration:
    """Reference calls and their total wall time within one pass."""

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0

    def after(self, measured_s: float) -> None:
        """Run the reference for about ``SHARE`` of ``measured_s``, at least once."""
        budget = SHARE * measured_s
        spent = 0.0
        while True:
            start = perf_counter()
            reference()
            spent += perf_counter() - start
            self.calls += 1
            if spent >= budget:
                break
        self.seconds += spent

    @property
    def unit_s(self) -> float:
        """Mean wall time of one reference call."""
        return self.seconds / self.calls
