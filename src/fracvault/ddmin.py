"""The campaign runner of the fuzzer and the property suite: checked
replays, their run loop and their shrinking.

``run_checked`` drives a ``CheckedReplay`` (generate, check, record, stop
at the first problem); the fuzzer and each property campaign supply the
world, the generator and the step check.  ``ddmin`` shrinks a failing
trace by delete-only ddmin (Zeller & Hildebrandt, TSE 2002).

A pass with chunk size ``chunk`` tests the candidates ``trace[:i] +
trace[i + chunk:]`` for ``i = 0, chunk, 2·chunk, ...``; an accepted
candidate becomes the trace and keeps ``i``, a rejected one moves ``i`` on
by a chunk.  Every candidate of a pass therefore starts with the prefix
``trace[:i]`` of the current trace, and only its action ``i - 1`` can be
its last, which a replay may check apart (the fuzzer's end-of-trace scan).
The pass keeps one ``Replay`` of ``trace[:i - 1]``, advanced by a chunk
each time a candidate is rejected, and each candidate replays the rest on a
deep copy of it, action ``i - 1`` included.  The verdicts, and so the
shrunk trace, are those of replaying every candidate from genesis.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Sequence


class Replay:
    """A world replaying a trace from genesis, one action at a time.

    After the first ``length`` actions, ``failed`` says whether one of them
    failed the check the trace is shrunk for.  A replay stops at its first
    failure: the actions after it are counted in ``length`` but not run.
    Subclasses build the world and run one action in ``step``.
    """

    length = 0
    failed = False

    def step(self, action: Any, index: int, last: bool) -> bool:
        """Run ``action``, the trace's ``index``-th and, if ``last``, its
        final one; True if it fails the check."""
        raise NotImplementedError

    def advance(self, actions: Sequence[Any], stop: int, last: int = -1) -> bool:
        """Replay ``actions[self.length:stop]``; the action at index ``last``
        is run as the trace's final one."""
        while self.length < stop:
            if not self.failed:
                self.failed = self.step(actions[self.length], self.length,
                                        self.length == last)
            self.length += 1
        return self.failed

    def run(self, actions: Sequence[Any]) -> bool:
        """Replay the rest of the whole trace ``actions``; True if it fails."""
        return self.advance(actions, len(actions), len(actions) - 1)

    def fork(self) -> "Replay":
        return copy.deepcopy(self)


class CheckedReplay(Replay):
    """A world ``(state, handle, extras)`` checking each action it runs,
    with ``spec.check(replay, action, index, last)`` after the clock
    advance: the call's result and first problem, ``name: detail`` or None.
    ``spec`` never changes, so forks share it.  An action fails a replay
    when its problem is named ``target``, or with any problem if that is
    None."""

    def __init__(self, spec: Any, world: tuple[Any, Any, Any],
                 target: str | None = None):
        self.spec = spec
        self.state, self.handle, self.extras = world
        self.target = target
        # the full digest a clean revert left, which the next call starts
        # from unless a clock advance comes first
        self.clean_digest: str | None = None

    def check(self, action: Any, index: int, last: bool) -> tuple[Any, str | None]:
        """Run the trace's ``index``-th action: its result and first problem."""
        if action.delta:
            self.state.advance_clock(action.delta)
            self.clean_digest = None
        return self.spec.check(self, action, index, last)

    def step(self, action: Any, index: int, last: bool) -> bool:
        detail = self.check(action, index, last)[1]
        return bool(detail) and (self.target is None
                                 or detail.split(":", 1)[0] == self.target)

    def call(self, action: Any, atomic: bool) -> tuple[Any, str | None]:
        """Run the call of ``action``, its clock advanced: the result (None
        for a clock-only step) and, if ``atomic``, the revert-atomicity
        verdict, a problem when a reverted call changed the full digest."""
        if not action.method:
            return None, None
        state = self.state
        pre_digest = None
        if atomic:
            pre_digest = self.clean_digest or state.full_digest()
            self.clean_digest = None
        result = state.transact(action.sender, action.module, action.method,
                                action.args, value=action.value)
        if pre_digest is None or result.ok:
            return result, None
        if state.full_digest() != pre_digest:
            return result, (f"revert_atomicity: failed {action.module}."
                            f"{action.method} ({result.error}) left residue in state")
        self.clean_digest = pre_digest
        return result, None


def run_checked(world: CheckedReplay, generate: Callable[[int], Any],
                steps: int) -> tuple[list, str | None, int]:
    """Generate, check and record up to ``steps`` actions on ``world``,
    stopping at the first problem: the actions run, the problem or None,
    and how many of the actions' calls reverted."""
    actions: list = []
    detail: str | None = None
    reverts = 0
    for step in range(steps):
        action = generate(step)
        actions.append(action)
        result, detail = world.check(action, step, step == steps - 1)
        if result is not None and not result.ok:
            reverts += 1
        if detail:
            break
    return actions, detail, reverts


def ddmin(trace: Sequence[Any], start: Callable[[], Replay],
          fails: Callable[[list, Replay | None], bool],
          window: int | None = None) -> list:
    """Shrink ``trace`` to a 1-minimal trace that still fails.

    ``start()`` gives a replay at genesis.  ``fails(candidate, prefix)``
    replays the rest of ``candidate`` on a fork of ``prefix``, a replay of
    its first ``prefix.length`` actions that has not failed, and says
    whether it fails.  With ``window``, a longer trace is first cut to its
    last ``window`` actions if those alone fail from genesis
    (``fails(suffix, None)``).
    """
    trace = list(trace)
    if window is not None and len(trace) > window and fails(trace[-window:], None):
        trace = trace[-window:]
    chunk = max(len(trace) // 2, 1)
    while chunk >= 1:
        prefix = start()
        i = 0
        while i < len(trace):
            candidate = trace[:i] + trace[i + chunk:]
            if prefix.advance(trace, max(i - 1, 0)) or fails(candidate, prefix):
                trace = candidate
            else:
                i += chunk
        chunk //= 2
    return trace
