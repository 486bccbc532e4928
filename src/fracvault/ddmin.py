"""The campaign runner of the fuzzer and the property suite: checked
replays, their run loop and their shrinking.

``run_checked`` drives a ``CheckedReplay`` (generate, check, record, stop
at the first problem); the fuzzer and each property campaign supply the
world, the generator and the spec that ``CheckedReplay.check``, the one
step rule, reads.  ``CheckedReplay.call`` is its revert-atomicity oracle:
it takes an identity snapshot of the world before a call and, if the call
reverts, asks the world whether its full digest is unchanged, which hashes
only when the revert left a different object behind.  ``ddmin`` shrinks a
failing trace by delete-only ddmin (Zeller & Hildebrandt, TSE 2002).

A run keeps only its last actions, as many as the caller asks for, so its
memory does not grow with its length.  When a shrink needs the whole trace
of a longer run, ``rerun`` runs it again from genesis and its seed,
recording every action, and requires it to stop as the run did: at the
same step, with the same problem, the same last actions and the same full
digest.  A generator that draws differently the second time is reported
as ``NondeterministicRun``, never shrunk.

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

A trace of at least ``peer.PEER_MIN_ACTIONS`` actions is shrunk on two
CPUs where the process may use two (``peer.two_cpus``): ``ddmin`` forks a
peer (``peer.with_peer``), and the two run the same passes in lockstep
(``_Lockstep``), to the same shrunk trace, byte for byte.
"""

from __future__ import annotations

import copy
from collections import deque
from functools import cached_property, partial
from typing import Any, Callable, Sequence

from . import peer
from .invariants import WriteSetChecks

# steps between full scans, which catch writes that bypass the journal;
# spread this thin, their cost per step stays small as history grows
FULL_SCAN_INTERVAL = 1_000


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
    """A world ``(state, handle, extras)`` checked by the one step rule,
    ``check``, from what ``spec`` supplies: the hooks ``before(state,
    handle, extras, action)``, whose token ``after(state, handle, extras,
    action, result, token)`` reads (either may be None), the
    ``invariants`` and ``check_revert_atomicity``.  ``spec`` never changes,
    so forks share it.  An action fails a replay when its problem is named
    ``target``, or with any problem if that is None."""

    def __init__(self, spec: Any, world: tuple[Any, Any, Any],
                 target: str | None = None):
        self.spec = spec
        self.state, self.handle, self.extras = world
        self.target = target

    @cached_property
    def checks(self) -> WriteSetChecks:
        """The write-set checks of ``spec.invariants``, built at the first
        step, so that ``call`` alone needs no spec; a fork copies them."""
        return WriteSetChecks(self.state, self.handle, self.spec.invariants)

    def check(self, action: Any, index: int, last: bool) -> tuple[Any, str | None]:
        """Run the trace's ``index``-th action, its final one if ``last``:
        the call's result (None for a clock-only step) and first problem,
        ``name: detail`` or None.  The clock advance, ``before``, the call,
        ``after``, then the write-set checks, whose full scans fall on the
        first step, every ``FULL_SCAN_INTERVAL`` steps, the last, and the
        step after a problem found before its write set was checked."""
        spec, state, checks = self.spec, self.state, self.checks
        if action.delta:
            state.advance_clock(action.delta)
        if (index + 1) % FULL_SCAN_INTERVAL == 0 or last:
            checks.rescan()
        token = spec.before(state, self.handle, self.extras, action) \
            if spec.before is not None else None
        result, detail = self.call(action, spec.check_revert_atomicity)
        if not detail and spec.after is not None:
            detail = spec.after(state, self.handle, self.extras, action, result, token)
        if detail:
            checks.rescan()  # the step's writes escape the write set
            return result, detail
        return result, checks.first_violation(state.last_writes if result is not None
                                              else ())

    def step(self, action: Any, index: int, last: bool) -> bool:
        detail = self.check(action, index, last)[1]
        return bool(detail) and (self.target is None
                                 or detail.split(":", 1)[0] == self.target)

    def call(self, action: Any, atomic: bool) -> tuple[Any, str | None]:
        """Run the call of ``action``, its clock advanced: the result (None
        for a clock-only step) and, if ``atomic``, the revert-atomicity
        verdict, a problem when a reverted call changed the full digest.
        The world's objects are listed before the call, and only a revert
        that left a different object behind hashes the two worlds
        (``ChainState.unchanged_since``)."""
        if not action.method:
            return None, None
        state = self.state
        before = state.identity_snapshot() if atomic else None
        result = state.transact(action.sender, action.module, action.method,
                                action.args, value=action.value)
        if before is None or result.ok or state.unchanged_since(before):
            return result, None
        return result, (f"revert_atomicity: failed {action.module}."
                        f"{action.method} ({result.error}) left residue in state")


def run_checked(world: CheckedReplay, generate: Callable[[int], Any],
                steps: int, keep: int | None
                ) -> tuple[deque, int, str | None, int]:
    """Generate, check and record up to ``steps`` actions on ``world``,
    stopping at the first problem: the last ``keep`` actions run (all of
    them if ``keep`` is None), how many ran, the problem or None, and how
    many of the actions' calls reverted."""
    tail: deque = deque(maxlen=keep)
    detail: str | None = None
    reverts = 0
    step = -1
    for step in range(steps):
        action = generate(step)
        tail.append(action)
        result, detail = world.check(action, step, step == steps - 1)
        if result is not None and not result.ok:
            reverts += 1
        if detail:
            break
    return tail, step + 1, detail, reverts


class NondeterministicRun(RuntimeError):
    """A re-run from the seed did not reproduce the run it rebuilds."""


def rerun(world: CheckedReplay, generate: Callable[[int], Any], steps: int,
          tail: Sequence[Any], executed: int, detail: str, digest: str) -> list:
    """The whole trace of a run that kept only its ``tail``: ``executed``
    actions, the last failing with ``detail`` in a world of full digest
    ``digest``.  ``world`` and ``generate`` start the run again from genesis
    and its seed, and every action is recorded.  NondeterministicRun unless
    the re-run stops after as many actions, with the same problem, the
    same last actions and the same world."""
    recorded, count, again, _ = run_checked(world, generate, steps, None)
    actions = list(recorded)
    reached = world.state.full_digest()
    if (count, again, reached) != (executed, detail, digest) or \
            actions[count - len(tail):] != list(tail):
        raise NondeterministicRun(
            f"the re-run from the seed stopped after {count} steps with "
            f"{again!r} in world {reached[:16]}, the run after {executed} "
            f"with {detail!r} in world {digest[:16]}")
    return actions


def ddmin(trace: Sequence[Any], start: Callable[[], Replay],
          fails: Callable[[list, Replay | None], bool]) -> list:
    """Shrink ``trace`` to a 1-minimal trace that still fails: the chunk-1
    pass repeats until it deletes nothing, since a deletion late in a pass
    can make an earlier step deletable.

    ``start()`` gives a replay at genesis.  ``fails(candidate, prefix)``
    replays the rest of ``candidate`` on a fork of ``prefix``, a replay of
    its first ``prefix.length`` actions that has not failed, and says
    whether it fails.
    """
    passes = partial(_passes, list(trace), start, fails)
    alone = partial(passes, _Lockstep())
    if len(trace) < peer.PEER_MIN_ACTIONS or not peer.two_cpus():
        return alone()
    return peer.with_peer(lambda channel: passes(_Lockstep(channel, speculates=True)),
                          lambda channel: passes(_Lockstep(channel)), alone)


def _passes(trace: list, start: Callable[[], Replay],
            fails: Callable[[list, Replay | None], bool],
            link: _Lockstep) -> list:
    """The passes of ``ddmin`` on ``trace``, each round's verdicts from
    ``link``, applied in order until one deletes."""
    chunk = max(len(trace) // 2, 1)
    while True:
        length = len(trace)
        prefix = start()
        i = 0
        while i < len(trace):
            verdicts, prefix = link.round(trace, i, chunk, prefix, fails)
            for deleted in verdicts:
                if deleted:
                    trace = trace[:i] + trace[i + chunk:]
                    break
                i += chunk
        if chunk == 1 and len(trace) == length:
            return trace
        chunk = max(chunk // 2, 1)


def _deletes(trace: list, i: int, chunk: int, prefix: Replay,
             fails: Callable[[list, Replay | None], bool]) -> bool:
    """Whether ``trace[:i] + trace[i + chunk:]`` fails, ``prefix`` a replay
    of at most ``trace[:i - 1]``, which this advances to it."""
    return prefix.advance(trace, max(i - 1, 0)) or \
        fails(trace[:i] + trace[i + chunk:], prefix)


class _Lockstep:
    """The verdicts of one round of a pass, for one of the two processes of
    a shrink, over their channel, or for a shrink in one (no channel).

    In each round the shrinking process tests candidate ``i``, and the peer
    speculates that it is rejected and tests ``i + chunk`` on a fork of its
    prefix, advanced by a chunk, or sends None past the end of the trace.
    Each sends its verdict and both apply the sequential rule:
    the peer's verdict, and its fork as the next prefix, count only if
    ``i`` was rejected, so every verdict applied is one the sequential
    passes reach.  Speculating on a rejection pays because the costliest
    passes reject most candidates.  The shrinking process reads the peer's
    verdict only in a round that applies it, after those of the ``unread``
    rounds before it.  A peer whose test raises exits; once the other is
    gone (``PeerGone``) the peer stops, and the shrinking process goes on
    alone, testing that candidate itself as the sequential passes would.
    """

    def __init__(self, channel: peer.Channel | None = None, speculates: bool = False):
        self.channel, self.speculates, self.unread = channel, speculates, 0

    def round(self, trace: list, i: int, chunk: int, prefix: Replay,
              fails: Callable[[list, Replay | None], bool]
              ) -> tuple[tuple[bool, ...], Replay]:
        """The verdicts of candidate ``i`` and, if the peer tested it,
        ``i + chunk``, and the prefix replay for the next round."""
        if self.channel is None:
            return (_deletes(trace, i, chunk, prefix, fails),), prefix
        if self.speculates:
            j = i + chunk
            ahead = prefix.fork() if j < len(trace) else None
            mine = ahead is not None and _deletes(trace, j, chunk, ahead, fails)
            self.channel.send(None if ahead is None else mine)
            if (theirs := self.channel.receive()) or ahead is None:
                return (theirs,), prefix
            return (False, mine), ahead
        mine = _deletes(trace, i, chunk, prefix, fails)
        try:
            self.channel.send(mine)
            if mine:
                self.unread += 1
                return (mine,), prefix
            for _ in range(self.unread + 1):  # the last is this round's
                theirs = self.channel.receive()
            self.unread = 0
        except peer.PeerGone:
            self.channel = None  # go on alone
            return (mine,), prefix
        return (mine,) if theirs is None else (mine, theirs), prefix
