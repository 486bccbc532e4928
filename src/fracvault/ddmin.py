"""The campaign runner of the fuzzer and the property suite: checked
replays, their run loop and their shrinking.

``run_checked`` drives a ``CheckedReplay`` (generate, check, record, stop
at the first problem); the fuzzer and each property campaign supply the
world, the generator and the step check.  ``CheckedReplay.call`` is also
the revert-atomicity oracle: it takes an identity snapshot of the world
before a call and, if the call reverts, asks the world whether its full
digest is unchanged, which hashes only when the revert left a different
object behind.  ``ddmin`` shrinks a failing trace by delete-only ddmin
(Zeller & Hildebrandt, TSE 2002).

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

A trace of at least ``PEER_MIN_ACTIONS`` actions is shrunk on two CPUs
when the process may use two (``os.sched_getaffinity``).  ``ddmin`` forks
a peer for the call, and the two run the same passes in lockstep.  In each
round this process tests candidate ``i`` and the peer speculates that it
is rejected and tests candidate ``i + chunk`` on a fork of its own prefix,
advanced by a chunk.  They swap one byte per verdict over a pipe and both
apply the sequential rule: the peer's verdict counts only if ``i`` was
rejected, and is dropped otherwise.  Every verdict applied is one the
sequential passes reach, so the shrunk trace is the same, byte for byte,
on one CPU or two.  Speculating on a rejection pays because the passes that
cost the most are the ones that reject most candidates.  If the peer's
test raises, this process goes on alone and tests that candidate itself,
so it raises as the sequential passes would.  The peer is killed and
reaped before ``ddmin`` returns or raises.
"""

from __future__ import annotations

import copy
import os
import signal
from collections import deque
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

    def check(self, action: Any, index: int, last: bool) -> tuple[Any, str | None]:
        """Run the trace's ``index``-th action: its result and first problem."""
        if action.delta:
            self.state.advance_clock(action.delta)
        return self.spec.check(self, action, index, last)

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


# A trace at least this long is shrunk by two processes (see ``ddmin``).
# The property suite's minimizations, at most 68 actions at 400 steps, stay
# in one.
PEER_MIN_ACTIONS = 256


def ddmin(trace: Sequence[Any], start: Callable[[], Replay],
          fails: Callable[[list, Replay | None], bool]) -> list:
    """Shrink ``trace`` to a 1-minimal trace that still fails: the chunk-1
    pass repeats until it deletes nothing, since a deletion late in a pass
    can make an earlier step deletable.

    ``start()`` gives a replay at genesis.  ``fails(candidate, prefix)``
    replays the rest of ``candidate`` on a fork of ``prefix``, a replay of
    its first ``prefix.length`` actions that has not failed, and says
    whether it fails.

    A trace of at least ``PEER_MIN_ACTIONS`` actions, on a process that may
    run on two CPUs, is shrunk with a peer forked for this call, which
    tests the next candidate of each round (see ``_Lockstep``); the peer is
    killed and reaped before the call returns or raises.  The calling
    process must not run other threads, since the peer is forked.
    """
    trace = list(trace)
    if len(trace) < PEER_MIN_ACTIONS or len(os.sched_getaffinity(0)) < 2:
        return _passes(trace, start, fails, _Lockstep())
    down, up = os.pipe(), os.pipe()  # to the peer, from the peer
    pid = os.fork()
    if pid == 0:
        try:
            os.close(down[1])
            os.close(up[0])
            _passes(trace, start, fails, _Lockstep(down[0], up[1], peer=True))
        except BaseException:
            # the peer's test raised, or the shrinking process is gone; the
            # peer never returns into its caller's code, so it reports and exits
            try:
                os.write(up[1], _RAISED)
            except OSError:
                pass
        finally:
            os._exit(0)
    os.close(down[0])
    os.close(up[1])
    try:
        return _passes(trace, start, fails, _Lockstep(up[0], down[1]))
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        os.close(up[0])
        os.close(down[1])


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


# the bytes of the verdicts the two processes swap
_KEPT, _DELETED, _NONE, _RAISED = b"0", b"1", b"-", b"!"


class _Lockstep:
    """The verdicts of one round of a pass, for one of the two processes
    of a shrink or for a shrink in one (no pipes).

    In a round the shrinking process tests candidate ``i``, and the peer
    tests candidate ``i + chunk`` of the same trace, the next one if ``i``
    is kept.  Then each sends the other one byte, its verdict (the peer's
    is ``_NONE`` past the end of the trace, or ``_RAISED``), and both apply
    the two verdicts in order.  If ``i`` is deleted the peer's verdict is
    dropped, so both run the sequential passes in lockstep and reach its
    verdicts.  The peer tests its candidate on a fork of its prefix
    advanced by a chunk, which becomes its prefix if ``i`` is kept.  If the
    peer raises or is gone, the shrinking process goes on alone and tests
    that candidate itself, so it raises what the sequential passes would.
    The peer stops at the end of its pipe.
    """

    def __init__(self, receive: int | None = None, send: int | None = None,
                 peer: bool = False):
        self.receive, self.send, self.peer = receive, send, peer

    def round(self, trace: list, i: int, chunk: int, prefix: Replay,
              fails: Callable[[list, Replay | None], bool]
              ) -> tuple[tuple[bool, ...], Replay]:
        """The verdicts of candidate ``i`` and, if the peer tested it,
        ``i + chunk``, and the prefix replay for the next round."""
        if self.send is None:
            return (_deletes(trace, i, chunk, prefix, fails),), prefix
        if self.peer:
            j = i + chunk
            ahead = prefix.fork() if j < len(trace) else None
            mine = ahead is not None and _deletes(trace, j, chunk, ahead, fails)
            os.write(self.send, _NONE if ahead is None else
                     _DELETED if mine else _KEPT)
            theirs = os.read(self.receive, 1)
            if not theirs:
                raise EOFError("the shrinking process is gone")
            if theirs == _DELETED or ahead is None:
                return (theirs == _DELETED,), prefix
            return (False, mine), ahead
        mine = _deletes(trace, i, chunk, prefix, fails)
        theirs = os.read(self.receive, 1)
        if theirs not in (_KEPT, _DELETED, _NONE):
            return (mine,), prefix  # the peer raised or is gone: go on alone
        os.write(self.send, _DELETED if mine else _KEPT)
        if theirs == _NONE:
            return (mine,), prefix
        return (mine, theirs == _DELETED), prefix
