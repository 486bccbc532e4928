"""The campaign runner of the fuzzer and the property suite: checked
replays, their run loop and their shrinking; and the forked-peer runners
that put them, and a trace's replay, on two CPUs.

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
when the process may use two.  ``ddmin`` forks a peer for the call, and
the two run the same passes in lockstep.  In each round this process tests
candidate ``i`` and the peer speculates that it is rejected and tests
candidate ``i + chunk`` on a fork of its own prefix, advanced by a chunk.
They swap one byte per verdict over a pipe and both apply the sequential
rule: the peer's verdict counts only if ``i`` was rejected, and is dropped
otherwise.  Every verdict applied is one the sequential passes reach, so
the shrunk trace is the same, byte for byte, on one CPU or two.
Speculating on a rejection pays because the passes that cost the most are
the ones that reject most candidates.  A peer whose test raises exits, and
a gone peer is the end of its pipe: this process then goes on alone and
tests that candidate itself, so it raises as the sequential passes would.

``run_shared`` runs a list of independent runs, such as the property
suite's properties, on two CPUs: each process claims the next index from
a pipe until it is empty, and the list, and the exception that escapes,
are those of one process.

``run_drawn`` runs one long run, such as a fuzz run, with its actions
drawn by a peer: the peer draws each action on its copy of the world,
sends it and runs it unchecked, and this process checks every step as
one process does, taking the actions from the pipe.  A step's check
writes nothing the draw reads, so the peer's world stays the checked one
and the run is the same, byte for byte; a stream that ends before the
run stops is run again alone by the caller.

``run_split`` checks one long run, such as a trace's replay, in two
parts: this process checks the steps before a split and a peer, which
runs them unchecked to reach the split, checks the rest.  Running a
step without its check leaves the world as checking it does, so the
peer's world at the split is the checked one.  The peer's count is
taken only if it exits 0; otherwise this process checks the rest itself,
from the split, and so raises or counts as one process does.

All four fork, kill and reap their peer by one path, ``_with_peer``.
All four use a second CPU only where the process may run on two
(``os.sched_getaffinity``), can fork, and has no peer and is none, so
three processes never share two CPUs; a platform without either
function, such as macOS or Windows, runs in one process.
"""

from __future__ import annotations

import copy
import marshal
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


_paired = False  # whether this process has a peer or is one (``_with_peer``)


def _two_cpus() -> bool:
    """Whether this process may fork a peer and run on two CPUs: not while
    it has a peer or is one.  Read at each call; a platform without
    ``os.fork`` (Windows) or ``os.sched_getaffinity`` (macOS) runs on one."""
    affinity = getattr(os, "sched_getaffinity", None)
    return not _paired and hasattr(os, "fork") and affinity is not None \
        and len(affinity(0)) >= 2


def _with_peer(peer: Callable[[], Any], body: Callable[[Callable[[], bool]], Any],
               theirs: tuple[int, ...], mine: tuple[int, ...],
               shared: tuple[int, ...] = ()) -> Any:
    """``body(reap)`` here while a peer forked for the call runs ``peer()``;
    the peer never returns into its caller's code, but leaves by ``os._exit``
    with status 0 only if ``peer()`` returned.  After the fork each process
    closes the other's pipe ends, ``theirs`` the peer's and ``mine`` this
    process's, so it reads EOF once the other is gone.  ``reap()`` waits for
    the peer: whether its status is 0.  Unless ``body`` reaped it, the peer
    is killed and reaped; ``mine`` and ``shared`` are closed.  The caller
    must run no other thread."""
    global _paired
    pid = os.fork()
    _paired = True
    if pid == 0:
        code = 1
        try:
            for end in mine:
                os.close(end)
            peer()
            code = 0
        finally:
            os._exit(code)
    status: list[int] = []  # the peer's, once reaped

    def reap() -> bool:
        status.append(os.waitpid(pid, 0)[1])
        return status == [0]

    try:
        for end in theirs:
            os.close(end)
        return body(reap)
    finally:
        _paired = False
        if not status:
            os.kill(pid, signal.SIGKILL)
            reap()
        for end in mine + shared:
            os.close(end)


# A fuzz run or a property suite of at least this many steps (a suite's
# budget is its steps times its properties) runs on two processes where it
# may use two CPUs (``run_drawn``, ``run_shared``).  Medians on a 2-CPU host,
# one process against two: all 28 properties at 20 steps (budget 560) 16.3
# against 14.0 ms, at 40 (1,120) 27.1 against 19.6 ms; two healthy campaigns
# at 500 steps (1,000) 15.1 against 11.8 ms and 32.6 against 22.8 ms, but at
# 250 steps (500) 5.9 against 7.9 ms.  The fork, the peer's exit and the
# reaping cost about 3 ms: a two-property 50-step suite took 1.1 against
# 4.6 ms.  A suite whose work sits in one property gains nothing: a campaign
# and an attack at 500 steps took 5.9 against 9.0 ms.  A healthy seed-42
# fuzz run of 3·10^3 steps took 98 against 86 ms (10 of 12 pairs won), of
# 10^4 steps 0.29 against 0.23 s (4 of 5), and a seed-84 run of 3·10^4
# steps 0.91 against 0.80 s (5 of 7).
PEER_MIN_STEPS = 1_000

# A trace at least this long is shrunk by two processes (see ``ddmin``),
# unless this process has a peer: a suite shared by ``run_shared`` shrinks in
# one, whether at 400 steps it hands ``ddmin`` at most 68 actions (seed 0) or
# escrow_conservation's 332 under drop-burn-before-pay (seed 3).
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
    run on two CPUs, is shrunk with a peer that tests the next candidate of
    each round (``_with_peer``, ``_Lockstep``).
    """
    trace = list(trace)
    if len(trace) < PEER_MIN_ACTIONS or not _two_cpus():
        return _passes(trace, start, fails, _Lockstep())
    down, up = os.pipe(), os.pipe()  # to the peer, from the peer
    return _with_peer(
        lambda: _passes(trace, start, fails, _Lockstep(down[0], up[1], peer=True)),
        lambda reap: _passes(trace, start, fails, _Lockstep(up[0], down[1])),
        theirs=(down[0], up[1]), mine=(up[0], down[1]))


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
_KEPT, _DELETED, _NONE = b"0", b"1", b"-"


class _Lockstep:
    """The verdicts of one round of a pass (see the module docstring), for
    one of the two processes of a shrink or for a shrink in one (no pipes).
    The peer's byte is ``_NONE`` past the end of the trace, and the fork it
    tested on becomes its prefix if ``i`` is kept.  Either process reads the
    end of its pipe once the other is gone: the peer then stops, and the
    shrinking process goes on alone.
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
        if not theirs:
            return (mine,), prefix  # the peer is gone: go on alone
        os.write(self.send, _DELETED if mine else _KEPT)
        if theirs == _NONE:
            return (mine,), prefix
        return (mine, theirs == _DELETED), prefix


# Every index is claimed as two bytes.  All of them are written to the
# claims pipe before the fork, in one write that must not block: at most
# PIPE_BUF bytes (4096 on Linux), so at most 2048 indices.  More run in one
# process.
_CLAIM_BYTES = 2
_CLAIMS_MAX = 4096 // _CLAIM_BYTES


def run_shared(count: int, run: Callable[[int], Any], peer: bool) -> list:
    """``[run(i) for i in range(count)]``, the indices shared between this
    process and a peer (``_with_peer``) if ``peer`` and the process may use
    two CPUs.  Each result must be of the built-in types that
    ``marshal`` writes.

    Every index is written to a pipe before the fork, and each process
    claims one at a time from it until it is empty.  The peer sends back
    what its runs returned, and this process places every result at its
    index, so the list is the same on one CPU or two.  An index whose run
    raised, in either process, or that the peer claimed and never reported,
    this process runs again once the peer is done, in index order: the
    exception that escapes is the lowest index's, as in one process.
    """
    if not peer or not 2 <= count <= _CLAIMS_MAX or not _two_cpus():
        return [run(index) for index in range(count)]
    claims, results = os.pipe(), os.pipe()
    os.write(claims[1], b"".join(index.to_bytes(_CLAIM_BYTES, "big")
                                 for index in range(count)))
    os.close(claims[1])

    def send() -> None:
        with open(results[1], "wb") as to_parent:
            marshal.dump(_run_claimed(claims[0], run), to_parent)

    def collect(reap: Callable[[], bool]) -> dict:
        done = _run_claimed(claims[0], run)
        with open(results[0], "rb", closefd=False) as from_peer:
            sent = from_peer.read()
        if reap():  # the peer sent all it ran
            done.update(marshal.loads(sent))
        return done

    done = _with_peer(send, collect, theirs=(results[1],), mine=(results[0],),
                      shared=(claims[0],))
    return [done[index] if index in done else run(index) for index in range(count)]


def _run_claimed(claims: int, run: Callable[[int], Any]) -> dict:
    """What ``run`` returns for each index this process claims from the
    pipe ``claims``, one at a time until it is empty; an index whose run
    raises is left out, for ``run_shared`` to run again."""
    done = {}
    while claim := os.read(claims, _CLAIM_BYTES):
        index = int.from_bytes(claim, "big")
        try:
            done[index] = run(index)
        except Exception:
            pass  # run again by run_shared, in index order
    return done


# the actions a drawing peer sends in one write (``run_drawn``)
DRAW_BATCH = 256


class _StreamEnded(Exception):
    """A drawing peer's stream ended before the run it fed stopped."""


def drawing(before: Callable[[int], Any], draw: Callable[[], Any]
            ) -> Callable[[int], Any]:
    """The ``generate`` of a run: ``before(step)``, then the action ``draw()``."""
    def generate(step: int) -> Any:
        before(step)
        return draw()
    return generate


def run_drawn(steps: int, draw: Callable[[], Any], before: Callable[[int], Any],
              apply: Callable[[Any], Any], record: Callable[[tuple], Any],
              run: Callable[[Callable[[int], Any]], Any]) -> Any:
    """``run(drawing(before, draw))``, where ``run`` checks each action of
    a run of at most ``steps`` steps; with the actions drawn by a forked
    peer (``_with_peer``) when ``steps`` is at least ``PEER_MIN_STEPS`` and
    the process may use two CPUs.  None if the peer's stream ended before
    ``run`` returned: the caller then runs again alone, from genesis.

    For each step the peer runs ``before(step)`` on its copy of the world,
    draws the action, sends it and runs ``apply(action)``, unchecked.  An
    action is a tuple of the built-in types that ``marshal`` writes; it
    crosses the pipe in a length-prefixed batch of ``DRAW_BATCH`` and
    ``record`` rebuilds it.  Here ``run``'s ``generate(step)`` runs
    ``before(step)`` and takes the next action sent.  A peer that raises
    sends what it drew before it exits, and is killed as soon as ``run``
    returns or raises.
    """
    if steps < PEER_MIN_STEPS or not _two_cpus():
        return run(drawing(before, draw))
    stream = os.pipe()

    def send() -> None:
        batch: list[tuple] = []
        with open(stream[1], "wb") as to_parent:
            try:
                for step in range(steps):
                    before(step)
                    action = draw()
                    batch.append(tuple(action))
                    if len(batch) == DRAW_BATCH:
                        _send(to_parent, batch)
                        batch = []
                    apply(action)
            finally:
                _send(to_parent, batch)

    def check(reap: Callable[[], bool]) -> Any:
        with open(stream[0], "rb", closefd=False) as from_peer:
            actions = _received(from_peer, record)

            def take() -> Any:
                action = next(actions, None)
                if action is None:
                    raise _StreamEnded
                return action

            try:
                return run(drawing(before, take))
            except _StreamEnded:
                return None

    return _with_peer(send, check, theirs=(stream[1],), mine=(stream[0],))


def _send(to_parent: Any, batch: list[tuple]) -> None:
    """Write ``batch``, if any, as its length and its ``marshal`` bytes."""
    if batch:
        body = marshal.dumps(batch)
        to_parent.write(len(body).to_bytes(4, "big") + body)
        to_parent.flush()


def _received(from_peer: Any, record: Callable[[tuple], Any]) -> Any:
    """The actions in the batches that ``_send`` wrote, each rebuilt by
    ``record``, up to the end of the stream or a batch cut short."""
    while len(header := from_peer.read(4)) == 4:
        size = int.from_bytes(header, "big")
        body = from_peer.read(size)
        if len(body) < size:
            return
        yield from map(record, marshal.loads(body))


# The share of a split run's steps that this process checks itself
# (``run_split``); the peer runs them unchecked and checks the rest.  A
# replay's step run unchecked costs about 60% of a checked one, and later
# steps cost more as the world grows, so the share sits above the naive
# 1/(2 - 0.4).  Replaying the benchmark's four 1,531-record traces on a
# 2-CPU host with Python 3.11.7, one process took 0.315, 0.326 and 0.322 s
# (medians of 10, 10 and 15 rounds, three seeds), and two, by share:
# 0.60 -16.9/-17.0%; 0.62 -22.0/-20.0%; 0.64 -19.7/-20.1%; 0.66
# -21.9/-21.2/-17.2%; 0.68 -26.6/-22.5/-20.5%; 0.70 -26.3/-24.1/-22.2%;
# 0.72 -25.0/-21.0/-21.6%; 0.74 -21.4/-20.0%.
SPLIT_SHARE = 0.70


def run_split(steps: Callable[[], int], check: Callable[[int | None], int],
              peer: Callable[[int], int]) -> int:
    """``check(None)``, the step count of a run that this process checks to
    its end; with its last steps checked by a forked peer (``_with_peer``)
    where the process may use two CPUs and ``steps()``, the most steps the
    run can hold, is at least ``PEER_MIN_STEPS``.

    ``check(stop)`` checks the run's next steps, up to step ``stop`` or its
    end, and returns how many it has checked.  The run is split at
    ``split``, ``SPLIT_SHARE`` of ``steps()``: this process checks the
    steps before it, and the peer runs ``peer(split)``, which brings its
    copy of the run to ``split`` unchecked, checks the rest and returns the
    count.  A run that ends before ``split`` counts its own steps.  The
    peer's count is taken only if the peer sent it and exited 0; otherwise
    this process checks the rest itself, from ``split``, so it raises or
    counts as one process does.
    """
    if not _two_cpus() or (total := steps()) < PEER_MIN_STEPS:
        return check(None)
    split = int(total * SPLIT_SHARE)
    counted = os.pipe()

    def send() -> None:
        os.write(counted[1], peer(split).to_bytes(8, "big"))

    def take(reap: Callable[[], bool]) -> int:
        checked = check(split)
        if checked < split:
            return checked  # the run ended before the split
        sent = os.read(counted[0], 8)
        if reap() and len(sent) == 8:
            return int.from_bytes(sent, "big")
        return check(None)

    return _with_peer(send, take, theirs=(counted[1],), mine=(counted[0],))
