"""The process layer: one forked peer per call, which puts a shrink
(``ddmin.ddmin``), the property suite (``run_shared``), a fuzz run
(``run_drawn``) and a trace's replay (``run_split``) on two CPUs.

``with_peer`` forks the peer and opens the two pipes of its ``Channel``,
which carries every message between the two processes as one frame: a
4-byte length and the ``marshal`` bytes of a value.  The end of a pipe, or
a frame cut short, means the other process is gone (``PeerGone``).  A peer
sends an answer only once its work has returned, and a runner takes only
whole frames: a failed fork, a gone peer or a stream that ends early leaves
the work to the caller's one-process path, which raises or counts as one
process does.  The one message outside the channel is ``run_shared``'s
queue of claims, written to a pipe before the fork, which both processes
read in fixed two-byte ``os.read`` calls: a buffered channel would read
ahead and steal the other's claims.

A process uses a second CPU only where it may run on two
(``os.sched_getaffinity``), can fork, and has no peer and is none, so three
processes never share two CPUs; a platform without either function, such
as macOS or Windows, runs in one process.
"""

from __future__ import annotations

import marshal
import os
import signal
from functools import partial
from typing import Any, Callable

# A property suite or a trace's replay of at least this many steps (a
# suite's are its steps times its properties, a replay's its record lines)
# runs on two processes where it may use two CPUs (``run_shared``,
# ``run_split``).  Medians on a 2-CPU host, one process against two: all 28
# properties at 20 steps (budget 560) 16.3 against 14.0 ms, at 40 (1,120)
# 27.1 against 19.6 ms; two healthy campaigns at 500 steps (1,000) 15.1
# against 11.8 ms and 32.6 against 22.8 ms, but at 250 steps (500) 5.9
# against 7.9 ms.  The fork, the peer's exit and the reaping cost about
# 3 ms: a two-property 50-step suite took 1.1 against 4.6 ms.  A suite whose
# work sits in one property gains nothing: a campaign and an attack at 500
# steps took 5.9 against 9.0 ms.  In fresh processes, 5 alternating pairs,
# Python 3.11.7: the seed-0 suite at 36 steps (budget 1,008) took 22.7
# against 15.6 ms (4 of 5 pairs won), at 358 (10,024) 154.8 against 83.9 ms
# (5 of 5); the replay of a 1,001-record trace 62.7 against 59.7 ms (3 of
# 5), of a 10,001-record one 958 against 702 ms (5 of 5).
PEER_MIN_STEPS = 1_000

# A fuzz run of at least this many steps draws its actions in a peer where
# it may use two CPUs (``run_drawn``).  Both processes transact and the
# checking one sets the pace, so a shorter run loses more to the fork than
# it gains.  Healthy seed-42 runs in fresh processes on a 2-CPU host,
# Python 3.11.7, 7 alternating pairs, one process against two: 1,000 steps
# 32.4 against 36.6 ms (0 of 7 pairs won), 2,000 steps 58.0 against
# 65.2 ms (2 of 7), 3,000 steps 94.4 against 94.1 ms (5 of 7), 10^4 steps
# 324 against 282 ms (6 of 7); 3·10^4 steps 0.98 against 0.84 s (4 of 5
# pairs).  It stays at fuzz-long's 3·10^3-step prefixes, the benchmark's
# shortest fuzz run, so no benchmark run changes path.
DRAW_MIN_STEPS = 3_000

# A trace at least this long is shrunk by two processes (``ddmin.ddmin``),
# unless this process has a peer: a suite shared by ``run_shared`` shrinks in
# one, whether at 400 steps it hands ``ddmin`` at most 68 actions (seed 0) or
# escrow_conservation's 332 under drop-burn-before-pay (seed 3).  Fuzz
# shrinks in fresh processes, 5 alternating pairs, one process against two:
# under drop-burn-before-pay 258 actions (seed 6) 197 against 163 ms (5 of 5
# pairs won), 279 (seed 20) 66.8 against 67.5 ms (4 of 5), 2,491 (seed 29)
# 2.31 against 1.87 s (4 of 5); 2,549 under drop-quorum-check (seed 34)
# 2.17 against 1.54 s (5 of 5).
PEER_MIN_ACTIONS = 256

# the actions a drawing peer sends in one frame (``run_drawn``)
DRAW_BATCH = 256

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


class PeerGone(EOFError):
    """The other process is gone: its pipe ended or a frame was cut short."""


_LENGTH_BYTES = 4  # the length that heads a frame


class Channel:
    """One process's ends of the two pipes of a ``with_peer`` call: one
    frame per message, of the built-in types that ``marshal`` writes."""

    def __init__(self, receive_end: int, send_end: int):
        self._from, self._to = open(receive_end, "rb"), send_end

    def send(self, obj: Any) -> None:
        body = marshal.dumps(obj)
        frame = memoryview(len(body).to_bytes(_LENGTH_BYTES, "big") + body)
        try:
            while frame:
                frame = frame[os.write(self._to, frame):]
        except BrokenPipeError:
            raise PeerGone("the other process is gone") from None

    def receive(self) -> Any:
        header = self._from.read(_LENGTH_BYTES)
        size = int.from_bytes(header, "big")
        body = self._from.read(size)
        if len(header) < _LENGTH_BYTES or len(body) < size:
            raise PeerGone("the other process is gone")
        return marshal.loads(body)

    def close(self) -> None:
        self._from.close()
        os.close(self._to)


_paired = False  # whether this process has a peer or is one (``with_peer``)


def two_cpus() -> bool:
    """Whether this process may fork a peer and run on two CPUs: not while
    it has a peer or is one.  Read at each call; a platform without
    ``os.fork`` (Windows) or ``os.sched_getaffinity`` (macOS) runs on one."""
    affinity = getattr(os, "sched_getaffinity", None)
    return not _paired and hasattr(os, "fork") and affinity is not None \
        and len(affinity(0)) >= 2


def with_peer(peer: Callable[[Channel], Any], body: Callable[[Channel], Any],
              alone: Callable[[], Any], shared: tuple[int, ...] = ()) -> Any:
    """``body(channel)`` here while a peer forked for the call runs
    ``peer(channel)`` and leaves by ``os._exit``, never returning into its
    caller's code.  Each process closes the other's pipe ends, so it reads
    the end of its pipe once the other is gone.  Once ``body`` returns or
    raises, the peer is killed and reaped and the channel and the pipe ends
    ``shared`` are closed.  A fork that fails (``OSError``, such as EAGAIN
    or ENOMEM) closes every pipe end and runs ``alone()``, the caller's
    one-process path.  The caller must run no other thread."""
    global _paired
    down, up = os.pipe(), os.pipe()  # to the peer, from the peer
    try:
        pid = os.fork()
    except OSError:
        for end in down + up + shared:
            os.close(end)
        return alone()
    _paired = True
    if pid == 0:
        try:
            for end in up[0], down[1]:
                os.close(end)
            peer(Channel(down[0], up[1]))
        finally:
            os._exit(0)
    channel = Channel(up[0], down[1])
    try:
        for end in down[0], up[1]:
            os.close(end)
        return body(channel)
    finally:
        _paired = False
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        channel.close()
        for end in shared:
            os.close(end)


# Every index is claimed as two bytes, all written to the claims pipe before
# the fork in one write that must not block: at most PIPE_BUF bytes (4096 on
# Linux), so at most 2048 indices.  More run in one process.
_CLAIM_BYTES = 2
_CLAIMS_MAX = 4096 // _CLAIM_BYTES


def run_shared(count: int, run: Callable[[int], Any], steps: int) -> list:
    """``[run(i) for i in range(count)]``, the indices shared with a peer
    (``with_peer``) where the process may use two CPUs and ``steps``, the
    steps of all the runs, is at least ``PEER_MIN_STEPS``.  Each result
    must be of the built-in types that ``marshal`` writes.

    Each process claims one index at a time until the queue is empty.  The
    peer sends what its runs returned in one frame, and this process places
    every result at its index, so the list is the same on one CPU or two.
    An index whose run raised, in either process, or that the peer never
    reported, this process runs again once its claims are done, in index
    order: the exception that escapes is the lowest index's.
    """
    if steps < PEER_MIN_STEPS or not 2 <= count <= _CLAIMS_MAX or not two_cpus():
        return [run(index) for index in range(count)]
    claims = os.pipe()
    os.write(claims[1], b"".join(index.to_bytes(_CLAIM_BYTES, "big")
                                 for index in range(count)))
    os.close(claims[1])

    def collect(channel: Channel) -> dict:
        done = _run_claimed(claims[0], run)
        try:
            done.update(channel.receive())
        except PeerGone:
            pass  # what the peer claimed is run again below
        return done

    # a failed fork has run no index: this process runs them all
    done = with_peer(lambda channel: channel.send(_run_claimed(claims[0], run)),
                     collect, dict, shared=(claims[0],))
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


def run_drawn(steps: int, draw: Callable[[], Any], apply: Callable[[Any], Any],
              record: Callable[[tuple], Any],
              run: Callable[[Callable[[int], Any]], Any]) -> Any:
    """``run(generate)``, where ``generate(step)`` is ``draw()`` and ``run``
    checks each action of a run of at most ``steps`` steps; with the
    actions drawn by a forked peer (``with_peer``) when ``steps`` is at
    least ``DRAW_MIN_STEPS`` and the process may use two CPUs.  None if the
    peer's stream ended before ``run`` returned: the caller then runs again
    alone, from genesis.

    For each step the peer draws the action on its copy of the world,
    sends it and runs ``apply(action)``, unchecked; ``run``'s
    ``generate(step)`` takes the next action sent.  A step's check must
    write nothing the draw reads: the peer's world then stays the checked
    one, and the run is the same, byte for byte.  An action is a tuple of
    the built-in types that ``marshal`` writes; it crosses in a frame of
    ``DRAW_BATCH`` actions and ``record`` rebuilds it.  A peer that raises
    sends what it drew before it exits.
    """
    alone = partial(run, lambda step: draw())
    if steps < DRAW_MIN_STEPS or not two_cpus():
        return alone()

    def send(channel: Channel) -> None:
        batch: list[tuple] = []
        try:
            for _ in range(steps):
                action = draw()
                batch.append(tuple(action))
                if len(batch) == DRAW_BATCH:
                    channel.send(batch)
                    batch = []
                apply(action)
        finally:
            if batch:
                channel.send(batch)

    def check(channel: Channel) -> Any:
        actions = _received(channel, record)
        try:
            return run(lambda step: next(actions))
        except PeerGone:
            return None  # the stream ended before the run stopped

    return with_peer(send, check, alone)


def _received(channel: Channel, record: Callable[[tuple], Any]) -> Any:
    """The actions of the frames a drawing peer sends, each rebuilt by
    ``record``; ``PeerGone`` at the end of its stream."""
    while True:
        yield from map(record, channel.receive())


def run_split(steps: Callable[[], int], check: Callable[[int | None], int],
              peer: Callable[[int], int]) -> int:
    """``check(None)``, the step count of a run that this process checks to
    its end; with its last steps checked by a forked peer (``with_peer``)
    where the process may use two CPUs and ``steps()``, the most steps the
    run can hold, is at least ``PEER_MIN_STEPS``.

    ``check(stop)`` checks the run's next steps, up to step ``stop`` or its
    end, and returns how many it has checked.  The run is split at
    ``split``, ``SPLIT_SHARE`` of ``steps()``: this process checks the
    steps before it, and the peer sends ``peer(split)``, which brings its
    copy of the run to ``split`` unchecked, checks the rest and counts.  A
    step run unchecked must leave the world as checking it does, so that
    the peer's world at ``split`` is the checked one.  A run that ends
    before ``split`` counts its own steps.  If the peer is gone before its
    count arrives, this process checks the rest itself, from ``split``.
    """
    alone = partial(check, None)
    if not two_cpus() or (total := steps()) < PEER_MIN_STEPS:
        return alone()
    split = int(total * SPLIT_SHARE)

    def take(channel: Channel) -> int:
        checked = check(split)
        if checked < split:
            return checked  # the run ended before the split
        try:
            return channel.receive()
        except PeerGone:
            return check(None)

    return with_peer(lambda channel: channel.send(peer(split)), take, alone)
