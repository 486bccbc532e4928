"""A long trace replayed on two CPUs: this process checks the records before
the split and a forked peer the rest (``peer.run_split``).  Every verdict,
a count or an exception, is the one a replay in one process gives."""

from __future__ import annotations

import json
import os
import sys

import pytest

from fracvault import trace as fv_trace
from fracvault.ledger import ChainState, DigestCacheMismatch
from fracvault.peer import PEER_MIN_STEPS, SPLIT_SHARE
from fracvault.scenario import parse_scenario, run_scenario
from fracvault.trace import replay_trace, write_trace
from fracvault.vault import Vault

from conftest import assert_no_child_left

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """The lines of a trace of each generated scenario size: the header,
    then one record per line."""
    sys.path.insert(0, BENCH)
    try:
        import scenario_gen
    finally:
        sys.path.remove(BENCH)
    traces = {}
    for transactions in (1_500, 3_000):
        document = parse_scenario(scenario_gen.build_scenario(3, transactions))
        path = tmp_path_factory.mktemp("generated") / "trace.jsonl"
        write_trace(str(path), document, run_scenario(document).records)
        traces[transactions] = path.read_text().splitlines(keepends=True)
    return traces


def _write(path, lines) -> str:
    path.write_text("".join(lines))
    return str(path)


def _one_cpu(monkeypatch, replay):
    """``replay()`` on a process that may use one CPU."""
    with monkeypatch.context() as patched:
        patched.setattr(os, "sched_getaffinity", lambda pid: {0})
        return replay()


def _verdict(replay):
    """What ``replay()`` gives: its count, or its exception's type and
    message."""
    try:
        return replay()
    except Exception as exc:
        return type(exc), str(exc)


def _split(lines) -> int:
    return int((len(lines) - 1) * SPLIT_SHARE)


@pytest.mark.parametrize("transactions", [1_500, 3_000])
def test_a_split_replay_counts_as_one_process(tmp_path, monkeypatch, two_cpus,
                                              generated, transactions):
    path = _write(tmp_path / "trace.jsonl", generated[transactions])
    two = replay_trace(path)
    assert two_cpus == [os.getpid()]
    assert_no_child_left()
    assert two == _one_cpu(monkeypatch, lambda: replay_trace(path))
    assert two == len(generated[transactions]) - 1 > transactions


def test_a_trace_forks_from_peer_min_steps_records(tmp_path, two_cpus, generated):
    lines = generated[1_500][:PEER_MIN_STEPS]  # the header and 999 records
    assert replay_trace(_write(tmp_path / "trace.jsonl", lines)) == PEER_MIN_STEPS - 1
    assert two_cpus == []
    assert replay_trace(_write(tmp_path / "longer.jsonl", [*lines, generated[1_500][
        PEER_MIN_STEPS]])) == PEER_MIN_STEPS
    assert two_cpus == [os.getpid()]
    assert_no_child_left()


def _edit(field, value):
    def edit(lines, k):
        record = json.loads(lines[k + 1])
        record[field] = value(record)
        lines[k + 1] = json.dumps(record) + "\n"
    return edit


def _malform(lines, k):
    lines[k + 1] = lines[k + 1].replace('"step":', "step:", 1)


def _cut_inside(lines, k):
    lines[k + 1:] = [lines[k + 1][:len(lines[k + 1]) // 2]]


def _cut_before(lines, k):
    del lines[k + 1:]


def _blank_before(lines, k):
    lines[k + 1:k + 1] = ["\n", "  \n", "\n"]


TAMPERING = {"digest": _edit("digest", lambda record: "0" * 64),
             "step": _edit("step", lambda record: record["step"] + 1),
             "malformed": _malform, "cut-inside": _cut_inside,
             "cut-before": _cut_before, "blank-lines": _blank_before}
# where a tampering sits: a record, with the split s and the record count n
POSITIONS = {"3": lambda s, n: 3, "s-1": lambda s, n: s - 1, "s": lambda s, n: s,
             "s+1": lambda s, n: s + 1, "n-1": lambda s, n: n - 1}


@pytest.mark.parametrize("position", POSITIONS)
@pytest.mark.parametrize("kind", TAMPERING)
def test_a_tampered_trace_fails_as_in_one_process(tmp_path, monkeypatch, two_cpus,
                                                  generated, kind, position):
    lines = list(generated[1_500])
    record = POSITIONS[position](_split(lines), len(lines) - 1)
    TAMPERING[kind](lines, record)
    path = _write(tmp_path / "tampered.jsonl", lines)
    two = _verdict(lambda: replay_trace(path))
    assert_no_child_left()
    one = _one_cpu(monkeypatch, lambda: _verdict(lambda: replay_trace(path)))
    assert two == one
    if kind in ("digest", "step", "malformed", "cut-inside"):
        assert isinstance(one, tuple) and f"{record}" in one[1], one
    else:
        assert one == (record if kind == "cut-before" else len(generated[1_500]) - 1)


def _plant(monkeypatch, after: int, act):
    """``act(state)`` once, in each process, at the first ``place_bid``
    whose transaction index exceeds ``after``."""
    place_bid = Vault.place_bid
    done = []

    def planted(self, state, ctx, token_id):
        if not done and state.tx_index > after:
            done.append(state.tx_index)
            act(state)
        return place_bid(self, state, ctx, token_id)

    monkeypatch.setattr(Vault, "place_bid", planted)
    return done


def test_a_module_fault_in_the_peers_share_escapes_as_in_one_process(
        tmp_path, monkeypatch, two_cpus, generated):
    # the peer exits on the fault, and this process replays the rest alone
    lines = generated[1_500]
    path = _write(tmp_path / "trace.jsonl", lines)

    def fault(state):
        raise ValueError(f"a planted fault at transaction {state.tx_index}")

    done = _plant(monkeypatch, _split(lines) + 20, fault)
    with pytest.raises(ValueError, match="planted fault") as two:
        replay_trace(path)
    assert two_cpus == [os.getpid()]
    assert_no_child_left()
    done.clear()
    with pytest.raises(ValueError) as one:
        _one_cpu(monkeypatch, lambda: replay_trace(path))
    assert str(two.value) == str(one.value)


def test_an_unjournaled_write_in_the_peers_share_fails_the_same_cross_check(
        tmp_path, monkeypatch, two_cpus, generated):
    # the write leaves the cached digest, and so each record, as it was; only
    # the cross-check of the 3,000th digest sees it, in the peer's share, and
    # only if the peer counts the digests of the records it ran unchecked
    lines = generated[3_000]
    path = _write(tmp_path / "trace.jsonl", lines)
    assert _split(lines) < 2_999 < len(lines) - 1

    def leak(state: ChainState):
        # no journaled helper marks the cache, and the deployer's balance
        # is not written again
        state.native["deployer"] += 1

    done = _plant(monkeypatch, _split(lines) + 20, leak)
    with pytest.raises(DigestCacheMismatch) as two:
        replay_trace(path)
    assert two_cpus == [os.getpid()]
    assert_no_child_left()
    planted_at = list(done)
    done.clear()
    with pytest.raises(DigestCacheMismatch) as one:
        _one_cpu(monkeypatch, lambda: replay_trace(path))
    assert str(two.value) == str(one.value)
    assert done == planted_at
    assert "section native" in str(one.value)


def test_each_process_folds_at_the_transactions_one_process_folds_at(
        tmp_path, monkeypatch, two_cpus, generated):
    # each process logs the transactions at which it folds to a file
    lines = generated[3_000]
    path = _write(tmp_path / "trace.jsonl", lines)
    log = tmp_path / "folds.log"
    fold = ChainState.fold_events

    def logging(state):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {state.tx_index}\n")
        fold(state)

    monkeypatch.setattr(ChainState, "fold_events", logging)
    _one_cpu(monkeypatch, lambda: replay_trace(path))
    one = log.read_text().splitlines()
    log.unlink()
    assert replay_trace(path) == len(lines) - 1
    assert_no_child_left()
    folds: dict[str, list[str]] = {}
    for line in log.read_text().splitlines():
        pid, at = line.split()
        folds.setdefault(pid, []).append(at)
    mine = folds.pop(str(os.getpid()))
    [theirs] = folds.values()
    assert [line.split()[1] for line in one] == theirs
    # this process folds at those before the split, each record one
    # transaction after those that deploy the world
    split = fv_trace.build_world(json.loads(lines[0])).tx_index + _split(lines)
    assert mine == [at for at in theirs if int(at) < split]
    assert 0 < len(mine) < len(theirs)


def test_a_split_replay_closes_the_files_it_opens(tmp_path, monkeypatch, two_cpus,
                                                  generated):
    path = _write(tmp_path / "trace.jsonl", generated[1_500])
    opened = []

    def spy(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(fv_trace, "open", spy, raising=False)
    assert replay_trace(path) == len(generated[1_500]) - 1
    assert_no_child_left()
    assert len(opened) == 2 and all(fh.closed for fh in opened)
