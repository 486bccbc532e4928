"""State digest: golden pins of its exact bytes, the incremental digest
against the full recompute, revert checks that the cache cannot blind, and
the lazily computed event hash chain against the eager one."""

from __future__ import annotations

import copy
import hashlib
import json
import os
import sys
from dataclasses import dataclass, fields, is_dataclass, replace
from importlib import resources
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracvault import errors, ledger, standard_world
from fracvault import trace as fv_trace
from fracvault.fuzz import (ActionGenerator, FuzzPlan, actor_world,
                            build_fuzz_world, fuzz_replay, run_action, run_fuzz,
                            transact_action)
from fracvault.ddmin import CheckedReplay
from fracvault.governance import (Governance, GovernanceAction, Proposal, Timelock,
                                  TimelockEntry)
from fracvault.ledger import (DIGEST_CHECK_INTERVAL, ChainState, DigestCacheMismatch,
                              Event, ExecutionContext, Module, ReceiveHook,
                              canonical_json, normalize)
from fracvault.market import Market
from fracvault.mutations import MUTANTS
from fracvault.peer import SPLIT_SHARE
from fracvault.properties import ACTORS, SOLD, run_suite
from fracvault.scenario import build_world, execute_entry, parse_scenario, run_scenario
from fracvault.tokens import FungibleToken
from fracvault.trace import replay_trace, write_trace
from fracvault.vault import Auction, SaleRecord, Vault

from conftest import assert_no_child_left
from helpers import hashed_events, tx

LIFECYCLE = resources.files("fracvault") / "scenarios" / "lifecycle.json"
BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


# --------------------------------------------------------------------- #
# Golden pins
# --------------------------------------------------------------------- #

def test_lifecycle_digests_pinned():
    run = run_scenario(parse_scenario(LIFECYCLE.read_text()))
    digests = [record.digest for record in run.records]
    assert len(digests) == 36
    assert digests[-1] == \
        "5d5d831fb63adb2dc2ad5d39ce555bbc332b5e4249feb8b6ecce9eeae1266e08"
    assert hashlib.sha256("".join(digests).encode()).hexdigest() == \
        "5985628b35cca423219d928acc76b957111973cba147a147554f83cbdcb30274"


def test_fuzz_final_digest_pinned():
    report = run_fuzz(FuzzPlan(seed=42, steps=10_000))
    assert report.ok
    assert (report.commits, report.reverts) == (5_873, 4_127)
    assert report.final_digest == \
        "44e582cf4cddd5e6c08f1a438d217e5edf17e9dae209c591455bdf4935b13c48"


# sha256 of the canonical JSON of each mutant's fuzz report (seed 42, 2·10^4
# steps, shrunk trace included) and suite report (seed 0, 400 steps)
MUTANT_REPORTS = {
    "drop-burn-before-pay": (
        "f45b7ae4bd2d2a3e93c65f9d4bcd6208955046da369497ad6e42fb94d2a28cac",
        "8072c2cef2e2be426223a8b3ae682fe9dc2e150279065d36483f07a13ae3838b"),
    "drop-only-vault": (
        "9977afb453c765e3c1a887548a7cec261f573125d931152f5cb2496607b8628b",
        "9b7777b34efbd2570c459dc01a6d272bdcef07129b4e4ff57759eab3f80e7813"),
    "drop-quorum-check": (
        "2538adac860244dbda3d6df7eff925b84ac64f4dfc4cd65d1c86dc0b8a7c7b1d",
        "606a4c5d9a7fe806eb5d745fd0a8428b85ba325614881c5033c2c3c3e0caa648"),
    "drop-reentrancy-guard": (
        "2032efe050233a966b45238d54afebcec353cb3ade373a2044594cfb340fc0e3",
        "78e368aa9804a4db48a374552d70b016ecf34a9cb3f45f9ede4371a561305778"),
    "drop-set-once-governance": (
        "d0cdab57c031515a657f61163254534fb74d4a59173a7fdfbc1148c39574bef4",
        "0c200e52554802aedf8872252a432fef47786309c7018f8d8e85e13be88a27b5"),
    "drop-slippage-check": (
        "0bdcea5eb6904180259de6f072da8de176444d564a6303d83e447f155a0ba3fa",
        "92ceb2d0f085cf1734841f65ac5016150737c491e756a9b5a9b548669fcd2cee"),
}


def _report_sha(report) -> str:
    return hashlib.sha256(canonical_json(normalize(report.as_data())).encode()).hexdigest()


@pytest.mark.parametrize("mutant", sorted(MUTANT_REPORTS))
def test_mutant_reports_pinned(mutant):
    fuzz_sha, suite_sha = MUTANT_REPORTS[mutant]
    assert _report_sha(run_fuzz(FuzzPlan(seed=42, steps=20_000, mutant=mutant))) == fuzz_sha
    assert _report_sha(run_suite(seed=0, steps=400, mutant=mutant)) == suite_sha


# sha256 of the trace that ``run`` writes for the first two scenarios of the
# trace-replay benchmark at seed 3: 1,500 calls each drawn by the fuzz
# generator, with a digest after every step
TRACE_PINS = {
    12: "2a880b748aa4b08a987e7b83a43ed4334130bbc5ae5e97d44cba23862eb3fedf",
    13: "ca6b339e550c0581bb240a678cb4af62314f3990dc59e1f8e772a056fb6332a5",
}


@pytest.mark.parametrize("seed", sorted(TRACE_PINS))
def test_benchmark_scenario_traces_pinned(seed, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import scenario_gen

    document = parse_scenario(scenario_gen.build_scenario(seed, 1_500))
    path = str(tmp_path / "scenario.trace.jsonl")
    records = run_scenario(document).records
    for record in records:
        assert record.line() == canonical_json(record.as_data()) + "\n"
    write_trace(path, document, records)
    with open(path, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == TRACE_PINS[seed]
    assert replay_trace(path) == len(document["transactions"])


def test_a_long_scenario_run_folds_its_log_and_writes_the_pinned_trace(tmp_path,
                                                                      monkeypatch):
    # sha256 of the trace of the seed-3 1,500-transaction scenario, whose
    # world folds its log once
    monkeypatch.syspath_prepend(BENCH)
    import scenario_gen

    document = parse_scenario(scenario_gen.build_scenario(3, 1_500))
    run = run_scenario(document)
    path = str(tmp_path / "scenario.trace.jsonl")
    write_trace(path, document, run.records)
    with open(path, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == \
            "2a59396fcb0eed7485edee51e345897f9dc7f3fd55a3316d66321246c73f98b3"
    held = len(run.state.events)
    assert held < ledger.FOLD_EVENTS + len(run.records[-1].events)
    assert held < ledger.FOLD_EVENTS < run.state.event_count()


# each view call that returns a record's data, its arguments and the sha256
# of its trace line, read on the world the lifecycle scenario leaves: token
# 1 sold at auction, proposal 0 voted on and executed through the timelock
VIEW_CALLS = {
    "vault.auction_info": (
        {"token_id": "1"}, "007bb50dc60d9ef8f6267a9aeede99ebad0f8132c79ef841458758c5b6b0d285"),
    "vault.get_asset": (
        {"token_id": "1"}, "6f830025457c17989d87b7adf17338140d5ceedf8c4288e548925bad8d638f1c"),
    "governance.proposal_info": (
        {"proposal_id": "0"}, "42de2027d9d8bb7a4f368901983cead3445b987bd2a0ad7939560c1562c277c4"),
    "timelock.entry_of": (
        {"proposal_id": "0"}, "3b795a0d647a61eecbcaea5793c864ea314be5ef0a0a366f309d369647b5bc1f"),
}


def test_view_call_trace_lines_pinned(tmp_path):
    document = json.loads(LIFECYCLE.read_text())
    document["transactions"] += [{"sender": "dave", "call": call, "args": args}
                                 for call, (args, _) in VIEW_CALLS.items()]
    document = parse_scenario(json.dumps(document))
    records = run_scenario(document).records
    for record, (call, (_, pin)) in zip(records[-len(VIEW_CALLS):], VIEW_CALLS.items()):
        line = record.line()
        assert line == canonical_json(record.as_data()) + "\n"
        assert hashlib.sha256(line.encode()).hexdigest() == pin, (call, line)
    path = str(tmp_path / "views.trace.jsonl")
    write_trace(path, document, records)
    assert replay_trace(path) == len(document["transactions"])


def test_lifecycle_trace_lines_encode_as_their_data():
    records = run_scenario(parse_scenario(LIFECYCLE.read_text())).records
    assert sum(len(record.events) for record in records) > 40
    for record in records:
        assert record.line() == canonical_json(record.as_data()) + "\n"


def _fuzz_records(mutant):
    """The trace records of a fuzz run's calls, its clock-only steps run
    in between."""
    plan = FuzzPlan(seed=3, steps=1_500, mutant=mutant)
    state, handle, actors = build_fuzz_world(plan)
    generator = ActionGenerator(plan, state, handle, actors)
    for step in range(plan.steps):
        action = generator.generate()
        if action.method:
            yield execute_entry(state, step, action)
        else:
            run_action(state, action)


@pytest.mark.parametrize("mutant", [None] + sorted(MUTANTS))
def test_fuzz_trace_lines_and_events_encode_as_their_data(mutant):
    key_sets = set()
    for record in _fuzz_records(mutant):
        assert record.line() == canonical_json(record.as_data()) + "\n"
        for event in record.events:
            key_sets.add(event.keys)
            assert event.canonical() == canonical_json(event.as_data())
    assert len(key_sets) >= 10


def test_hand_made_events_encode_as_their_data():
    # keys that the template must escape or encode, values of every kind
    keys = ("%s", "%d%%", 'q"uote\\', "\u00e9\u2603\n", "none", "flag", "pair", "map")
    events = [
        Event('100% "odd" \u00e9', "emitter%s", keys,
              (5, -2**70, "x%s", "\u2603\x1f", None, True, (1, "a", None, False),
               {"b": 2, 1: [False, None], "%": {"\u00e9": ()}}), 3, 9),
        Event("Same keys", "e", keys, ("a", "b", "c", "d", "e", False, (), {}), 0, 1),
        Event("Empty", "e", (), (), 0, 0),
    ]
    for event in events:
        assert event.canonical() == canonical_json(event.as_data())


# --------------------------------------------------------------------- #
# Cached digest against the full recompute
# --------------------------------------------------------------------- #

def test_cached_digest_equals_full_recompute_on_lifecycle():
    scenario = parse_scenario(LIFECYCLE.read_text())
    state = build_world(scenario)
    assert state.digest() == state.full_digest()
    for step, (action, _) in enumerate(scenario["transactions"]):
        record = execute_entry(state, step, action)
        assert record.digest == state.full_digest(), step


def _one_shot_digest(data) -> str:
    return hashlib.sha256(canonical_json(normalize(data)).encode()).hexdigest()


@pytest.mark.parametrize("mutant", [None] + sorted(MUTANTS))
def test_streamed_digest_equals_the_one_shot_hash(mutant):
    plan = FuzzPlan(seed=5, steps=3_000, mutant=mutant)
    state, handle, actors = build_fuzz_world(plan)
    generator = ActionGenerator(plan, state, handle, actors)
    for step in range(1, plan.steps + 1):
        run_action(state, generator.generate())
        if step % 1_000 == 0:
            document = state._document()
            assert ledger.digest_of(document) == _one_shot_digest(document)
            state.fold_events()
            assert ledger.digest_of(state._document()) == _one_shot_digest(document)
    for data in ({1: "int", "1": "str", "g": {}, "h": {2: 3, "x": [1, {4: 5}]}},
                 {}, [1, {"a": 2}], "text", 7, None):
        assert ledger.digest_of(data) == _one_shot_digest(data)


def test_streamed_digest_equals_the_one_shot_hash_on_a_long_world():
    # every dict and list of the document is fed entry by entry
    plan = FuzzPlan(seed=10, steps=20_000)
    state, handle, actors = build_fuzz_world(plan)
    generator = ActionGenerator(plan, state, handle, actors)
    for _ in range(plan.steps):
        run_action(state, generator.generate())
    document = state._document()
    assert ledger.digest_of(document) == _one_shot_digest(document)
    assert state.full_digest() == state.digest()


@pytest.mark.parametrize("mutant", [None] + sorted(MUTANTS))
def test_cached_digest_equals_full_recompute_on_fuzz(mutant):
    for seed in (1, 2, 3):
        plan = FuzzPlan(seed=seed, steps=2000, mutant=mutant)
        state, handle, actors = build_fuzz_world(plan)
        generator = ActionGenerator(plan, state, handle, actors)
        assert state.digest() == state.full_digest()
        for step in range(plan.steps):
            run_action(state, generator.generate())  # commit, revert or clock
            assert state.digest() == state.full_digest(), (seed, step)


def test_copy_of_a_world_digests_without_the_original_cache(world):
    state, handle = world
    before = state.digest()
    twin = copy.deepcopy(state)
    tx(twin, "alice", handle.vault, "deposit_nft",
       nft_address=handle.collection, token_id=1)
    assert twin.digest() == twin.full_digest() != before
    assert state.digest() == before


def test_copy_of_a_world_has_its_own_list_of_the_same_events(world):
    state, handle = world
    events, before = list(state.events), state.digest()
    twin = copy.deepcopy(state)
    assert twin.events is not state.events
    assert all(a is b for a, b in zip(twin.events, events, strict=True))
    # the journal of the last transaction names the copy's list
    assert any(c is twin.events for c, _, _ in twin.last_writes)
    assert not any(c is state.events for c, _, _ in twin.last_writes)
    tx(twin, "alice", handle.vault, "deposit_nft",
       nft_address=handle.collection, token_id=1)
    assert len(twin.events) > len(events)
    assert state.events == events and state.digest() == before


def test_digest_built_inside_a_frame_sees_its_rollback(chain):
    frame = chain.snapshot()
    chain.jset(chain.native, "alice", 1)  # written before the cache exists
    inside = chain.digest()
    chain.rollback(frame)
    assert chain.digest() == chain.full_digest() != inside


# the three ways a world gains a member, under a given key
ADD_MEMBER = {
    "install_module": lambda state, key: state.install_module(_Emitter(key)),
    "create_fungible": lambda state, key: state.create_fungible(key),
    "create_nft_ledger": lambda state, key: state.create_nft_ledger(key),
}


@pytest.mark.parametrize("add", sorted(ADD_MEMBER))
def test_a_member_added_after_a_digest_is_digested(world, add):
    state, _ = world
    before = state.digest()  # builds the cache
    ADD_MEMBER[add](state, "extra")
    after = state.digest()
    assert after != before and after == state.full_digest()
    frame = state.snapshot()
    with pytest.raises(RuntimeError, match="inside a transaction"):
        ADD_MEMBER[add](state, "inside")
    state.rollback(frame)
    with pytest.raises(ValueError, match="'extra' exists"):
        ADD_MEMBER[add](state, "extra")
    assert state.digest() == after == state.full_digest()


# raw writes that bypass the journaled helpers, and the section they stale
RAW_WRITES = {
    "native": lambda state, handle: state.native.__setitem__(
        "alice", state.native["alice"] + 1),
    "modules.vault": lambda state, handle: setattr(
        handle.vault_module(state), "retained_dust", 7),
}


@pytest.mark.parametrize("section", sorted(RAW_WRITES))
def test_unjournaled_write_caught_by_interval_cross_check(world, section):
    state, handle = world
    before = state.digest()
    RAW_WRITES[section](state, handle)
    assert state.full_digest() != before
    assert state.digest() == before  # no write helper marked it
    with pytest.raises(DigestCacheMismatch, match=f"section {section} "):
        for _ in range(DIGEST_CHECK_INTERVAL):
            state.digest()


@pytest.mark.parametrize("append_first", [False, True])
def test_list_item_write_and_append_roll_back(proposal_world, append_first):
    state, handle = proposal_world
    proposals = handle.governance_module(state).proposals
    original = list(proposals)
    state.digest()
    frame = state.snapshot()
    writes = [lambda: state.jset(proposals, 0, replace(proposals[0], description="x")),
              lambda: state.jappend(proposals, replace(proposals[0], proposal_id=1))]
    for write in (writes[::-1] if append_first else writes):
        write()
        assert state.digest() == state.full_digest()
    if append_first:  # and write the appended item too
        state.jset(proposals, 1, replace(proposals[1], description="y"))
        assert state.digest() == state.full_digest()
    assert len(proposals) == 2 and proposals[0] is not original[0]
    state.rollback(frame)
    assert len(proposals) == len(original)
    assert all(a is b for a, b in zip(proposals, original))
    assert state.digest() == state.full_digest()


def _entries(state):
    """Every entry of every collection the digest cache holds live."""
    state.digest()
    cache = state._digest_cache
    yield from cache.native.container.values()
    for section in cache.sections.values():
        for collection in section.collections.values():
            container = collection.container
            yield from container.values() if isinstance(container, dict) else container


def _entry_worlds():
    """A seed-42 fuzz world after 3·10^3 steps, and the lifecycle's world,
    which schedules a timelock entry."""
    plan = FuzzPlan(seed=42, steps=3_000)
    state, handle, actors = build_fuzz_world(plan)
    generator = ActionGenerator(plan, state, handle, actors)
    for _ in range(plan.steps):
        run_action(state, generator.generate())
    return state, run_scenario(parse_scenario(LIFECYCLE.read_text())).state


def test_collection_entries_are_scalars_or_frozen_values():
    # the digest cache sees only writes to collections, so an entry that
    # could change in place would go stale without a mark
    seen = set()
    for world in _entry_worlds():
        for entry in _entries(world):
            seen.add(type(entry))
            assert type(entry) in (int, str, bool, type(None)) or (
                is_dataclass(entry) and type(entry).__dataclass_params__.frozen), entry
    assert {Auction, SaleRecord, Proposal, TimelockEntry} <= seen


def _immutable(value) -> bool:
    """Whether ``value`` can never change: a scalar, or a tuple, read-only
    mapping or frozen dataclass of such values."""
    kind = type(value)
    if kind in (int, str, bool, type(None)):
        return True
    if kind is tuple:
        return all(map(_immutable, value))
    if kind is MappingProxyType:
        return all(map(_immutable, [*value.keys(), *value.values()]))
    return is_dataclass(value) and kind.__dataclass_params__.frozen and all(
        _immutable(getattr(value, f.name)) for f in fields(value))


def test_collection_entries_are_immutable_in_fact():
    # the revert-atomicity oracle takes a world holding the very same
    # objects for one that renders the same
    seen = set()
    for world in _entry_worlds():
        modules = world.modules.values()
        [vault] = [m for m in modules if isinstance(m, Vault)]
        [timelock] = [m for m in modules if isinstance(m, Timelock)]
        [governance] = [m for m in modules if isinstance(m, Governance)]
        proposals = governance.proposals
        for entry in [*vault.auctions.values(), *vault.sales.values(),
                      *timelock.entries.values(), *proposals]:
            seen.add(type(entry))
            for f in fields(entry):
                value = getattr(entry, f.name)
                assert _immutable(value) and type(value) in (
                    int, str, bool, type(None), tuple, MappingProxyType,
                    GovernanceAction), (entry, f.name)
        for proposal in proposals:
            with pytest.raises(TypeError):
                proposal.voters["x"] = 1
        # a snapshot lists each section's dicts and lists by their entries,
        # so none may hold a container
        objects = world.identity_snapshot().objects
        assert isinstance(objects[2], Event)
        assert all(map(_immutable, objects[:2] + objects[3:]))
    assert {Auction, SaleRecord, Proposal, TimelockEntry} <= seen
    assert any(proposal.voters for proposal in proposals)  # the lifecycle votes


def test_governance_action_arguments_are_frozen_and_encode_alike():
    data = {"kind": "set_auction_duration",
            "args": {"seconds": [1, [2, {"z": [3]}]], "by": {"q": 1}}}
    action = GovernanceAction.from_data(data)
    assert _immutable(action)
    assert ledger.canonical_text(action) == canonical_json(normalize(data)) == \
        canonical_json(normalize(action))


# --------------------------------------------------------------------- #
# The fragment encoder
# --------------------------------------------------------------------- #

class _Datum:
    """A value that renders through ``as_data``."""

    def __init__(self, data):
        self.data = data

    def as_data(self):
        return {"datum": self.data}


# keys of different types that render alike under str(): normalize keeps
# the value of the last one in the dict's order
_KEYS = st.one_of(st.text(max_size=4), st.integers(-3, 3), st.booleans(),
                  st.tuples(st.integers(0, 2), st.text(max_size=2)),
                  st.sampled_from(["1", "True", "-2", "(0, '')", "None"]), st.none())
_LEAVES = st.one_of(st.none(), st.booleans(), st.text(),
                    st.integers(-2**70, 2**70), st.integers(2**64, 2**80))
_VALUES = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.tuples(inner, inner),
    st.dictionaries(_KEYS, inner, max_size=5), st.builds(_Datum, inner)), max_leaves=24)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_VALUES)
def test_fragment_encoder_equals_normalize_and_json(value):
    assert ledger.canonical_text(value) == canonical_json(normalize(value))


def test_fragment_encoder_covers_keys_that_render_alike():
    value = {1: "int", "1": "str", True: "bool", "True": "text", (0, "a"): [1, -2]}
    assert ledger.canonical_text(value) == canonical_json(normalize(value))
    assert ledger.canonical_text({"é\x00\n": "\u2603\x1f"}) == canonical_json(
        normalize({"é\x00\n": "\u2603\x1f"}))


@pytest.mark.parametrize("value", [1.5, {1, 2}, [1, {"a": 0.0}], {"k": frozenset()}])
def test_fragment_encoder_rejects_what_normalize_rejects(value):
    with pytest.raises(TypeError):
        normalize(value)
    with pytest.raises(TypeError):
        ledger.canonical_text(value)


def test_tuple_records_encode_as_their_data():
    # a NamedTuple is a tuple, but a record with ``as_data`` encodes as its data
    records = [Event("Transfer", "fractions", ("from", "amount"), ("a0", 7), 1, 3),
               transact_action("a1", "vault", "place_bid", value=55, token_id=3)]
    for record in records:
        assert isinstance(record, tuple)
        assert normalize(record) == normalize(record.as_data())
        assert ledger.canonical_text(record) == canonical_json(normalize(record.as_data()))
    assert normalize([records, (2, "x")]) == [
        [normalize(r.as_data()) for r in records], ["2", "x"]]


def _fuzz_events(plan: FuzzPlan) -> list:
    """Every event that ``plan``'s actions commit on a fuzz world, from
    each step's ``TxResult``, however the world folds its log."""
    state, handle, actors = build_fuzz_world(plan)
    generator = ActionGenerator(plan, state, handle, actors)
    events = []
    for _ in range(plan.steps):
        result = run_action(state, generator.generate())
        if result is not None:
            events += result.events
    assert len(events) > ledger.FOLD_EVENTS
    return events


def test_every_fuzz_event_encodes_as_its_data():
    for event in _fuzz_events(FuzzPlan(seed=7, steps=3_000)):
        assert event.canonical() == canonical_json(event.as_data())


# the fields of the frozen collection entries: ints beyond 64 bits and
# below zero, strings with non-ASCII and control characters
_INTS = st.one_of(st.integers(-2**70, 2**70), st.integers(2**64, 2**80))
_STRS = st.one_of(st.text(), st.sampled_from(["é\x00\n", "\u2603\x1f", "a|b", ""]))
_ARGS = st.recursive(st.one_of(st.none(), st.booleans(), _INTS, _STRS), lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(_STRS, inner, max_size=3)), max_leaves=8)
_ACTIONS = st.builds(lambda kind, args: GovernanceAction.from_data({"kind": kind, "args": args}),
                     _STRS, st.dictionaries(_STRS, _ARGS, max_size=4))


def _encodes_as_its_data(entry) -> None:
    assert entry.digest_json() == ledger.canonical_text(entry) == \
        canonical_json(normalize(entry))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.builds(Auction, _INTS, _STRS, _INTS, _INTS, _INTS, _INTS, _INTS, _STRS,
                 st.booleans()))
def test_auction_encoder_equals_normalize_and_json(auction):
    _encodes_as_its_data(auction)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.builds(SaleRecord, _INTS, _INTS, _INTS, _STRS))
def test_sale_record_encoder_equals_normalize_and_json(record):
    _encodes_as_its_data(record)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.builds(TimelockEntry, _INTS, _INTS, _INTS, _STRS, st.one_of(st.none(), _INTS)))
def test_timelock_entry_encoder_equals_normalize_and_json(entry):
    _encodes_as_its_data(entry)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_ACTIONS)
@example(GovernanceAction.from_data(
    {"kind": "k", "args": {"t": [1, ["é", None]], "m": {"q": {"r": -2**65}}}}))
def test_governance_action_encoder_equals_normalize_and_json(action):
    # lists and objects among the arguments are frozen to tuples and
    # read-only mappings
    _encodes_as_its_data(action)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.builds(Proposal, _INTS, _STRS, _STRS, _ACTIONS, _INTS, _INTS, _STRS, st.booleans(),
                 _INTS, _INTS, _INTS, st.dictionaries(_STRS, _INTS).map(MappingProxyType)))
def test_proposal_encoder_equals_normalize_and_json(proposal):
    _encodes_as_its_data(proposal)


@ledger.collection_entry(key="renamed")
@dataclass(frozen=True)
class _Entry:
    zeta: int
    renamed: str
    alpha: bool = False


def test_collection_entry_derives_data_encoder_and_copy_from_its_fields():
    entry = _Entry(-2**70, "é\x00")
    assert list(entry.as_data().items()) == [
        ("zeta", -2**70), ("key", "é\x00"), ("alpha", False)]
    assert entry.digest_json() == canonical_json(normalize(entry)) == \
        '{"alpha":false,"key":"\\u00e9\\u0000","zeta":"-1180591620717411303424"}'
    assert copy.deepcopy(entry) is entry


def test_every_world_entry_encodes_as_its_data():
    seen = set()
    for world in _entry_worlds():
        for entry in _entries(world):
            if hasattr(entry, "digest_json"):
                seen.add(type(entry))
                _encodes_as_its_data(entry)
                if isinstance(entry, Proposal):
                    _encodes_as_its_data(entry.action)
    assert seen == {Auction, SaleRecord, Proposal, TimelockEntry}


# --------------------------------------------------------------------- #
# A write re-encodes only what it touched
# --------------------------------------------------------------------- #

def _crowded_world(n):
    """The standard stack with ``n`` fraction allowances and ``n`` auctions."""
    state, handle = standard_world({"alice": 10**9, "bob": 10**9})
    for token_id in range(1, n + 1):
        tx(state, "deployer", handle.collection, "mint", to="alice", token_id=token_id)
    tx(state, "alice", handle.vault, "deposit_nfts", token_ids=list(range(1, n + 1)))
    for token_id in range(1, n + 1):
        tx(state, "alice", handle.vault, "start_auction", asset_address=handle.collection,
           token_id=token_id, starting_price=100, duration=0)
        tx(state, "alice", handle.fractions, "approve", spender=f"s{token_id}", amount=1)
    return state, handle


def _new_dict_then_its_entry(state, handle):
    vault = handle.vault_module(state)
    state.jsetattr(vault, "pending", {})
    assert state.digest() == state.full_digest()
    state.jset(vault.pending, "carol", 4)


# one write of each kind: a balance, an allowance, a bid (auction entry,
# native balances and events), a module scalar, and an entry written into
# a dict that was just written onto a module (its section laid out again)
FIELD_WRITES = {
    "balance": lambda state, h: state.jset(
        state.fungible[h.fractions].balances, "alice", 7),
    "approve": lambda state, h: state.call(
        ExecutionContext("alice"), h.fractions, "approve", {"spender": "s1", "amount": 9}),
    "place_bid": lambda state, h: state.call(
        ExecutionContext("bob"), h.vault, "place_bid", {"token_id": 2}, value=5_000),
    "module scalar": lambda state, h: state.jsetattr(
        h.vault_module(state), "retained_dust", 3),
    "new dict, then its entry": _new_dict_then_its_entry,
}


def _encodings(monkeypatch, state) -> int:
    """The fragments one ``digest()`` encodes: outermost encoder calls."""
    calls, depth, encode = [0], [0], ledger.canonical_text

    def counting(value):
        calls[0] += depth[0] == 0
        depth[0] += 1
        try:
            return encode(value)
        finally:
            depth[0] -= 1

    with monkeypatch.context() as patch:
        patch.setattr(ledger, "canonical_text", counting)
        state.digest()
    return calls[0]


def test_a_write_re_encodes_a_fixed_number_of_fragments(monkeypatch):
    counts = {}
    for n in (10, 500):
        state, handle = _crowded_world(n)
        state.digest()
        for kind, write in FIELD_WRITES.items():
            frame = state.snapshot()
            write(state, handle)
            counts[n, kind] = _encodings(monkeypatch, state)
            assert state.digest() == state.full_digest(), (n, kind)
            state.rollback(frame)
            assert state.digest() == state.full_digest(), (n, kind)
    for kind in FIELD_WRITES:
        assert counts[10, kind] == counts[500, kind] <= 12, kind


def test_allowance_names_that_collide_keep_the_last_pair(chain):
    chain.create_fungible("units")
    ledger_ = chain.fungible["units"]
    chain.digest()
    for pair, amount in ((("a|b", "c"), 1), (("a", "b|c"), 2), (("a|b", "c"), 3)):
        chain.jset(ledger_.allowances, pair, amount)
        assert chain.digest() == chain.full_digest(), pair
    assert '"allowances":{"a|b|c":"2"}' in canonical_json(normalize(chain._document()))
    frame = chain.snapshot()
    chain.jset(ledger_.allowances, ("a", "b|c"), 4)
    chain.jdel(ledger_.allowances, ("a|b", "c"))
    assert chain.digest() == chain.full_digest()
    chain.rollback(frame)  # puts ("a|b", "c") back last
    assert chain.digest() == chain.full_digest()


# --------------------------------------------------------------------- #
# Revert checks stay meaningful
# --------------------------------------------------------------------- #

def _hook_rejects_payment():
    state = ChainState()
    for name in ("alice", "bob"):
        state.fund(name, 1_000_000)
    state.set_receive_hook("bob", ReceiveHook(owner="bob", reject=True))
    return state, lambda s: s.transact("alice", "native", "transfer",
                                       {"to": "bob", "amount": 5})


def _batch_deposit_fails_on_second_item():
    state, handle = standard_world({"alice": 1_000_000})
    tx(state, "deployer", handle.collection, "mint", to="alice", token_id=1)
    return state, lambda s: s.transact("alice", handle.vault, "deposit_nfts",
                                       {"token_ids": [1, 1]})


def _liquidity_fails_on_second_pull():
    state = ChainState()
    state.fund("lp", 0)
    state.install_module(FungibleToken("ta", state, "lp", "Token A", "TA"))
    state.install_module(FungibleToken("tb", state, "lp", "Token B", "TB"))
    state.install_module(Market("pool", state, "lp", "ta", "tb"))
    tx(state, "lp", "ta", "mint", to="lp", amount=1_000)
    tx(state, "lp", "tb", "mint", to="lp", amount=10)
    for token in ("ta", "tb"):
        tx(state, "lp", token, "approve", spender="pool", amount=10**30)
    return state, lambda s: s.transact("lp", "pool", "add_liquidity",
                                       {"amount_a": 100, "amount_b": 100})


def _withdraw_to_rejecting_hook():
    state, handle, _ = actor_world(len(ACTORS), SOLD)
    tx(state, "a1", handle.vault, "redeem_fraction_value",
       token_id=1, fraction_amount=250)
    state.set_receive_hook("a1", ReceiveHook(owner="a1", reject=True))
    return state, lambda s: s.transact("a1", handle.vault, "withdraw_pending")


# one reverting transaction with writes before its failure, in the worlds of
# the digest-unchanged-after-revert tests of each test module
REVERTING = {
    "ledger": _hook_rejects_payment,
    "vault": _batch_deposit_fails_on_second_item,
    "market": _liquidity_fails_on_second_pull,
    "redemption": _withdraw_to_rejecting_hook,
}


def _plant_rollback_defect(monkeypatch):
    """Rollback forgets the oldest write of every frame it undoes."""
    original = ChainState.rollback

    def rollback(self, token):
        mark = dict(self._frames)[token]
        if len(self._undo) > mark:
            del self._undo[mark]
        original(self, token)

    monkeypatch.setattr(ChainState, "rollback", rollback)


@pytest.mark.parametrize("case", sorted(REVERTING))
def test_rollback_residue_changes_cached_digest(case, monkeypatch):
    state, failing = REVERTING[case]()
    before = state.digest()
    assert not failing(state).ok
    assert state.digest() == before  # a sound rollback leaves nothing
    _plant_rollback_defect(monkeypatch)
    assert not failing(state).ok
    assert state.digest() != before
    assert state.digest() == state.full_digest()


def _plant_unjournaled_write_on_failed_bid(monkeypatch):
    original = Vault.place_bid

    def place_bid(self, state, ctx, token_id):
        try:
            return original(self, state, ctx, token_id)
        except errors.LedgerError:
            self.retained_dust += 1  # a raw write: no journal entry, no mark
            raise

    monkeypatch.setattr(Vault, "place_bid", place_bid)


def test_fuzz_revert_atomicity_sees_unjournaled_write(monkeypatch):
    _plant_unjournaled_write_on_failed_bid(monkeypatch)
    plan = FuzzPlan(seed=42, steps=300, invariants=(), check_revert_atomicity=True)
    [violation] = run_fuzz(plan).violations
    assert violation.invariant == "revert_atomicity"
    assert violation.detail.startswith("revert_atomicity: failed vault.place_bid (")
    assert violation.detail.endswith(") left residue in state")
    assert [a.method for a in violation.trace] == ["place_bid"]


def test_suite_revert_atomicity_sees_unjournaled_write(monkeypatch):
    _plant_unjournaled_write_on_failed_bid(monkeypatch)
    [result] = run_suite(seed=0, steps=300, names=("revert_atomicity",)).results
    assert not result.passed
    assert "place_bid" in result.detail and "left residue" in result.detail
    assert result.detail.startswith("revert_atomicity: failed vault.place_bid (")


def _assert_residue_fails_the_identity_snapshot(state, failing, monkeypatch):
    before = state.identity_snapshot()
    assert not failing(state).ok
    assert state.unchanged_since(before)  # a sound rollback leaves nothing
    assert state.snapshot_digest(before) == state.full_digest()
    _plant_rollback_defect(monkeypatch)
    digest = state.full_digest()
    before = state.identity_snapshot()
    assert not failing(state).ok
    assert state.snapshot_digest(before) == digest != state.full_digest()
    assert not state.unchanged_since(before)


@pytest.mark.parametrize("case", sorted(REVERTING))
def test_rollback_residue_fails_the_identity_snapshot(case, monkeypatch):
    state, failing = REVERTING[case]()
    _assert_residue_fails_the_identity_snapshot(state, failing, monkeypatch)


def _folded(state):
    """``state`` with three more events committed and every event but the
    last folded into its event hash."""
    state.install_module(_Emitter("emitter"))
    assert _ping(state, "folded", count=3).ok
    count, chained, digest = state.event_count(), state.event_hash(), state.full_digest()
    state.fold_events()
    assert len(state.events) == 1 < count == state.event_count()
    assert state.event_hash() == chained and state.full_digest() == digest
    return state


@pytest.mark.parametrize("case", sorted(REVERTING))
def test_rollback_residue_fails_the_identity_snapshot_of_a_folded_world(
        case, monkeypatch):
    # the fallback document counts the folded events, and its log restarts
    # at the fold
    state, failing = REVERTING[case]()
    _assert_residue_fails_the_identity_snapshot(_folded(state), failing, monkeypatch)


def _spy_on_the_oracle(monkeypatch) -> list:
    """For every reverted call the oracle checks, (its verdict, whether the
    full digest changed), the digest taken before and after the call."""
    verdicts = []
    call = CheckedReplay.call

    def spied(self, action, atomic):
        before = self.state.full_digest() if atomic and action.method else None
        result, detail = call(self, action, atomic)
        if before is not None and not result.ok:
            verdicts.append((detail is not None, self.state.full_digest() != before))
        return result, detail

    monkeypatch.setattr(CheckedReplay, "call", spied)
    return verdicts


@pytest.mark.parametrize("mutant", [None, "unjournaled-write", *sorted(MUTANTS)])
def test_identity_verdict_equals_the_digest_verdict(monkeypatch, mutant):
    planted = mutant == "unjournaled-write"
    if planted:
        _plant_unjournaled_write_on_failed_bid(monkeypatch)
    verdicts = _spy_on_the_oracle(monkeypatch)
    if mutant is None or planted:
        run_fuzz(FuzzPlan(seed=42, steps=2_000, check_revert_atomicity=True))
    run_suite(seed=0, steps=400, mutant=None if planted else mutant,
              names=("revert_atomicity",))
    assert [digest for _, digest in verdicts] == [identity for identity, _ in verdicts]
    assert len(verdicts) > 20 and any(identity for identity, _ in verdicts) == planted


def _failed_bid(world, index):
    """The result and verdict of a bid on a token that is not on auction,
    the ``index``-th action of the checked fuzz ``world``."""
    bid = transact_action(world.extras["actors"][0], world.handle.vault,
                          "place_bid", token_id=10**6)
    return world.check(bid, index, False)


@pytest.mark.parametrize("planted", [False, True])
def test_revert_atomicity_holds_across_a_fold(monkeypatch, planted):
    # the transaction that folds the log reverts: the oracle judges it as
    # on a world that never folds
    plan = FuzzPlan(seed=42, steps=2_000, check_revert_atomicity=True)
    folded = fuzz_replay(plan)
    state = folded.state
    generator = ActionGenerator(plan, state, folded.handle, folded.extras["actors"])
    actions = []
    while len(state.events) < ledger.FOLD_EVENTS:  # the next transaction folds
        actions.append(generator.generate())
        assert not folded.step(actions[-1], len(actions) - 1, False)
        assert len(actions) < plan.steps
    with monkeypatch.context() as patched:
        patched.setattr(ledger, "FOLD_EVENTS", sys.maxsize)
        unfolded = fuzz_replay(plan)
        assert not unfolded.advance(actions, len(actions))
    if planted:
        _plant_unjournaled_write_on_failed_bid(monkeypatch)
    before, digest, count = state.identity_snapshot(), state.full_digest(), state.event_count()
    result, detail = _failed_bid(folded, len(actions))
    assert not result.ok and len(state.events) == 1 and state.event_count() == count
    assert state.snapshot_digest(before) == digest
    assert ledger._same_objects(before, state.identity_snapshot()) is not planted
    assert state.unchanged_since(before) is not planted
    with monkeypatch.context() as patched:
        patched.setattr(ledger, "FOLD_EVENTS", sys.maxsize)
        assert _failed_bid(unfolded, len(actions)) == (result, detail)
        assert len(unfolded.state.events) == count
    assert detail == ("revert_atomicity: failed vault.place_bid (NoAuction) left "
                      "residue in state" if planted else None)


def test_a_clean_campaign_hashes_no_world(monkeypatch):
    calls = []
    digest_of = ledger.digest_of
    monkeypatch.setattr(ledger, "digest_of", lambda data: calls.append(1) or digest_of(data))
    [result] = run_suite(seed=0, steps=400, names=("revert_atomicity",)).results
    assert result.passed and calls == []


def _recreate_largest_fraction_balance(vault, state, ctx):
    balances = state.fungible[vault.fractions].balances
    holder = max(balances, key=balances.get)
    balances[holder] = int(str(balances[holder]))


# on a failed bid, a large int that the call does not write put back as a
# new object equal to the old one
RECREATED = {
    "collection-entry": _recreate_largest_fraction_balance,
    "module-scalar": lambda vault, state, ctx: setattr(
        vault, "auction_duration", int(str(vault.auction_duration))),
}


def _count_snapshot_digests(monkeypatch) -> list:
    hashed = []
    snapshot_digest = ChainState.snapshot_digest
    monkeypatch.setattr(ChainState, "snapshot_digest", lambda self, snapshot: hashed.append(
        1) or snapshot_digest(self, snapshot))
    return hashed


@pytest.mark.parametrize("case", sorted(RECREATED))
def test_an_equal_int_put_back_unjournaled_is_no_residue(monkeypatch, case):
    # an int equal in value and type renders alike, so it needs no hashing
    hashed = _count_snapshot_digests(monkeypatch)
    original = Vault.place_bid

    def place_bid(self, state, ctx, token_id):
        try:
            return original(self, state, ctx, token_id)
        except errors.LedgerError:
            RECREATED[case](self, state, ctx)  # a raw write, no journal entry
            raise

    monkeypatch.setattr(Vault, "place_bid", place_bid)
    verdicts = _spy_on_the_oracle(monkeypatch)
    plan = FuzzPlan(seed=42, steps=300, invariants=(), check_revert_atomicity=True)
    assert run_fuzz(plan).ok
    assert verdicts and not any(identity for identity, _ in verdicts)
    assert hashed == []


def test_a_key_put_back_last_is_no_residue(world, monkeypatch):
    # a rollback re-inserts a deleted key at the end of its dict, so the
    # dict holds the same objects in another order, which the hashes ignore
    hashed = _count_snapshot_digests(monkeypatch)
    state, handle = world
    tx(state, "alice", handle.collection, "approve", token_id=1, spender="bob")
    tx(state, "alice", handle.collection, "approve", token_id=2, spender="carol")
    approvals = state.nft[handle.collection].approvals
    assert list(approvals) == [1, 2]
    replay = CheckedReplay(None, (state, handle, {}))
    batch = transact_action("alice", handle.vault, "deposit_nfts", token_ids=[1, 1])
    result, detail = replay.call(batch, True)
    assert result.error and detail is None
    assert list(approvals) == [2, 1] and hashed == [1]


# --------------------------------------------------------------------- #
# An unchanged document is served without hashing
# --------------------------------------------------------------------- #

def _digest_hashing(monkeypatch, state) -> tuple[str, bool]:
    """``state.digest()``, and whether it called sha256 on the document."""
    documents, sha256 = [], hashlib.sha256

    def spy(data=b"", **kwargs):
        if bytes(data[:9]) == b'{"clock":':
            documents.append(data)
        return sha256(data, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(hashlib, "sha256", spy)
        digest = state.digest()
    return digest, bool(documents)


def _assert_served_unhashed(monkeypatch, state, before) -> None:
    served = state._digest_cache.served
    assert _digest_hashing(monkeypatch, state) == (before, False)
    assert state._digest_cache.served == served + 1  # counts toward the cross-check
    assert state.full_digest() == before


@pytest.mark.parametrize("case", sorted(REVERTING))
def test_a_reverted_transaction_is_served_unhashed(case, monkeypatch):
    state, failing = REVERTING[case]()
    assert _digest_hashing(monkeypatch, state)[1]  # the first digest hashes
    before = state.digest()
    assert not failing(state).ok
    cache = state._digest_cache
    assert cache.dirty or cache.native.dirty  # it wrote before it failed
    _assert_served_unhashed(monkeypatch, state, before)


def test_a_commit_that_writes_nothing_is_served_unhashed(world, monkeypatch):
    state, handle = world
    before = state.digest()
    result = state.transact("alice", handle.vault, "pending_of", {"owner": "alice"})
    assert result.ok and not result.events and not state.last_writes
    _assert_served_unhashed(monkeypatch, state, before)


def test_a_rollback_of_every_write_is_served_unhashed(proposal_world, monkeypatch):
    state, handle = proposal_world
    vault = handle.vault_module(state)
    proposals = handle.governance_module(state).proposals
    before = state.digest()
    frame = state.snapshot()
    state.jset(state.native, "alice", 0)
    state.jdel(state.fungible[handle.fractions].balances, "alice")
    state.jsetattr(vault, "retained_dust", 99)
    state.jset(proposals, 0, replace(proposals[0], description="x"))
    state.jappend(proposals, proposals[0])
    assert state.full_digest() != before  # which leaves the cache as it is
    state.rollback(frame)
    # every section it wrote, and the native balances
    assert len(state._digest_cache.dirty) == 3 and state._digest_cache.native.dirty
    _assert_served_unhashed(monkeypatch, state, before)


NEW_DOCUMENT = {
    "clock advance": lambda state: state.advance_clock(1),
    "new event": lambda state: _ping(state, "new"),
    "committed write": lambda state: state.jset(state.native, "alice", 7),
}


@pytest.mark.parametrize("change", sorted(NEW_DOCUMENT))
def test_a_changed_document_is_hashed_again(change, monkeypatch):
    state = _emitter_world(ChainState)
    before = state.digest()
    NEW_DOCUMENT[change](state)
    digest, hashed = _digest_hashing(monkeypatch, state)
    assert hashed and digest != before
    assert digest == state.full_digest()


# --------------------------------------------------------------------- #
# The lazy event hash chain
# --------------------------------------------------------------------- #

EMPTY_HASH = hashlib.sha256(b"").hexdigest()


def _chain_of(events) -> str:
    chained = EMPTY_HASH
    for event in events:
        link = chained + canonical_json(event.as_data())
        chained = hashlib.sha256(link.encode()).hexdigest()
    return chained


class _EagerChainState(ChainState):
    """The event hash kept eagerly: extended at every emit through the
    journal, so that a rollback restores it."""

    def __init__(self):
        super().__init__()
        self.eager_hash = EMPTY_HASH

    def emit(self, ctx, emitter, name, payload):
        super().emit(ctx, emitter, name, payload)
        link = self.eager_hash + canonical_json(self.events[-1].as_data())
        self.jsetattr(self, "eager_hash", hashlib.sha256(link.encode()).hexdigest())

    def event_hash(self):
        return self.eager_hash


class _Emitter(Module):
    def ping(self, state, ctx, tag, count, read, fail):
        for i in range(count):
            state.emit(ctx, self.module_id, "Ping", {"tag": tag, "i": i})
        if read:
            state.full_digest()  # a digest read inside the transaction's frame
        if fail:
            raise errors.InvalidAmount("planned revert")
        return True


def _emitter_world(cls):
    state = cls()
    state.fund("alice", 10)
    state.install_module(_Emitter("emitter"))
    return state


def _ping(state, tag, count=1, read=False, fail=False):
    return state.transact("alice", "emitter", "ping",
                          {"tag": tag, "count": count, "read": read, "fail": fail})


def _assert_same_chain(lazy, eager):
    assert lazy.event_hash() == _chain_of(lazy.events) == eager.event_hash()
    assert lazy.full_digest() == eager.full_digest()
    assert lazy.digest() == lazy.full_digest()


@pytest.mark.parametrize("after", [1, 3])  # fewer or more events than the read saw
def test_event_hash_after_a_read_in_a_rolled_back_frame(after):
    lazy, eager = _emitter_world(ChainState), _emitter_world(_EagerChainState)
    for state in (lazy, eager):
        assert _ping(state, "kept").ok
    _assert_same_chain(lazy, eager)
    for state in (lazy, eager):
        assert not _ping(state, "gone", count=2, read=True, fail=True).ok
        assert _ping(state, "next", count=after).ok
    _assert_same_chain(lazy, eager)


@pytest.mark.parametrize("after", [1, 3])  # fewer or more events than the read saw
def test_event_hash_restarts_at_the_fold_after_a_read_in_a_rolled_back_frame(after):
    lazy, eager = _emitter_world(ChainState), _emitter_world(_EagerChainState)
    for state in (lazy, eager):
        assert _ping(state, "folded", count=3).ok
    lazy.fold_events()
    for state in (lazy, eager):
        assert not _ping(state, "gone", count=2, read=True, fail=True).ok
        assert _ping(state, "next", count=after).ok
    assert len(lazy.events) == 1 + after and lazy.event_count() == len(eager.events)
    assert lazy.event_hash() == _chain_of(eager.events) == eager.event_hash()
    assert lazy.full_digest() == eager.full_digest() == lazy.digest()


@pytest.mark.parametrize("read", [False, True])
def test_a_fold_hashes_only_what_no_read_hashed(monkeypatch, read):
    lazy, eager = _emitter_world(ChainState), _emitter_world(_EagerChainState)
    for state in (lazy, eager):
        assert _ping(state, "first", count=2).ok
    lazy.event_hash()
    for state in (lazy, eager):
        assert _ping(state, "second", count=3).ok
    if read:
        lazy.event_hash()
    hashed = hashed_events(monkeypatch)
    lazy.fold_events()
    assert hashed == ([] if read else eager.events[2:])
    assert lazy.event_hash() == eager.event_hash()
    assert len(hashed) == (0 if read else 3)  # the read after the fold hashed nothing
    assert lazy.full_digest() == eager.full_digest()


def _replay_with_spies(run, document, tmp_path, monkeypatch) -> tuple:
    """Replay the trace of ``run``: the replayed world, the length of its
    event log after each record, and the events it hashed."""
    path = str(tmp_path / "replayed.trace.jsonl")
    write_trace(path, document, run.records)
    worlds, lengths = [], []
    build, execute = fv_trace.build_world, fv_trace.execute_entry

    def building(header):
        worlds.append(build(header))
        return worlds[-1]

    def executing(state, step, action):
        record = execute(state, step, action)
        lengths.append(len(state.events))
        return record

    monkeypatch.setattr(fv_trace, "build_world", building)
    monkeypatch.setattr(fv_trace, "execute_entry", executing)
    hashed = hashed_events(monkeypatch)
    assert replay_trace(path) == len(run.records)
    return worlds[0], lengths, hashed


def _long_scenario(monkeypatch) -> tuple:
    """A generated 3,000-transaction scenario and its run."""
    monkeypatch.syspath_prepend(BENCH)
    import scenario_gen

    document = parse_scenario(scenario_gen.build_scenario(7, 3_000))
    return document, run_scenario(document)


def _held_below_the_fold(lengths: list, run) -> bool:
    """Whether the log held, after each record, fewer than ``FOLD_EVENTS``
    events plus the record's own."""
    return all(length < ledger.FOLD_EVENTS + len(record.events)
               for length, record in zip(lengths, run.records))


def test_replay_folds_its_event_log_and_hashes_each_event_once(tmp_path, monkeypatch):
    # on one CPU, so that this process replays every record
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    document, run = _long_scenario(monkeypatch)
    state, lengths, hashed = _replay_with_spies(run, document, tmp_path, monkeypatch)
    assert len(lengths) == len(run.records) and _held_below_the_fold(lengths, run)
    assert len(state.events) < ledger.FOLD_EVENTS < run.state.event_count()
    assert state.event_count() == run.state.event_count() == len(hashed)


def test_a_split_replay_folds_and_hashes_its_share_once(tmp_path, monkeypatch,
                                                        two_cpus):
    # this process replays the records before the split, a forked peer the
    # rest
    document, run = _long_scenario(monkeypatch)
    state, lengths, hashed = _replay_with_spies(run, document, tmp_path, monkeypatch)
    assert two_cpus == [os.getpid()]
    assert_no_child_left()
    assert len(lengths) == int(len(run.records) * SPLIT_SHARE)
    assert _held_below_the_fold(lengths, run)
    assert len(state.events) < ledger.FOLD_EVENTS < state.event_count()
    assert state.event_count() == len(hashed) < run.state.event_count()


def test_lifecycle_replay_hashes_each_committed_event_once(tmp_path, monkeypatch):
    document = parse_scenario(LIFECYCLE.read_text())
    run = run_scenario(document)
    state, _, hashed = _replay_with_spies(run, document, tmp_path, monkeypatch)
    assert len(hashed) == state.event_count() == len(run.state.events)


def test_events_fold_between_transactions_only():
    state = _emitter_world(ChainState)
    assert _ping(state, "a", count=2).ok
    frame = state.snapshot()
    with pytest.raises(RuntimeError, match="between transactions"):
        state.fold_events()
    state.rollback(frame)
    state.fold_events()
    assert state.event_count() == 2 and len(state.events) == 1


def test_reverted_events_never_enter_the_event_hash(monkeypatch):
    eager = _emitter_world(_EagerChainState)
    for tag, flags in (("a", {}), ("reverted", {"count": 3, "fail": True}), ("b", {})):
        _ping(eager, tag, **flags)
    hashed = []
    canonical = Event.canonical
    monkeypatch.setattr(Event, "canonical", lambda event: hashed.append(
        dict(event.payload)["tag"]) or canonical(event))
    lazy = _emitter_world(ChainState)
    assert _ping(lazy, "a").ok
    assert not _ping(lazy, "reverted", count=3, fail=True).ok
    assert _ping(lazy, "b").ok
    assert hashed == []  # nothing read a digest yet
    _assert_same_chain(lazy, eager)
    assert "reverted" not in hashed
    assert [dict(e.payload)["tag"] for e in lazy.events] == ["a", "b"]


def test_reverted_events_are_never_encoded(monkeypatch):
    encoded = []
    canonical = Event.canonical
    monkeypatch.setattr(Event, "canonical", lambda event: encoded.append(
        dict(event.payload)["tag"]) or canonical(event))
    lazy = _emitter_world(ChainState)
    assert _ping(lazy, "a").ok
    assert not _ping(lazy, "reverted", count=3, fail=True).ok
    assert _ping(lazy, "b").ok
    assert encoded == []  # nothing read a digest yet
    lazy.digest()
    assert encoded == ["a", "b"]


@pytest.mark.parametrize("rewrite, residue", [
    (lambda events: events.__setitem__(-1, events[-1]._replace()), False),
    (lambda events: events.__setitem__(-1, events[-1]._replace(tx_index=9)), True),
    (lambda events: events.pop(0), True),
], ids=["equal-last", "different-last", "earlier-dropped"])
def test_a_rewritten_event_log_is_residue_if_it_encodes_differently(
        monkeypatch, rewrite, residue):
    state = _emitter_world(ChainState)
    assert _ping(state, "kept", count=2).ok
    ping = _Emitter.ping

    def rewriting(self, state, ctx, tag, **flags):
        rewrite(state.events)  # a raw write, no journal entry
        return ping(self, state, ctx, tag, **flags)

    monkeypatch.setattr(_Emitter, "ping", rewriting)
    before = state.identity_snapshot()
    assert not _ping(state, "gone", fail=True).ok
    assert state.unchanged_since(before) is not residue


def test_event_hash_of_a_copied_world_that_diverges():
    lazy, eager = _emitter_world(ChainState), _emitter_world(_EagerChainState)
    for state in (lazy, eager):
        assert _ping(state, "shared", count=2).ok
    _assert_same_chain(lazy, eager)  # the copies start from a read chain
    lazy_twin, eager_twin = copy.deepcopy(lazy), copy.deepcopy(eager)
    assert all(a is b for a, b in zip(lazy_twin.events, lazy.events))
    for state in (lazy, eager):
        assert _ping(state, "original").ok
    for state in (lazy_twin, eager_twin):
        assert _ping(state, "copy", count=2).ok
    _assert_same_chain(lazy, eager)
    _assert_same_chain(lazy_twin, eager_twin)
    assert lazy.event_hash() != lazy_twin.event_hash()


def test_events_share_their_payload_keys_and_read_as_pairs():
    # an event holds its payload as a keys and a values tuple, one keys
    # tuple per key set, and reads and encodes as (key, value) pairs
    state = _emitter_world(ChainState)
    assert _ping(state, "a", count=2).ok and _ping(state, "b").ok
    first, second, third = state.events
    assert first.keys is second.keys is third.keys == ("tag", "i")
    assert [e.payload for e in state.events] == [
        tuple({"tag": tag, "i": i}.items()) for tag, i in (("a", 0), ("a", 1), ("b", 0))]
    for event in state.events:
        assert event.as_data()["payload"] == [[k, normalize(v)] for k, v in event.payload]
        assert event.canonical() == canonical_json(event.as_data())


def test_fuzz_events_share_one_keys_tuple_per_key_set():
    events = _fuzz_events(FuzzPlan(seed=42, steps=2_000))
    assert len({id(e.keys) for e in events}) == len({e.keys for e in events})


def _scalar(value) -> bool:
    return value is None or isinstance(value, (bool, int, str))


def _mutable_payload_values(events) -> list:
    # payload values that could change between emit and a later hash read
    return [(e.name, k, v) for e in events for k, v in e.payload
            if not (_scalar(v) or isinstance(v, tuple) and all(map(_scalar, v)))]


def test_event_payloads_hold_only_scalars():
    scenario = parse_scenario(LIFECYCLE.read_text())
    state = build_world(scenario)
    for step, (action, _) in enumerate(scenario["transactions"]):
        execute_entry(state, step, action)
    assert _mutable_payload_values(state.events) == []
    assert _mutable_payload_values(_fuzz_events(FuzzPlan(seed=42, steps=2_000))) == []
