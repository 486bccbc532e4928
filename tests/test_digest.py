"""State digest: golden pins of its exact bytes, the incremental digest
against the full recompute, revert checks that the cache cannot blind, and
the lazily computed event hash chain against the eager one."""

from __future__ import annotations

import copy
import hashlib
from dataclasses import is_dataclass, replace
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracvault import errors, ledger, standard_world
from fracvault.fuzz import (ActionGenerator, FuzzPlan, build_fuzz_world,
                            run_action, run_fuzz, transact_action)
from fracvault.governance import Proposal, TimelockEntry
from fracvault.ledger import (DIGEST_CHECK_INTERVAL, ChainState, DigestCacheMismatch,
                              Event, ExecutionContext, Module, ReceiveHook,
                              canonical_json, normalize)
from fracvault.market import Market
from fracvault.mutations import HEALTHY, MUTANTS
from fracvault.properties import run_suite, sold_world
from fracvault.scenario import build_world, execute_entry, parse_scenario, run_scenario
from fracvault.tokens import FungibleToken
from fracvault.vault import Auction, SaleRecord, Vault

from helpers import tx

LIFECYCLE = resources.files("fracvault") / "scenarios" / "lifecycle.json"


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
    for section in state._digest_cache.sections.values():
        whole = [section.whole] if section.whole is not None else []
        for collection in [*section.collections.values(), *whole]:
            container = collection.container
            yield from container.values() if isinstance(container, dict) else container


def test_collection_entries_are_scalars_or_frozen_values():
    # the digest cache sees only writes to collections, so an entry that
    # could change in place would go stale without a mark
    plan = FuzzPlan(seed=42, steps=3_000)
    state, handle, actors = build_fuzz_world(plan)
    generator = ActionGenerator(plan, state, handle, actors)
    for _ in range(plan.steps):
        run_action(state, generator.generate())
    lifecycle = run_scenario(parse_scenario(LIFECYCLE.read_text())).state
    seen = set()
    for world in (state, lifecycle):  # the lifecycle schedules a timelock entry
        for entry in _entries(world):
            seen.add(type(entry))
            assert type(entry) in (int, str, bool, type(None)) or (
                is_dataclass(entry) and type(entry).__dataclass_params__.frozen), entry
    assert {Auction, SaleRecord, Proposal, TimelockEntry} <= seen


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
    assert ledger._text(value) == canonical_json(normalize(value))


def test_fragment_encoder_covers_keys_that_render_alike():
    value = {1: "int", "1": "str", True: "bool", "True": "text", (0, "a"): [1, -2]}
    assert ledger._text(value) == canonical_json(normalize(value))
    assert ledger._text({"é\x00\n": "\u2603\x1f"}) == canonical_json(
        normalize({"é\x00\n": "\u2603\x1f"}))


@pytest.mark.parametrize("value", [1.5, {1, 2}, [1, {"a": 0.0}], {"k": frozenset()}])
def test_fragment_encoder_rejects_what_normalize_rejects(value):
    with pytest.raises(TypeError):
        normalize(value)
    with pytest.raises(TypeError):
        ledger._text(value)


def test_tuple_records_encode_as_their_data():
    # a NamedTuple is a tuple, but a record with ``as_data`` encodes as its data
    records = [Event("Transfer", "fractions", (("from", "a0"), ("amount", 7)), 1, 3),
               transact_action("a1", "vault", "place_bid", value=55, token_id=3)]
    for record in records:
        assert isinstance(record, tuple)
        assert normalize(record) == normalize(record.as_data())
        assert ledger._text(record) == canonical_json(normalize(record.as_data()))
    assert normalize([records, (2, "x")]) == [
        [normalize(r.as_data()) for r in records], ["2", "x"]]


def test_every_fuzz_event_encodes_as_its_data():
    plan = FuzzPlan(seed=7, steps=3_000)
    state, handle, actors = build_fuzz_world(plan)
    generator = ActionGenerator(plan, state, handle, actors)
    for _ in range(plan.steps):
        run_action(state, generator.generate())
    assert len(state.events) > 1_000
    for event in state.events:
        assert event.canonical() == canonical_json(event.as_data())


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


# one write of each kind: a balance, an allowance, a bid (auction entry,
# native balances and events) and a module scalar
FIELD_WRITES = {
    "balance": lambda state, h: state.set_fungible_balance(h.fractions, "alice", 7),
    "approve": lambda state, h: state.call(
        ExecutionContext("alice"), h.fractions, "approve", {"spender": "s1", "amount": 9}),
    "place_bid": lambda state, h: state.call(
        ExecutionContext("bob"), h.vault, "place_bid", {"token_id": 2}, value=5_000),
    "module scalar": lambda state, h: state.jsetattr(
        h.vault_module(state), "retained_dust", 3),
}


def _encodings(monkeypatch, state) -> int:
    """The fragments one ``digest()`` encodes: outermost encoder calls."""
    calls, depth, encode = [0], [0], ledger._text

    def counting(value):
        calls[0] += depth[0] == 0
        depth[0] += 1
        try:
            return encode(value)
        finally:
            depth[0] -= 1

    with monkeypatch.context() as patch:
        patch.setattr(ledger, "_text", counting)
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
    state, handle, _ = sold_world(HEALTHY)
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
    exposed = frozenset({"ping"})

    def ping(self, state, ctx, tag, count=1, read=False, fail=False):
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


def _ping(state, tag, **flags):
    return state.transact("alice", "emitter", "ping", {"tag": tag, **flags})


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
    plan = FuzzPlan(seed=42, steps=2_000)
    state, handle, actors = build_fuzz_world(plan)
    generator = ActionGenerator(plan, state, handle, actors)
    for _ in range(plan.steps):
        run_action(state, generator.generate())
    assert len(state.events) > 1_000
    assert _mutable_payload_values(state.events) == []
