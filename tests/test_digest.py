"""State digest: golden pins of its exact bytes, the incremental digest
against the full recompute, and revert checks that the cache cannot blind."""

from __future__ import annotations

import copy
import hashlib
from importlib import resources

import pytest

from fracvault import errors, standard_world
from fracvault.fuzz import (ActionGenerator, FuzzPlan, build_fuzz_world,
                            run_action, run_fuzz)
from fracvault.ledger import (DIGEST_CHECK_INTERVAL, ChainState, DigestCacheMismatch,
                              ReceiveHook)
from fracvault.market import Market
from fracvault.mutations import HEALTHY, MUTANTS
from fracvault.properties import run_suite, sold_world
from fracvault.scenario import build_world, execute_entry, parse_scenario, run_scenario
from fracvault.tokens import FungibleToken
from fracvault.vault import Vault

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


# --------------------------------------------------------------------- #
# Cached digest against the full recompute
# --------------------------------------------------------------------- #

def test_cached_digest_equals_full_recompute_on_lifecycle():
    scenario = parse_scenario(LIFECYCLE.read_text())
    state = build_world(scenario)
    assert state.digest() == state.full_digest()
    for step, entry in enumerate(scenario["transactions"]):
        record = execute_entry(state, step, entry)
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
    assert [a.method for a in violation.trace] == ["place_bid"]


def test_suite_revert_atomicity_sees_unjournaled_write(monkeypatch):
    _plant_unjournaled_write_on_failed_bid(monkeypatch)
    [result] = run_suite(seed=0, steps=300, names=("revert_atomicity",)).results
    assert not result.passed
    assert "place_bid" in result.detail and "left residue" in result.detail
