"""Fuzzer behavior: clean healthy runs, determinism, mutant detection,
shrinker soundness (minimized traces reproduce and are 1-minimal), and
write-set checks that agree with full scans."""

from __future__ import annotations

import pytest

from fracvault.fuzz import (ActionGenerator, FuzzAction, FuzzPlan, build_fuzz_world,
                            replay_violates, run_action, run_fuzz)
from fracvault.invariants import WriteSetChecks, first_violation
from fracvault.ledger import ZERO_ADDRESS, Module, canonical_json, normalize
from fracvault.mutations import MUTANTS
from fracvault.tokens import NftCollection


def test_healthy_run_is_clean_and_mixed():
    report = run_fuzz(FuzzPlan(seed=42, steps=1500))
    assert report.ok
    assert report.steps_executed == 1500
    assert report.commits > 300  # real activity, not just reverts
    assert report.reverts > 100  # guard paths exercised too


def test_zero_steps_empty_report():
    report = run_fuzz(FuzzPlan(seed=1, steps=0))
    assert report.ok and report.steps_executed == 0


def test_same_seed_identical_reports():
    plan = FuzzPlan(seed=7, steps=800)
    one = run_fuzz(plan)
    two = run_fuzz(plan)
    assert canonical_json(normalize(one.as_data())) == \
        canonical_json(normalize(two.as_data()))


def test_different_seeds_diverge():
    one = run_fuzz(FuzzPlan(seed=1, steps=400))
    two = run_fuzz(FuzzPlan(seed=2, steps=400))
    assert one.final_digest != two.final_digest


def test_revert_atomicity_mode_clean():
    report = run_fuzz(FuzzPlan(seed=11, steps=400, check_revert_atomicity=True))
    assert report.ok


def test_action_round_trip():
    action = FuzzAction(kind="transact", sender="a1", module="vault",
                        method="place_bid", args=(("token_id", 3),), value=55)
    assert FuzzAction.from_data(action.as_data()) == action
    clock = FuzzAction(kind="advance_clock", delta=600)
    assert FuzzAction.from_data(clock.as_data()) == clock


def test_mutant_caught_with_minimal_trace():
    plan = FuzzPlan(seed=7, steps=4000, mutant="drop-burn-before-pay")
    report = run_fuzz(plan)
    assert not report.ok
    violation = report.violations[0]
    # the minimized trace must still reproduce from genesis
    assert replay_violates(plan, violation.trace, violation.invariant)
    # and be 1-minimal: removing any single step loses the violation
    for i in range(len(violation.trace)):
        candidate = violation.trace[:i] + violation.trace[i + 1:]
        assert not candidate or not replay_violates(plan, candidate,
                                                    violation.invariant)


def test_world_build_deterministic():
    plan = FuzzPlan(seed=3, steps=0)
    one, _, _ = build_fuzz_world(plan)
    two, _, _ = build_fuzz_world(plan)
    assert one.digest() == two.digest()


def test_replay_of_recorded_actions_reaches_same_digest():
    plan = FuzzPlan(seed=5, steps=300)
    state, handle, actors = build_fuzz_world(plan)
    from fracvault.fuzz import ActionGenerator
    generator = ActionGenerator(plan, state, handle, actors)
    actions = []
    for _ in range(300):
        action = generator.generate()
        actions.append(action)
        run_action(state, action)
    # replay pure data on a fresh world
    twin, _, _ = build_fuzz_world(plan)
    for action in actions:
        run_action(twin, action)
    assert twin.digest() == state.digest()


@pytest.mark.parametrize("mutant", [None] + sorted(MUTANTS))
def test_write_set_verdict_equals_full_scan(mutant):
    # Oracle: the full scan after every step, including the steps after a
    # violation, when violated entities must stay reported.
    for seed in (1, 2, 3):
        plan = FuzzPlan(seed=seed, steps=2000, mutant=mutant)
        state, handle, actors = build_fuzz_world(plan)
        generator = ActionGenerator(plan, state, handle, actors)
        vault = handle.vault_module(state)
        checks = WriteSetChecks(state, handle)
        for step in range(plan.steps):
            result = run_action(state, generator.generate())
            writes = state.last_writes if result is not None else ()
            assert checks.first_violation(writes) == first_violation(state, handle), \
                (seed, step)
            # the running escrow sums (a repeated update is a no-op)
            assert checks.escrow_totals(vault) == (
                sum(s.proceeds_remaining for s in vault.sales.values()),
                vault.active_bid_total()), (seed, step)


def _first_bid_auction(vault):
    return next(a for a in vault.auctions.values()
                if a.active and a.highest_bidder != ZERO_ADDRESS)


def _first_open_sale(vault):
    return next(s for s in vault.sales.values() if s.proceeds_remaining > 0)


# one journaled write each that breaks the named invariant
CORRUPTIONS = {
    "nft_single_owner": lambda state, handle: state.jset(
        state.nft[handle.collection].owners, 5, ZERO_ADDRESS),
    "governance_soundness": lambda state, handle: state.jsetattr(
        handle.governance_module(state).proposals[3], "votes_for",
        handle.governance_module(state).proposals[3].votes_for + 1),
    "sale_accounting": lambda state, handle: state.jsetattr(
        _first_open_sale(handle.vault_module(state)), "proceeds_remaining", -1),
    "vault_params": lambda state, handle: state.jsetattr(
        _first_bid_auction(handle.vault_module(state)), "starting_price", 10**12),
    "vault_escrow": lambda state, handle: state.jsetattr(
        _first_bid_auction(handle.vault_module(state)), "highest_bid",
        _first_bid_auction(handle.vault_module(state)).highest_bid + 1),
}


class _Corrupter(Module):
    exposed = frozenset({"corrupt"})

    def __init__(self, write):
        super().__init__("corrupter")
        self.write = write

    def corrupt(self, state, ctx):
        self.write(state)


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_write_set_check_sees_journaled_corruption(name):
    plan = FuzzPlan(seed=2, steps=1500)
    state, handle, actors = build_fuzz_world(plan)
    generator = ActionGenerator(plan, state, handle, actors)
    for _ in range(plan.steps):
        run_action(state, generator.generate())
    checks = WriteSetChecks(state, handle, (name,))
    assert checks.first_violation(()) is None  # the seeding full scan
    state.install_module(_Corrupter(lambda s: CORRUPTIONS[name](s, handle)))
    assert state.transact("a0", "corrupter", "corrupt").ok
    detail = checks.first_violation(state.last_writes)
    assert detail is not None and detail.startswith(name + ":")
    assert detail == first_violation(state, handle, (name,))


def test_unjournaled_write_caught_by_end_of_run_scan(monkeypatch):
    original = NftCollection.mint

    def leaky_mint(self, state, ctx, to, token_id):
        original(self, state, ctx, to, token_id)
        if token_id > 1000:  # fuzz-time mints only; the world setup stays clean
            # a raw write: no journal entry, so no write set names it
            state.nft[self.module_id].owners[-token_id] = ZERO_ADDRESS

    monkeypatch.setattr(NftCollection, "mint", leaky_mint)
    plan = FuzzPlan(seed=42, steps=300)
    report = run_fuzz(plan)
    [violation] = report.violations
    assert violation.invariant == "nft_single_owner"
    assert violation.step == plan.steps - 1  # seen by the end-of-run scan only
    assert [a.method for a in violation.trace] == ["mint"]
