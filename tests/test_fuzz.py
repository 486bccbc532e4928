"""Fuzzer behavior: clean healthy runs, determinism, mutant detection,
shrinker soundness (minimized traces reproduce and are 1-minimal, and
equal those of ddmin replaying from genesis), and write-set checks that
agree with full scans."""

from __future__ import annotations

import copy
import json
from dataclasses import replace

import pytest

from fracvault import fuzz
from fracvault.ddmin import Replay, ddmin
from fracvault.fuzz import (ActionGenerator, FuzzAction, FuzzPlan, build_fuzz_world,
                            clock_action, replay_violates, run_action, run_fuzz,
                            transact_action)
from fracvault.invariants import WriteSetChecks, first_violation
from fracvault.ledger import ZERO_ADDRESS, Module, canonical_json, normalize
from fracvault.mutations import MUTANTS
from fracvault.tokens import NftCollection

from helpers import genesis_ddmin


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
    actions = [
        transact_action("a1", "vault", "place_bid", value=55, token_id=3),
        transact_action("a0", "governance", "create_proposal",
                        description="change set_royalty_percent", target="vault",
                        action={"kind": "set_royalty_percent",
                                "args": {"percent": 7}},
                        voting_period=3_600),
        transact_action("a2", "vault", "deposit_nfts", token_ids=[1, 2, 3]),
        transact_action("a3", "governance", "vote", proposal_id=0, support=True),
        clock_action(600),
    ]
    for action in actions:
        data = action.as_data()
        assert FuzzAction.from_data(data) == action
        # what a report file holds: normalized JSON
        written = json.loads(json.dumps(normalize(data)))
        assert FuzzAction.from_data(written) == action
    assert actions[-1] == FuzzAction("", "", "", {}, 0, 600)
    assert actions[-1].as_data() == {"advance_clock": "600"}
    assert actions[1].as_data()["args"]["action"] == \
        {"kind": "set_royalty_percent", "args": {"percent": "7"}}


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
    return next(t for t, a in vault.auctions.items()
                if a.active and a.highest_bidder != ZERO_ADDRESS)


def _first_open_sale(vault):
    return next(t for t, s in vault.sales.items() if s.proceeds_remaining > 0)


def _replace(state, collection, key, change):
    """An entry is frozen: a write replaces it in its collection."""
    state.jset(collection, key, change(collection[key]))


# one journaled write each that breaks the named invariant
CORRUPTIONS = {
    "nft_single_owner": lambda state, handle: state.jset(
        state.nft[handle.collection].owners, 5, ZERO_ADDRESS),
    "governance_soundness": lambda state, handle: _replace(
        state, handle.governance_module(state).proposals, 3,
        lambda proposal: replace(proposal, votes_for=proposal.votes_for + 1)),
    "sale_accounting": lambda state, handle: _replace(
        state, handle.vault_module(state).sales,
        _first_open_sale(handle.vault_module(state)),
        lambda sale: replace(sale, proceeds_remaining=-1)),
    "vault_params": lambda state, handle: _replace(
        state, handle.vault_module(state).auctions,
        _first_bid_auction(handle.vault_module(state)),
        lambda auction: replace(auction, starting_price=10**12)),
    "vault_escrow": lambda state, handle: _replace(
        state, handle.vault_module(state).auctions,
        _first_bid_auction(handle.vault_module(state)),
        lambda auction: replace(auction, highest_bid=auction.highest_bid + 1)),
}


class _Corrupter(Module):
    exposed = frozenset({"corrupt"})

    def __init__(self, write):
        super().__init__("corrupter")
        self.write = write

    def corrupt(self, state, ctx):
        self.write(state)


def _assert_corruption_seen(name, forked):
    plan = FuzzPlan(seed=2, steps=1500)
    state, handle, actors = build_fuzz_world(plan)
    generator = ActionGenerator(plan, state, handle, actors)
    for _ in range(plan.steps):
        run_action(state, generator.generate())
    checks = WriteSetChecks(state, handle, (name,))
    assert checks.first_violation(()) is None  # the seeding full scan
    if forked:
        state, handle, checks = copy.deepcopy((state, handle, checks))
    state.install_module(_Corrupter(lambda s: CORRUPTIONS[name](s, handle)))
    assert state.transact("a0", "corrupter", "corrupt").ok
    detail = checks.first_violation(state.last_writes)
    assert detail is not None and detail.startswith(name + ":")
    assert detail == first_violation(state, handle, (name,))


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_write_set_check_sees_journaled_corruption(name):
    _assert_corruption_seen(name, forked=False)


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_copied_write_set_check_sees_corruption_of_the_copied_world(name):
    # the copy's id-keyed maps must name the copied containers
    _assert_corruption_seen(name, forked=True)


def test_forks_share_the_frozen_plan_mutations_and_hook_calls():
    replay = fuzz.FuzzReplay(FuzzPlan(seed=1, steps=10, mutant="drop-quorum-check"),
                             "native_conservation")
    fork = replay.fork()
    assert fork.plan is replay.plan
    vault = replay.state.modules[replay.handle.vault]
    assert fork.state.modules[replay.handle.vault].mutations is vault.mutations
    [hook] = [h for h in replay.state.hooks.values() if h.calls]
    twin = fork.state.hooks[hook.owner]
    assert twin is not hook and all(a is b for a, b in zip(twin.calls, hook.calls))


def _plant_leaky_mint(monkeypatch):
    original = NftCollection.mint

    def leaky_mint(self, state, ctx, to, token_id):
        original(self, state, ctx, to, token_id)
        if token_id > 1000:  # fuzz-time mints only; the world setup stays clean
            # a raw write: no journal entry, so no write set names it
            state.nft[self.module_id].owners[-token_id] = ZERO_ADDRESS

    monkeypatch.setattr(NftCollection, "mint", leaky_mint)


def test_unjournaled_write_caught_by_end_of_run_scan(monkeypatch):
    _plant_leaky_mint(monkeypatch)
    plan = FuzzPlan(seed=42, steps=300)
    report = run_fuzz(plan)
    [violation] = report.violations
    assert violation.invariant == "nft_single_owner"
    assert violation.step == plan.steps - 1  # seen by the end-of-run scan only
    assert [a.method for a in violation.trace] == ["mint"]


# --------------------------------------------------------------------- #
# Checkpointed shrink against ddmin replaying from genesis
# --------------------------------------------------------------------- #

def _fuzz_recording_shrink(monkeypatch, plan):
    """``run_fuzz(plan)`` and the (actions, invariant) its shrink was given."""
    calls = []
    original = fuzz.shrink

    def recording(plan, actions, invariant):
        calls.append((list(actions), invariant))
        return original(plan, actions, invariant)

    monkeypatch.setattr(fuzz, "shrink", recording)
    return run_fuzz(plan), calls


def _assert_shrink_is_genesis_ddmin(monkeypatch, plan):
    report, [(actions, invariant)] = _fuzz_recording_shrink(monkeypatch, plan)
    reference = genesis_ddmin(
        actions, lambda candidate: replay_violates(plan, candidate, invariant))
    assert report.violations[0].trace == reference


# the mutants the fuzzer catches within 3·10^3 steps on seeds 1, 2, 3, 7, 11
CAUGHT_IN_3000 = [("drop-burn-before-pay", seed) for seed in (1, 2, 3, 7, 11)] \
    + [("drop-quorum-check", seed) for seed in (2, 11)]


@pytest.mark.parametrize("mutant,seed", CAUGHT_IN_3000)
def test_checkpointed_shrink_equals_genesis_ddmin(monkeypatch, mutant, seed):
    _assert_shrink_is_genesis_ddmin(
        monkeypatch, FuzzPlan(seed=seed, steps=3_000, mutant=mutant))


def test_checkpointed_shrink_equals_genesis_ddmin_on_unjournaled_write(monkeypatch):
    # the violation shows only at the end-of-trace scan
    _plant_leaky_mint(monkeypatch)
    _assert_shrink_is_genesis_ddmin(monkeypatch, FuzzPlan(seed=42, steps=300))


class _FailsAtLastAfterSeven(Replay):
    """Fails on the last action of a trace that contains a 7: a check that,
    like the fuzzer's end-of-trace scan, runs on the last action only."""

    def __init__(self):
        self.seen = False

    def step(self, action, index, last):
        self.seen = self.seen or action == 7
        return last and self.seen


def test_candidate_without_suffix_runs_its_last_step_as_last():
    # a candidate trace[:i] ends on trace[i - 1], which the shared prefix
    # must leave for the fork to run as the last action
    trace = [1, 2, 7, 3, 4, 5, 6, 8]
    shrunk = ddmin(trace, _FailsAtLastAfterSeven,
                   lambda candidate, start: start.fork().run(candidate))
    assert shrunk == [7]
    assert shrunk == genesis_ddmin(
        trace, lambda candidate: _FailsAtLastAfterSeven().run(candidate))
