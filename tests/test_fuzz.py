"""Fuzzer behavior: clean healthy runs, determinism, mutant detection,
shrinker soundness (minimized traces reproduce and are 1-minimal, and
equal those of ddmin replaying from genesis), write-set checks that agree
with full scans and run only the checkers a step's writes reach, and draw
indexes that agree with scans of the world."""

from __future__ import annotations

import copy
import errno
import gc
import json
import os
import sys
from dataclasses import replace

import pytest

from fracvault import fuzz, invariants, ledger, peer, properties
from fracvault.ddmin import NondeterministicRun, Replay, ddmin, run_checked
from fracvault.fuzz import (ActionGenerator, FuzzAction, FuzzPlan, FuzzReport,
                            Violation, actor_world, build_fuzz_world, clock_action,
                            replay_violates, run_action, run_fuzz, transact_action)
from fracvault.governance import SCHEDULED, Governance
from fracvault.invariants import WriteSetChecks, first_violation
from fracvault.ledger import ZERO_ADDRESS, Module, ReceiveHook, canonical_json, normalize
from fracvault.mutations import MUTANTS, mutant_class
from fracvault.properties import ACTORS, ALL_PROPERTIES, NFTS, replay_property_trace, run_suite
from fracvault.scenario import parse_scenario, run_scenario
from fracvault.trace import replay_trace, write_trace
from fracvault.tokens import NftCollection
from fracvault.vault import Vault

from conftest import assert_no_child_left
from helpers import (assert_folds_by_the_rule, counting_reruns, genesis_ddmin,
                     hashed_events, held_events, tx)

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


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


# a step that advances the clock, then makes a call that reverts cleanly
WAIT_THEN_WITHDRAW = FuzzAction("a0", "vault", "withdraw_pending", {}, 0, 600)
ATOMICITY_PATHS = {
    "fuzz": (lambda: build_fuzz_world(FuzzPlan(seed=1, steps=0))[0],
             lambda trace: replay_violates(
                 FuzzPlan(seed=1, steps=len(trace), check_revert_atomicity=True),
                 trace, "revert_atomicity")),
    "suite": (lambda: actor_world(len(ACTORS), NFTS)[0],
              lambda trace: replay_property_trace("revert_atomicity", trace)),
}


@pytest.mark.parametrize("path", sorted(ATOMICITY_PATHS))
@pytest.mark.parametrize("trace", [
    [WAIT_THEN_WITHDRAW],
    # the first revert's digest must not stand in for the second's
    [WAIT_THEN_WITHDRAW._replace(delta=0), WAIT_THEN_WITHDRAW],
], ids=["first-step", "after-clean-revert"])
def test_clock_advance_is_not_revert_residue(path, trace):
    world, fails = ATOMICITY_PATHS[path]
    state = world()
    assert [run_action(state, action).error for action in trace] == \
        ["NothingPending"] * len(trace)
    assert not fails(trace)


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


@pytest.mark.parametrize("seed", [1, 2, 11])
def test_shrunk_trace_has_no_deletable_step(seed):
    # a deletion late in a chunk-1 pass can make an earlier step deletable,
    # so one chunk-1 pass alone left 1, 5 and 6 such steps at these seeds
    plan = FuzzPlan(seed=seed, steps=20_000, mutant="drop-burn-before-pay")
    [violation] = run_fuzz(plan).violations
    trace, invariant = violation.trace, violation.invariant
    assert replay_violates(plan, trace, invariant)
    assert [i for i in range(len(trace)) if replay_violates(
        plan, trace[:i] + trace[i + 1:], invariant)] == []


def test_world_build_deterministic():
    plan = FuzzPlan(seed=3, steps=0)
    one, _, _ = build_fuzz_world(plan)
    two, _, _ = build_fuzz_world(plan)
    assert one.digest() == two.digest()


def test_actor_world_runs_its_setup_before_the_mutant():
    # the mutant would let the deployer rebind governance; the setup must
    # still meet the healthy guard
    rebind = transact_action("deployer", fuzz.IDS.vault, "set_governance_contract",
                             governance="a0")
    with pytest.raises(RuntimeError, match="AlreadySet"):
        actor_world(1, [rebind], mutant="drop-set-once-governance")


def test_actor_world_installs_a_copy_of_each_hook():
    hook = ReceiveHook(owner="a0", reject=True)
    state, _, actors = actor_world(2, hooks=[("a0", hook)])
    assert actors == ["a0", "a1"]
    assert state.hooks["a0"] == hook and state.hooks["a0"] is not hook


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


def _assert_write_set_verdicts(state, handle, draw, steps, names, where):
    """Run ``steps`` actions of ``draw`` on ``state``; after each, the
    write-set verdict on ``names`` and every running total must equal a
    full scan and a fresh sum."""
    vault, market = handle.vault_module(state), handle.market_module(state)
    checks = WriteSetChecks(state, handle, names)
    for step in range(steps):
        result = run_action(state, draw(step))
        writes = state.last_writes if result is not None else ()
        assert checks.first_violation(writes) == first_violation(state, handle, names), \
            (where, step)
        # every running total against a fresh sum
        balances = [ledger.balances for ledger in state.fungible.values()]
        summed = (state.native, market.shares, vault.pending, vault.sales,
                  vault.auctions, *balances)
        assert [checks.total(d) for d in summed] == [
            sum(state.native.values()), sum(market.shares.values()),
            sum(vault.pending.values()),
            sum(s.proceeds_remaining for s in vault.sales.values()),
            vault.active_bid_total(), *(sum(b.values()) for b in balances)], \
            (where, step)


@pytest.mark.parametrize("mutant", [None] + sorted(MUTANTS))
def test_write_set_verdict_equals_full_scan(mutant):
    # Oracle: the full scan after every step, including the steps after a
    # violation, when violated entities must stay reported.
    for seed in (1, 2, 3):
        plan = FuzzPlan(seed=seed, steps=2000, mutant=mutant)
        state, handle, actors = build_fuzz_world(plan)
        generator = ActionGenerator(plan, state, handle, actors)
        _assert_write_set_verdicts(state, handle, lambda step: generator.generate(),
                                   plan.steps, plan.invariants, seed)
    # the campaigns that name invariants, which the step rule checks the same way
    campaigns = [c for c in properties._CAMPAIGNS.values() if c.invariants]
    assert len(campaigns) == 6
    for campaign in campaigns:
        world, generate = properties._fresh_run(campaign, 0, mutant)
        _assert_write_set_verdicts(world.state, world.handle, generate, 400,
                                   campaign.invariants, campaign.name)


def _first_bid_auction(vault):
    return next(t for t, a in vault.auctions.items()
                if a.active and a.highest_bidder != ZERO_ADDRESS)


def _first_open_sale(vault):
    return next(t for t, s in vault.sales.items() if s.proceeds_remaining > 0)


def _replace(state, collection, key, change):
    """An entry is frozen: a write replaces it in its collection."""
    state.jset(collection, key, change(collection[key]))


def _add(state, balances, key, amount):
    state.jset(balances, key, balances.get(key, 0) + amount)


# one journaled write each that breaks the named invariant
CORRUPTIONS = {
    "native_conservation": lambda state, handle: _add(state, state.native, "a1", 1),
    "fungible_supply": lambda state, handle: _add(
        state, state.fungible[handle.pair].balances, "a1", 1),
    "market_books": lambda state, handle: _add(
        state, handle.market_module(state).shares, "a1", 1),
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
    def __init__(self, write):
        super().__init__("corrupter")
        self.write = write

    def corrupt(self, state, ctx):
        self.write(state)


def _assert_seen(state, handle, name, corrupt, forked=False):
    checks = WriteSetChecks(state, handle, (name,))
    assert checks.first_violation(()) is None  # the seeding full scan
    if forked:
        state, handle, checks = copy.deepcopy((state, handle, checks))
    state.install_module(_Corrupter(lambda s: corrupt(s, handle)))
    assert state.transact("a0", "corrupter", "corrupt").ok
    detail = checks.first_violation(state.last_writes)
    assert detail is not None and detail.startswith(name + ":")
    assert detail == first_violation(state, handle, (name,))
    return detail


def _assert_corruption_seen(name, forked):
    plan = FuzzPlan(seed=2, steps=1500)
    state, handle, actors = build_fuzz_world(plan)
    generator = ActionGenerator(plan, state, handle, actors)
    for _ in range(plan.steps):
        run_action(state, generator.generate())
    _assert_seen(state, handle, name, CORRUPTIONS[name], forked)


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_write_set_check_sees_journaled_corruption(name):
    _assert_corruption_seen(name, forked=False)


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_copied_write_set_check_sees_corruption_of_the_copied_world(name):
    # the copy's id-keyed maps must name the copied containers
    _assert_corruption_seen(name, forked=True)


def _zero_two_owners(state, handle):
    """NFTs 2 and 1 of the collection, the later-minted first, owned by the
    zero address in one step."""
    for token_id in (2, 1):
        state.jset(state.nft[handle.collection].owners, token_id, ZERO_ADDRESS)


# a journaled write to each object or dict the checkers read that no
# CORRUPTIONS entry writes, and the invariant the write breaks; the last
# breaks two entities at once
OBJECT_CORRUPTIONS = {
    "vault": ("vault_params", lambda state, handle: state.jsetattr(
        handle.vault_module(state), "royalty_percent", 101)),
    "vault.pending": ("vault_escrow", lambda state, handle: _add(
        state, handle.vault_module(state).pending, "alice", 1)),
    "timelock": ("governance_soundness", lambda state, handle: state.jsetattr(
        state.modules[handle.timelock], "delay", 10**9)),
    "timelock.entries": ("governance_soundness", lambda state, handle: _replace(
        state, state.modules[handle.timelock].entries, 0,
        lambda entry: replace(entry, state=SCHEDULED))),
    "market": ("market_books", lambda state, handle: state.jsetattr(
        handle.market_module(state), "total_shares",
        handle.market_module(state).total_shares + 1)),
    "fungible ledger": ("fungible_supply", lambda state, handle: state.jsetattr(
        state.fungible[handle.pair], "total_supply",
        state.fungible[handle.pair].total_supply + 1)),
    "two nft owners": ("nft_single_owner", _zero_two_owners),
}


@pytest.mark.parametrize("target", sorted(OBJECT_CORRUPTIONS))
def test_write_set_check_sees_corruption_of_each_read_object(proposal_world, target):
    state, handle = proposal_world
    tx(state, "alice", handle.governance, "vote", proposal_id=0, support=True)
    state.advance_clock(86_400)
    for _ in range(2):  # schedule, then execute after the timelock delay
        tx(state, "alice", handle.governance, "execute_proposal", proposal_id=0)
        state.advance_clock(172_800)
    name, corrupt = OBJECT_CORRUPTIONS[target]
    _assert_seen(state, handle, name, corrupt)


def test_write_set_detail_names_the_first_broken_entity_of_the_scan(proposal_world):
    # the write set names token 2 first; the detail follows the scan order
    state, handle = proposal_world
    detail = _assert_seen(state, handle, *OBJECT_CORRUPTIONS["two nft owners"])
    assert detail == (f"nft_single_owner: {handle.collection}: "
                      "token 1 owned by the zero address")


def _counted_checker_calls(monkeypatch):
    """The names of the checkers called from now on, in call order."""
    calls = []
    for name, checker in list(invariants.CHECKERS.items()):
        def counted(*args, _name=name, _checker=checker):
            calls.append(_name)
            return _checker(*args)
        monkeypatch.setitem(invariants.CHECKERS, name, counted)
    return calls


def test_a_step_evaluates_only_the_checkers_its_writes_reach(monkeypatch):
    state, handle, _ = build_fuzz_world(FuzzPlan(seed=2, steps=0))
    checks = WriteSetChecks(state, handle)
    calls = _counted_checker_calls(monkeypatch)
    assert checks.first_violation(()) is None  # the seeding full scan
    assert calls == list(invariants.ALL_INVARIANTS)
    calls.clear()
    result = run_action(state, transact_action("a0", handle.vault, "withdraw_pending"))
    assert not result.ok
    assert checks.first_violation(state.last_writes) is None
    assert run_action(state, clock_action(600)) is None
    assert checks.first_violation(()) is None
    assert calls == []  # a reverted and a clock-only step
    result = run_action(state, transact_action("a0", "native", "transfer",
                                               to="a1", amount=5))
    assert result.ok
    assert checks.first_violation(state.last_writes) is None
    assert calls == ["native_conservation", "vault_escrow"]


def test_a_healthy_run_evaluates_few_checkers_per_step(monkeypatch):
    # a count, not a timing: a return to running every checker at every
    # step (8 per step) fails here
    calls = _counted_checker_calls(monkeypatch)
    plan = FuzzPlan(seed=2, steps=3_000)
    assert run_fuzz(plan).ok
    assert len(calls) <= 1.5 * plan.steps


def _scanned_draws(generator):
    """What ``DrawIndex`` serves, scanned from the world."""
    state, handle = generator.state, generator.handle
    owners = state.nft[handle.collection].owners
    vault = handle.vault_module(state)
    return ({a: [t for t, o in owners.items() if o == a] for a in generator.actors},
            [t for t, a in vault.auctions.items() if a.active],
            [t for t, s in vault.sales.items() if s.proceeds_remaining > 0],
            list(vault.original_owner))


def _indexed_draws(generator):
    index = generator.index
    index.sync()
    return ({a: index.owners.keys(a) for a in generator.actors},
            index.auctions.keys(True), index.sales.keys(True), index.vaulted.keys(True))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_draw_index_equals_the_scans(seed):
    plan = FuzzPlan(seed=seed, steps=20_000)
    state, handle, actors = build_fuzz_world(plan)
    generator = ActionGenerator(plan, state, handle, actors)
    seen = [False] * 4
    for step in range(plan.steps):
        run_action(state, generator.generate())
        if step % 97 == 0:
            draws = _indexed_draws(generator)
            assert draws == _scanned_draws(generator), (seed, step)
            seen = [was or bool(now) for was, now in zip(seen, draws)]
    assert all(seen)
    # two transactions the index did not see: the next sync rebuilds it
    for action in (transact_action("deployer", handle.collection, "mint",
                                   to="a1", token_id=10**6),
                   transact_action("a1", handle.vault, "deposit_nft",
                                   nft_address=handle.collection, token_id=10**6)):
        assert run_action(state, action).ok
    assert _indexed_draws(generator) == _scanned_draws(generator)
    assert 10**6 in generator.index.vaulted.keys(True)


def test_forks_keep_the_mutant_class_and_share_the_plan_and_hook_calls():
    plan = FuzzPlan(seed=1, steps=10, mutant="drop-quorum-check")
    replay = fuzz.fuzz_replay(plan, "native_conservation")
    fork = replay.fork()
    assert fork.spec is replay.spec is plan
    governance, copied = (r.handle.governance_module(r.state) for r in (replay, fork))
    assert copied is not governance
    assert type(copied) is type(governance) is mutant_class("drop-quorum-check", Governance)
    [hook] = [h for h in replay.state.hooks.values() if h.calls]
    twin = fork.state.hooks[hook.owner]
    assert twin is not hook and all(a is b for a, b in zip(twin.calls, hook.calls))


def _entry_collections(replay):
    state, handle = replay.state, replay.handle
    vault = handle.vault_module(state)
    return {"auctions": vault.auctions, "sales": vault.sales,
            "entries": state.modules[handle.timelock].entries,
            "proposals": dict(enumerate(handle.governance_module(state).proposals))}


def _assert_same_entries(entries, before):
    for name, collection in entries.items():
        assert collection.keys() == before[name].keys(), name
        assert all(collection[k] is before[name][k] for k in collection), name


def test_forks_share_frozen_entries_and_replace_them_on_their_own():
    plan = FuzzPlan(seed=42, steps=3_000)
    origin = fuzz.fuzz_replay(plan)
    generator = ActionGenerator(plan, origin.state, origin.handle,
                                origin.extras["actors"])
    run_checked(origin, lambda step: generator.generate(), plan.steps, 0)
    before, origin_digest = _entry_collections(origin), origin.state.full_digest()
    fork = origin.fork()
    _assert_same_entries(_entry_collections(fork), before)

    state, h = fork.state, fork.handle
    vault, governance = h.vault_module(state), h.governance_module(state)
    fractions = state.fungible[h.fractions].balances
    holders = sorted(fractions, key=fractions.get, reverse=True)[:2]
    [open_id] = [p.proposal_id for p in governance.proposals
                 if state.clock < p.voting_deadline][-1:]
    voters = governance.proposals[open_id].voters
    [ended] = [t for t, a in vault.auctions.items()
               if a.active and a.end_time <= state.clock][:1]
    [sale] = [t for t, s in vault.sales.items() if s.proceeds_remaining][:1]
    steps = [transact_action(voter, h.governance, "vote", proposal_id=open_id,
                             support=True) for voter in holders]
    steps += [transact_action(holders[0], h.vault, "end_auction", token_id=ended),
              transact_action(holders[0], h.vault, "redeem_fraction_value",
                              token_id=sale, fraction_amount=1),
              FuzzAction(holders[0], h.governance, "execute_proposal",
                         {"proposal_id": open_id}, 0,
                         governance.proposals[open_id].voting_deadline - state.clock)]
    for index, action in enumerate(steps, plan.steps):
        result, detail = fork.check(action, index, False)
        assert result.ok and detail is None, (action, result, detail)
    scheduled = state.modules[h.timelock].entries[open_id]
    result, detail = fork.check(transact_action(
        "deployer", h.governance, "cancel_scheduled", proposal_id=open_id),
        plan.steps + len(steps), False)
    assert result.ok and detail is None

    replaced = _entry_collections(fork)
    assert replaced["proposals"][open_id] is not before["proposals"][open_id]
    assert replaced["proposals"][open_id].voters.keys() == set(holders)
    assert replaced["auctions"][ended] is not before["auctions"][ended]
    assert replaced["sales"][sale] is not before["sales"][sale]
    assert replaced["entries"][open_id] is not scheduled
    assert origin.state.full_digest() == origin_digest
    _assert_same_entries(_entry_collections(origin), before)
    assert before["proposals"][open_id].voters is voters and voters == {}


def test_runs_leave_no_cyclic_garbage(two_cpus):
    # a cycle in a record or lock class would leave every run's world for
    # the next collection, which then runs inside someone else's timing;
    # both runs draw in a peer, and the hunt's shrink and the suite each run
    # with one too, whose pipes and closures must leave none either
    gc.collect()
    gc.disable()
    try:
        assert run_fuzz(FuzzPlan(seed=42, steps=3_000)).ok
        hunt = run_fuzz(FuzzPlan(seed=42, steps=peer.DRAW_MIN_STEPS,
                                 mutant="drop-quorum-check"))
        assert len(hunt.violations[0].trace) < hunt.steps_executed
        assert not run_suite(seed=0, steps=100, mutant="drop-only-vault").passed
        assert gc.collect() == 0
        assert two_cpus == [os.getpid()] * 4
    finally:
        gc.enable()


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

    def recording(plan, tail, executed, detail, digest):
        assert executed == len(tail)  # the run kept its whole trace
        calls.append((list(tail), detail.split(":", 1)[0]))
        return original(plan, tail, executed, detail, digest)

    monkeypatch.setattr(fuzz, "shrink", recording)
    return run_fuzz(plan), calls


def _assert_shrink_is_genesis_ddmin(monkeypatch, forks, plan, fork_count):
    # every case's trace is long enough to be shrunk by two processes; a
    # run of DRAW_MIN_STEPS steps or more forks a drawing peer first
    report, [(actions, invariant)] = _fuzz_recording_shrink(monkeypatch, plan)
    assert len(actions) >= peer.PEER_MIN_ACTIONS
    assert forks == [os.getpid()] * fork_count
    assert_no_child_left()
    reference = genesis_ddmin(
        actions, lambda candidate: replay_violates(plan, candidate, invariant))
    assert report.violations[0].trace == reference


# the mutants the fuzzer catches within 3·10^3 steps on seeds 1, 2, 3, 7, 11
CAUGHT_IN_3000 = [("drop-burn-before-pay", seed) for seed in (1, 2, 3, 7, 11)] \
    + [("drop-quorum-check", seed) for seed in (2, 11)]


@pytest.mark.parametrize("mutant,seed", CAUGHT_IN_3000)
def test_checkpointed_shrink_equals_genesis_ddmin(monkeypatch, two_cpus, mutant,
                                                  seed):
    _assert_shrink_is_genesis_ddmin(
        monkeypatch, two_cpus, FuzzPlan(seed=seed, steps=3_000, mutant=mutant), 2)


def test_checkpointed_shrink_equals_genesis_ddmin_on_unjournaled_write(
        monkeypatch, two_cpus):
    # the violation shows only at the end-of-trace scan
    _plant_leaky_mint(monkeypatch)
    _assert_shrink_is_genesis_ddmin(monkeypatch, two_cpus, FuzzPlan(seed=42, steps=300),
                                    1)


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


# --------------------------------------------------------------------- #
# ddmin on two processes against ddmin on one
# --------------------------------------------------------------------- #

class _FailsWithAll(Replay):
    """Fails once every one of ``wanted`` has run, or, if ``at_last``, on the
    last action of a trace that contains them all."""

    def __init__(self, wanted: frozenset, at_last: bool):
        self.wanted, self.at_last, self.seen = wanted, at_last, frozenset()

    def step(self, action, index, last):
        self.seen = self.seen | ({action} & self.wanted)
        return self.seen == self.wanted and (last or not self.at_last)


TWO_PROCESS_CASES = [
    (list(range(300)), frozenset({7}), True),
    ([n % 97 for n in range(600)], frozenset({5, 50, 96}), False),
    ([n % 41 for n in range(1_000)], frozenset({0, 13, 27, 40}), True),
]


@pytest.mark.parametrize("trace, wanted, at_last", TWO_PROCESS_CASES)
def test_two_process_ddmin_equals_one_process_and_genesis(
        monkeypatch, two_cpus, trace, wanted, at_last):
    assert len(trace) >= peer.PEER_MIN_ACTIONS
    start = lambda: _FailsWithAll(wanted, at_last)  # noqa: E731
    fails = lambda candidate, prefix: prefix.fork().run(candidate)  # noqa: E731
    two = ddmin(trace, start, fails)
    assert two_cpus == [os.getpid()]
    assert_no_child_left()
    monkeypatch.setattr(peer, "PEER_MIN_ACTIONS", len(trace) + 1)
    one = ddmin(trace, start, fails)
    assert two_cpus == [os.getpid()]
    assert two == one == genesis_ddmin(trace, lambda c: start().run(c))
    assert len(one) == len(wanted)


def test_ddmin_reaps_its_peer_when_the_shrinking_process_raises(two_cpus):
    shrinking = os.getpid()
    calls = []

    def fails(candidate, prefix):
        if os.getpid() == shrinking:
            calls.append(len(candidate))
            if len(calls) == 3:
                raise RuntimeError("a replay of the shrinking process failed")
        return prefix.fork().run(candidate)

    with pytest.raises(RuntimeError, match="shrinking process"):
        ddmin(list(range(300)), _FailsAtLastAfterSeven, fails)
    assert two_cpus == [shrinking]
    assert_no_child_left()


class _RaisesOnLast149(_FailsAtLastAfterSeven):
    """Raises on a candidate that ends on action 149, writing the id of the
    process that raised to ``log``."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    def step(self, action, index, last):
        if last and action == 149:
            with open(self.log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            raise ValueError("a replay raised on action 149")
        return super().step(action, index, last)


def test_ddmin_raises_what_one_process_raises_when_its_peer_raises(
        monkeypatch, two_cpus, tmp_path):
    # of the first pass (chunk 150), the shrinking process tests
    # trace[150:], which is kept, and the peer trace[:150], which raises
    trace = list(range(300))
    log = tmp_path / "raised"
    fails = lambda candidate, prefix: prefix.fork().run(candidate)  # noqa: E731
    with pytest.raises(ValueError, match="action 149"):
        ddmin(trace, lambda: _RaisesOnLast149(log), fails)
    assert two_cpus == [os.getpid()]
    assert_no_child_left()
    peer, shrinking = map(int, log.read_text().split())
    assert peer != shrinking == os.getpid()
    # on one CPU
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    with pytest.raises(ValueError, match="action 149"):
        ddmin(trace, lambda: _RaisesOnLast149(log), fails)
    assert two_cpus == [os.getpid()]


def _long_shrink_and_large_suite(monkeypatch) -> tuple[str, str]:
    """The report bytes of a shrink of 300 actions and of the full suite at
    400 steps."""
    with monkeypatch.context() as patched:
        _plant_leaky_mint(patched)
        hunt = run_fuzz(FuzzPlan(seed=42, steps=300))
    suite = run_suite(seed=0, steps=400, mutant="drop-only-vault")
    return tuple(canonical_json(normalize(report.as_data())) for report in (hunt, suite))


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_a_platform_without_fork_or_affinity_runs_on_one_cpu(monkeypatch, two_cpus,
                                                             missing):
    # Windows has no os.fork and macOS no os.sched_getaffinity: there the
    # shrink and the suite run in one process, to the same bytes
    two = _long_shrink_and_large_suite(monkeypatch)
    assert two_cpus == [os.getpid()] * 2
    assert_no_child_left()
    monkeypatch.delattr(os, missing)
    assert _long_shrink_and_large_suite(monkeypatch) == two
    assert two_cpus == [os.getpid()] * 2


def _long_replay(tmp_path, monkeypatch):
    """The replay of a 1,500-transaction generated trace: its step count."""
    monkeypatch.syspath_prepend(BENCH)
    import scenario_gen

    document = parse_scenario(scenario_gen.build_scenario(3, 1_500))
    path = str(tmp_path / "long.trace.jsonl")
    write_trace(path, document, run_scenario(document).records)
    return lambda: replay_trace(path)


# each runner that forks a peer, as a call of at least its peer's minimum
FORKING_RUNS = {
    "run_drawn": lambda tmp_path, monkeypatch: lambda: run_fuzz(
        FuzzPlan(seed=42, steps=peer.DRAW_MIN_STEPS)).as_data(),
    "run_shared": lambda tmp_path, monkeypatch: lambda: run_suite(
        seed=0, steps=-(-peer.PEER_MIN_STEPS // len(ALL_PROPERTIES))).as_data(),
    "ddmin": lambda tmp_path, monkeypatch: lambda: ddmin(
        list(range(peer.PEER_MIN_ACTIONS)), _FailsAtLastAfterSeven,
        lambda candidate, prefix: prefix.fork().run(candidate)),
    "run_split": _long_replay,
}


def _on_one_cpu(monkeypatch, run):
    """``run()`` on a process that may use one CPU."""
    with monkeypatch.context() as patched:
        patched.setattr(os, "sched_getaffinity", lambda pid: {0})
        return run()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists no open files")
@pytest.mark.parametrize("runner", sorted(FORKING_RUNS))
def test_a_failed_fork_runs_in_one_process_and_closes_its_pipes(
        monkeypatch, two_cpus, tmp_path, runner):
    run = FORKING_RUNS[runner](tmp_path, monkeypatch)
    one = _on_one_cpu(monkeypatch, run)
    attempts = []

    def failing():
        attempts.append(os.getpid())
        raise OSError(errno.EAGAIN, "no process can be started")

    monkeypatch.setattr(os, "fork", failing)
    open_files = len(os.listdir("/proc/self/fd"))
    assert run() == one
    assert len(os.listdir("/proc/self/fd")) == open_files
    assert attempts == [os.getpid()]


@pytest.mark.parametrize("runner", sorted(FORKING_RUNS))
def test_a_peer_that_exits_after_any_frame_gives_the_one_process_result(
        monkeypatch, two_cpus, tmp_path, runner):
    # the peer of the k-th call exits without raising once it has sent k
    # frames, for k = 0, 1, ... until a peer sends all of its frames: the
    # end of its pipe is all the calling process sees
    run = FORKING_RUNS[runner](tmp_path, monkeypatch)
    one = _on_one_cpu(monkeypatch, run)
    calling = os.getpid()
    exited = tmp_path / "exited"
    send = peer.Channel.send
    sent = []  # the frames the peer has sent, in its own copy
    frames = 0

    def exiting(channel, obj):
        if os.getpid() != calling:
            if len(sent) == frames:
                exited.write_text(f"{frames}\n")
                os._exit(0)
            sent.append(obj)
        send(channel, obj)

    monkeypatch.setattr(peer.Channel, "send", exiting)
    while True:
        assert run() == one, frames
        assert_no_child_left()
        if not exited.exists():
            break
        assert int(exited.read_text()) == frames
        exited.unlink()
        frames += 1
    assert frames >= 1 and two_cpus == [calling] * (frames + 1)


# --------------------------------------------------------------------- #
# A run keeps its last SHRINK_WINDOW actions and rebuilds the rest
# --------------------------------------------------------------------- #

def test_a_run_keeps_only_its_last_window_of_actions(monkeypatch):
    kept = []
    original = fuzz.run_checked

    def recording(world, generate, steps, keep):
        tail, executed, detail, reverts = original(world, generate, steps, keep)
        kept.append((tail.maxlen, len(tail), executed))
        return tail, executed, detail, reverts

    monkeypatch.setattr(fuzz, "run_checked", recording)
    assert run_fuzz(FuzzPlan(seed=42, steps=10_000)).ok
    assert kept == [(fuzz.SHRINK_WINDOW, fuzz.SHRINK_WINDOW, 10_000)]


# seed 42 catches drop-burn-before-pay at step 1,604, on the 1,605th action:
# its last 200 actions alone do not violate the invariant, its last 1,600 do
BURN_PLAN = FuzzPlan(seed=42, steps=2_000, mutant="drop-burn-before-pay")


@pytest.mark.parametrize("window, rebuilt", [(200, True), (1_600, False)])
def test_a_run_longer_than_the_window_reports_as_if_fully_recorded(
        monkeypatch, window, rebuilt):
    plan = BURN_PLAN
    world, generate = fuzz._fresh_run(plan)
    recorded, executed, detail, reverts = run_checked(world, generate,
                                                      plan.steps, None)
    actions = list(recorded)
    assert executed == len(actions) == 1_605
    invariant = detail.split(":", 1)[0]
    suffix = actions[-window:]
    assert replay_violates(plan, suffix, invariant) is not rebuilt
    reference = ddmin(actions if rebuilt else suffix,
                      lambda: fuzz.fuzz_replay(plan, invariant),
                      lambda candidate, start: replay_violates(
                          plan, candidate, invariant, start))
    digest = world.state.full_digest()
    expected = FuzzReport(plan, executed, executed - reverts, reverts, digest, [
        Violation(invariant, executed - 1, detail, digest, reference)])

    monkeypatch.setattr(fuzz, "SHRINK_WINDOW", window)
    reruns = counting_reruns(monkeypatch, fuzz)
    report = run_fuzz(plan)
    assert reruns == ([executed] if rebuilt else [])
    assert report.as_data() == expected.as_data()


def test_a_rebuild_that_draws_differently_is_reported(monkeypatch):
    generators = []
    init = ActionGenerator.__init__

    def drifting(self, *args):
        init(self, *args)
        generators.append(self)
        if len(generators) > 1:  # a draw the first run did not take
            self.rng.random()

    monkeypatch.setattr(ActionGenerator, "__init__", drifting)
    monkeypatch.setattr(fuzz, "SHRINK_WINDOW", 200)
    # the drifted re-run draws a different first action, and stops where
    # the run did with the same last actions, but in another world
    with pytest.raises(NondeterministicRun, match="the run after 1605 with 'sale_acc"):
        run_fuzz(BURN_PLAN)
    assert len(generators) == 2


# --------------------------------------------------------------------- #
# A run folds its committed events into the event hash as it goes
# --------------------------------------------------------------------- #

def _unfolded_run(monkeypatch, plan):
    """``plan`` run on a world that never folds its events, since
    ``ledger.FOLD_EVENTS`` lies above them: how many actions ran, the
    problem, and the full digest at the end."""
    folds_at = ledger.FOLD_EVENTS
    with monkeypatch.context() as patched:
        patched.setattr(ledger, "FOLD_EVENTS", sys.maxsize)
        world, generate = fuzz._fresh_run(plan)
        _, executed, detail, _ = run_checked(world, generate, plan.steps, 0)
    # so many that the run it is compared with folded
    assert world.state.event_count() == len(world.state.events) > folds_at
    return executed, detail, world.state.full_digest()


FOLDED_PLANS = [FuzzPlan(seed=seed, steps=9_000) for seed in (0, 7, 42)] + [
    FuzzPlan(seed=42, steps=9_000, check_revert_atomicity=True),
    FuzzPlan(seed=42, steps=9_000, mutant="drop-burn-before-pay")]


@pytest.mark.parametrize("plan", FOLDED_PLANS, ids=lambda plan: "-".join(
    map(str, (plan.seed, plan.check_revert_atomicity, plan.mutant))))
def test_a_folded_run_ends_in_the_digest_of_an_unfolded_one(monkeypatch, plan):
    report = run_fuzz(plan)
    detail = report.violations[0].detail if report.violations else None
    assert _unfolded_run(monkeypatch, plan) == (
        report.steps_executed, detail, report.final_digest)


def test_a_folded_world_digests_as_the_full_recompute(monkeypatch):
    plan = FuzzPlan(seed=3, steps=2_500)
    world, generate = fuzz._fresh_run(plan)
    state = world.state
    assert state.digest() == state.full_digest()
    folds = 0
    for step in range(plan.steps):
        held = len(state.events)
        world.check(generate(step), step, False)
        folded = len(state.events) < held
        folds += folded
        # every hundredth step, the steps that bring the log near a fold,
        # and the step that folds
        if step % 100 == 0 or folded or len(state.events) >= ledger.FOLD_EVENTS - 10:
            assert state.digest() == state.full_digest(), step
    assert folds >= 2 and len(state.events) < state.event_count()
    assert state.full_digest() == _unfolded_run(monkeypatch, plan)[2]


def test_a_run_holds_at_most_one_cadence_of_events(monkeypatch):
    # every transaction of the checked world folds the log it finds once it
    # holds FOLD_EVENTS events, and every event is hashed once
    seen = held_events(monkeypatch)
    hashed = hashed_events(monkeypatch)
    assert run_fuzz(FuzzPlan(seed=42, steps=10_000)).ok
    assert assert_folds_by_the_rule(seen) >= 5
    committed = sum(events for _, events, _ in seen)
    assert max(held for _, _, held in seen) * 5 < committed == len(hashed)


# --------------------------------------------------------------------- #
# A run of DRAW_MIN_STEPS steps or more draws its actions in a forked peer
# --------------------------------------------------------------------- #

# each plan with the forks of its run on two CPUs: the drawing peer, and a
# peer for a shrink of at least PEER_MIN_ACTIONS actions
DRAWN_PLANS = [(FuzzPlan(seed=seed, steps=3_000), 1) for seed in (0, 7, 42)] + [
    (FuzzPlan(seed=42, steps=3_000, check_revert_atomicity=True), 1),
    (FuzzPlan(seed=42, steps=peer.DRAW_MIN_STEPS - 1), 0)] + [
    (FuzzPlan(seed=seed, steps=3_000, mutant=mutant), 2)
    for mutant, seed in CAUGHT_IN_3000]


@pytest.mark.parametrize("plan, fork_count", DRAWN_PLANS, ids=lambda case: "-".join(
    map(str, (case.seed, case.steps, case.check_revert_atomicity, case.mutant)))
    if isinstance(case, FuzzPlan) else f"{case}forks")
def test_a_run_drawn_by_a_peer_reports_as_one_process(monkeypatch, two_cpus, plan,
                                                     fork_count):
    # a stream that ends early is run again alone, which would hide a lost
    # action; no run here falls back, and none rebuilds its trace to shrink
    fresh_runs = []
    fresh_run = fuzz._fresh_run
    monkeypatch.setattr(fuzz, "_fresh_run",
                        lambda plan: fresh_runs.append(plan) or fresh_run(plan))
    two = run_fuzz(plan).as_data()
    assert two_cpus == [os.getpid()] * fork_count
    assert_no_child_left()
    assert fresh_runs == []
    assert _on_one_cpu(monkeypatch, lambda: run_fuzz(plan)).as_data() == two
    assert two_cpus == [os.getpid()] * fork_count
    assert two["passed"] is (plan.mutant is None)


HEALTHY_DRAWN = FuzzPlan(seed=42, steps=peer.DRAW_MIN_STEPS)


@pytest.mark.parametrize("fault_type", [ValueError, TypeError])
def test_a_module_fault_escapes_as_in_one_process(monkeypatch, two_cpus, fault_type):
    # the peer raises on the same action and flushes it before it exits,
    # so this process runs that action and raises too
    place_bid = Vault.place_bid
    calls = []

    def faulty(self, state, ctx, token_id):
        calls.append(token_id)
        if len(calls) == 100:
            raise fault_type(f"a planted fault at transaction {state.tx_index}")
        return place_bid(self, state, ctx, token_id)

    monkeypatch.setattr(Vault, "place_bid", faulty)
    with pytest.raises(fault_type, match="planted fault") as two:
        run_fuzz(HEALTHY_DRAWN)
    assert two_cpus == [os.getpid()]
    assert_no_child_left()
    calls.clear()
    with pytest.raises(fault_type, match="planted fault") as one:
        _on_one_cpu(monkeypatch, lambda: run_fuzz(HEALTHY_DRAWN))
    assert str(two.value) == str(one.value)


def test_a_draw_that_raises_escapes_through_the_rerun(monkeypatch, two_cpus):
    # the peer raises at its 700th draw: this process reads the 512 actions
    # flushed before it, finds the end of the stream, and runs the plan
    # again alone, which raises at the same draw
    generate = ActionGenerator.generate
    draws = []

    def failing(self):
        draws.append(os.getpid())
        if len(draws) == 700:
            raise ValueError(f"a draw failed at step {len(draws) - 1}")
        return generate(self)

    monkeypatch.setattr(ActionGenerator, "generate", failing)
    with pytest.raises(ValueError, match="at step 699") as two:
        run_fuzz(HEALTHY_DRAWN)
    assert two_cpus == [os.getpid()]
    assert_no_child_left()
    assert draws == [os.getpid()] * 700  # the rerun's draws, in this process
    draws.clear()
    with pytest.raises(ValueError) as one:
        _on_one_cpu(monkeypatch, lambda: run_fuzz(HEALTHY_DRAWN))
    assert str(two.value) == str(one.value)
