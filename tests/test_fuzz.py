"""Fuzzer behavior: clean healthy runs, determinism, mutant detection,
shrinker soundness (minimized traces reproduce and are 1-minimal, and
equal those of ddmin replaying from genesis), write-set checks that agree
with full scans and run only the checkers a step's writes reach, and draw
indexes that agree with scans of the world."""

from __future__ import annotations

import copy
import gc
import json
from dataclasses import replace

import pytest

from fracvault import fuzz, invariants
from fracvault.ddmin import NondeterministicRun, Replay, ddmin, run_checked
from fracvault.fuzz import (ActionGenerator, FuzzAction, FuzzPlan, FuzzReport,
                            Violation, build_fuzz_world, clock_action,
                            replay_violates, run_action, run_fuzz, transact_action)
from fracvault.governance import SCHEDULED
from fracvault.invariants import WriteSetChecks, first_violation
from fracvault.ledger import ZERO_ADDRESS, Module, canonical_json, normalize
from fracvault.mutations import HEALTHY, MUTANTS
from fracvault.properties import nft_world, replay_property_trace, run_suite
from fracvault.tokens import NftCollection

from helpers import counting_reruns, genesis_ddmin, tx


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
    "suite": (lambda: nft_world(HEALTHY)[0],
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
        vault, market = handle.vault_module(state), handle.market_module(state)
        checks = WriteSetChecks(state, handle)
        for step in range(plan.steps):
            result = run_action(state, generator.generate())
            writes = state.last_writes if result is not None else ()
            assert checks.first_violation(writes) == first_violation(state, handle), \
                (seed, step)
            # every running total against a fresh sum
            balances = [ledger.balances for ledger in state.fungible.values()]
            summed = (state.native, market.shares, vault.pending, vault.sales,
                      vault.auctions, *balances)
            assert [checks.total(d) for d in summed] == [
                sum(state.native.values()), sum(market.shares.values()),
                sum(vault.pending.values()),
                sum(s.proceeds_remaining for s in vault.sales.values()),
                vault.active_bid_total(), *(sum(b.values()) for b in balances)], \
                (seed, step)


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
    exposed = frozenset({"corrupt"})

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


def test_forks_share_the_frozen_plan_mutations_and_hook_calls():
    plan = FuzzPlan(seed=1, steps=10, mutant="drop-quorum-check")
    replay = fuzz.fuzz_replay(plan, "native_conservation")
    fork = replay.fork()
    assert fork.spec is replay.spec is plan
    vault = replay.state.modules[replay.handle.vault]
    assert fork.state.modules[replay.handle.vault].mutations is vault.mutations
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


def test_runs_leave_no_cyclic_garbage():
    # a cycle in a record or lock class would leave every run's world for
    # the next collection, which then runs inside someone else's timing
    gc.collect()
    gc.disable()
    try:
        assert run_fuzz(FuzzPlan(seed=42, steps=3_000)).ok
        hunt = run_fuzz(FuzzPlan(seed=42, steps=2_000, mutant="drop-quorum-check"))
        assert len(hunt.violations[0].trace) < hunt.steps_executed
        assert not run_suite(seed=0, steps=100, mutant="drop-only-vault").passed
        assert gc.collect() == 0
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

def _unfolded_run(plan):
    """``plan`` run on a world that never folds its events: how many
    actions ran, the problem, and the full digest at the end."""
    world = fuzz.fuzz_replay(plan)
    generator = ActionGenerator(plan, world.state, world.handle, world.extras["actors"])
    _, executed, detail, _ = run_checked(world, lambda step: generator.generate(),
                                         plan.steps, 0)
    assert world.state.event_count() == len(world.state.events)
    return executed, detail, world.state.full_digest()


FOLDED_PLANS = [FuzzPlan(seed=seed, steps=9_000) for seed in (0, 7, 42)] + [
    FuzzPlan(seed=42, steps=9_000, check_revert_atomicity=True),
    FuzzPlan(seed=42, steps=9_000, mutant="drop-burn-before-pay")]


@pytest.mark.parametrize("plan", FOLDED_PLANS, ids=lambda plan: "-".join(
    map(str, (plan.seed, plan.check_revert_atomicity, plan.mutant))))
def test_a_folded_run_ends_in_the_digest_of_an_unfolded_one(plan):
    report = run_fuzz(plan)
    detail = report.violations[0].detail if report.violations else None
    assert _unfolded_run(plan) == (report.steps_executed, detail, report.final_digest)


def test_a_folded_world_digests_as_the_full_recompute():
    plan = FuzzPlan(seed=3, steps=2_500)
    world, generate = fuzz._fresh_run(plan)
    state = world.state
    assert state.digest() == state.full_digest()
    for step in range(plan.steps):
        world.check(generate(step), step, False)
        if step % 100 == 0 or step % fuzz.FULL_SCAN_INTERVAL in (998, 999):
            assert state.digest() == state.full_digest(), step
    assert len(state.events) < state.event_count()
    assert state.full_digest() == _unfolded_run(plan)[2]


def test_a_run_holds_at_most_one_cadence_of_events(monkeypatch):
    seen = []  # (events held, events committed) at each step, after its fold
    generate = ActionGenerator.generate

    def recording(self):
        seen.append((len(self.state.events), self.state.event_count()))
        return generate(self)

    monkeypatch.setattr(ActionGenerator, "generate", recording)
    assert run_fuzz(FuzzPlan(seed=42, steps=10_000)).ok
    assert len(seen) == 10_000
    interval = fuzz.FULL_SCAN_INTERVAL
    for step, (held, count) in enumerate(seen):
        # the last event kept at the fold, and the events of the steps since
        assert held == 1 + count - seen[step - step % interval][1], step
    assert max(held for held, _ in seen) * 5 < seen[-1][1]
