"""The property suite: randomized campaigns and fixed probes over fresh
worlds, one per named property.

Campaign shape: a builder creates the world, a generator produces one
transaction per step (inspecting live state, recording pure data), and the
``before`` and ``after`` hooks judge each step; ``before`` sees the world
after the step's clock advance.  Campaigns run on the runner in ``ddmin``,
as the fuzzer does, and keep the last ``fuzz.SHRINK_WINDOW`` actions.  On
failure the action prefix, rebuilt from the seed if it is longer, is
shrunk delete-only until 1-minimal and attached to the result, so every
red campaign ships a replayable reproducer.  An attack property runs one
``attackers`` strategy and judges its report: it counts as one step and
carries no trace.

The first fourteen names in ``PINNED_PROPERTIES`` are the externally pinned
suite: minting/burning authorization, total-supply invariance, the
governance singleton, positive auction durations, the royalty range, the
withdrawal balance check, original-owner recording, vote accounting, quorum
rejection, proposal creation, liquidity maintenance, trade execution and
supply management.  The remainder cover escrow conservation, double
withdrawal, reentrancy, anti-sniping, revert atomicity, the timelock and
the governance authorization chain, plus the six attack scenarios.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Any, Callable

from . import attackers, fuzz
from .ddmin import CheckedReplay, ddmin, rerun, run_checked
from .fuzz import (FuzzAction, actor_world, clock_action, deposit_prefix,
                   fraction_transfers, market_funding, round_robin_mints,
                   run_setup, sold_setup, transact_action)
from .invariants import first_violation
from .ledger import ChainState, HookCall, ReceiveHook, TxResult
from .market import swap_output
from .mutations import HEALTHY, MUTANTS, Mutations
from .system import SystemHandle

ACTORS = ("a0", "a1", "a2", "a3")

BuildFn = Callable[[Mutations], tuple[ChainState, SystemHandle, dict]]
GenFn = Callable[[random.Random, ChainState, SystemHandle, dict, int], FuzzAction]
BeforeFn = Callable[[ChainState, SystemHandle, dict, FuzzAction], Any]
AfterFn = Callable[[ChainState, SystemHandle, dict, FuzzAction,
                    TxResult | None, Any], str | None]


@dataclass
class PropertyResult:
    name: str
    passed: bool
    steps: int
    detail: str = ""
    trace: list[FuzzAction] | None = None

    def as_data(self) -> dict:
        return {"name": self.name, "passed": self.passed, "steps": self.steps,
                "detail": self.detail,
                "trace": None if self.trace is None
                else [a.as_data() for a in self.trace]}


@dataclass
class SuiteReport:
    seed: int
    steps: int
    mutant: str | None
    results: list[PropertyResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> list[PropertyResult]:
        return [r for r in self.results if not r.passed]

    def as_data(self) -> dict:
        return {"format": "fracvault-suite-report-v2", "seed": self.seed,
                "steps": self.steps, "mutant": self.mutant,
                "passed": self.passed,
                "properties": [r.as_data() for r in self.results]}


@dataclass(frozen=True)
class Campaign:
    name: str
    build: BuildFn
    generate: GenFn
    after: AfterFn | None = None
    before: BeforeFn | None = None
    check_revert_atomicity: bool = False

    def __deepcopy__(self, memo: dict) -> "Campaign":
        return self  # never changes, so forks of a replay share it

    def check(self, replay: CheckedReplay, action: FuzzAction, index: int,
              last: bool) -> tuple[TxResult | None, str | None]:
        """The campaign step check: ``before`` sees the world after the
        clock advance, the call runs, and ``after`` judges it."""
        state, handle, extras = replay.state, replay.handle, replay.extras
        token = self.before(state, handle, extras, action) if self.before else None
        result, detail = replay.call(action, self.check_revert_atomicity)
        if detail or self.after is None:
            return result, detail
        return result, self.after(state, handle, extras, action, result, token)

    def replay(self, mutations: Mutations) -> CheckedReplay:
        """A fresh world of the campaign, checked by it."""
        return CheckedReplay(self, self.build(mutations))


def _replay_fails(campaign: Campaign, mutations: Mutations,
                  actions: list[FuzzAction],
                  start: CheckedReplay | None = None) -> bool:
    replay = campaign.replay(mutations) if start is None else start.fork()
    return replay.run(actions)


def _minimize(campaign: Campaign, mutations: Mutations,
              actions: list[FuzzAction]) -> list[FuzzAction]:
    return ddmin(actions, lambda: campaign.replay(mutations),
                 lambda candidate, start: _replay_fails(campaign, mutations,
                                                        candidate, start))


def _fresh_run(campaign: Campaign, seed: int, mutations: Mutations
               ) -> tuple[CheckedReplay, Callable[[int], FuzzAction]]:
    """A world of the campaign at genesis and its generator, drawing from
    ``Random(f"{seed}:{name}")``."""
    world = campaign.replay(mutations)
    rng = random.Random(f"{seed}:{campaign.name}")
    return world, lambda step: campaign.generate(
        rng, world.state, world.handle, world.extras, step)


def run_campaign(campaign: Campaign, seed: int, steps: int,
                 mutations: Mutations = HEALTHY) -> PropertyResult:
    world, generate = _fresh_run(campaign, seed, mutations)
    tail, executed, detail, _ = run_checked(world, generate, steps,
                                            fuzz.SHRINK_WINDOW)
    if not detail:
        return PropertyResult(name=campaign.name, passed=True, steps=steps)
    trace = list(tail)
    if executed > len(trace):  # the run kept only its last actions
        trace = rerun(*_fresh_run(campaign, seed, mutations), steps, tail,
                      executed, detail, world.state.full_digest())
    return PropertyResult(name=campaign.name, passed=False, steps=executed,
                          detail=detail, trace=_minimize(campaign, mutations, trace))


# --------------------------------------------------------------------- #
# World builders
# --------------------------------------------------------------------- #

def token_world(mutations: Mutations) -> tuple[ChainState, SystemHandle, dict]:
    """One deposited NFT: 1000 fractions spread a0 400 / a1 300 / a2 200 / a3 100."""
    state, handle, _ = actor_world(len(ACTORS), mutations)
    run_setup(state, deposit_prefix(handle) + fraction_transfers(
        handle, (("a1", 300), ("a2", 200), ("a3", 100))))
    return state, handle, {"supply": 1000, "actors": list(ACTORS)}


def nft_world(mutations: Mutations) -> tuple[ChainState, SystemHandle, dict]:
    """Eight NFTs spread round-robin, nothing deposited yet."""
    state, handle, actors = actor_world(len(ACTORS), mutations)
    run_setup(state, round_robin_mints(handle, actors))
    return state, handle, {"actors": list(ACTORS)}


def sold_world(mutations: Mutations, *, attacker_hook: str | None = None
               ) -> tuple[ChainState, SystemHandle, dict]:
    """Token 1 sold for 1,000,000; fractions a0 450 / a1 250 / a2 200 / a3 100.

    ``attacker_hook`` wires a1 with a payment hook: "reenter" retries
    withdraw and redeem, "probe" additionally records what it sees.
    """
    state, handle, _ = actor_world(len(ACTORS), mutations)
    run_setup(state, sold_setup(handle, (("a1", 250), ("a2", 200), ("a3", 100))))
    extras: dict = {"actors": list(ACTORS), "attacker": None}
    if attacker_hook is not None:
        record = attacker_hook == "probe"
        calls = []
        if record:
            calls.append(HookCall(module=handle.vault, method="pending_of",
                                  args=(("owner", "a1"),), record_result=True))
        calls.append(HookCall(module=handle.vault, method="withdraw_pending",
                              record_result=record))
        calls.append(HookCall(module=handle.vault, method="redeem_fraction_value",
                              args=(("token_id", 1), ("fraction_amount", 50)),
                              record_result=record))
        hook = ReceiveHook(owner="a1", max_activations=2, calls=tuple(calls))
        state.set_receive_hook("a1", hook)
        extras["attacker"] = "a1"
        extras["hook"] = hook
    return state, handle, extras


def market_world(mutations: Mutations) -> tuple[ChainState, SystemHandle, dict]:
    """2000 fractions with a0, pair tokens everywhere, market approvals set."""
    state, handle, actors = actor_world(len(ACTORS), mutations)
    run_setup(state, [
        transact_action("deployer", handle.collection, "mint", to="a0", token_id=1),
        transact_action("deployer", handle.collection, "mint", to="a0", token_id=2),
        transact_action("a0", handle.vault, "deposit_nfts", token_ids=[1, 2]),
    ] + fraction_transfers(handle, (("a1", 500), ("a2", 400)))
        + market_funding(handle, actors))
    return state, handle, {
        "actors": list(ACTORS),
        "fraction_supply": state.fungible_supply(handle.fractions),
        "pair_supply": state.fungible_supply(handle.pair),
    }


def _probe_world(mutations: Mutations) -> tuple[ChainState, SystemHandle, dict]:
    """The sold world with a1's probing hook, none of its record seen yet."""
    state, handle, extras = sold_world(mutations, attacker_hook="probe")
    extras["seen"] = 0
    return state, handle, extras


# --------------------------------------------------------------------- #
# Generator helpers
# --------------------------------------------------------------------- #

def _actor(rng: random.Random, extras: dict) -> str:
    return rng.choice(extras["actors"])


def _proposal_count(state: ChainState, handle: SystemHandle) -> int:
    return len(handle.governance_module(state).proposals)


# --------------------------------------------------------------------- #
# The fourteen pinned properties
# --------------------------------------------------------------------- #

def _supply_auth_campaign(verb: str, method: str, party: str, cap: int) -> Campaign:
    """Actors and the deployer call the vault-only ``method`` on an actor
    (its ``party`` argument), between transfers: every such call must fail
    with NotVault, and the supply never move."""
    def generate(rng, state, handle, extras, step):
        if rng.random() < 0.25:
            return transact_action(_actor(rng, extras), handle.fractions,
                                   "transfer", to=_actor(rng, extras),
                                   amount=rng.randrange(0, 200))
        sender = rng.choice(extras["actors"] + ["deployer"])
        args = {party: _actor(rng, extras), "amount": rng.randrange(1, cap)}
        return transact_action(sender, handle.fractions, method, **args)

    def after(state, handle, extras, action, result, token):
        if action.method == method:
            if result.ok:
                return f"unauthorized {verb} by {action.sender} was committed"
            if result.error != "NotVault":
                return f"{verb} failed with {result.error}, not NotVault"
        supply = state.fungible_supply(handle.fractions)
        if supply != extras["supply"]:
            return f"supply moved to {supply} without an authorized {verb}"
        return None

    return Campaign(f"{verb}_authorization", token_world, generate, after)


def _total_supply_campaign() -> Campaign:
    def generate(rng, state, handle, extras, step):
        sender = _actor(rng, extras)
        choice = rng.random()
        if choice < 0.5:
            held = state.fungible_balance(handle.fractions, sender)
            return transact_action(sender, handle.fractions, "transfer",
                                   to=_actor(rng, extras),
                                   amount=rng.randrange(0, max(held, 1) + 10))
        if choice < 0.75:
            return transact_action(sender, handle.fractions, "approve",
                                   spender=_actor(rng, extras),
                                   amount=rng.randrange(0, 300))
        return transact_action(sender, handle.fractions, "transfer_from",
                               frm=_actor(rng, extras), to=_actor(rng, extras),
                               amount=rng.randrange(0, 300))

    def after(state, handle, extras, action, result, token):
        supply = state.fungible_supply(handle.fractions)
        if supply != extras["supply"]:
            return f"transfer activity changed the supply to {supply}"
        return first_violation(state, handle, ("fungible_supply",))

    return Campaign("total_supply_constant", token_world, generate, after)


def _singleton_campaign() -> Campaign:
    def generate(rng, state, handle, extras, step):
        sender = rng.choice(extras["actors"] + ["deployer"])
        return transact_action(sender, handle.vault, "set_governance_contract",
                               governance=_actor(rng, extras))

    def after(state, handle, extras, action, result, token):
        if result.ok:
            return f"governance rebound by {action.sender} after deployment"
        if result.error not in {"AlreadySet", "NotDeployer"}:
            return f"unexpected rebinding failure {result.error}"
        vault = handle.vault_module(state)
        if vault.governance_addr != handle.governance:
            return "governance binding drifted"
        return None

    return Campaign("governance_singleton", token_world, generate, after)


def _duration_campaign() -> Campaign:
    def generate(rng, state, handle, extras, step):
        choice = rng.random()
        if choice < 0.45:
            return transact_action(handle.governance, handle.vault,
                                   "set_auction_duration",
                                   seconds=rng.randrange(0, 5000))
        if choice < 0.7:
            return clock_action(rng.choice((60, 600, 3_600)))
        tokens = list(handle.vault_module(state).original_owner)
        token_id = rng.choice(tokens) if tokens else 1
        return transact_action(_actor(rng, extras), handle.vault,
                               "start_auction",
                               asset_address=handle.collection,
                               token_id=token_id,
                               starting_price=rng.randrange(0, 100),
                               duration=rng.choice((0, 0, 60, 3_600)))

    def before(state, handle, extras, action):
        return state.clock

    def after(state, handle, extras, action, result, pre_clock):
        vault = handle.vault_module(state)
        if vault.auction_duration <= 0:
            return f"stored auction duration {vault.auction_duration}"
        if action.method == "set_auction_duration":
            seconds = action.args["seconds"]
            if seconds == 0 and result.ok:
                return "zero duration accepted"
            if seconds > 0 and not result.ok:
                return f"positive duration rejected with {result.error}"
        if action.method == "start_auction" and result is not None and result.ok:
            token_id = action.args["token_id"]
            if vault.auctions[token_id].end_time <= pre_clock:
                return "auction created with a non-positive window"
        return None

    return Campaign("positive_auction_duration", _deposited_world, generate, after,
                    before)


def _deposited_world(mutations: Mutations) -> tuple[ChainState, SystemHandle, dict]:
    state, handle, extras = nft_world(mutations)
    run_setup(state, [transact_action(owner, handle.vault, "deposit_nft",
                                      nft_address=handle.collection,
                                      token_id=token_id)
                      for token_id, owner in ((1, "a0"), (2, "a1"))])
    return state, handle, extras


def _royalty_campaign() -> Campaign:
    def generate(rng, state, handle, extras, step):
        sender = handle.governance if rng.random() < 0.7 else _actor(rng, extras)
        return transact_action(sender, handle.vault, "set_royalty_percent",
                               percent=rng.randrange(0, 150))

    def after(state, handle, extras, action, result, token):
        vault = handle.vault_module(state)
        if not 0 <= vault.royalty_percent <= 100:
            return f"stored royalty {vault.royalty_percent}"
        percent = action.args["percent"]
        if action.sender == handle.governance:
            if percent > 100 and result.ok:
                return f"royalty {percent} accepted"
            if percent <= 100 and not result.ok:
                return f"royalty {percent} rejected with {result.error}"
        elif result.ok:
            return f"royalty set by non-governance {action.sender}"
        return None

    return Campaign("royalty_percent_range", token_world, generate, after)


def _withdrawal_balance_campaign() -> Campaign:
    def generate(rng, state, handle, extras, step):
        sender = _actor(rng, extras)
        choice = rng.random()
        if choice < 0.4:
            held = state.fungible_balance(handle.fractions, sender)
            return transact_action(sender, handle.vault, "redeem_fraction_value",
                                   token_id=1,
                                   fraction_amount=rng.randrange(0, max(held, 1) + 5))
        if choice < 0.55:
            return transact_action(sender, handle.fractions, "transfer",
                                   to=_actor(rng, extras),
                                   amount=rng.randrange(0, 120))
        return transact_action(sender, handle.vault, "withdraw_pending")

    def before(state, handle, extras, action):
        vault = handle.vault_module(state)
        return (vault.pending.get(action.sender, 0),
                state.native.get(action.sender, 0))

    def after(state, handle, extras, action, result, token):
        if action.method != "withdraw_pending":
            return first_violation(state, handle,
                                   ("vault_escrow", "native_conservation"))
        pre_pending, pre_native = token
        if result.ok:
            received = state.native.get(action.sender, 0) - pre_native
            if result.value != pre_pending or received != pre_pending:
                return (f"withdrew {received} against a recorded claim of "
                        f"{pre_pending}")
        else:
            if result.error != "NothingPending":
                return f"withdraw failed with {result.error}"
            if pre_pending != 0:
                return f"claim of {pre_pending} refused as NothingPending"
        return None

    return Campaign("withdrawal_balance_check", sold_world, generate, after, before)


def _original_owner_campaign() -> Campaign:
    def generate(rng, state, handle, extras, step):
        sender = _actor(rng, extras)
        owners = state.nft[handle.collection].owners
        owned = [t for t, o in owners.items() if o == sender]
        choice = rng.random()
        if choice < 0.5 and owned:
            return transact_action(sender, handle.vault, "deposit_nft",
                                   nft_address=handle.collection,
                                   token_id=rng.choice(owned))
        if choice < 0.7:
            vaulted = list(handle.vault_module(state).original_owner)
            token_id = rng.choice(vaulted) if vaulted else 1
            return transact_action(sender, handle.vault, "withdraw_nft",
                                   nft_address=handle.collection,
                                   token_id=token_id)
        if owned:
            return transact_action(sender, handle.collection, "transfer",
                                   token_id=rng.choice(owned),
                                   to=_actor(rng, extras))
        return transact_action(sender, handle.fractions, "transfer",
                               to=_actor(rng, extras), amount=rng.randrange(0, 50))

    def after(state, handle, extras, action, result, token):
        vault = handle.vault_module(state)
        if action.method == "deposit_nft" and result.ok:
            token_id = action.args["token_id"]
            recorded = vault.original_owner.get(token_id)
            if recorded != action.sender:
                return (f"deposit of {token_id} by {action.sender} recorded "
                        f"owner {recorded!r}")
        owners = state.nft[handle.collection].owners
        for token_id in vault.original_owner:
            if owners.get(token_id) != handle.vault:
                return f"tracked token {token_id} is not held by the vault"
        return None

    return Campaign("original_owner_recorded", nft_world, generate, after)


def _voting_campaign() -> Campaign:
    def build(mutations):
        state, handle, extras = token_world(mutations)
        run_setup(state, [transact_action(
            "a0", handle.governance, "create_proposal",
            description="standing proposal", target=handle.vault,
            action={"kind": "set_royalty_percent", "args": {"percent": 7}},
            voting_period=10**9)])
        return state, handle, extras

    def generate(rng, state, handle, extras, step):
        sender = _actor(rng, extras)
        if rng.random() < 0.3:
            return transact_action(sender, handle.fractions, "transfer",
                                   to=_actor(rng, extras),
                                   amount=rng.randrange(0, 150))
        return transact_action(sender, handle.governance, "vote",
                               proposal_id=0, support=rng.random() < 0.6)

    def before(state, handle, extras, action):
        proposal = handle.governance_module(state).proposals[0]
        return (proposal.total_votes_cast,
                state.fungible_balance(handle.fractions, action.sender))

    def after(state, handle, extras, action, result, token):
        if action.method != "vote":
            return None
        pre_total, pre_balance = token
        proposal = handle.governance_module(state).proposals[0]
        if result.ok:
            if proposal.total_votes_cast != pre_total + pre_balance:
                return (f"vote of weight {pre_balance} moved the tally from "
                        f"{pre_total} to {proposal.total_votes_cast}")
            if pre_balance <= 0:
                return "zero-weight vote accepted"
        elif proposal.total_votes_cast != pre_total:
            return "rejected vote changed the tally"
        return None

    return Campaign("voting_increases_votes", build, generate, after, before)


def _quorum_campaign() -> Campaign:
    # only a2 (200) and a3 (100) ever vote: 300 of 1000 can never reach 501
    def generate(rng, state, handle, extras, step):
        phase = step % 4
        created = _proposal_count(state, handle)
        if phase == 0:
            return transact_action("a0", handle.governance, "create_proposal",
                                   description="starves quorum",
                                   target=handle.vault,
                                   action={"kind": "set_royalty_percent",
                                           "args": {"percent": 3}},
                                   voting_period=600)
        if phase == 1:
            return transact_action(rng.choice(("a2", "a3")), handle.governance,
                                   "vote", proposal_id=created - 1,
                                   support=True)
        if phase == 2:
            return clock_action(600)
        return transact_action(_actor(rng, extras), handle.governance,
                               "execute_proposal",
                               proposal_id=rng.randrange(0, max(created, 1)))

    def after(state, handle, extras, action, result, token):
        if action.method == "execute_proposal" and result is not None:
            if result.ok:
                return "under-quorum proposal advanced"
            if result.error not in {"VotingOpen", "QuorumNotMet", "UnknownProposal"}:
                return f"unexpected execution error {result.error}"
        # execution always goes through the timelock, so an empty timelock
        # proves nothing under quorum ever advanced
        if handle.timelock_module(state).entries:
            return "under-quorum proposal reached the timelock"
        return None

    return Campaign("quorum_not_met_rejected", token_world, generate, after)


def _create_proposal_campaign() -> Campaign:
    # a3 holds 5 fractions, below the 10-fraction threshold
    def build(mutations):
        state, handle, _ = actor_world(len(ACTORS), mutations)
        run_setup(state, deposit_prefix(handle) + fraction_transfers(
            handle, (("a1", 300), ("a2", 295), ("a3", 5))))
        return state, handle, {"actors": list(ACTORS), "expected_id": 0}

    def generate(rng, state, handle, extras, step):
        sender = _actor(rng, extras)
        return transact_action(sender, handle.governance, "create_proposal",
                               description=f"proposal by {sender}",
                               target=handle.vault,
                               action={"kind": "set_auction_duration",
                                       "args": {"seconds": 3_600}},
                               voting_period=rng.choice((600, 86_400)))

    def after(state, handle, extras, action, result, token):
        if result.ok:
            if action.sender == "a3":
                return "below-threshold proposer accepted"
            if result.value != extras["expected_id"]:
                return (f"proposal id {result.value}, expected "
                        f"{extras['expected_id']}")
            extras["expected_id"] += 1
        else:
            if action.sender != "a3" or result.error != "BelowThreshold":
                return f"creation by {action.sender} failed with {result.error}"
        if len(handle.governance_module(state).proposals) != extras["expected_id"]:
            return "proposal count diverged from accepted creations"
        return None

    return Campaign("create_proposal_ids", build, generate, after)


def _liquidity_campaign() -> Campaign:
    def generate(rng, state, handle, extras, step):
        sender = _actor(rng, extras)
        market = handle.market_module(state)
        choice = rng.random()
        if market.total_shares == 0 or choice < 0.45:
            amount_a = rng.randrange(1, 5_000)
            if market.total_shares and rng.random() < 0.8:
                amount_b = amount_a * market.reserve_b // market.reserve_a
            else:
                amount_b = rng.randrange(1, 5_000)
            return transact_action(sender, handle.market, "add_liquidity",
                                   amount_a=amount_a, amount_b=amount_b)
        if choice < 0.8:
            held = market.shares.get(sender, 0)
            return transact_action(sender, handle.market, "remove_liquidity",
                                   shares_burned=rng.randrange(0, max(held, 1) + 3))
        return transact_action(sender, handle.pair, "transfer",
                               to=_actor(rng, extras), amount=rng.randrange(0, 500))

    def before(state, handle, extras, action):
        market = handle.market_module(state)
        return (market.reserve_a, market.reserve_b, market.total_shares)

    def after(state, handle, extras, action, result, token):
        detail = first_violation(state, handle, ("market_books",))
        if detail:
            return detail
        if action.method == "remove_liquidity" and result.ok and result.value:
            reserve_a, reserve_b, total = token
            burned = action.args["shares_burned"]
            if total and burned:
                expect = (burned * reserve_a // total, burned * reserve_b // total)
                if tuple(result.value) != expect:
                    return (f"burning {burned} of {total} paid {result.value}, "
                            f"expected {expect}")
        return None

    return Campaign("liquidity_maintenance", market_world, generate, after, before)


def _pool_world(amount_b: int) -> BuildFn:
    """The market world after a0 pools 1,000 fractions and ``amount_b``
    pair tokens."""
    def build(mutations):
        state, handle, extras = market_world(mutations)
        run_setup(state, [transact_action("a0", handle.market, "add_liquidity",
                                          amount_a=1_000, amount_b=amount_b)])
        return state, handle, extras

    return build


def _trade_campaign() -> Campaign:
    def generate(rng, state, handle, extras, step):
        sender = _actor(rng, extras)
        market = handle.market_module(state)
        token_in = rng.choice((market.token_a, market.token_b))
        reserve_in, reserve_out = (
            (market.reserve_a, market.reserve_b) if token_in == market.token_a
            else (market.reserve_b, market.reserve_a))
        held = state.fungible_balance(token_in, sender)
        amount_in = rng.randrange(1, max(min(held, 2_000), 1) + 2)
        quote = swap_output(amount_in, reserve_in, reserve_out,
                            market.fee_multiplier) if reserve_in else 0
        min_out = max(quote + rng.randrange(-2, 4), 0)
        return transact_action(sender, handle.market, "execute_trade",
                               token_in=token_in, amount_in=amount_in,
                               min_amount_out=min_out)

    def before(state, handle, extras, action):
        market = handle.market_module(state)
        args = action.args
        reserve_in, reserve_out = (
            (market.reserve_a, market.reserve_b)
            if args["token_in"] == market.token_a
            else (market.reserve_b, market.reserve_a))
        quote = swap_output(args["amount_in"], reserve_in, reserve_out,
                            market.fee_multiplier) if reserve_in else None
        return (quote, market.reserve_a * market.reserve_b)

    def after(state, handle, extras, action, result, token):
        quote, product = token
        market = handle.market_module(state)
        args = action.args
        if result.ok:
            if quote is None or result.value != quote:
                return f"trade paid {result.value}, formula says {quote}"
            if result.value < args["min_amount_out"]:
                return (f"trade paid {result.value} below the caller minimum "
                        f"{args['min_amount_out']}")
            if market.reserve_a * market.reserve_b < product:
                return "reserve product decreased across a trade"
        else:
            if result.error in {"InsufficientBalance", "InsufficientAllowance"}:
                return None  # trader could not fund the input side
            if quote is not None and quote >= args["min_amount_out"]:
                return f"viable trade rejected with {result.error}"
            if result.error != "SlippageExceeded":
                return f"trade failed with {result.error}"
        return first_violation(state, handle, ("market_books",))

    return Campaign("trade_execution", _pool_world(400_000), generate, after, before)


def _supply_management_campaign() -> Campaign:
    def generate(rng, state, handle, extras, step):
        sender = _actor(rng, extras)
        market = handle.market_module(state)
        choice = rng.random()
        if choice < 0.35:
            amount_a = rng.randrange(1, 1_000)
            amount_b = (amount_a * market.reserve_b // market.reserve_a
                        if market.reserve_a else amount_a)
            return transact_action(sender, handle.market, "add_liquidity",
                                   amount_a=amount_a, amount_b=max(amount_b, 1))
        if choice < 0.6:
            held = market.shares.get(sender, 0)
            return transact_action(sender, handle.market, "remove_liquidity",
                                   shares_burned=rng.randrange(0, max(held, 1) + 1))
        token_in = rng.choice((market.token_a, market.token_b))
        return transact_action(sender, handle.market, "execute_trade",
                               token_in=token_in,
                               amount_in=rng.randrange(1, 3_000),
                               min_amount_out=0)

    def after(state, handle, extras, action, result, token):
        detail = first_violation(state, handle, ("market_books",))
        if detail:
            return detail
        if state.fungible_supply(handle.fractions) != extras["fraction_supply"]:
            return "market activity changed the fraction supply"
        if state.fungible_supply(handle.pair) != extras["pair_supply"]:
            return "market activity changed the pair supply"
        return None

    return Campaign("supply_management", _pool_world(300_000), generate, after)


# --------------------------------------------------------------------- #
# System invariant properties
# --------------------------------------------------------------------- #

def _escrow_campaign() -> Campaign:
    def generate(rng, state, handle, extras, step):
        sender = _actor(rng, extras)
        vault = handle.vault_module(state)
        choice = rng.random()
        owners = state.nft[handle.collection].owners
        owned = [t for t, o in owners.items() if o == sender]
        live = [t for t, a in vault.auctions.items() if a.active]
        if choice < 0.12 and owned:
            return transact_action(sender, handle.vault, "deposit_nft",
                                   nft_address=handle.collection,
                                   token_id=rng.choice(owned))
        if choice < 0.25:
            vaulted = list(vault.original_owner)
            token_id = rng.choice(vaulted) if vaulted else 1
            return transact_action(sender, handle.vault, "start_auction",
                                   asset_address=handle.collection,
                                   token_id=token_id,
                                   starting_price=rng.randrange(0, 50),
                                   duration=rng.choice((0, 600, 3_600)))
        if choice < 0.45:
            token_id = rng.choice(live) if live else 1
            return transact_action(sender, handle.vault, "place_bid",
                                   value=rng.randrange(0, 5_000),
                                   token_id=token_id)
        if choice < 0.55:
            return clock_action(rng.choice((600, 3_600, 86_400, 604_800)))
        if choice < 0.65:
            token_id = rng.choice(live) if live else 1
            return transact_action(sender, handle.vault, "end_auction",
                                   token_id=token_id)
        if choice < 0.8:
            sold = [t for t, s in vault.sales.items() if s.proceeds_remaining > 0]
            token_id = rng.choice(sold) if sold else 1
            held = state.fungible_balance(handle.fractions, sender)
            return transact_action(sender, handle.vault, "redeem_fraction_value",
                                   token_id=token_id,
                                   fraction_amount=rng.randrange(0, max(held, 1) + 2))
        return transact_action(sender, handle.vault, "withdraw_pending")

    def after(state, handle, extras, action, result, token):
        return first_violation(state, handle, ("vault_escrow", "native_conservation",
                                               "sale_accounting"))

    return Campaign("escrow_conservation", nft_world, generate, after)


def _double_withdrawal_campaign() -> Campaign:
    def build(mutations):
        return sold_world(mutations, attacker_hook="reenter")

    def generate(rng, state, handle, extras, step):
        sender = "a1" if rng.random() < 0.5 else _actor(rng, extras)
        choice = rng.random()
        if choice < 0.55:
            held = state.fungible_balance(handle.fractions, sender)
            return transact_action(sender, handle.vault, "redeem_fraction_value",
                                   token_id=1,
                                   fraction_amount=rng.randrange(0, max(held, 1) + 2))
        if choice < 0.85:
            return transact_action(sender, handle.vault, "withdraw_pending")
        return transact_action(sender, handle.fractions, "transfer",
                               to=_actor(rng, extras), amount=rng.randrange(0, 100))

    def after(state, handle, extras, action, result, token):
        return first_violation(state, handle, ("sale_accounting", "fungible_supply",
                                               "vault_escrow", "native_conservation"))

    return Campaign("redemption_double_withdrawal", build, generate, after)


def _probe_campaign(name: str, fraction_amount: int,
                    judge: Callable[[dict], str | None]) -> Campaign:
    """a1 alternately redeems ``fraction_amount`` fractions and withdraws;
    ``judge`` reads what a1's probing hook saw during each paid withdrawal,
    by method."""
    def generate(rng, state, handle, extras, step):
        if step % 2 == 0:
            return transact_action("a1", handle.vault, "redeem_fraction_value",
                                   token_id=1, fraction_amount=fraction_amount)
        return transact_action("a1", handle.vault, "withdraw_pending")

    def after(state, handle, extras, action, result, token):
        if action.method != "withdraw_pending" or not result.ok:
            return None
        observed = extras["hook"].observed
        new = observed[extras["seen"]:]
        extras["seen"] = len(observed)
        return judge(dict(new))

    return Campaign(name, _probe_world, generate, after)


def _reentrancy_probe_campaign() -> Campaign:
    def judge(outcomes):
        if outcomes.get("withdraw_pending") != "error:Reentered":
            return (f"nested withdraw saw {outcomes.get('withdraw_pending')!r}, "
                    "not the reentrancy guard")
        if outcomes.get("redeem_fraction_value") != "error:Reentered":
            return (f"nested redeem saw {outcomes.get('redeem_fraction_value')!r},"
                    " not the reentrancy guard")
        return None

    return _probe_campaign("reentrancy_guard_probe", 10, judge)


def _cei_observable_campaign() -> Campaign:
    def judge(outcomes):
        if outcomes.get("pending_of") != 0:
            return (f"pending read {outcomes.get('pending_of')!r} inside the "
                    "payout hook; effects must precede interactions")
        return None

    return _probe_campaign("checks_effects_observable", 5, judge)


def _anti_sniping_campaign() -> Campaign:
    def generate(rng, state, handle, extras, step):
        phase = step % 5
        if phase == 0:
            duration = rng.randrange(2_000, 20_000)
            extras["duration"] = duration
            extras["bid"] = extras.get("bid", 0)
            return transact_action("a0", handle.vault, "start_auction",
                                   asset_address=handle.collection, token_id=1,
                                   starting_price=1, duration=duration)
        if phase == 1:
            offset = rng.randrange(1, 1_799)
            return clock_action(max(extras["duration"] - offset, 0))
        if phase == 2:
            extras["bid"] += rng.randrange(1, 50)
            return transact_action(rng.choice(("a1", "a2", "a3")), handle.vault,
                                   "place_bid", value=extras["bid"], token_id=1)
        if phase == 3:
            return transact_action(handle.governance, handle.vault,
                                   "cancel_auction", token_id=1)
        return clock_action(1)

    def before(state, handle, extras, action):
        auction = handle.vault_module(state).auctions.get(1)
        if auction is None:
            return None
        return (auction.end_time, state.clock)

    def after(state, handle, extras, action, result, token):
        if action.method != "place_bid" or result is None or not result.ok:
            return None
        end_before, clock = token
        end_after = handle.vault_module(state).auctions[1].end_time
        remaining = end_before - clock
        if remaining < 900:
            if end_after != end_before + 900:
                return (f"bid with {remaining}s left moved the deadline by "
                        f"{end_after - end_before}, not 900")
        elif end_after != end_before:
            return f"bid with {remaining}s left moved the deadline"
        return None

    def build(mutations):
        state, handle, extras = nft_world(mutations)
        run_setup(state, [transact_action("a0", handle.vault, "deposit_nft",
                                          nft_address=handle.collection,
                                          token_id=1)])
        return state, handle, extras

    return Campaign("anti_sniping_extension", build, generate, after, before)


def _revert_atomicity_campaign() -> Campaign:
    return Campaign("revert_atomicity", nft_world, _escrow_campaign().generate,
                    check_revert_atomicity=True)


def _timelock_campaign() -> Campaign:
    def generate(rng, state, handle, extras, step):
        phase = step % 7
        pid = max(_proposal_count(state, handle) - 1, 0)
        if phase == 0:
            return transact_action("a0", handle.governance, "create_proposal",
                                   description="timed change",
                                   target=handle.vault,
                                   action={"kind": "set_auction_duration",
                                           "args": {"seconds": 7_200}},
                                   voting_period=600)
        if phase == 1:
            return transact_action("a0", handle.governance, "vote",
                                   proposal_id=pid, support=True)
        if phase == 2:
            return transact_action("a1", handle.governance, "vote",
                                   proposal_id=pid, support=True)
        if phase == 3:
            return clock_action(600)
        if phase == 4:
            return transact_action(_actor(rng, extras), handle.governance,
                                   "execute_proposal", proposal_id=pid)
        if phase == 5:
            # sometimes before, sometimes exactly at, sometimes past readiness
            return clock_action(rng.choice((1_000, 172_800, 200_000)))
        return transact_action(_actor(rng, extras), handle.governance,
                               "execute_proposal", proposal_id=pid)

    def after(state, handle, extras, action, result, token):
        if action.method != "execute_proposal" or result is None:
            return None
        if not result.ok:
            if result.error not in {"VotingOpen", "QuorumNotMet", "Defeated",
                                    "TimelockPending", "AlreadyExecuted",
                                    "UnknownProposal", "Cancelled"}:
                return f"unexpected execution error {result.error}"
            return None
        if result.value == "Executed":
            pid = action.args["proposal_id"]
            timelock = handle.timelock_module(state)
            entry = timelock.entries[pid]
            if entry.executed_at is None or \
                    entry.executed_at - entry.scheduled_at < timelock.delay:
                return (f"proposal {pid} ran {entry.executed_at} after "
                        f"scheduling at {entry.scheduled_at}, below "
                        f"{timelock.delay}")
            proposal = handle.governance_module(state).proposals[pid]
            if proposal.total_votes_cast <= proposal.supply_at_creation // 2:
                return f"proposal {pid} executed under quorum"
            if proposal.votes_for <= proposal.votes_against:
                return f"proposal {pid} executed while defeated"
        return None

    return Campaign("timelock_delay_enforced", token_world, generate, after)


def _authorization_chain_campaign() -> Campaign:
    GOVERNED = {"set_auction_duration", "set_royalty_percent", "cancel_auction"}

    def generate(rng, state, handle, extras, step):
        phase = step % 8
        pid = max(_proposal_count(state, handle) - 1, 0)
        if phase == 0:
            kind = rng.choice(("set_auction_duration", "set_royalty_percent"))
            args = {"seconds": rng.randrange(600, 90_000)} \
                if kind == "set_auction_duration" \
                else {"percent": rng.randrange(0, 101)}
            return transact_action("a0", handle.governance, "create_proposal",
                                   description="governed change",
                                   target=handle.vault,
                                   action={"kind": kind, "args": args},
                                   voting_period=600)
        if phase in (1, 2):
            return transact_action(("a0", "a1")[phase - 1], handle.governance,
                                   "vote", proposal_id=pid, support=True)
        if phase == 3:
            return clock_action(600)
        if phase == 4:
            return transact_action("a2", handle.governance, "execute_proposal",
                                   proposal_id=pid)
        if phase == 5:
            return clock_action(172_800)
        if phase == 6:
            return transact_action("a2", handle.governance, "execute_proposal",
                                   proposal_id=pid)
        # direct parameter writes by plain actors must bounce
        method = rng.choice(tuple(GOVERNED))
        args = {"seconds": 60} if method == "set_auction_duration" else \
            {"percent": 10} if method == "set_royalty_percent" else {"token_id": 1}
        return transact_action(_actor(rng, extras), handle.vault, method, **args)

    PARAM_EVENTS = {"AuctionDurationUpdated", "RoyaltyPercentUpdated",
                    "AuctionCancelled"}

    def after(state, handle, extras, action, result, token):
        if action.module == handle.vault and action.method in GOVERNED:
            if result.ok:
                return f"direct {action.method} by {action.sender} committed"
            if result.error not in {"NotGovernance", "NoAuction"}:
                return f"direct write failed with {result.error}"
        # event join per step: every governed parameter change must share
        # its transaction with a ProposalExecuted event
        events = result.events if result is not None else ()
        executed = any(e.name == "ProposalExecuted" for e in events)
        for event in events:
            if event.name in PARAM_EVENTS and not executed:
                return (f"{event.name} in transaction {event.tx_index} has no "
                        "matching executed proposal")
        return None

    return Campaign("authorization_chain", token_world, generate, after)


# --------------------------------------------------------------------- #
# Registry and suite runner
# --------------------------------------------------------------------- #

PINNED_PROPERTIES = (
    "mint_authorization",
    "burn_authorization",
    "total_supply_constant",
    "governance_singleton",
    "positive_auction_duration",
    "royalty_percent_range",
    "withdrawal_balance_check",
    "original_owner_recorded",
    "voting_increases_votes",
    "quorum_not_met_rejected",
    "create_proposal_ids",
    "liquidity_maintenance",
    "trade_execution",
    "supply_management",
)

_CAMPAIGNS: dict[str, Callable[[], Campaign]] = {
    "mint_authorization": lambda: _supply_auth_campaign("mint", "mint", "to", 1000),
    "burn_authorization": lambda: _supply_auth_campaign("burn", "burn_from", "frm", 500),
    "total_supply_constant": _total_supply_campaign,
    "governance_singleton": _singleton_campaign,
    "positive_auction_duration": _duration_campaign,
    "royalty_percent_range": _royalty_campaign,
    "withdrawal_balance_check": _withdrawal_balance_campaign,
    "original_owner_recorded": _original_owner_campaign,
    "voting_increases_votes": _voting_campaign,
    "quorum_not_met_rejected": _quorum_campaign,
    "create_proposal_ids": _create_proposal_campaign,
    "liquidity_maintenance": _liquidity_campaign,
    "trade_execution": _trade_campaign,
    "supply_management": _supply_management_campaign,
    "escrow_conservation": _escrow_campaign,
    "redemption_double_withdrawal": _double_withdrawal_campaign,
    "reentrancy_guard_probe": _reentrancy_probe_campaign,
    "checks_effects_observable": _cei_observable_campaign,
    "anti_sniping_extension": _anti_sniping_campaign,
    "revert_atomicity": _revert_atomicity_campaign,
    "timelock_delay_enforced": _timelock_campaign,
    "authorization_chain": _authorization_chain_campaign,
}

# attack_reenter_withdraw for ReenterWithdraw, and so on
_ATTACK_PROPERTIES = {"attack" + re.sub("([A-Z])", r"_\1", strategy).lower(): strategy
                      for strategy in attackers.ATTACKS}

ALL_PROPERTIES = tuple(_CAMPAIGNS) + tuple(_ATTACK_PROPERTIES)


def run_property(name: str, seed: int = 0, steps: int = 2_000,
                 mutations: Mutations = HEALTHY) -> PropertyResult:
    if name in _CAMPAIGNS:
        return run_campaign(_CAMPAIGNS[name](), seed, steps, mutations)
    if name in _ATTACK_PROPERTIES:
        report = attackers.run_attack(_ATTACK_PROPERTIES[name], mutations)
        detail = attackers.ATTACKS[report.strategy].judge(report.details) or ""
        if not report.neutralized:
            detail = (f"attacker netted {report.net_native_gain} native and "
                      f"{report.net_fraction_gain} fractions")
        return PropertyResult(name=name, passed=not detail, steps=1, detail=detail)
    raise KeyError(f"unknown property {name!r}")


def run_suite(seed: int = 0, steps: int = 2_000, mutant: str | None = None,
              names: tuple[str, ...] = ALL_PROPERTIES) -> SuiteReport:
    mutations = MUTANTS[mutant] if mutant else HEALTHY
    report = SuiteReport(seed=seed, steps=steps, mutant=mutant)
    for name in names:
        report.results.append(run_property(name, seed, steps, mutations))
    return report


def replay_property_trace(name: str, trace: list[FuzzAction],
                          mutations: Mutations = HEALTHY) -> bool:
    """Re-run a recorded campaign trace from genesis; True if it still fails."""
    if name not in _CAMPAIGNS:
        raise KeyError(f"{name!r} is not a campaign property")
    return _replay_fails(_CAMPAIGNS[name](), mutations, trace)
