"""Stateful randomized fuzzing of the assembled system.

A ``FuzzPlan`` fully determines a run: the same seed, step count, actor
count, weights and mutant produce byte-identical reports.  The generator
inspects the evolving world to build semi-valid transactions (reverts are
expected and count as coverage of the guard paths).  Every action is a
``system.FuzzAction``, the record scenario files and traces hold too, so
any prefix can be replayed from genesis.  Reports (``-v2``) encode a shrunk
trace's steps with ``FuzzAction.as_data``; ``from_data`` reads them back.

A run is a campaign on the runner in ``ddmin``: its generator is
``ActionGenerator`` and its step check ``FuzzPlan.check``, the write-set
invariant checks plus, with ``check_revert_atomicity``, the shared
revert-atomicity oracle.  A run keeps only its last ``SHRINK_WINDOW``
actions.  On a violation ``shrink`` cuts the failing prefix by
``ddmin.ddmin`` to a 1-minimal trace that violates the same invariant,
starting from those last actions if they alone still violate it, and else
from the whole prefix, which ``ddmin.rerun`` rebuilds from the seed.
"""

from __future__ import annotations

import random
from bisect import bisect, bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, Callable, Sequence

from .ddmin import CheckedReplay, ddmin, rerun, run_checked
from .invariants import ALL_INVARIANTS, WriteSetChecks
from .ledger import ABSENT, ChainState, HookCall, ReceiveHook, TxResult, ZERO_ADDRESS
from .mutations import HEALTHY, MUTANTS, Mutations
from .system import FuzzAction, SystemHandle, must, run_action, standard_world

ACTOR_FUND = 10**9
PAIR_FUND = 10**9
BIG_APPROVAL = 10**27

DEFAULT_WEIGHTS: dict[str, int] = {
    "advance_clock": 10,
    "native_transfer": 4,
    "fraction_transfer": 8,
    "fraction_approve": 3,
    "pair_transfer": 4,
    "collection_mint": 2,
    "deposit": 8,
    "deposit_batch": 2,
    "withdraw_nft": 4,
    "start_auction": 6,
    "place_bid": 10,
    "end_auction": 6,
    "cancel_auction_attempt": 2,
    "redeem": 7,
    "withdraw_pending": 6,
    "set_duration_attempt": 2,
    "set_royalty_attempt": 2,
    "add_liquidity": 5,
    "remove_liquidity": 4,
    "trade": 8,
    "create_proposal": 3,
    "vote": 5,
    "execute_proposal": 4,
    "cancel_scheduled": 1,
}

CLOCK_STEPS = (1, 30, 600, 900, 3_600, 86_400, 604_800)

# steps between full scans, which catch writes that bypass the journal;
# spread this thin, their cost per step stays small as history grows
FULL_SCAN_INTERVAL = 1_000

# a run keeps its last SHRINK_WINDOW actions, and ``shrink`` starts from
# them alone when they still fail; a longer trace is rebuilt from the seed
SHRINK_WINDOW = 4_000


def transact_action(sender: str, module: str, method: str,
                    value: int = 0, **args: Any) -> FuzzAction:
    return FuzzAction(sender, module, method, args, value)


def clock_action(delta: int) -> FuzzAction:
    return FuzzAction("", "", "", {}, 0, delta)


@dataclass(frozen=True)
class FuzzPlan:
    seed: int
    steps: int
    actor_count: int = 6
    weights: tuple[tuple[str, int], ...] = tuple(DEFAULT_WEIGHTS.items())
    invariants: tuple[str, ...] = ALL_INVARIANTS
    check_revert_atomicity: bool = False
    mutant: str | None = None

    def __deepcopy__(self, memo: dict) -> "FuzzPlan":
        return self  # never changes, so forks of a replay share it

    def mutations(self) -> Mutations:
        return MUTANTS[self.mutant] if self.mutant else HEALTHY

    def check(self, replay: CheckedReplay, action: FuzzAction, index: int,
              last: bool) -> tuple[TxResult | None, str | None]:
        # one module-level call per step, which the benchmark's tracer wraps
        return _step_violation(replay, self, action, index, last)

    def as_data(self) -> dict:
        return {"seed": self.seed, "steps": self.steps,
                "actor_count": self.actor_count,
                "weights": {k: v for k, v in self.weights},
                "invariants": list(self.invariants),
                "check_revert_atomicity": self.check_revert_atomicity,
                "mutant": self.mutant}


@dataclass
class Violation:
    invariant: str
    step: int
    detail: str
    digest: str
    trace: list[FuzzAction]

    def as_data(self) -> dict:
        return {"invariant": self.invariant, "step": self.step,
                "detail": self.detail, "digest": self.digest,
                "trace": [a.as_data() for a in self.trace]}


@dataclass
class FuzzReport:
    plan: FuzzPlan
    steps_executed: int
    commits: int
    reverts: int
    final_digest: str
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_data(self) -> dict:
        return {"format": "fracvault-fuzz-report-v2", "plan": self.plan.as_data(),
                "steps_executed": self.steps_executed, "commits": self.commits,
                "reverts": self.reverts, "final_digest": self.final_digest,
                "passed": self.ok,
                "violations": [v.as_data() for v in self.violations]}


# --------------------------------------------------------------------- #
# World
# --------------------------------------------------------------------- #

def actor_world(actor_count: int, mutations: Mutations
                ) -> tuple[ChainState, SystemHandle, list[str]]:
    """The standard stack with actors a0, a1, ... funded ACTOR_FUND each."""
    actors = [f"a{i}" for i in range(actor_count)]
    state, handle = standard_world({a: ACTOR_FUND for a in actors},
                                   mutations=mutations)
    return state, handle, actors


def run_setup(state: ChainState, actions: list[FuzzAction]) -> None:
    """Run world-setup actions in order; RuntimeError on the first revert."""
    for action in actions:
        result = run_action(state, action)
        if result is not None:
            must(result)


def round_robin_mints(handle: SystemHandle, actors: list[str]) -> list[FuzzAction]:
    """NFTs 1 to 2n minted to the n actors in turn."""
    return [transact_action("deployer", handle.collection, "mint",
                            to=actors[i % len(actors)], token_id=i + 1)
            for i in range(2 * len(actors))]


def market_funding(handle: SystemHandle, actors: list[str]) -> list[FuzzAction]:
    """PAIR_FUND pair tokens for every actor, and market approvals of both
    tokens."""
    actions = []
    for actor in actors:
        actions.append(transact_action("deployer", handle.pair, "mint",
                                       to=actor, amount=PAIR_FUND))
        actions += [transact_action(actor, token, "approve",
                                    spender=handle.market, amount=BIG_APPROVAL)
                    for token in (handle.fractions, handle.pair)]
    return actions


def deposit_prefix(handle: SystemHandle) -> list[FuzzAction]:
    """NFT 1 minted to a0 and deposited, so a0 holds all 1000 fractions."""
    return [transact_action("deployer", handle.collection, "mint",
                            to="a0", token_id=1),
            transact_action("a0", handle.vault, "deposit_nft",
                            nft_address=handle.collection, token_id=1)]


def fraction_transfers(handle: SystemHandle,
                       spread: tuple[tuple[str, int], ...]) -> list[FuzzAction]:
    """a0 sends each (recipient, amount) of ``spread`` its fractions."""
    return [transact_action("a0", handle.fractions, "transfer", to=to,
                            amount=amount) for to, amount in spread]


def auction_start(handle: SystemHandle, bidder: str, bid: int) -> list[FuzzAction]:
    """a0 auctions NFT 1 for 10,000 s from a starting price of 1, and
    ``bidder`` bids ``bid``."""
    return [transact_action("a0", handle.vault, "start_auction",
                            asset_address=handle.collection, token_id=1,
                            starting_price=1, duration=10_000),
            transact_action(bidder, handle.vault, "place_bid", value=bid,
                            token_id=1)]


def sold_setup(handle: SystemHandle, spread: tuple[tuple[str, int], ...]
               ) -> list[FuzzAction]:
    """For actors a0 to a3: a0 deposits NFT 1, sends ``spread`` its
    fractions, and auctions the NFT, which a3 buys for 1,000,000 and a2
    settles."""
    return (deposit_prefix(handle) + fraction_transfers(handle, spread)
            + auction_start(handle, "a3", 1_000_000)
            + [clock_action(10_000),
               transact_action("a2", handle.vault, "end_auction", token_id=1)])


def build_fuzz_world(plan: FuzzPlan) -> tuple[ChainState, SystemHandle, list[str]]:
    """Funded actors, pre-minted NFTs and pair tokens, market approvals, and
    one actor wired with a reentry hook so guards stay under pressure."""
    state, handle, actors = actor_world(plan.actor_count, plan.mutations())
    run_setup(state, round_robin_mints(handle, actors)
              + market_funding(handle, actors))
    intruder = actors[-1]
    state.set_receive_hook(intruder, ReceiveHook(
        owner=intruder, max_activations=2, calls=(
            HookCall(module=handle.vault, method="withdraw_pending"),
            HookCall(module=handle.vault, method="redeem_fraction_value",
                     args=(("token_id", 1), ("fraction_amount", 50))),
        )))
    return state, handle, actors


# --------------------------------------------------------------------- #
# Action generation
# --------------------------------------------------------------------- #

class _Index:
    """The keys of one dict, grouped by ``group(value)`` (a group of None
    holds nothing), each group a list in the dict's order.

    ``apply`` takes a transaction's journal entries for the dict: an entry
    whose old value is ``ABSENT`` inserted its key, which puts the key at
    the end of the dict's order, and a key no longer present is dropped.
    """

    def __init__(self, mapping: dict, group: Callable[[Any], Any]):
        self.mapping = mapping
        self.group = group
        self.place: dict[Any, int] = {}  # key -> its place in the dict's order
        self.next_place = 0
        self.member: dict[Any, Any] = {}  # key -> its group
        # group -> (places, keys), both in the dict's order
        self.groups: dict[Any, tuple[list[int], list]] = {}
        self.apply([(key, ABSENT) for key in mapping])

    def keys(self, group: Any) -> list:
        """The keys in ``group``, in the dict's order; do not modify."""
        found = self.groups.get(group)
        return found[1] if found is not None else []

    def apply(self, entries: list[tuple[Any, Any]]) -> None:
        written = {}
        for key, old in entries:
            if old is ABSENT:
                self._leave(key)
                self.place[key] = self.next_place
                self.next_place += 1
            written[key] = None
        for key in written:
            value = self.mapping.get(key, ABSENT)
            if value is ABSENT:
                self._leave(key)
                del self.place[key]
                continue
            group = self.group(value)
            if self.member.get(key) != group:
                self._leave(key)
                if group is not None:
                    places, keys = self.groups.setdefault(group, ([], []))
                    i = bisect_left(places, self.place[key])
                    places.insert(i, self.place[key])
                    keys.insert(i, key)
                    self.member[key] = group

    def _leave(self, key: Any) -> None:
        group = self.member.pop(key, None)
        if group is not None:
            places, keys = self.groups[group]
            i = bisect_left(places, self.place[key])
            del places[i], keys[i]


class DrawIndex:
    """What ``ActionGenerator`` draws tokens from, kept from the write set
    of each transaction instead of scanned at every draw: each owner's
    NFTs, the active auctions, the sales with proceeds left and the vaulted
    NFTs, each in its collection's dict order, so that a draw equals the
    draw from a scan.  ``sync`` applies ``state.last_writes`` when one
    transaction ran since the last sync, and rebuilds from the world when
    more did."""

    def __init__(self, state: ChainState, handle: SystemHandle):
        self.state = state
        vault = handle.vault_module(state)
        self._sources = (state.nft[handle.collection].owners, vault.auctions,
                         vault.sales, vault.original_owner)
        self.rebuild()

    def rebuild(self) -> None:
        owners, auctions, sales, vaulted = self._sources
        self.owners = _Index(owners, lambda owner: owner)
        self.auctions = _Index(auctions, lambda auction: auction.active or None)
        self.sales = _Index(sales, lambda sale: sale.proceeds_remaining > 0 or None)
        self.vaulted = _Index(vaulted, lambda _: True)
        self._by_id = {id(index.mapping): index for index in
                       (self.owners, self.auctions, self.sales, self.vaulted)}
        self.synced = self.state.tx_index

    def sync(self) -> None:
        tx_index = self.state.tx_index
        if tx_index == self.synced:
            return
        if tx_index != self.synced + 1:
            self.rebuild()  # a transaction ran unseen
            return
        self.synced = tx_index
        entries: dict[_Index, list[tuple[Any, Any]]] = {}
        by_id = self._by_id
        for container, key, old in self.state.last_writes:
            index = by_id.get(id(container))
            if index is not None:
                entries.setdefault(index, []).append((key, old))
        for index, written in entries.items():
            index.apply(written)


class ActionGenerator:
    def __init__(self, plan: FuzzPlan, state: ChainState, handle: SystemHandle,
                 actors: list[str]):
        self.plan = plan
        self.state = state
        self.handle = handle
        self.actors = actors
        self.rng = random.Random(plan.seed)
        names_weights = [(k, w) for k, w in plan.weights if w > 0]
        # functions, not bound methods, so the generator holds no cycle
        # and its world is freed by reference counting
        self.draws = [getattr(ActionGenerator, f"gen_{k}") for k, _ in names_weights]
        self.cum_weights = list(accumulate(w for _, w in names_weights))
        self.total_weight = sum(w for _, w in names_weights)
        self.next_token_id = 1000  # fresh mints live above the genesis range
        self.vault = handle.vault_module(state)
        self.market = handle.market_module(state)
        self.governance = handle.governance_module(state)
        self.index = DrawIndex(state, handle)

    # helpers ----------------------------------------------------------- #

    def actor(self) -> str:
        return self.rng.choice(self.actors)

    def recipient(self) -> str:
        # occasionally aim at the zero address to exercise the guard
        if self.rng.random() < 0.03:
            return ZERO_ADDRESS
        return self.rng.choice(self.actors)

    def owned_tokens(self, owner: str) -> list[int]:
        return self.index.owners.keys(owner)

    def vaulted_tokens(self) -> list[int]:
        return self.index.vaulted.keys(True)

    def token(self, candidates: list[int]) -> int:
        """One of ``candidates``, or an arbitrary low id if there are none."""
        return self.rng.choice(candidates) if candidates else self.rng.randrange(1, 20)

    def proposal_id(self) -> int:
        count = len(self.governance.proposals)
        return self.rng.randrange(0, count) if count else 0

    def amount_near(self, bound: int) -> int:
        if bound <= 0:
            return self.rng.randrange(0, 10)
        # mostly feasible, sometimes deliberately excessive
        upper = bound * 2 if self.rng.random() < 0.15 else bound
        return self.rng.randrange(0, max(upper, 1) + 1)

    # generation -------------------------------------------------------- #

    def generate(self) -> FuzzAction:
        self.index.sync()
        # the draw of ``rng.choices(self.draws, cum_weights=self.cum_weights)``
        i = bisect(self.cum_weights, self.rng.random() * self.total_weight,
                   0, len(self.draws) - 1)
        return self.draws[i](self)

    def gen_advance_clock(self) -> FuzzAction:
        return clock_action(self.rng.choice(CLOCK_STEPS))

    def gen_native_transfer(self) -> FuzzAction:
        sender = self.actor()
        amount = self.amount_near(self.state.native.get(sender, 0) // 100)
        return transact_action(sender, "native", "transfer",
                               to=self.recipient(), amount=amount)

    def gen_fraction_transfer(self) -> FuzzAction:
        sender = self.actor()
        held = self.state.fungible_balance(self.handle.fractions, sender)
        return transact_action(sender, self.handle.fractions, "transfer",
                               to=self.recipient(), amount=self.amount_near(held))

    def gen_fraction_approve(self) -> FuzzAction:
        return transact_action(self.actor(), self.handle.fractions, "approve",
                               spender=self.rng.choice(self.actors + [self.handle.market]),
                               amount=self.rng.randrange(0, 10_000))

    def gen_pair_transfer(self) -> FuzzAction:
        sender = self.actor()
        held = self.state.fungible_balance(self.handle.pair, sender)
        return transact_action(sender, self.handle.pair, "transfer",
                               to=self.recipient(), amount=self.amount_near(held))

    def gen_collection_mint(self) -> FuzzAction:
        self.next_token_id += 1
        return transact_action("deployer", self.handle.collection, "mint",
                               to=self.actor(), token_id=self.next_token_id)

    def gen_deposit(self) -> FuzzAction:
        sender = self.actor()
        owned = self.owned_tokens(sender)
        token_id = self.rng.choice(owned) if owned and self.rng.random() < 0.85 \
            else self.rng.randrange(1, 20)
        return transact_action(sender, self.handle.vault, "deposit_nft",
                               nft_address=self.handle.collection, token_id=token_id)

    def gen_deposit_batch(self) -> FuzzAction:
        sender = self.actor()
        owned = self.owned_tokens(sender)[:3]
        return transact_action(sender, self.handle.vault, "deposit_nfts",
                               token_ids=owned)

    def gen_withdraw_nft(self) -> FuzzAction:
        token_id = self.token(self.vaulted_tokens())
        return transact_action(self.actor(), self.handle.vault, "withdraw_nft",
                               nft_address=self.handle.collection, token_id=token_id)

    def gen_start_auction(self) -> FuzzAction:
        token_id = self.token(self.vaulted_tokens())
        return transact_action(self.actor(), self.handle.vault, "start_auction",
                               asset_address=self.handle.collection,
                               token_id=token_id,
                               starting_price=self.rng.randrange(0, 1000),
                               duration=self.rng.choice([0, 600, 3_600, 86_400]))

    def _auction_tokens(self) -> list[int]:
        return self.index.auctions.keys(True)

    def gen_place_bid(self) -> FuzzAction:
        token_id = self.token(self._auction_tokens())
        sender = self.actor()
        auction = self.vault.auctions.get(token_id)
        floor = max(auction.highest_bid, auction.starting_price) if auction else 10
        value = self.amount_near(min(floor + self.rng.randrange(1, 500),
                                     self.state.native.get(sender, 0)))
        return transact_action(sender, self.handle.vault, "place_bid",
                               value=value, token_id=token_id)

    def gen_end_auction(self) -> FuzzAction:
        token_id = self.token(self._auction_tokens())
        return transact_action(self.actor(), self.handle.vault, "end_auction",
                               token_id=token_id)

    def gen_cancel_auction_attempt(self) -> FuzzAction:
        token_id = self.token(self._auction_tokens())
        return transact_action(self.actor(), self.handle.vault, "cancel_auction",
                               token_id=token_id)

    def gen_redeem(self) -> FuzzAction:
        token_id = self.token(self.index.sales.keys(True))
        sender = self.actor()
        held = self.state.fungible_balance(self.handle.fractions, sender)
        return transact_action(sender, self.handle.vault, "redeem_fraction_value",
                               token_id=token_id,
                               fraction_amount=self.amount_near(held))

    def gen_withdraw_pending(self) -> FuzzAction:
        claimants = [a for a in self.actors if self.vault.pending.get(a, 0) > 0]
        sender = self.rng.choice(claimants) if claimants and self.rng.random() < 0.8 \
            else self.actor()
        return transact_action(sender, self.handle.vault, "withdraw_pending")

    def gen_set_duration_attempt(self) -> FuzzAction:
        return transact_action(self.actor(), self.handle.vault,
                               "set_auction_duration",
                               seconds=self.rng.randrange(0, 10_000))

    def gen_set_royalty_attempt(self) -> FuzzAction:
        return transact_action(self.actor(), self.handle.vault,
                               "set_royalty_percent",
                               percent=self.rng.randrange(0, 130))

    def gen_add_liquidity(self) -> FuzzAction:
        sender = self.actor()
        market = self.market
        held_a = self.state.fungible_balance(market.token_a, sender)
        held_b = self.state.fungible_balance(market.token_b, sender)
        if market.total_shares == 0 or self.rng.random() < 0.2:
            amount_a = self.amount_near(min(held_a, 10_000))
            amount_b = self.amount_near(min(held_b, 10_000))
        else:
            amount_a = self.amount_near(min(held_a, market.reserve_a // 4 + 1))
            amount_b = amount_a * market.reserve_b // market.reserve_a \
                if market.reserve_a else 0
        return transact_action(sender, self.handle.market, "add_liquidity",
                               amount_a=amount_a, amount_b=amount_b)

    def gen_remove_liquidity(self) -> FuzzAction:
        sender = self.actor()
        held = self.market.shares.get(sender, 0)
        return transact_action(sender, self.handle.market, "remove_liquidity",
                               shares_burned=self.amount_near(held))

    def gen_trade(self) -> FuzzAction:
        sender = self.actor()
        token_in = self.rng.choice([self.market.token_a, self.market.token_b])
        held = self.state.fungible_balance(token_in, sender)
        amount_in = self.amount_near(min(held, 50_000))
        return transact_action(sender, self.handle.market, "execute_trade",
                               token_in=token_in, amount_in=amount_in,
                               min_amount_out=self.rng.choice([0, 0, 1, amount_in]))

    def gen_create_proposal(self) -> FuzzAction:
        kind = self.rng.choice(["set_auction_duration", "set_royalty_percent",
                                "cancel_auction"])
        if kind == "set_auction_duration":
            args = {"seconds": self.rng.randrange(600, 10**6)}
        elif kind == "set_royalty_percent":
            args = {"percent": self.rng.randrange(0, 101)}
        else:
            args = {"token_id": self.rng.randrange(1, 20)}
        return transact_action(self.actor(), self.handle.governance,
                               "create_proposal", description=f"change {kind}",
                               target=self.handle.vault,
                               action={"kind": kind, "args": args},
                               voting_period=self.rng.choice([3_600, 86_400]))

    def gen_vote(self) -> FuzzAction:
        proposal_id = self.proposal_id()
        return transact_action(self.actor(), self.handle.governance, "vote",
                               proposal_id=proposal_id,
                               support=self.rng.random() < 0.7)

    def gen_execute_proposal(self) -> FuzzAction:
        proposal_id = self.proposal_id()
        return transact_action(self.actor(), self.handle.governance,
                               "execute_proposal", proposal_id=proposal_id)

    def gen_cancel_scheduled(self) -> FuzzAction:
        return transact_action("deployer", self.handle.governance,
                               "cancel_scheduled", proposal_id=self.proposal_id())


# --------------------------------------------------------------------- #
# Execution, checking, shrinking
# --------------------------------------------------------------------- #

def _action_args(action: FuzzAction) -> dict:
    # the benchmark's scenario generator (bench/scenario_gen.py) is the one caller
    return action.args


def fuzz_replay(plan: FuzzPlan, invariant: str | None = None) -> CheckedReplay:
    """A fresh fuzz world, checked by ``plan``; a replay fails at a step
    that violates ``invariant``.  A fork copies the write-set checks along
    with the world."""
    state, handle, actors = build_fuzz_world(plan)
    return CheckedReplay(plan, (state, handle, {
        "actors": actors,
        "checks": WriteSetChecks(state, handle, plan.invariants)}), invariant)


def _step_violation(replay: CheckedReplay, plan: FuzzPlan, action: FuzzAction,
                    index: int, last: bool) -> tuple[TxResult | None, str | None]:
    """The fuzz step check: the write-set invariant checks, with a full
    scan every FULL_SCAN_INTERVAL steps and after the last one."""
    checks = replay.extras["checks"]
    if (index + 1) % FULL_SCAN_INTERVAL == 0 or last:
        checks.rescan()
    result, detail = replay.call(action, plan.check_revert_atomicity)
    if detail:
        checks.rescan()  # the unjournaled writes escape the write set
        return result, detail
    writes = replay.state.last_writes if result is not None else ()
    return result, checks.first_violation(writes)


def _fresh_run(plan: FuzzPlan) -> tuple[CheckedReplay, Callable[[int], FuzzAction]]:
    """A fuzz world at genesis and the generator of ``plan``'s actions on
    it, which folds the world's committed events into its event hash every
    FULL_SCAN_INTERVAL steps (``ChainState.fold_events``), so that the log
    does not grow with the run."""
    world = fuzz_replay(plan)
    state = world.state
    generator = ActionGenerator(plan, state, world.handle, world.extras["actors"])

    def generate(step: int) -> FuzzAction:
        if step % FULL_SCAN_INTERVAL == 0:
            state.fold_events()
        return generator.generate()

    return world, generate


def run_fuzz(plan: FuzzPlan) -> FuzzReport:
    world, generate = _fresh_run(plan)
    tail, executed, detail, reverts = run_checked(world, generate, plan.steps,
                                                  SHRINK_WINDOW)
    digest = world.state.full_digest()
    del world, generate  # the run's world is not needed to shrink
    violations: list[Violation] = []
    if detail:
        violations.append(Violation(
            invariant=detail.split(":", 1)[0], step=executed - 1, detail=detail,
            digest=digest, trace=shrink(plan, tail, executed, detail, digest)))
    return FuzzReport(plan=plan, steps_executed=executed,
                      commits=executed - reverts, reverts=reverts,
                      final_digest=digest, violations=violations)


def replay_violates(plan: FuzzPlan, actions: list[FuzzAction], invariant: str,
                    start: CheckedReplay | None = None) -> bool:
    """Whether replaying ``actions`` violates ``invariant`` at some step:
    from genesis, or from a fork of ``start``, a replay of a prefix of
    ``actions`` that has not violated it."""
    replay = fuzz_replay(plan, invariant) if start is None else start.fork()
    return replay.run(actions)


def shrink(plan: FuzzPlan, tail: Sequence[FuzzAction], executed: int,
           detail: str, digest: str) -> list[FuzzAction]:
    """Delete-only ddmin of the run of ``plan`` that failed with ``detail``
    after ``executed`` actions, in a world of full digest ``digest``, and
    kept the last ``tail``: the tail alone if it is the whole run or still
    violates the same invariant from genesis, else the whole trace, rebuilt
    by running the plan again."""
    invariant = detail.split(":", 1)[0]
    trace = list(tail)
    if executed > len(trace) and not replay_violates(plan, trace, invariant):
        trace = rerun(*_fresh_run(plan), plan.steps, tail, executed, detail,
                      digest)
    return ddmin(trace, lambda: fuzz_replay(plan, invariant),
                 lambda candidate, start: replay_violates(plan, candidate,
                                                          invariant, start))
