"""World-level invariant checkers.

Each checker inspects a committed state and returns ``None`` when the
invariant holds or a short description of the violation.  The fuzzer and
the property suite run these after every committed transaction.

A checker is one function, ``checker(state, handle, scope=None)``.  Called
without a scope it scans the whole world.  The fuzzer's ``WriteSetChecks``
runs only the checkers that read a container the step wrote, so a
reverted or clock-only step runs none, and passes itself as the scope:
each loop of the checker then reads only the keys the step wrote in its
collection (``scope.written``), and each sum it compares is a running
total kept from those keys (``scope.total``).  Collection entries are
frozen values that a write replaces in their collection, so the write set
names each by its key in the collection.
"""

from __future__ import annotations

import copy
from operator import attrgetter
from typing import Any, Callable

from .governance import EXECUTED, Governance, Proposal, Timelock
from .ledger import ABSENT, ChainState, JournalEntry, ZERO_ADDRESS
from .market import Market
from .system import SystemHandle
from .vault import Auction, Vault

Checker = Callable[..., str | None]  # (state, handle, scope=None)


def check_native_conservation(state: ChainState, handle: SystemHandle,
                              scope: WriteSetChecks | None = None) -> str | None:
    native = state.native
    total = sum(native.values()) if scope is None else scope.total(native)
    if total != state.genesis_native_supply:
        return (f"native total {total} drifted from genesis supply "
                f"{state.genesis_native_supply}")
    for k in (native if scope is None else scope.written(native)):
        if native.get(k, 0) < 0:
            return "negative native balance"
    return None


def check_fungible_supply(state: ChainState, handle: SystemHandle,
                          scope: WriteSetChecks | None = None) -> str | None:
    for ledger_id, ledger in state.fungible.items():
        balances = ledger.balances
        total = sum(balances.values()) if scope is None else scope.total(balances)
        if total != ledger.total_supply:
            return (f"{ledger_id}: supply {ledger.total_supply} but balances "
                    f"sum to {total}")
        for k in (balances if scope is None else scope.written(balances)):
            if balances.get(k, 0) < 0:
                return f"{ledger_id}: negative balance"
    return None


def check_nft_single_owner(state: ChainState, handle: SystemHandle,
                           scope: WriteSetChecks | None = None) -> str | None:
    for ledger_id, ledger in state.nft.items():
        owners = ledger.owners
        for token_id in (owners if scope is None else scope.written(owners)):
            owner = owners.get(token_id, ABSENT)
            if not owner or owner == ZERO_ADDRESS:
                return f"{ledger_id}: token {token_id} owned by the zero address"
    return None


def check_vault_escrow(state: ChainState, handle: SystemHandle,
                       scope: WriteSetChecks | None = None) -> str | None:
    vault: Vault = state.modules[handle.vault]  # type: ignore[assignment]
    pending = vault.pending
    if scope is None:
        claims = (sum(pending.values())
                  + sum(s.proceeds_remaining for s in vault.sales.values())
                  + vault.active_bid_total())
    else:
        claims = scope.total(pending) + scope.total(vault.sales) + scope.total(vault.auctions)
    claims += vault.retained_dust
    escrow = state.native.get(vault.address, 0)
    if escrow != claims:
        return f"vault escrow {escrow} != outstanding claims {claims}"
    for k in (pending if scope is None else scope.written(pending)):
        if pending.get(k, 0) < 0:
            return "negative pending withdrawal"
    return None


def check_sale_accounting(state: ChainState, handle: SystemHandle,
                          scope: WriteSetChecks | None = None) -> str | None:
    vault: Vault = state.modules[handle.vault]  # type: ignore[assignment]
    sales = vault.sales
    for token_id in (sales if scope is None else scope.written(sales)):
        sale = sales.get(token_id)
        if sale is not None and not 0 <= sale.proceeds_remaining <= sale.proceeds_total:
            return (f"sale {token_id}: credited payouts "
                    f"{sale.proceeds_total - sale.proceeds_remaining} outside "
                    f"0..{sale.proceeds_total}")
    return None


def check_vault_params(state: ChainState, handle: SystemHandle,
                       scope: WriteSetChecks | None = None) -> str | None:
    vault: Vault = state.modules[handle.vault]  # type: ignore[assignment]
    if not 0 <= vault.royalty_percent <= 100:
        return f"royalty {vault.royalty_percent} outside 0..100"
    if vault.auction_duration <= 0:
        return f"auction duration {vault.auction_duration} not positive"
    auctions = vault.auctions
    for token_id in (auctions if scope is None else scope.written(auctions)):
        auction = auctions.get(token_id)
        if auction is not None and auction.highest_bidder != ZERO_ADDRESS and \
                auction.highest_bid < auction.starting_price:
            return f"auction {token_id}: highest bid below the starting price"
    return None


def _proposal_problem(proposal: Proposal, timelock: Timelock) -> str | None:
    if proposal.votes_for + proposal.votes_against != proposal.total_votes_cast:
        return f"proposal {proposal.proposal_id}: vote tallies disagree"
    if proposal.executed:
        quorum = proposal.supply_at_creation // 2
        if proposal.total_votes_cast <= quorum:
            return (f"proposal {proposal.proposal_id} executed with "
                    f"{proposal.total_votes_cast} votes against quorum {quorum}")
        if proposal.votes_for <= proposal.votes_against:
            return f"proposal {proposal.proposal_id} executed while defeated"
        entry = timelock.entries.get(proposal.proposal_id)
        if entry is None or entry.state != EXECUTED:
            return f"proposal {proposal.proposal_id} executed without the timelock"
        if entry.executed_at is None or \
                entry.executed_at - entry.scheduled_at < timelock.delay:
            return (f"proposal {proposal.proposal_id} executed "
                    f"{entry.executed_at} after scheduling at "
                    f"{entry.scheduled_at}, below delay {timelock.delay}")
    return None


def check_governance_soundness(state: ChainState, handle: SystemHandle,
                               scope: WriteSetChecks | None = None) -> str | None:
    governance: Governance = state.modules[handle.governance]  # type: ignore[assignment]
    timelock: Timelock = state.modules[handle.timelock]  # type: ignore[assignment]
    proposals = governance.proposals
    # under a scope, the ids of the proposals and timelock entries the step wrote
    for pid in (range(len(proposals)) if scope is None else scope.written(proposals)):
        if 0 <= pid < len(proposals):
            detail = _proposal_problem(proposals[pid], timelock)
            if detail is not None:
                return detail
    return None


def check_market_books(state: ChainState, handle: SystemHandle,
                       scope: WriteSetChecks | None = None) -> str | None:
    market: Market = state.modules[handle.market]  # type: ignore[assignment]
    held_a = state.fungible_balance(market.token_a, market.address)
    held_b = state.fungible_balance(market.token_b, market.address)
    if (held_a, held_b) != (market.reserve_a, market.reserve_b):
        return (f"pool holds ({held_a}, {held_b}) but books say "
                f"({market.reserve_a}, {market.reserve_b})")
    shares = market.shares
    total = sum(shares.values()) if scope is None else scope.total(shares)
    if total != market.total_shares:
        return f"share books {market.total_shares} != sum {total}"
    for k in (shares if scope is None else scope.written(shares)):
        if shares.get(k, 0) < 0:
            return "negative share balance"
    return None


CHECKERS: dict[str, Checker] = {
    "native_conservation": check_native_conservation,
    "fungible_supply": check_fungible_supply,
    "nft_single_owner": check_nft_single_owner,
    "vault_escrow": check_vault_escrow,
    "sale_accounting": check_sale_accounting,
    "vault_params": check_vault_params,
    "governance_soundness": check_governance_soundness,
    "market_books": check_market_books,
}

ALL_INVARIANTS = tuple(CHECKERS)

_NO_NAMES: frozenset[str] = frozenset()


def first_violation(state: ChainState, handle: SystemHandle,
                    names: tuple[str, ...] = ALL_INVARIANTS) -> str | None:
    """Full scan of every named invariant; the first failure as ``name: detail``."""
    for name in names:
        detail = CHECKERS[name](state, handle)
        if detail is not None:
            return f"{name}: {detail}"
    return None


def _bid_part(auction: Auction) -> int:
    # an auction's share of ``Vault.active_bid_total``
    if auction.active and auction.highest_bidder != ZERO_ADDRESS:
        return auction.highest_bid
    return 0


class WriteSetChecks:
    """Step-by-step checking of one world from the write set of each step.

    ``first_violation(writes)`` gives the same verdict as the full-scan
    ``first_violation`` provided every write since the last full scan went
    through the journal.  Its first call is a full scan that seeds the
    running state, and so is the call after ``rescan()`` or after any
    violation: a violated entity stays violated until a full scan clears
    it, and a violation stops the checks of the names after it.  Between
    full scans a step runs only the checkers that read a container or
    object it wrote, in the order of ``names``, each with this object as
    its scope: ``written`` gives the keys the step wrote in a collection
    and ``total`` the running sum of a summed dict, one per dict.  A dict
    of frozen entries sums a part of each entry, taken of the new entry and
    of the journal's old one.  When a checker so called finds a problem its
    full scan runs and writes the detail, so both ways report the same
    text.  The containers and objects are looked up again at every full
    scan.
    """

    def __init__(self, state: ChainState, handle: SystemHandle,
                 names: tuple[str, ...] = ALL_INVARIANTS):
        self.state = state
        self.handle = handle
        self.names = names
        # id of each container whose keys name an entity -> what the current
        # step wrote there, cleared at the next step: each key written and the
        # value it held before the step (ABSENT if none)
        self._keyed: dict[int, dict] = {}
        # id of each container or object a checker reads -> the names reading it
        self._readers: dict[int, frozenset[str]] = {}
        # id of each summed dict -> the running sum of its values, or of a
        # part of each entry where ``_parts`` names the part
        self._totals: dict[int, int] = {}
        self._parts: dict[int, Callable[[Any], int]] = {}
        # the dicts of ``_keyed`` that hold keys of the previous step
        self._dirty: list[dict] = []
        self._vault: Vault = state.modules[handle.vault]  # type: ignore[assignment]
        self._timelock: Timelock = state.modules[handle.timelock]  # type: ignore[assignment]
        # checkers that scan everything in the current step
        self.full: frozenset[str] = frozenset()
        self._rescan_next = True

    def __deepcopy__(self, memo: dict) -> "WriteSetChecks":
        # a copy checks the copied world: the maps keyed by id() are re-keyed
        # to the copies of their containers, which are in ``memo`` once the
        # world is copied (a rescan would do it too, at the cost of a full scan);
        # the checker names and the part functions never change, so the copy
        # shares them
        copied = WriteSetChecks.__new__(WriteSetChecks)
        memo[id(self)] = copied
        for name, value in vars(self).items():
            setattr(copied, name, value if name in ("full", "_readers", "_parts")
                    else copy.deepcopy(value, memo))
        for name in ("_keyed", "_readers", "_totals", "_parts"):
            setattr(copied, name, {id(memo[k]): v for k, v in getattr(copied, name).items()
                                   if k in memo})
        return copied

    def rescan(self) -> None:
        """Make the next ``first_violation`` a full scan of every name."""
        self._rescan_next = True

    def written(self, container: dict | list) -> dict:
        """The keys the current step wrote in ``container``; for the
        proposals, also the proposal ids of the timelock entries it wrote."""
        return self._keyed[id(container)]

    def total(self, summed: dict) -> int:
        """The sum of a summed dict, kept from the keys each step wrote."""
        return self._totals[id(summed)]

    def first_violation(self, writes: list[JournalEntry] | tuple[()]) -> str | None:
        """Check the world after a step that made ``writes``; ``name: detail``."""
        if not self.names:  # nothing to check, so no write set to follow
            return None
        if self._rescan_next:
            self._reset()
            due = self.full
        else:
            due = self._observe(writes)
            if not due:
                return None
        state, handle, full = self.state, self.handle, self.full
        for name in self.names:
            if name in due:
                checker = CHECKERS[name]
                scope = None if name in full else self
                detail = checker(state, handle, scope)
                if detail is not None and scope is not None:
                    detail = checker(state, handle)  # the full scan writes the detail
                if detail is not None:
                    self._rescan_next = True
                    return f"{name}: {detail}"
        return None

    def _reset(self) -> None:
        state, vault, timelock = self.state, self._vault, self._timelock
        governance: Governance = state.modules[self.handle.governance]  # type: ignore[assignment]
        market: Market = state.modules[self.handle.market]  # type: ignore[assignment]
        self._rescan_next = False
        self.full = frozenset(self.names)
        self._dirty = []
        proposals: dict = {}  # shared by the proposals and the timelock entries
        pool = (market.token_a, market.token_b)
        # each container or object a checker reads, the checkers reading it
        # and, where its keys name entities, the dict of the keys written
        reads: list[tuple[object, tuple[str, ...], dict | None]] = [
            (state.native, ("native_conservation", "vault_escrow"), {}),
            (vault, ("vault_escrow", "vault_params"), None),
            (vault.pending, ("vault_escrow",), {}),
            (vault.sales, ("vault_escrow", "sale_accounting"), {}),
            (vault.auctions, ("vault_escrow", "vault_params"), {}),
            (governance.proposals, ("governance_soundness",), proposals),
            (timelock, ("governance_soundness",), None),
            (timelock.entries, ("governance_soundness",), proposals),
            (market, ("market_books",), None),
            (market.shares, ("market_books",), {}),
        ]
        for lid, ledger in state.fungible.items():
            reads += [(ledger, ("fungible_supply",), None),
                      (ledger.balances, ("fungible_supply", "market_books") if lid in pool
                       else ("fungible_supply",), {})]
        reads += [(ledger.owners, ("nft_single_owner",), {}) for ledger in state.nft.values()]
        self._keyed = {id(obj): written for obj, _, written in reads if written is not None}
        self._readers = {}
        for obj, names, _ in reads:
            selected = frozenset(names).intersection(self.names)
            if selected:
                self._readers[id(obj)] = selected
        # each summed dict and the part of an entry it sums (None: the value)
        summed: list[tuple[dict, Callable[[Any], int] | None]] = [
            (state.native, None), (vault.pending, None), (market.shares, None),
            (vault.sales, attrgetter("proceeds_remaining")), (vault.auctions, _bid_part),
            *((ledger.balances, None) for ledger in state.fungible.values())]
        self._totals = {id(d): sum(d.values() if part is None else map(part, d.values()))
                        for d, part in summed}
        self._parts = {id(d): part for d, part in summed if part is not None}

    def _observe(self, writes: list[JournalEntry] | tuple[()]) -> set[str] | frozenset[str]:
        """Note the step's writes, in one pass; the names of the checkers
        they reach."""
        dirty = self._dirty
        for written in dirty:
            written.clear()
        dirty.clear()
        self.full = _NO_NAMES
        if not writes:
            return _NO_NAMES
        keyed, readers, totals, parts = self._keyed, self._readers, self._totals, self._parts
        due: set[str] = set()
        # id of each container written -> its dict of keys written, or None
        seen: dict[int, dict | None] = {}
        for container, key, old in writes:
            cid = id(container)
            if cid in seen:
                written = seen[cid]
            else:
                written = seen[cid] = keyed.get(cid)
                names = readers.get(cid)
                if names is not None:
                    due |= names
                if written is not None:
                    dirty.append(written)
            if written is not None and key not in written:
                written[key] = old  # the value before the step: its first write's old
                if cid in totals:
                    # the write set is complete, so the container holds the new
                    # value; 0 stands for an absent entry
                    new = container.get(key, 0)  # type: ignore[union-attr]
                    old = 0 if old is ABSENT else old
                    part = parts.get(cid)
                    if part is not None:
                        new, old = new and part(new), old and part(old)
                    totals[cid] += new - old
        if id(self._timelock) in seen:
            # a timelock setting, such as the delay, bears on every proposal
            self.full = frozenset({"governance_soundness"})
        return due
