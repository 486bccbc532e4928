"""World-level invariant checkers.

Each checker inspects a committed state and returns ``None`` when the
invariant holds or a short description of the violation.  The fuzzer and
the property suite run these after every committed transaction.

Called as ``checker(state, handle)`` a checker scans the whole world.  The
fuzzer passes a third argument, a ``WriteSetChecks``, which runs only the
checkers that read a container the step wrote, so a reverted or clock-only
step runs none.  A checker so called looks only at the entries the step
wrote: NFTs, auctions, sales, proposals and timelock entries, and the
native, fraction and share balances, whose sums it keeps as running
totals.  Collection entries are frozen values that a write replaces in
their collection, so the write set names each by its key in the
collection.  Whenever a write-set check finds a problem, the full scan
runs and writes the detail, so both ways of calling report the same text.
"""

from __future__ import annotations

import copy
from typing import Callable

from .governance import EXECUTED, Governance, Proposal, Timelock
from .ledger import ABSENT, ChainState, JournalEntry, ZERO_ADDRESS
from .market import Market
from .system import SystemHandle
from .vault import Auction, Vault

Checker = Callable[..., str | None]  # (state, handle, scope=None)


def check_native_conservation(state: ChainState, handle: SystemHandle,
                              scope: WriteSetChecks | None = None) -> str | None:
    native = state.native
    if scope is not None and "native_conservation" not in scope.full:
        if scope.total(native) == state.genesis_native_supply and \
                all(native.get(k, 0) >= 0 for k in scope.native):
            return None
    total = sum(state.native.values())
    if total != state.genesis_native_supply:
        return (f"native total {total} drifted from genesis supply "
                f"{state.genesis_native_supply}")
    if any(v < 0 for v in state.native.values()):
        return "negative native balance"
    return None


def check_fungible_supply(state: ChainState, handle: SystemHandle,
                          scope: WriteSetChecks | None = None) -> str | None:
    if scope is not None and "fungible_supply" not in scope.full:
        for ledger_id, written in scope.balances.items():
            ledger = state.fungible[ledger_id]
            balances = ledger.balances
            if scope.total(balances) != ledger.total_supply or \
                    written and any(balances.get(k, 0) < 0 for k in written):
                break
        else:
            return None
    for ledger_id, ledger in state.fungible.items():
        total = sum(ledger.balances.values())
        if total != ledger.total_supply:
            return (f"{ledger_id}: supply {ledger.total_supply} but balances "
                    f"sum to {total}")
        if any(v < 0 for v in ledger.balances.values()):
            return f"{ledger_id}: negative balance"
    return None


def check_nft_single_owner(state: ChainState, handle: SystemHandle,
                           scope: WriteSetChecks | None = None) -> str | None:
    if scope is not None and "nft_single_owner" not in scope.full:
        for ledger_id, token_ids in scope.nft_tokens.items():
            owners = state.nft[ledger_id].owners
            if any(t in owners and (not owners[t] or owners[t] == ZERO_ADDRESS)
                   for t in token_ids):
                break
        else:
            return None
    for ledger_id, ledger in state.nft.items():
        for token_id, owner in ledger.owners.items():
            if not owner or owner == ZERO_ADDRESS:
                return f"{ledger_id}: token {token_id} owned by the zero address"
    return None


def check_vault_escrow(state: ChainState, handle: SystemHandle,
                       scope: WriteSetChecks | None = None) -> str | None:
    vault: Vault = state.modules[handle.vault]  # type: ignore[assignment]
    escrow = state.native.get(vault.address, 0)
    if scope is not None:
        sales, bids = scope.escrow_totals(vault)
        pending = vault.pending.values()
        if escrow == sum(pending) + sales + bids + vault.retained_dust \
                and min(pending, default=0) >= 0:
            return None
    claims = (sum(vault.pending.values())
              + sum(s.proceeds_remaining for s in vault.sales.values())
              + vault.active_bid_total()
              + vault.retained_dust)
    if escrow != claims:
        return f"vault escrow {escrow} != outstanding claims {claims}"
    if any(v < 0 for v in vault.pending.values()):
        return "negative pending withdrawal"
    return None


def check_sale_accounting(state: ChainState, handle: SystemHandle,
                          scope: WriteSetChecks | None = None) -> str | None:
    vault: Vault = state.modules[handle.vault]  # type: ignore[assignment]
    if scope is not None and "sale_accounting" not in scope.full:
        sales = vault.sales
        if not scope.sales or not any(
                t in sales and not 0 <= sales[t].proceeds_remaining <= sales[t].proceeds_total
                for t in scope.sales):
            return None
    for token_id, sale in vault.sales.items():
        if not 0 <= sale.proceeds_remaining <= sale.proceeds_total:
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
    if scope is not None and "vault_params" not in scope.full:
        auctions = vault.auctions
        if not scope.auctions or not any(
                t in auctions and auctions[t].highest_bidder != ZERO_ADDRESS
                and auctions[t].highest_bid < auctions[t].starting_price
                for t in scope.auctions):
            return None
    for token_id, auction in vault.auctions.items():
        if auction.highest_bidder != ZERO_ADDRESS and \
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
    if scope is not None and "governance_soundness" not in scope.full:
        if not scope.proposals or not any(
                0 <= pid < len(proposals)
                and _proposal_problem(proposals[pid], timelock) is not None
                for pid in scope.proposals):
            return None
    for proposal in proposals:
        detail = _proposal_problem(proposal, timelock)
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
    if scope is not None and "market_books" not in scope.full:
        if scope.total(shares) == market.total_shares and \
                all(shares.get(k, 0) >= 0 for k in scope.shares):
            return None
    total = sum(market.shares.values())
    if total != market.total_shares:
        return f"share books {market.total_shares} != sum {total}"
    if any(v < 0 for v in market.shares.values()):
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
    object it wrote, in the order of ``names``.  Those containers and
    objects are looked up again at every full scan.
    """

    def __init__(self, state: ChainState, handle: SystemHandle,
                 names: tuple[str, ...] = ALL_INVARIANTS):
        self.state = state
        self.handle = handle
        self.names = names
        # what the current step wrote, cleared at the next step: each key
        # written and the value it held before the step (ABSENT if none)
        self.native: dict = {}
        self.balances: dict[str, dict] = {}
        self.nft_tokens: dict[str, dict] = {}
        self.auctions: dict = {}
        self.sales: dict = {}
        self.proposals: dict = {}
        self.shares: dict = {}
        # id of each dict or list whose keys name an entity -> its dict above
        self._keyed: dict[int, dict] = {}
        # id of each container or object a checker reads -> the names reading it
        self._readers: dict[int, frozenset[str]] = {}
        # id of each dict of balances -> the running sum of its values
        self._totals: dict[int, int] = {}
        # the dicts above that hold keys of the previous step
        self._dirty: list[dict] = []
        self._vault: Vault = state.modules[handle.vault]  # type: ignore[assignment]
        self._timelock: Timelock = state.modules[handle.timelock]  # type: ignore[assignment]
        # checkers that scan everything in the current step
        self.full: frozenset[str] = frozenset()
        self._rescan_next = True
        # running escrow sums, per token id and in total
        self._sale_parts: dict[int, int] = {}
        self._bid_parts: dict[int, int] = {}
        self._sale_total = 0
        self._bid_total = 0

    def __deepcopy__(self, memo: dict) -> "WriteSetChecks":
        # a copy checks the copied world: the maps keyed by id() are re-keyed
        # to the copies of their containers, which are in ``memo`` once the
        # world is copied (a rescan would do it too, at the cost of a full scan);
        # the frozensets of checker names never change, so the copy shares them
        copied = WriteSetChecks.__new__(WriteSetChecks)
        memo[id(self)] = copied
        for name, value in vars(self).items():
            setattr(copied, name, value if name in ("full", "_readers")
                    else copy.deepcopy(value, memo))
        for name in ("_keyed", "_readers", "_totals"):
            setattr(copied, name, {id(memo[k]): v for k, v in getattr(copied, name).items()
                                   if k in memo})
        return copied

    def rescan(self) -> None:
        """Make the next ``first_violation`` a full scan of every name."""
        self._rescan_next = True

    def total(self, balances: dict) -> int:
        """The sum of a dict of balances, kept from the keys each step wrote."""
        return self._totals[id(balances)]

    def first_violation(self, writes: list[JournalEntry] | tuple[()]) -> str | None:
        """Check the world after a step that made ``writes``; ``name: detail``."""
        if self._rescan_next:
            self._reset()
            due = self.full
        else:
            due = self._observe(writes)
            if not due:
                return None
        for name in self.names:
            if name in due:
                detail = CHECKERS[name](self.state, self.handle, self)
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
        self.native, self.shares = {}, {}
        self.auctions, self.sales, self.proposals = {}, {}, {}
        self.balances = {lid: {} for lid in state.fungible}
        self.nft_tokens = {lid: {} for lid in state.nft}
        pool = (market.token_a, market.token_b)
        # each container or object a checker reads, the checkers reading it
        # and, where its keys name entities, the dict of the keys written
        reads: list[tuple[object, tuple[str, ...], dict | None]] = [
            (state.native, ("native_conservation", "vault_escrow"), self.native),
            (vault, ("vault_escrow", "vault_params"), None),
            (vault.pending, ("vault_escrow",), None),
            (vault.sales, ("vault_escrow", "sale_accounting"), self.sales),
            (vault.auctions, ("vault_escrow", "vault_params"), self.auctions),
            (governance.proposals, ("governance_soundness",), self.proposals),
            (timelock, ("governance_soundness",), None),
            (timelock.entries, ("governance_soundness",), self.proposals),
            (market, ("market_books",), None),
            (market.shares, ("market_books",), self.shares),
        ]
        for lid, ledger in state.fungible.items():
            reads += [(ledger, ("fungible_supply",), None),
                      (ledger.balances, ("fungible_supply", "market_books") if lid in pool
                       else ("fungible_supply",), self.balances[lid])]
        reads += [(ledger.owners, ("nft_single_owner",), self.nft_tokens[lid])
                  for lid, ledger in state.nft.items()]
        self._keyed = {id(obj): written for obj, _, written in reads if written is not None}
        self._readers = {}
        for obj, names, _ in reads:
            selected = frozenset(names).intersection(self.names)
            if selected:
                self._readers[id(obj)] = selected
        summed = [state.native, market.shares,
                  *(ledger.balances for ledger in state.fungible.values())]
        self._totals = {id(balances): sum(balances.values()) for balances in summed}

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
        keyed, readers, totals = self._keyed, self._readers, self._totals
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
                    # the write set is complete, so the container holds the new value
                    totals[cid] += container.get(key, 0) - (0 if old is ABSENT else old)  # type: ignore[union-attr]
        if id(self._timelock) in seen:
            # a timelock setting, such as the delay, bears on every proposal
            self.full = frozenset({"governance_soundness"})
        return due

    def escrow_totals(self, vault: Vault) -> tuple[int, int]:
        """Proceeds left in sales and active bids, as running totals kept
        from the touched sales and auctions."""
        if "vault_escrow" in self.full:
            self._sale_parts = {t: s.proceeds_remaining for t, s in vault.sales.items()}
            self._bid_parts = {t: _bid_part(a) for t, a in vault.auctions.items()}
            self._sale_total = sum(self._sale_parts.values())
            self._bid_total = sum(self._bid_parts.values())
            return self._sale_total, self._bid_total
        for token_id in self.sales:
            sale = vault.sales.get(token_id)
            part = sale.proceeds_remaining if sale is not None else 0
            self._sale_total += part - self._sale_parts.get(token_id, 0)
            self._sale_parts[token_id] = part
        for token_id in self.auctions:
            auction = vault.auctions.get(token_id)
            part = _bid_part(auction) if auction is not None else 0
            self._bid_total += part - self._bid_parts.get(token_id, 0)
            self._bid_parts[token_id] = part
        return self._sale_total, self._bid_total
