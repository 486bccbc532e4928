"""Vault: NFT custody, fraction issuance, auctions and proceeds redemption.

Custody rules: the vault accepts tokens from one collection fixed at
construction and mints exactly 1000 fractions per deposited NFT; the same
1000 must be burned to withdraw.  Sales run as English auctions with a
15-minute anti-sniping extension.  Every payout (outbid refunds, royalties,
redemption proceeds) is credited to a pending-withdrawals ledger and pulled
by the recipient later; the vault never pushes native currency during
settlement.  Redemption burns fractions before crediting the payout.

Auctions and sale records are frozen values: a write replaces the whole
entry in ``auctions`` or ``sales`` through ``ChainState.jset``.  Each
encodes its own digest fragment (``digest_json``), byte for byte the
canonical JSON of its normalized ``as_data``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import errors
from .ledger import (Address, ChainState, ExecutionContext, Module, ZERO_ADDRESS,
                     record_encoder)

FRACTIONS_PER_NFT = 1000
DEFAULT_AUCTION_DURATION = 604_800  # seven days
EXTENSION_WINDOW = 900
EXTENSION_DELTA = 900

STATUS_IN_VAULT = "InVault"
STATUS_ON_AUCTION = "OnAuction"
STATUS_SOLD = "Sold"


@dataclass(frozen=True)
class Auction:
    token_id: int
    started_by: Address
    starting_price: int
    end_time: int
    extension_window: int
    extension_delta: int
    highest_bid: int = 0
    highest_bidder: Address = ZERO_ADDRESS
    active: bool = True

    def __deepcopy__(self, memo: dict) -> "Auction":
        return self  # a write replaces the entry, so forks of a world share it

    def as_data(self) -> dict:
        return {
            "token_id": self.token_id,
            "started_by": self.started_by,
            "starting_price": self.starting_price,
            "end_time": self.end_time,
            "extension_window": self.extension_window,
            "extension_delta": self.extension_delta,
            "highest_bid": self.highest_bid,
            "highest_bidder": self.highest_bidder,
            "active": self.active,
        }

    digest_json = record_encoder(
        "token_id", "started_by", "starting_price", "end_time", "extension_window",
        "extension_delta", "highest_bid", "highest_bidder", "active")


@dataclass(frozen=True)
class SaleRecord:
    """Per-sale redemption bucket, snapshotted at auction settlement."""

    proceeds_total: int
    proceeds_remaining: int
    supply_snapshot: int
    original_owner: Address

    def __deepcopy__(self, memo: dict) -> "SaleRecord":
        return self  # a write replaces the entry, so forks of a world share it

    def as_data(self) -> dict:
        return {
            "proceeds_total": self.proceeds_total,
            "proceeds_remaining": self.proceeds_remaining,
            "supply_snapshot": self.supply_snapshot,
            "original_owner": self.original_owner,
        }

    digest_json = record_encoder(
        "proceeds_total", "proceeds_remaining", "supply_snapshot", "original_owner")


@dataclass
class AssetView:
    collection: str
    token_id: int
    original_owner: Address
    status: str
    proceeds_total: int | None = None
    proceeds_remaining: int | None = None
    supply_snapshot: int | None = None

    def as_data(self) -> dict:
        return {
            "collection": self.collection,
            "token_id": self.token_id,
            "original_owner": self.original_owner,
            "status": self.status,
            "proceeds_total": self.proceeds_total,
            "proceeds_remaining": self.proceeds_remaining,
            "supply_snapshot": self.supply_snapshot,
        }


class Vault(Module):
    exposed = frozenset({
        "deposit_nft", "deposit_nfts", "withdraw_nft",
        "start_auction", "place_bid", "end_auction", "cancel_auction",
        "redeem_fraction_value", "withdraw_pending",
        "set_governance_contract", "set_auction_duration", "set_royalty_percent",
        "get_asset", "auction_info", "pending_of",
    })
    payable = frozenset({"place_bid"})

    def __init__(self, module_id: str, state: ChainState, deployer: Address,
                 collection: str, fractions: str, *,
                 auction_duration: int = DEFAULT_AUCTION_DURATION,
                 royalty_percent: int = 5):
        super().__init__(module_id)
        if auction_duration <= 0:
            raise ValueError("auction duration must be positive")
        if not 0 <= royalty_percent <= 100:
            raise ValueError("royalty percent out of range")
        self.deployer = deployer
        self.collection = collection
        self.fractions = fractions
        self.governance_addr: Address = ZERO_ADDRESS
        self.governance_set = False
        self.auction_duration = auction_duration
        self.royalty_percent = royalty_percent
        self.original_owner: dict[int, Address] = {}
        self.auctions: dict[int, Auction] = {}
        self.sales: dict[int, SaleRecord] = {}
        self.pending: dict[Address, int] = {}
        self.retained_dust = 0

    # ------------------------------------------------------------------ #
    # Guards and helpers
    # ------------------------------------------------------------------ #

    def _require_governance(self, ctx: ExecutionContext) -> None:
        if not self.governance_set or ctx.sender != self.governance_addr:
            raise errors.NotGovernance(f"{ctx.sender} is not the bound governance")

    def _active_auction(self, token_id: int) -> Auction | None:
        auction = self.auctions.get(token_id)
        if auction is not None and auction.active:
            return auction
        return None

    def _credit_pending(self, state: ChainState, addr: Address, amount: int) -> None:
        if amount:
            state.jset(self.pending, addr, self.pending.get(addr, 0) + amount)

    def _mint_fractions(self, state: ChainState, ctx: ExecutionContext,
                        to: Address, amount: int) -> None:
        state.call(ctx, self.fractions, "mint", {"to": to, "amount": amount},
                   sender=self.address)

    def _burn_fractions(self, state: ChainState, ctx: ExecutionContext,
                        frm: Address, amount: int) -> None:
        state.call(ctx, self.fractions, "burn_from", {"frm": frm, "amount": amount},
                   sender=self.address)

    def _take_custody(self, state: ChainState, ctx: ExecutionContext, token_id: int) -> None:
        owner = state.nft_owner(self.collection, token_id)
        if owner != ctx.sender:
            raise errors.NotOwner(f"{ctx.sender} does not own token {token_id}")
        state.nft_transfer(ctx, ctx.sender, self.collection, token_id, self.address)
        state.jset(self.original_owner, token_id, ctx.sender)

    # ------------------------------------------------------------------ #
    # Custody
    # ------------------------------------------------------------------ #

    def deposit_nft(self, state: ChainState, ctx: ExecutionContext,
                    nft_address: str, token_id: int) -> None:
        if nft_address != self.collection:
            raise errors.WrongCollection(f"vault only accepts {self.collection}")
        self._take_custody(state, ctx, token_id)
        self._mint_fractions(state, ctx, ctx.sender, FRACTIONS_PER_NFT)
        state.emit(ctx, self.module_id, "NFTDeposited",
                   {"token_id": token_id, "depositor": ctx.sender,
                    "fractions": FRACTIONS_PER_NFT})

    def deposit_nfts(self, state: ChainState, ctx: ExecutionContext,
                     token_ids: list[int]) -> None:
        """Batch deposit; all-or-nothing, with one mint for the whole batch."""
        for token_id in token_ids:
            self._take_custody(state, ctx, token_id)
            state.emit(ctx, self.module_id, "NFTDeposited",
                       {"token_id": token_id, "depositor": ctx.sender,
                        "fractions": FRACTIONS_PER_NFT})
        if token_ids:
            self._mint_fractions(state, ctx, ctx.sender,
                                 FRACTIONS_PER_NFT * len(token_ids))

    def withdraw_nft(self, state: ChainState, ctx: ExecutionContext,
                     nft_address: str, token_id: int) -> None:
        if nft_address != self.collection:
            raise errors.NotInVault(f"vault holds nothing from {nft_address}")
        if state.nft.get(self.collection, None) is None or \
                state.nft[self.collection].owners.get(token_id) != self.address:
            raise errors.NotInVault(f"token {token_id} is not in the vault")
        if self._active_auction(token_id) is not None:
            raise errors.AuctionActive(f"token {token_id} is being auctioned")
        held = state.fungible_balance(self.fractions, ctx.sender)
        if held < FRACTIONS_PER_NFT:
            raise errors.InsufficientFractions(
                f"withdrawal needs {FRACTIONS_PER_NFT} fractions, caller holds {held}")
        # Burn before the outbound transfer (checks, effects, interactions).
        self._burn_fractions(state, ctx, ctx.sender, FRACTIONS_PER_NFT)
        state.nft_transfer(ctx, self.address, self.collection, token_id, ctx.sender)
        state.jdel(self.original_owner, token_id)
        state.emit(ctx, self.module_id, "NFTWithdrawn",
                   {"token_id": token_id, "recipient": ctx.sender})

    # ------------------------------------------------------------------ #
    # Auctions
    # ------------------------------------------------------------------ #

    def start_auction(self, state: ChainState, ctx: ExecutionContext,
                      asset_address: str, token_id: int,
                      starting_price: int, duration: int) -> None:
        """Open an auction; duration 0 selects the governed default."""
        if asset_address != self.collection:
            raise errors.WrongCollection(f"vault only auctions {self.collection}")
        if state.nft[self.collection].owners.get(token_id) != self.address:
            raise errors.NotInVault(f"token {token_id} is not in the vault")
        if self._active_auction(token_id) is not None:
            raise errors.AlreadyActive(f"token {token_id} already has an auction")
        if starting_price < 0 or duration < 0:
            raise errors.InvalidAmount("price and duration must be non-negative")
        if duration == 0:
            duration = self.auction_duration
        auction = Auction(token_id=token_id, started_by=ctx.sender,
                          starting_price=starting_price,
                          end_time=state.clock + duration,
                          extension_window=EXTENSION_WINDOW,
                          extension_delta=EXTENSION_DELTA)
        state.jset(self.auctions, token_id, auction)
        state.emit(ctx, self.module_id, "AuctionStarted",
                   {"token_id": token_id, "starting_price": starting_price,
                    "end_time": auction.end_time, "started_by": ctx.sender})

    def place_bid(self, state: ChainState, ctx: ExecutionContext, token_id: int) -> None:
        """Bid with attached native value; outbid funds become pull-claims."""
        auction = self._active_auction(token_id)
        if auction is None:
            raise errors.NoAuction(f"no active auction for token {token_id}")
        if state.clock >= auction.end_time:
            raise errors.AuctionEnded(f"auction for token {token_id} has ended")
        bid = ctx.value
        if bid <= auction.highest_bid or bid < auction.starting_price:
            raise errors.BidTooLow(
                f"bid {bid} must exceed {auction.highest_bid} and reach "
                f"{auction.starting_price}")
        if auction.highest_bidder != ZERO_ADDRESS:
            self._credit_pending(state, auction.highest_bidder, auction.highest_bid)
        extended = auction.end_time - state.clock < auction.extension_window
        end_time = auction.end_time + auction.extension_delta if extended else auction.end_time
        state.jset(self.auctions, token_id, replace(
            auction, highest_bid=bid, highest_bidder=ctx.sender, end_time=end_time))
        state.emit(ctx, self.module_id, "BidPlaced",
                   {"token_id": token_id, "bidder": ctx.sender, "amount": bid})
        if extended:
            state.emit(ctx, self.module_id, "AuctionExtended",
                       {"token_id": token_id, "end_time": end_time})

    def end_auction(self, state: ChainState, ctx: ExecutionContext, token_id: int) -> None:
        """Settle after the deadline; every payout is credited, never pushed."""
        auction = self._active_auction(token_id)
        if auction is None:
            raise errors.NoAuction(f"no active auction for token {token_id}")
        if state.clock < auction.end_time:
            raise errors.NotYetEnded(
                f"auction runs until {auction.end_time}, clock is {state.clock}")
        state.jset(self.auctions, token_id, replace(auction, active=False))
        if auction.highest_bidder == ZERO_ADDRESS:
            state.emit(ctx, self.module_id, "AuctionEnded",
                       {"token_id": token_id, "sold": False})
            return
        seller = self.original_owner[token_id]
        royalty = auction.highest_bid * self.royalty_percent // 100
        proceeds = auction.highest_bid - royalty
        self._credit_pending(state, seller, royalty)
        old = self.sales.get(token_id)
        if old is not None and old.proceeds_remaining > 0:
            # A resold token strands whatever its previous bucket still held.
            state.jsetattr(self, "retained_dust",
                           self.retained_dust + old.proceeds_remaining)
        record = SaleRecord(proceeds_total=proceeds, proceeds_remaining=proceeds,
                            supply_snapshot=state.fungible_supply(self.fractions),
                            original_owner=seller)
        state.jset(self.sales, token_id, record)
        state.nft_transfer(ctx, self.address, self.collection, token_id,
                           auction.highest_bidder)
        state.jdel(self.original_owner, token_id)
        state.emit(ctx, self.module_id, "AuctionEnded",
                   {"token_id": token_id, "sold": True,
                    "winner": auction.highest_bidder, "price": auction.highest_bid,
                    "royalty": royalty, "proceeds": proceeds})

    def cancel_auction(self, state: ChainState, ctx: ExecutionContext, token_id: int) -> None:
        self._require_governance(ctx)
        auction = self._active_auction(token_id)
        if auction is None:
            raise errors.NoAuction(f"no active auction for token {token_id}")
        state.jset(self.auctions, token_id, replace(auction, active=False))
        if auction.highest_bidder != ZERO_ADDRESS:
            self._credit_pending(state, auction.highest_bidder, auction.highest_bid)
        state.emit(ctx, self.module_id, "AuctionCancelled",
                   {"token_id": token_id, "refunded": auction.highest_bid,
                    "bidder": auction.highest_bidder})

    # ------------------------------------------------------------------ #
    # Redemption and withdrawals
    # ------------------------------------------------------------------ #

    def redeem_fraction_value(self, state: ChainState, ctx: ExecutionContext,
                              token_id: int, fraction_amount: int) -> int:
        """Exchange fractions for a proportional share of a sale's proceeds.

        The payout rate is fixed by the proceeds and fraction supply
        snapshotted at settlement; fractions burn before the payout is
        credited, so a second redemption of the same fractions cannot exist.
        """
        with self._guard(state):
            record = self.sales.get(token_id)
            if record is None or record.proceeds_remaining <= 0:
                raise errors.NoProceeds(f"token {token_id} has no redeemable proceeds")
            if fraction_amount < 0:
                raise errors.InvalidAmount("negative redemption")
            held = state.fungible_balance(self.fractions, ctx.sender)
            if fraction_amount > held:
                raise errors.InsufficientFractions(
                    f"redeeming {fraction_amount}, caller holds {held}")
            if fraction_amount == 0:
                return 0
            self._burn_fractions(state, ctx, ctx.sender, fraction_amount)
            payout = fraction_amount * record.proceeds_total // record.supply_snapshot
            payout = min(payout, record.proceeds_remaining)
            state.jset(self.sales, token_id, replace(
                record, proceeds_remaining=record.proceeds_remaining - payout))
            self._credit_pending(state, ctx.sender, payout)
            state.emit(ctx, self.module_id, "FractionsRedeemed",
                       {"token_id": token_id, "redeemer": ctx.sender,
                        "fractions": fraction_amount, "payout": payout})
            return payout

    def withdraw_pending(self, state: ChainState, ctx: ExecutionContext) -> int:
        """Pull accumulated claims; the balance zeroes before the transfer."""
        with self._guard(state):
            amount = self.pending.get(ctx.sender, 0)
            if amount <= 0:
                raise errors.NothingPending(f"{ctx.sender} has no pending balance")
            state.jset(self.pending, ctx.sender, 0)
            try:
                state.transfer_native(ctx, self.address, ctx.sender, amount)
            except errors.HookReverted as exc:
                raise errors.TransferFailed(str(exc)) from exc
            state.emit(ctx, self.module_id, "WithdrawalExecuted",
                       {"recipient": ctx.sender, "amount": amount})
            return amount

    # ------------------------------------------------------------------ #
    # Governed parameters
    # ------------------------------------------------------------------ #

    def set_governance_contract(self, state: ChainState, ctx: ExecutionContext,
                                governance: Address) -> None:
        if ctx.sender != self.deployer:
            raise errors.NotDeployer(f"{ctx.sender} did not deploy the vault")
        if governance == ZERO_ADDRESS:
            raise errors.ZeroAddress("governance cannot be the zero address")
        if self.governance_set:
            raise errors.AlreadySet("governance binding is write-once")
        state.jsetattr(self, "governance_addr", governance)
        state.jsetattr(self, "governance_set", True)
        state.emit(ctx, self.module_id, "GovernanceContractSet",
                   {"governance": governance})

    def set_auction_duration(self, state: ChainState, ctx: ExecutionContext,
                             seconds: int) -> None:
        self._require_governance(ctx)
        if seconds <= 0:
            raise errors.ZeroDuration("auction duration must be positive")
        state.jsetattr(self, "auction_duration", seconds)
        state.emit(ctx, self.module_id, "AuctionDurationUpdated", {"seconds": seconds})

    def set_royalty_percent(self, state: ChainState, ctx: ExecutionContext,
                            percent: int) -> None:
        self._require_governance(ctx)
        if not 0 <= percent <= 100:
            raise errors.RoyaltyOutOfRange(f"royalty {percent} outside 0..100")
        state.jsetattr(self, "royalty_percent", percent)
        state.emit(ctx, self.module_id, "RoyaltyPercentUpdated", {"percent": percent})

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #

    def get_asset(self, state: ChainState, ctx: ExecutionContext, token_id: int) -> AssetView:
        if token_id in self.original_owner:
            status = STATUS_ON_AUCTION if self._active_auction(token_id) else STATUS_IN_VAULT
            return AssetView(collection=self.collection, token_id=token_id,
                             original_owner=self.original_owner[token_id], status=status)
        record = self.sales.get(token_id)
        if record is not None:
            return AssetView(collection=self.collection, token_id=token_id,
                             original_owner=record.original_owner, status=STATUS_SOLD,
                             proceeds_total=record.proceeds_total,
                             proceeds_remaining=record.proceeds_remaining,
                             supply_snapshot=record.supply_snapshot)
        raise errors.UnknownToken(f"vault has no record of token {token_id}")

    def auction_info(self, state: ChainState, ctx: ExecutionContext, token_id: int) -> dict:
        auction = self.auctions.get(token_id)
        if auction is None:
            raise errors.NoAuction(f"token {token_id} was never auctioned")
        return auction.as_data()

    def pending_of(self, state: ChainState, ctx: ExecutionContext, owner: Address) -> int:
        return self.pending.get(owner, 0)

    # ------------------------------------------------------------------ #

    def active_bid_total(self) -> int:
        return sum(a.highest_bid for a in self.auctions.values()
                   if a.active and a.highest_bidder != ZERO_ADDRESS)

    def snapshot_data(self) -> dict:
        return {
            "kind": "vault",
            "deployer": self.deployer,
            "collection": self.collection,
            "fractions": self.fractions,
            "governance": self.governance_addr,
            "governance_set": self.governance_set,
            "auction_duration": self.auction_duration,
            "royalty_percent": self.royalty_percent,
            "original_owner": self.original_owner,
            "auctions": self.auctions,
            "sales": self.sales,
            "pending": self.pending,
            "retained_dust": self.retained_dust,
        }
