"""Ledger-core semantics: native transfers with hooks, fungible and NFT
ledgers, the clock, and frame snapshot/rollback atomicity."""

from __future__ import annotations

import copy

import pytest

from fracvault import errors
from fracvault.ledger import (ChainState, ExecutionContext, HookCall, Module,
                              ReceiveHook, ZERO_ADDRESS)
from fracvault.vault import Vault

from helpers import native_total, tx, tx_err


# --------------------------------------------------------------------- #
# Native transfers
# --------------------------------------------------------------------- #

def test_full_balance_native_move():
    state = ChainState()
    state.fund("a", 10)
    state.fund("b", 0)
    tx(state, "a", "native", "transfer", to="b", amount=10)
    assert state.native["a"] == 0
    assert state.native["b"] == 10


def test_zero_amount_transfer_is_noop(chain):
    before = dict(chain.native)
    tx(chain, "alice", "native", "transfer", to="bob", amount=0)
    assert chain.native == before


def test_insufficient_native(chain):
    tx_err(chain, "InsufficientNative", "alice", "native", "transfer",
           to="bob", amount=10_000_000)


def test_transfer_to_zero_address_rejected(chain):
    tx_err(chain, "ZeroAddressRecipient", "alice", "native", "transfer",
           to=ZERO_ADDRESS, amount=1)


def test_reverting_hook_fails_transfer_and_preserves_state(chain):
    # Oracle: the failed call must leave a state identical to a pristine twin.
    chain.set_receive_hook("bob", ReceiveHook(owner="bob", reject=True))
    before_digest = chain.digest()
    before_native = dict(chain.native)
    result = chain.transact("alice", "native", "transfer", {"to": "bob", "amount": 5})
    assert not result.ok and result.error == "HookReverted"
    assert chain.native == before_native
    assert chain.digest() == before_digest


def test_hook_runs_nested_calls(chain):
    # bob forwards every payment to carol through his hook
    chain.set_receive_hook("bob", ReceiveHook(owner="bob", calls=(
        HookCall(module="native", method="transfer",
                 args=(("to", "carol"), ("amount", 3)), require_success=True),
    )))
    carol_before = chain.native["carol"]
    tx(chain, "alice", "native", "transfer", to="bob", amount=5)
    assert chain.native["carol"] == carol_before + 3
    assert chain.native["bob"] == 1_000_000 + 5 - 3


def test_recursive_hook_bounded_and_atomic(chain):
    # bob pays himself on every receipt; depth must bound the recursion and
    # the whole transaction must unwind cleanly.
    chain.set_receive_hook("bob", ReceiveHook(owner="bob", calls=(
        HookCall(module="native", method="transfer",
                 args=(("to", "bob"), ("amount", 1)), require_success=True),
    )))
    before = chain.digest()
    result = chain.transact("alice", "native", "transfer", {"to": "bob", "amount": 1})
    assert not result.ok
    assert result.error in {"HookReverted", "DepthExceeded"}
    assert chain.digest() == before


def test_bad_argument_names_revert_cleanly(world):
    state, handle = world
    result = state.transact("alice", handle.vault, "deposit_nft",
                            {"wrong_name": 1})
    assert not result.ok and result.error == "UnknownOperation"
    tx_err(state, "UnknownOperation", "alice", "nowhere", "do_thing")
    tx_err(state, "UnknownOperation", "alice", handle.vault, "snapshot_data")


def test_value_attach_rejected_for_nonpayable(world):
    state, handle = world
    tx_err(state, "NonPayable", "alice", handle.vault, "get_asset",
           value=5, token_id=1)
    assert native_total(state) == state.genesis_native_supply


def test_plain_send_to_module_rejected(world):
    state, handle = world
    tx_err(state, "NonPayable", "alice", "native", "transfer",
           to=handle.vault, amount=5)


# --------------------------------------------------------------------- #
# Fungible ledger
# --------------------------------------------------------------------- #

@pytest.fixture
def token(chain):
    from fracvault.tokens import FungibleToken
    chain.install_module(FungibleToken("tok", chain, "alice", "Token", "TOK"))
    tx(chain, "alice", "tok", "mint", to="alice", amount=1000)
    return chain


def test_transfer_full_balance(token):
    tx(token, "alice", "tok", "transfer", to="bob", amount=1000)
    assert token.fungible_balance("tok", "alice") == 0
    assert token.fungible_balance("tok", "bob") == 1000


def test_transfer_more_than_balance(token):
    tx(token, "alice", "tok", "transfer", to="bob", amount=990)
    tx_err(token, "InsufficientBalance", "bob", "tok", "transfer", to="carol", amount=991)


def test_allowance_sequential_bookkeeping(token):
    # Oracle: allowance decrements follow every successful transferFrom.
    tx(token, "alice", "tok", "approve", spender="bob", amount=50)
    tx(token, "bob", "tok", "transfer_from", frm="alice", to="carol", amount=30)
    assert token.fungible_allowance("tok", "alice", "bob") == 20
    tx_err(token, "InsufficientAllowance", "bob", "tok", "transfer_from",
           frm="alice", to="carol", amount=30)
    assert token.fungible_allowance("tok", "alice", "bob") == 20


def test_transfer_to_zero_rejected(token):
    tx_err(token, "ZeroAddressRecipient", "alice", "tok", "transfer",
           to=ZERO_ADDRESS, amount=1)


def test_supply_tracks_mint_and_burn(token):
    assert token.fungible_supply("tok") == 1000
    tx(token, "alice", "tok", "burn_from", frm="alice", amount=400)
    assert token.fungible_supply("tok") == 600
    assert token.fungible_balance("tok", "alice") == 600


# --------------------------------------------------------------------- #
# NFT ledger
# --------------------------------------------------------------------- #

@pytest.fixture
def gallery(chain):
    from fracvault.tokens import NftCollection
    chain.install_module(NftCollection("art", chain, "alice", "Art"))
    tx(chain, "alice", "art", "mint", to="alice", token_id=1)
    return chain


def test_owner_transfers_own_token(gallery):
    tx(gallery, "alice", "art", "transfer", token_id=1, to="bob")
    assert gallery.nft_owner("art", 1) == "bob"


def test_non_owner_cannot_transfer(gallery):
    tx_err(gallery, "NotOwnerNorApproved", "bob", "art", "transfer",
           token_id=1, to="bob")


def test_approved_operator_transfer_clears_approval(gallery):
    # Oracle: reference semantics on a two-account micro ledger; the
    # approval must be consumed by the transfer.
    tx(gallery, "alice", "art", "approve", token_id=1, spender="bob")
    assert gallery.nft["art"].approvals[1] == "bob"
    tx(gallery, "bob", "art", "transfer", token_id=1, to="carol")
    assert gallery.nft_owner("art", 1) == "carol"
    assert 1 not in gallery.nft["art"].approvals
    tx_err(gallery, "NotOwnerNorApproved", "bob", "art", "transfer",
           token_id=1, to="bob")


def test_unknown_token(gallery):
    tx_err(gallery, "UnknownToken", "alice", "art", "transfer", token_id=99, to="bob")


def test_single_ownership_held(gallery):
    owners = gallery.nft["art"].owners
    assert list(owners) == [1] and owners[1] == "alice"


# --------------------------------------------------------------------- #
# Clock
# --------------------------------------------------------------------- #

def test_clock_zero_advance(chain):
    assert chain.advance_clock(0) == 0


def test_clock_seven_days(chain):
    assert chain.advance_clock(604_800) == 604_800


def test_clock_additivity(chain):
    chain.advance_clock(5)
    chain.advance_clock(7)
    assert chain.clock == 12


def test_clock_never_rewinds(chain):
    with pytest.raises(ValueError):
        chain.advance_clock(-1)


# --------------------------------------------------------------------- #
# Frames: snapshot / rollback
# --------------------------------------------------------------------- #

def test_rollback_restores_balance(chain):
    frame = chain.snapshot()
    chain.jset(chain.native, "alice", 5)
    assert chain.native["alice"] == 5
    chain.rollback(frame)
    assert chain.native["alice"] == 1_000_000


def test_nested_frame_rollback_keeps_parent_mutations(chain):
    # Oracle: diff against a copy taken between the two frames.
    outer = chain.snapshot()
    chain.jset(chain.native, "alice", 111)
    between = copy.deepcopy(chain.native)
    inner = chain.snapshot()
    chain.jset(chain.native, "bob", 222)
    chain.jset(chain.native, "alice", 333)
    chain.rollback(inner)
    assert chain.native == between
    chain.rollback(outer)
    assert chain.native["alice"] == 1_000_000


def test_rollback_twice_is_unknown_frame(chain):
    frame = chain.snapshot()
    chain.rollback(frame)
    with pytest.raises(errors.UnknownFrame):
        chain.rollback(frame)


def test_rolled_back_events_vanish(world):
    state, handle = world
    count = len(state.events)
    digest = state.digest()
    # deposit of a foreign token fails after approval events would have fired
    result = state.transact("alice", handle.vault, "deposit_nft",
                            {"nft_address": "somewhere", "token_id": 1})
    assert not result.ok
    assert len(state.events) == count
    assert state.digest() == digest


def test_revert_atomicity_with_partial_writes(world):
    # Batch deposit fails on the second item after the first fully applied.
    state, handle = world
    before = state.digest()
    result = state.transact("alice", handle.vault, "deposit_nfts",
                            {"token_ids": [1, 1]})
    assert not result.ok and result.error == "NotOwner"
    assert state.digest() == before


def test_non_ledger_error_rolls_back_and_propagates(world, monkeypatch):
    # A fault inside a module (here after a nested mint and an NFT transfer
    # committed) must not leave the world half-written or wedged.
    state, handle = world
    original = Vault.deposit_nft

    def faulty_deposit(self, state, ctx, nft_address, token_id):
        original(self, state, ctx, nft_address, token_id)
        raise ValueError("planted fault")

    monkeypatch.setattr(Vault, "deposit_nft", faulty_deposit)
    before = state.digest()
    with pytest.raises(ValueError, match="planted fault"):
        state.transact("alice", handle.vault, "deposit_nft",
                       {"nft_address": handle.collection, "token_id": 1})
    assert state.digest() == before
    monkeypatch.undo()
    tx(state, "alice", handle.vault, "deposit_nft",
       nft_address=handle.collection, token_id=1)


class _Guarded(Module):
    """Methods that take the module's reentrancy lock."""

    exposed = frozenset({"reenter", "fail", "fault", "ping"})

    def reenter(self, state, ctx):
        with state.reentrancy_lock(self.module_id):
            return state.call(ctx, self.module_id, "ping")

    def fail(self, state, ctx):
        with state.reentrancy_lock(self.module_id):
            raise errors.InvalidAmount("planted revert")

    def fault(self, state, ctx):
        with state.reentrancy_lock(self.module_id):
            raise ValueError("planted fault")

    def ping(self, state, ctx):
        with state.reentrancy_lock(self.module_id):
            return "pong"


def test_reentered_guard_raises_and_a_raising_guard_releases(chain):
    chain.install_module(_Guarded("guarded"))
    result = tx_err(chain, "Reentered", "alice", "guarded", "reenter")
    assert result.error_message == "guarded.nonreentrant already held"
    tx_err(chain, "InvalidAmount", "alice", "guarded", "fail")
    assert tx(chain, "alice", "guarded", "ping") == "pong"
    with pytest.raises(ValueError, match="planted fault"):
        chain.transact("alice", "guarded", "fault")
    assert tx(chain, "alice", "guarded", "ping") == "pong"
    assert chain._locks == set()


def test_rolled_back_vote_restores_the_proposal_object(proposal_world):
    state, handle = proposal_world
    proposals = handle.governance_module(state).proposals
    before = proposals[0]
    frame = state.snapshot()
    state.call(ExecutionContext("alice"), handle.governance, "vote",
               {"proposal_id": 0, "support": True})
    assert proposals[0] is not before
    assert proposals[0].voters == {"alice": 1_000}
    state.rollback(frame)
    assert proposals[0] is before
    assert before.voters == {} and before.total_votes_cast == 0


def test_write_set_of_committed_and_reverted_transactions(chain):
    tx(chain, "alice", "native", "transfer", to="bob", amount=7)
    assert [(c is chain.native, k) for c, k, _ in chain.last_writes] == \
        [(True, "alice"), (True, "bob")]
    tx_err(chain, "InsufficientNative", "alice", "native", "transfer",
           to="bob", amount=10**12)
    assert chain.last_writes == ()


# --------------------------------------------------------------------- #
# Determinism
# --------------------------------------------------------------------- #

def test_identical_runs_identical_digests():
    def run():
        state = ChainState()
        state.fund("a", 100)
        state.fund("b", 100)
        from fracvault.tokens import FungibleToken
        state.install_module(FungibleToken("t", state, "a", "T", "T"))
        state.transact("a", "t", "mint", {"to": "a", "amount": 7})
        state.transact("a", "t", "transfer", {"to": "b", "amount": 3})
        state.transact("a", "native", "transfer", {"to": "b", "amount": 9})
        state.advance_clock(60)
        return state

    one, two = run(), run()
    assert one.digest() == two.digest()
    assert [e.as_data() for e in one.events] == [e.as_data() for e in two.events]
