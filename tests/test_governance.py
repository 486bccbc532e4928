"""Governance lifecycle: thresholds, voting, the strict 50 percent quorum
boundary, timelock scheduling and guardian cancellation."""

from __future__ import annotations

import pytest

from fracvault import standard_world

from helpers import tx, tx_err

DAY = 86_400


@pytest.fixture
def gov_world():
    """1000 fraction supply spread alice 400 / bob 350 / carol 250."""
    state, handle = standard_world(
        {"alice": 10_000, "bob": 10_000, "carol": 10_000})
    tx(state, "deployer", handle.collection, "mint", to="alice", token_id=1)
    tx(state, "alice", handle.vault, "deposit_nft",
       nft_address=handle.collection, token_id=1)
    tx(state, "alice", handle.fractions, "transfer", to="bob", amount=350)
    tx(state, "alice", handle.fractions, "transfer", to="carol", amount=250)
    return state, handle


def propose(state, handle, sender="alice", kind="set_auction_duration",
            args=None, period=DAY):
    return tx(state, sender, handle.governance, "create_proposal",
              description="update a vault parameter", target=handle.vault,
              action={"kind": kind, "args": args or {"seconds": 86_400}},
              voting_period=period)


def test_create_at_threshold(gov_world):
    state, handle = gov_world
    # threshold is 1 percent of 1000 supply: ten fractions
    assert tx(state, "alice", handle.governance, "proposal_threshold") == 10
    tx(state, "carol", handle.fractions, "transfer", to="dave", amount=10)
    pid = propose(state, handle, sender="dave")
    assert pid == 0


def test_create_below_threshold(gov_world):
    state, handle = gov_world
    tx(state, "carol", handle.fractions, "transfer", to="dave", amount=9)
    tx_err(state, "BelowThreshold", "dave", handle.governance, "create_proposal",
           description="x", target=handle.vault,
           action={"kind": "cancel_auction", "args": {"token_id": 1}},
           voting_period=DAY)


def test_proposal_ids_increment(gov_world):
    state, handle = gov_world
    assert [propose(state, handle) for _ in range(3)] == [0, 1, 2]
    assert tx(state, "alice", handle.governance, "proposal_count") == 3


def test_zero_voting_period(gov_world):
    state, handle = gov_world
    tx_err(state, "ZeroVotingPeriod", "alice", handle.governance, "create_proposal",
           description="x", target=handle.vault,
           action={"kind": "set_royalty_percent", "args": {"percent": 1}},
           voting_period=0)


def test_invalid_targets(gov_world):
    state, handle = gov_world
    tx_err(state, "InvalidTarget", "alice", handle.governance, "create_proposal",
           description="x", target="nowhere",
           action={"kind": "set_royalty_percent", "args": {"percent": 1}},
           voting_period=DAY)
    tx_err(state, "InvalidTarget", "alice", handle.governance, "create_proposal",
           description="x", target=handle.market,
           action={"kind": "set_royalty_percent", "args": {"percent": 1}},
           voting_period=DAY)
    tx_err(state, "InvalidTarget", "alice", handle.governance, "create_proposal",
           description="x", target=handle.vault,
           action={"kind": "mystery_action"}, voting_period=DAY)


def test_vote_weight_is_balance(gov_world):
    state, handle = gov_world
    pid = propose(state, handle)
    tx(state, "bob", handle.governance, "vote", proposal_id=pid, support=True)
    info = tx(state, "alice", handle.governance, "proposal_info", proposal_id=pid)
    assert info["votes_for"] == 350
    assert info["total_votes_cast"] == 350
    assert info["votes_for"] + info["votes_against"] == info["total_votes_cast"]


def test_vote_once_per_address(gov_world):
    state, handle = gov_world
    pid = propose(state, handle)
    tx(state, "bob", handle.governance, "vote", proposal_id=pid, support=True)
    tx_err(state, "AlreadyVoted", "bob", handle.governance, "vote",
           proposal_id=pid, support=False)


def test_vote_after_deadline(gov_world):
    state, handle = gov_world
    pid = propose(state, handle)
    state.advance_clock(DAY)
    tx_err(state, "VotingClosed", "bob", handle.governance, "vote",
           proposal_id=pid, support=True)


def test_vote_without_balance(gov_world):
    state, handle = gov_world
    pid = propose(state, handle)
    tx_err(state, "ZeroWeight", "dave", handle.governance, "vote",
           proposal_id=pid, support=True)


def test_vote_unknown_proposal(gov_world):
    state, handle = gov_world
    tx_err(state, "UnknownProposal", "bob", handle.governance, "vote",
           proposal_id=7, support=True)


def test_quorum_boundary_strict_majority_of_supply(gov_world):
    # supply 1000: 500 votes cast fails quorum, 501 schedules
    state, handle = gov_world
    tx(state, "bob", handle.fractions, "transfer", to="dave", amount=350)
    tx(state, "carol", handle.fractions, "transfer", to="dave", amount=150)
    pid_fail = propose(state, handle)
    tx(state, "dave", handle.governance, "vote", proposal_id=pid_fail, support=True)
    state.advance_clock(DAY)
    tx_err(state, "QuorumNotMet", "alice", handle.governance, "execute_proposal",
           proposal_id=pid_fail)

    pid_exact = propose(state, handle)
    tx(state, "dave", handle.governance, "vote", proposal_id=pid_exact, support=True)
    tx(state, "carol", handle.fractions, "transfer", to="erin", amount=1)
    tx(state, "erin", handle.governance, "vote", proposal_id=pid_exact, support=True)
    info = tx(state, "alice", handle.governance, "proposal_info",
              proposal_id=pid_exact)
    assert info["total_votes_cast"] == 501
    state.advance_clock(DAY)
    assert tx(state, "alice", handle.governance, "execute_proposal",
              proposal_id=pid_exact) == "Scheduled"


def test_quorum_uses_supply_at_creation(gov_world):
    # supply doubles after creation; quorum still judges against 1000
    state, handle = gov_world
    pid = propose(state, handle)
    info = tx(state, "alice", handle.governance, "proposal_info", proposal_id=pid)
    assert info["supply_at_creation"] == 1000
    tx(state, "deployer", handle.collection, "mint", to="dave", token_id=9)
    tx(state, "dave", handle.vault, "deposit_nft",
       nft_address=handle.collection, token_id=9)
    assert state.fungible_supply(handle.fractions) == 2000
    tx(state, "alice", handle.governance, "vote", proposal_id=pid, support=True)  # 400
    tx(state, "carol", handle.governance, "vote", proposal_id=pid, support=True)  # 250
    state.advance_clock(DAY)
    # 650 cast beats 1000 // 2 even though half of the current supply is 1000
    assert tx(state, "bob", handle.governance, "execute_proposal",
              proposal_id=pid) == "Scheduled"


def test_execute_before_deadline(gov_world):
    state, handle = gov_world
    pid = propose(state, handle)
    tx(state, "alice", handle.governance, "vote", proposal_id=pid, support=True)
    tx_err(state, "VotingOpen", "alice", handle.governance, "execute_proposal",
           proposal_id=pid)


def test_defeated_majority(gov_world):
    state, handle = gov_world
    pid = propose(state, handle)
    tx(state, "alice", handle.governance, "vote", proposal_id=pid, support=True)   # 400
    tx(state, "bob", handle.governance, "vote", proposal_id=pid, support=False)    # 350
    tx(state, "carol", handle.governance, "vote", proposal_id=pid, support=False)  # 250
    state.advance_clock(DAY)
    tx_err(state, "Defeated", "alice", handle.governance, "execute_proposal",
           proposal_id=pid)


def test_full_execution_applies_action_after_delay(gov_world):
    state, handle = gov_world
    pid = propose(state, handle, kind="set_auction_duration",
                  args={"seconds": 42_000})
    tx(state, "alice", handle.governance, "vote", proposal_id=pid, support=True)
    tx(state, "bob", handle.governance, "vote", proposal_id=pid, support=True)
    state.advance_clock(DAY)
    assert tx(state, "carol", handle.governance, "execute_proposal",
              proposal_id=pid) == "Scheduled"
    entry = tx(state, "carol", handle.timelock, "entry_of", proposal_id=pid)
    assert entry["ready_at"] == entry["scheduled_at"] + 172_800
    tx_err(state, "TimelockPending", "carol", handle.governance,
           "execute_proposal", proposal_id=pid)
    state.advance_clock(172_800)
    assert tx(state, "carol", handle.governance, "execute_proposal",
              proposal_id=pid) == "Executed"
    assert handle.vault_module(state).auction_duration == 42_000
    tx_err(state, "AlreadyExecuted", "carol", handle.governance,
           "execute_proposal", proposal_id=pid)
    entry = tx(state, "carol", handle.timelock, "entry_of", proposal_id=pid)
    assert entry["executed_at"] - entry["scheduled_at"] >= 172_800


def test_narrow_majority_executes(gov_world):
    # 600 of 1000 cast, 301 for and 299 against: quorum and majority both met
    state, handle = gov_world
    tx(state, "alice", handle.fractions, "transfer", to="yes", amount=301)
    tx(state, "bob", handle.fractions, "transfer", to="no", amount=299)
    pid = propose(state, handle, kind="set_royalty_percent", args={"percent": 9})
    tx(state, "yes", handle.governance, "vote", proposal_id=pid, support=True)
    tx(state, "no", handle.governance, "vote", proposal_id=pid, support=False)
    info = tx(state, "alice", handle.governance, "proposal_info", proposal_id=pid)
    assert (info["total_votes_cast"], info["votes_for"],
            info["votes_against"]) == (600, 301, 299)
    state.advance_clock(DAY)
    assert tx(state, "carol", handle.governance, "execute_proposal",
              proposal_id=pid) == "Scheduled"
    state.advance_clock(172_800)
    assert tx(state, "carol", handle.governance, "execute_proposal",
              proposal_id=pid) == "Executed"
    assert handle.vault_module(state).royalty_percent == 9


def test_timelock_boundary_inclusive(gov_world):
    state, handle = gov_world
    pid = propose(state, handle)
    tx(state, "alice", handle.governance, "vote", proposal_id=pid, support=True)
    tx(state, "bob", handle.governance, "vote", proposal_id=pid, support=True)
    state.advance_clock(DAY)
    tx(state, "carol", handle.governance, "execute_proposal", proposal_id=pid)
    state.advance_clock(172_800)  # exactly the delay: ready
    assert tx(state, "carol", handle.governance, "execute_proposal",
              proposal_id=pid) == "Executed"


def test_guardian_cancels_scheduled(gov_world):
    state, handle = gov_world
    pid = propose(state, handle, kind="set_royalty_percent", args={"percent": 0})
    tx(state, "alice", handle.governance, "vote", proposal_id=pid, support=True)
    tx(state, "bob", handle.governance, "vote", proposal_id=pid, support=True)
    state.advance_clock(DAY)
    tx(state, "carol", handle.governance, "execute_proposal", proposal_id=pid)
    tx_err(state, "NotGuardian", "alice", handle.governance, "cancel_scheduled",
           proposal_id=pid)
    tx(state, "deployer", handle.governance, "cancel_scheduled", proposal_id=pid)
    state.advance_clock(172_800)
    tx_err(state, "Cancelled", "carol", handle.governance, "execute_proposal",
           proposal_id=pid)
    assert handle.vault_module(state).royalty_percent == 5  # untouched
    tx_err(state, "NotScheduled", "deployer", handle.governance,
           "cancel_scheduled", proposal_id=pid)


def test_cancel_before_scheduling(gov_world):
    state, handle = gov_world
    pid = propose(state, handle)
    tx_err(state, "NotScheduled", "deployer", handle.governance,
           "cancel_scheduled", proposal_id=pid)


def test_governed_cancel_auction_roundtrip(gov_world):
    # a full governance path driving the vault's auction cancellation
    state, handle = gov_world
    tx(state, "bob", handle.vault, "start_auction",
       asset_address=handle.collection, token_id=1, starting_price=1,
       duration=30 * DAY)
    tx(state, "carol", handle.vault, "place_bid", token_id=1, value=77)
    pid = propose(state, handle, kind="cancel_auction", args={"token_id": 1})
    tx(state, "alice", handle.governance, "vote", proposal_id=pid, support=True)
    tx(state, "bob", handle.governance, "vote", proposal_id=pid, support=True)
    state.advance_clock(DAY)
    tx(state, "dave", handle.governance, "execute_proposal", proposal_id=pid)
    state.advance_clock(172_800)
    tx(state, "dave", handle.governance, "execute_proposal", proposal_id=pid)
    vault = handle.vault_module(state)
    assert not vault.auctions[1].active
    assert vault.pending["carol"] == 77


def test_generic_action_rejected_at_creation(gov_world):
    state, handle = gov_world
    result = tx_err(state, "InvalidTarget", "alice", handle.governance,
                    "create_proposal", description="opaque call",
                    target=handle.market,
                    action={"kind": "generic", "args": {"payload": "0xdead"}},
                    voting_period=DAY)
    assert "unknown action kind 'generic'" in result.error_message
    assert handle.governance_module(state).proposals == []


@pytest.mark.parametrize("action, message", [
    ("set_auction_duration", "action needs a kind"),
    ({"kind": "set_auction_duration", "args": [86_400]}, "action args must be an object"),
], ids=["string-action", "list-args"])
def test_malformed_action_rejected_at_creation(gov_world, action, message):
    state, handle = gov_world
    result = tx_err(state, "InvalidTarget", "alice", handle.governance,
                    "create_proposal", description="malformed", target=handle.vault,
                    action=action, voting_period=DAY)
    assert message in result.error_message
    assert handle.governance_module(state).proposals == []
