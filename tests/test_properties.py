"""Suite behavior: green on the hardened build, each built-in mutant flagged
by at least one property with a replayable minimized trace, equal to the
trace of ddmin replaying from genesis."""

from __future__ import annotations

import pytest

from fracvault import fuzz, properties
from fracvault.ddmin import run_checked
from fracvault.mutations import MUTANTS
from fracvault.properties import (ALL_PROPERTIES, PINNED_PROPERTIES,
                                  PropertyResult, replay_property_trace,
                                  run_property, run_suite)

from helpers import counting_reruns, genesis_ddmin

EXPECTED_DETECTORS = {
    "drop-burn-before-pay": {"redemption_double_withdrawal",
                             "escrow_conservation", "attack_reenter_redeem"},
    "drop-reentrancy-guard": {"reentrancy_guard_probe"},
    "drop-quorum-check": {"quorum_not_met_rejected"},
    "drop-only-vault": {"mint_authorization", "burn_authorization"},
    "drop-slippage-check": {"trade_execution"},
    "drop-set-once-governance": {"governance_singleton"},
}


def test_paper_property_names_pinned():
    assert len(PINNED_PROPERTIES) == 14
    assert set(PINNED_PROPERTIES) <= set(ALL_PROPERTIES)


def test_healthy_suite_green():
    report = run_suite(seed=3, steps=400)
    assert report.passed, [r.as_data() for r in report.failures()]


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_each_mutant_flagged_with_replayable_trace(mutant):
    report = run_suite(seed=3, steps=400, mutant=mutant)
    failures = report.failures()
    assert failures, f"{mutant} slipped through the suite"
    assert {f.name for f in failures} & EXPECTED_DETECTORS[mutant]
    traced = [f for f in failures if f.trace]
    assert traced, f"{mutant} produced no replayable trace"
    failure = traced[0]
    assert replay_property_trace(failure.name, failure.trace, mutant)
    # the same trace must be harmless on the hardened build
    assert not replay_property_trace(failure.name, failure.trace)


def test_property_traces_are_minimal():
    report = run_suite(seed=3, steps=400, mutant="drop-quorum-check",
                       names=("quorum_not_met_rejected",))
    failure = report.failures()[0]
    trace = failure.trace
    assert replay_property_trace(failure.name, trace, "drop-quorum-check")
    for i in range(len(trace)):
        candidate = trace[:i] + trace[i + 1:]
        assert not candidate or not replay_property_trace(
            failure.name, candidate, "drop-quorum-check")


def test_suite_reports_deterministic():
    from fracvault.ledger import canonical_json, normalize
    one = run_suite(seed=9, steps=200)
    two = run_suite(seed=9, steps=200)
    assert canonical_json(normalize(one.as_data())) == \
        canonical_json(normalize(two.as_data()))


def test_single_property_runner():
    result = run_property("anti_sniping_extension", seed=4, steps=250)
    assert result.passed and result.steps == 250


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_checkpointed_minimize_equals_genesis_ddmin(monkeypatch, mutant):
    calls = []
    original = properties._minimize

    def recording(campaign, mutant, actions):
        trace = original(campaign, mutant, actions)
        calls.append((campaign, mutant, list(actions), trace))
        return trace

    monkeypatch.setattr(properties, "_minimize", recording)
    run_suite(seed=0, steps=400, mutant=mutant)
    assert calls
    for campaign, mutant, actions, trace in calls:
        assert trace == genesis_ddmin(actions, lambda candidate: properties._replay_fails(
            campaign, mutant, candidate)), campaign.name


def test_campaign_failing_after_the_window_shrinks_its_rebuilt_trace(monkeypatch):
    # seed 0 fails escrow_conservation under drop-burn-before-pay at its
    # 68th step: a run that keeps 20 actions rebuilds the rest from the seed
    name, mutant = "escrow_conservation", "drop-burn-before-pay"
    campaign = properties._CAMPAIGNS[name]()
    recorded, executed, detail, _ = run_checked(
        *properties._fresh_run(campaign, 0, mutant), 400, None)
    assert executed == 68
    reference = genesis_ddmin(list(recorded), lambda candidate: properties._replay_fails(
        campaign, mutant, candidate))
    monkeypatch.setattr(fuzz, "SHRINK_WINDOW", 20)
    reruns = counting_reruns(monkeypatch, properties)
    result = run_property(name, seed=0, steps=400, mutant=mutant)
    assert reruns == [executed]
    assert result.as_data() == PropertyResult(
        name, False, executed, detail, reference).as_data()


# the full digest and the hooked accounts of each campaign's start world
_TOKEN = "7f3258c218f884f1b7f495e0bdfe668b3bed59ca59ebe18f5f61a7d6fcd80671"
_NFT = "1d5bb4b915fcf22cc9a51f0a0dea18ef9abc918fb685a549d95400fd0ba5ff44"
_SOLD = "1b988e964f938bc333419770772d17ec8666c27185882d693212c58e18b23063"
START_WORLDS = {
    "mint_authorization": (_TOKEN, []),
    "burn_authorization": (_TOKEN, []),
    "total_supply_constant": (_TOKEN, []),
    "governance_singleton": (_TOKEN, []),
    "positive_auction_duration": (
        "a1b2d7a92bb54bf647d8f823165cb1dfc463dfbe120b96e1a2ad00d9b4b150cf", []),
    "royalty_percent_range": (_TOKEN, []),
    "withdrawal_balance_check": (_SOLD, []),
    "original_owner_recorded": (_NFT, []),
    "voting_increases_votes": (
        "9c66080092913d7a161c665c6657f5e265e4a6bbd1245fe75e36207037058e13", []),
    "quorum_not_met_rejected": (_TOKEN, []),
    "create_proposal_ids": (
        "6f51d17099592da7a957387a1c761cd30a11032e962830bfe7239079610c0d42", []),
    "liquidity_maintenance": (
        "c4678bccc52e2222659439778a4f3512a6a26a136c421c0e6f39551520d1c40d", []),
    "trade_execution": (
        "9aef8603b8c642032bee388488dc65e0a66d63621c08dc0174cdbdcaf4f1d413", []),
    "supply_management": (
        "1e2f703c97245427615ff131b48fd6378742b7b599075e5c8af6a89b589ef23f", []),
    "escrow_conservation": (_NFT, []),
    "redemption_double_withdrawal": (_SOLD, ["a1"]),
    "reentrancy_guard_probe": (_SOLD, ["a1"]),
    "checks_effects_observable": (_SOLD, ["a1"]),
    "anti_sniping_extension": (
        "5758803976fc25be938b91993cef98ac10e7a0efd428c5897876cf8fbad58327", []),
    "revert_atomicity": (_NFT, []),
    "timelock_delay_enforced": (_TOKEN, []),
    "authorization_chain": (_TOKEN, []),
}


@pytest.mark.parametrize("name", sorted(START_WORLDS))
def test_campaign_start_worlds_pinned(name):
    state = properties._CAMPAIGNS[name]().replay(None).state
    assert (state.full_digest(), sorted(state.hooks)) == START_WORLDS[name]


def test_every_campaign_start_world_is_pinned():
    assert sorted(START_WORLDS) == sorted(properties._CAMPAIGNS)
