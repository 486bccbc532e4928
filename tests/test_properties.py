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
