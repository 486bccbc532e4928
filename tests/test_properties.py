"""Suite behavior: green on the hardened build, each built-in mutant flagged
by at least one property with a replayable minimized trace, equal to the
trace of ddmin replaying from genesis."""

from __future__ import annotations

import os
import sys
import time
from dataclasses import replace

import pytest

from fracvault import fuzz, ledger, properties
from fracvault.ddmin import run_checked
from fracvault.ledger import canonical_json, normalize
from fracvault.mutations import MUTANTS
from fracvault.peer import PEER_MIN_STEPS
from fracvault.properties import (ALL_PROPERTIES, PINNED_PROPERTIES,
                                  PropertyResult, replay_property_trace,
                                  run_property, run_suite)

from conftest import assert_no_child_left
from helpers import assert_folds_by_the_rule, counting_reruns, genesis_ddmin, held_events

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
    one = run_suite(seed=9, steps=200)
    two = run_suite(seed=9, steps=200)
    assert _report_bytes(one) == _report_bytes(two)


def _report_bytes(report) -> str:
    return canonical_json(normalize(report.as_data()))


# --------------------------------------------------------------------- #
# The suite on two processes against the suite on one
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("mutant", [None, *sorted(MUTANTS)])
def test_two_process_suite_reports_what_one_process_reports(monkeypatch, two_cpus,
                                                            mutant, seed):
    assert 400 * len(ALL_PROPERTIES) >= PEER_MIN_STEPS
    two = _report_bytes(run_suite(seed=seed, steps=400, mutant=mutant))
    # the suite's fork alone: a minimization of at least PEER_MIN_ACTIONS
    # actions (at seed 3 under drop-burn-before-pay, escrow_conservation's
    # 332) stays in the process that drew it while the suite is shared
    assert two_cpus == [os.getpid()]
    assert_no_child_left()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert _report_bytes(run_suite(seed=seed, steps=400, mutant=mutant)) == two
    assert two_cpus == [os.getpid()]


def test_a_suite_under_the_threshold_or_of_one_property_makes_no_fork(two_cpus):
    names = ("mint_authorization", "attack_reenter_withdraw")
    assert 50 * len(names) < PEER_MIN_STEPS
    assert not run_suite(seed=0, steps=50, mutant="drop-only-vault", names=names).passed
    assert run_suite(seed=0, steps=PEER_MIN_STEPS,
                     names=("total_supply_constant",)).passed
    assert two_cpus == []


def _log_runs(monkeypatch, forks, log, raising=(), peer_exits=False):
    """Patch ``run_property`` to append each run's process and property to
    ``log`` and then raise ValueError for the names in ``raising`` or, in a
    forked peer if ``peer_exits``, end the peer.  Once the suite has forked,
    its own process waits until the peer has logged a run, so each process
    runs at least one property."""
    original = properties.run_property
    suite = os.getpid()

    def run(name, seed, steps, mutant):
        while forks and os.getpid() == suite and not log.exists():
            time.sleep(0.001)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {name}\n")
        if name in raising:
            raise ValueError(f"{name} raised")
        if peer_exits and os.getpid() != suite:
            os._exit(3)
        return original(name, seed, steps, mutant)

    monkeypatch.setattr(properties, "run_property", run)


def _logged(log) -> list[tuple[int, str]]:
    runs = [line.split() for line in log.read_text().splitlines()]
    log.unlink()
    return [(int(pid), name) for pid, name in runs]


@pytest.mark.parametrize("names", [("burn_authorization", "mint_authorization"),
                                   ("mint_authorization", "burn_authorization")])
def test_a_raising_property_raises_what_one_process_raises(monkeypatch, two_cpus,
                                                           tmp_path, names):
    # both properties raise, one first in each process; the lowest index's
    # exception escapes, raised again by the suite's process
    log = tmp_path / "runs"
    _log_runs(monkeypatch, two_cpus, log, raising=names)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    with pytest.raises(ValueError) as one:
        run_suite(seed=0, steps=PEER_MIN_STEPS, names=names)
    assert two_cpus == [] and _logged(log) == [(os.getpid(), names[0])]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with pytest.raises(ValueError) as two:
        run_suite(seed=0, steps=PEER_MIN_STEPS, names=names)
    assert str(two.value) == str(one.value) == f"{names[0]} raised"
    assert two_cpus == [os.getpid()]
    assert_no_child_left()
    *claimed, again = _logged(log)
    assert len({pid for pid, _ in claimed}) == 2 and (os.getpid(), names[0]) == again
    assert sorted(name for _, name in claimed) == sorted(names)


def test_properties_a_peer_never_reports_are_run_by_the_suite(monkeypatch, two_cpus,
                                                              tmp_path):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    expected = _report_bytes(run_suite(seed=3, steps=400, mutant="drop-only-vault"))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    log = tmp_path / "runs"
    _log_runs(monkeypatch, two_cpus, log, peer_exits=True)
    report = run_suite(seed=3, steps=400, mutant="drop-only-vault")
    assert _report_bytes(report) == expected
    assert two_cpus == [os.getpid()]
    assert_no_child_left()
    runs = _logged(log)
    # the peer ended in its first run, and the suite's process ran every
    # property once, the lost one included
    assert len([pid for pid, _ in runs if pid != os.getpid()]) == 1
    assert sorted(name for pid, name in runs if pid == os.getpid()) == \
        sorted(ALL_PROPERTIES)


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
    # in one process, or a forked peer's minimizations would miss the spy
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    run_suite(seed=0, steps=400, mutant=mutant)
    assert calls
    for campaign, mutant, actions, trace in calls:
        assert trace == genesis_ddmin(actions, lambda candidate: properties._replay_fails(
            campaign, mutant, candidate)), campaign.name


def test_campaign_failing_after_the_window_shrinks_its_rebuilt_trace(monkeypatch):
    # seed 0 fails escrow_conservation under drop-burn-before-pay at its
    # 68th step: a run that keeps 20 actions rebuilds the rest from the seed
    name, mutant = "escrow_conservation", "drop-burn-before-pay"
    campaign = properties._CAMPAIGNS[name]
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



def test_an_unjournaled_write_in_a_campaign_is_reported_by_the_end(monkeypatch, two_cpus):
    # the campaign's after hook credits each depositor a wei behind the
    # journal's back, which no write set shows: a full scan reports it, at
    # the latest at the last step, and a replay's last step scans in full
    name = "escrow_conservation"

    def after(state, handle, extras, action, result, token):
        if action.method == "deposit_nft" and result.ok:
            state.native[action.sender] += 1
        return None

    monkeypatch.setitem(properties._CAMPAIGNS, name,
                        replace(properties._CAMPAIGNS[name], after=after))
    two = run_property(name, seed=0, steps=400)
    # the 400-action trace is shrunk in lockstep with a forked peer
    assert two_cpus == [os.getpid()]
    assert_no_child_left()
    assert (two.passed, two.steps) == (False, 400)
    assert two.detail.startswith("native_conservation: native total")
    assert [action.method for action in two.trace] == ["deposit_nft"]
    assert replay_property_trace(name, two.trace)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert run_property(name, seed=0, steps=400).as_data() == two.as_data()
    assert two_cpus == [os.getpid()]

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
    state = properties._CAMPAIGNS[name].replay(None).state
    assert (state.full_digest(), sorted(state.hooks)) == START_WORLDS[name]


def test_every_campaign_start_world_is_pinned():
    assert sorted(START_WORLDS) == sorted(properties._CAMPAIGNS)


def _long_campaign(monkeypatch) -> tuple:
    """``supply_management`` at 2,000 steps, which commits more than three
    thousand events: its result, and the full digest of its world at the
    end."""
    worlds = []
    fresh_run = properties._fresh_run
    with monkeypatch.context() as patched:
        patched.setattr(properties, "_fresh_run",
                        lambda *args: worlds.append(fresh_run(*args)) or worlds[-1])
        result = run_property("supply_management", seed=0, steps=2_000)
    [(world, _)] = worlds
    return result.as_data(), world.state.full_digest()


def test_a_long_campaign_folds_its_log_and_runs_as_unfolded(monkeypatch):
    seen = held_events(monkeypatch)
    with monkeypatch.context() as patched:
        patched.setattr(ledger, "FOLD_EVENTS", sys.maxsize)
        unfolded = _long_campaign(monkeypatch)
        assert assert_folds_by_the_rule(seen) == 0
    assert sum(events for _, events, _ in seen) > 3 * ledger.FOLD_EVENTS
    seen.clear()
    assert _long_campaign(monkeypatch) == unfolded
    assert assert_folds_by_the_rule(seen) >= 3
