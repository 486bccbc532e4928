"""Attack scenarios must net exactly zero against the hardened system and
turn profitable (or blocked) in the expected way under the matching mutant."""

from __future__ import annotations

import hashlib

import pytest

from fracvault.attackers import ATTACKS, run_attack
from fracvault.ledger import canonical_json, normalize
from fracvault.mutations import HEALTHY, MUTANTS

# the one (strategy, mutant) pair that nets anything: a redemption that pays
# before it burns lets the reentrant hook redeem the same fractions twice
EXPLOITS = {("ReenterRedeem", "drop-burn-before-pay"): (475_000, 0)}


@pytest.mark.parametrize("strategy, mutant", [
    pytest.param(strategy, mutant, id=strategy if mutant is None
                 else f"{strategy}-{mutant}")
    for mutant in (None, *sorted(MUTANTS)) for strategy in sorted(ATTACKS)])
def test_attacks_neutralized_on_hardened_system(strategy, mutant):
    report = run_attack(strategy, MUTANTS[mutant] if mutant else HEALTHY)
    assert (report.net_native_gain, report.net_fraction_gain) == \
        EXPLOITS.get((strategy, mutant), (0, 0))


def test_attack_reports_pinned():
    """sha256 over the canonical JSON of every strategy's report, healthy
    and under each mutant."""
    digest = hashlib.sha256()
    for mutant in (None, *sorted(MUTANTS)):
        for strategy in sorted(ATTACKS):
            report = run_attack(strategy, MUTANTS[mutant] if mutant else HEALTHY)
            digest.update(canonical_json(normalize(report.as_data())).encode())
    assert digest.hexdigest() == \
        "95455fa0ddb9c9b73ccf37b19deeece5c745b1314c5ba499630f8e1fce74f259"


def test_reenter_withdraw_probe_sees_guard():
    report = run_attack("ReenterWithdraw")
    observed = dict(map(tuple, report.details["hook_observed"]))
    assert observed["withdraw_pending"] == "error:Reentered"


def test_double_redeem_second_call_rejected():
    report = run_attack("DoubleRedeem")
    assert report.details["second_redeem_rejected"]
    assert report.details["outcomes"][1] == "InsufficientFractions"


def test_reject_payment_settles_and_keeps_claim():
    report = run_attack("RejectPayment")
    assert report.details["settlement_committed"]
    assert report.details["withdraw_error"] == "TransferFailed"
    assert report.details["royalty_still_claimable"] > 0


def test_bid_sniper_extension_and_refund():
    report = run_attack("BidSniper")
    assert report.details["extension_seconds"] == 900
    assert report.details["winner"] == "a2"
    assert report.details["sniper_refund"] == 150


def test_governance_spammer_changes_nothing():
    report = run_attack("GovernanceSpammer")
    assert report.details["params_unchanged"]
    assert report.details["outcomes"][:5] == ["BelowThreshold"] * 5
    assert report.details["outcomes"][-1] == "QuorumNotMet"


def test_reenter_redeem_profits_under_legacy_redeem_mutant():
    report = run_attack("ReenterRedeem", MUTANTS["drop-burn-before-pay"])
    assert report.net_native_gain > 0  # the regression is exploitable
