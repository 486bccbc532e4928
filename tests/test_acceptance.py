"""Acceptance gate: the nine release criteria, one test each, every run
printing its own pass/fail line.

Workloads run at their stated sizes (10^4 randomized transactions per
pinned property, 10^5 fuzz steps for conservation, 10^3 randomized
redemption schedules and bid timings, 10^4 trade-formula cases) with exact,
zero-tolerance assertions throughout.
"""

from __future__ import annotations

import random
import sys
import time
from contextlib import contextmanager

from click.testing import CliRunner

from fracvault import standard_world
from fracvault.attackers import run_attack
from fracvault.cli import main as cli_main
from fracvault.fuzz import FuzzPlan, run_fuzz
from fracvault.mutations import MUTANTS
from fracvault.properties import (PINNED_PROPERTIES, replay_property_trace,
                                  run_property, run_suite)
from fracvault.scenario import load_scenario, run_scenario

from helpers import tx, tx_err

SEED = 424_242


@contextmanager
def criterion(number: int, description: str):
    # written past pytest's capture so the line shows in any run mode
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}", file=sys.__stdout__)
        raise
    print(f"ACCEPTANCE {number} PASS: {description}", file=sys.__stdout__)


def test_criterion_1_property_suite_parity():
    with criterion(1, "all 14 pinned properties pass 10^4 randomized "
                      "transactions each in under 60s"):
        started = time.monotonic()
        report = run_suite(seed=SEED, steps=10_000, names=PINNED_PROPERTIES)
        elapsed = time.monotonic() - started
        failures = [(r.name, r.detail) for r in report.failures()]
        assert not failures, failures
        assert len(report.results) == 14
        assert all(r.steps == 10_000 for r in report.results)
        assert elapsed < 60, f"suite took {elapsed:.1f}s"


def _sold_redemption_world():
    state, handle = standard_world({a: 10**9 for a in ("s", "b")})
    tx(state, "deployer", handle.collection, "mint", to="s", token_id=1)
    tx(state, "s", handle.vault, "deposit_nft",
       nft_address=handle.collection, token_id=1)
    tx(state, "s", handle.vault, "start_auction",
       asset_address=handle.collection, token_id=1, starting_price=1,
       duration=1_000)
    tx(state, "b", handle.vault, "place_bid", token_id=1, value=1_000_003)
    state.advance_clock(1_000)
    tx(state, "b", handle.vault, "end_auction", token_id=1)
    return state, handle


def test_criterion_2_double_withdrawal_oracle():
    with criterion(2, "10^3 random redemption schedules: payouts total "
                      "proceeds minus sub-supply dust; DoubleRedeem nets 0"):
        rng = random.Random(SEED)
        for _ in range(1_000):
            state, handle = _sold_redemption_world()
            vault = handle.vault_module(state)
            proceeds = vault.sales[1].proceeds_total
            # split the 1000 fractions into a random full-redemption schedule
            holders, left = [], 1000
            while left:
                cut = rng.randint(1, left)
                holders.append(cut)
                left -= cut
            paid = 0
            for i, amount in enumerate(holders):
                holder = f"h{i}"
                tx(state, "s", handle.fractions, "transfer",
                   to=holder, amount=amount)
                payout = tx(state, holder, handle.vault, "redeem_fraction_value",
                            token_id=1, fraction_amount=amount)
                assert payout == amount * proceeds // 1000
                paid += payout
            dust = proceeds - paid
            assert paid <= proceeds
            assert 0 <= dust < 1000  # dust below one unit per fraction of supply
            assert vault.sales[1].proceeds_remaining == dust
        report = run_attack("DoubleRedeem")
        assert report.net_native_gain == 0 and report.net_fraction_gain == 0
        assert report.details["second_redeem_rejected"]


def test_criterion_3_reentrancy_oracle():
    with criterion(3, "reentrant withdraw/redeem attacks net exactly 0 and "
                      "hooks observe a zeroed pending balance"):
        for strategy in ("ReenterWithdraw", "ReenterRedeem"):
            report = run_attack(strategy)
            assert report.net_native_gain == 0, (strategy, report.as_data())
            assert report.net_fraction_gain == 0
        probe = run_property("checks_effects_observable", seed=SEED, steps=50)
        assert probe.passed, probe.detail
        guard = run_property("reentrancy_guard_probe", seed=SEED, steps=50)
        assert guard.passed, guard.detail


def test_criterion_4_conservation_over_long_fuzz():
    with criterion(4, "native conservation, ledger supply consistency and "
                      "the other six invariants hold across a 10^5-step fuzz run"):
        plan = FuzzPlan(seed=SEED, steps=100_000)
        report = run_fuzz(plan)
        assert report.ok, report.violations[0].detail if report.violations else ""
        assert report.steps_executed == 100_000
        assert report.commits > 20_000  # the run did real work


def _reference_amount_out(amount_in, input_reserve, output_reserve):
    amount_in_with_fee = amount_in * 9975
    numerator = amount_in_with_fee * output_reserve
    denominator = (input_reserve * 10_000) + amount_in_with_fee
    return numerator // denominator


def test_criterion_5_amm_oracle_equivalence():
    with criterion(5, "10^4 live trades match the independent big-integer "
                      "formula exactly and never shrink the reserve product"):
        from fracvault.ledger import ChainState
        from fracvault.market import Market
        from fracvault.tokens import FungibleToken
        state = ChainState()
        state.fund("lp", 0)
        state.fund("t", 0)
        state.install_module(FungibleToken("ta", state, "lp", "A", "A"))
        state.install_module(FungibleToken("tb", state, "lp", "B", "B"))
        state.install_module(Market("pool", state, "lp", "ta", "tb"))
        for who in ("lp", "t"):
            tx(state, "lp", "ta", "mint", to=who, amount=10**15)
            tx(state, "lp", "tb", "mint", to=who, amount=10**15)
            tx(state, who, "ta", "approve", spender="pool", amount=10**30)
            tx(state, who, "tb", "approve", spender="pool", amount=10**30)
        tx(state, "lp", "pool", "add_liquidity",
           amount_a=1_000_000, amount_b=3_000_000)
        market = state.modules["pool"]
        rng = random.Random(SEED)
        for _ in range(10_000):
            token_in = rng.choice(("ta", "tb"))
            reserve_in, reserve_out = (
                (market.reserve_a, market.reserve_b) if token_in == "ta"
                else (market.reserve_b, market.reserve_a))
            amount_in = rng.randrange(1, 500_000)
            expected = _reference_amount_out(amount_in, reserve_in, reserve_out)
            product_before = market.reserve_a * market.reserve_b
            got = tx(state, "t", "pool", "execute_trade", token_in=token_in,
                     amount_in=amount_in, min_amount_out=expected)
            assert got == expected
            assert market.reserve_a * market.reserve_b >= product_before


def test_criterion_6_governance_thresholds():
    with criterion(6, "supply 1000: 500 votes fail quorum and 501 pass; "
                      "executed proposals honor the full timelock delay"):
        state, handle = standard_world(
            {"alice": 10**6, "bob": 10**6, "carol": 10**6})
        tx(state, "deployer", handle.collection, "mint", to="alice", token_id=1)
        tx(state, "alice", handle.vault, "deposit_nft",
           nft_address=handle.collection, token_id=1)
        tx(state, "alice", handle.fractions, "transfer", to="bob", amount=500)
        tx(state, "alice", handle.fractions, "transfer", to="carol", amount=1)

        def proposal(period=600):
            return tx(state, "alice", handle.governance, "create_proposal",
                      description="threshold probe", target=handle.vault,
                      action={"kind": "set_royalty_percent",
                              "args": {"percent": 6}},
                      voting_period=period)

        # 500 of 1000 cast: strictly not more than half, rejected
        pid = proposal()
        tx(state, "bob", handle.governance, "vote", proposal_id=pid, support=True)
        state.advance_clock(600)
        tx_err(state, "QuorumNotMet", "alice", handle.governance,
               "execute_proposal", proposal_id=pid)

        # 501 of 1000 cast: passes quorum and schedules
        pid = proposal()
        tx(state, "bob", handle.governance, "vote", proposal_id=pid, support=True)
        tx(state, "carol", handle.governance, "vote", proposal_id=pid, support=True)
        state.advance_clock(600)
        assert tx(state, "alice", handle.governance, "execute_proposal",
                  proposal_id=pid) == "Scheduled"
        tx_err(state, "TimelockPending", "alice", handle.governance,
               "execute_proposal", proposal_id=pid)
        state.advance_clock(172_799)
        tx_err(state, "TimelockPending", "alice", handle.governance,
               "execute_proposal", proposal_id=pid)
        state.advance_clock(1)
        assert tx(state, "alice", handle.governance, "execute_proposal",
                  proposal_id=pid) == "Executed"
        timelock = handle.timelock_module(state)
        for entry in timelock.entries.values():
            if entry.state == "Executed":
                assert entry.executed_at - entry.scheduled_at >= timelock.delay
        campaign = run_property("timelock_delay_enforced", seed=SEED, steps=2_000)
        assert campaign.passed, campaign.detail


def test_criterion_7_anti_sniping_randomized():
    with criterion(7, "10^3 randomized bid timings: in-window bids extend the "
                      "deadline by exactly 900 seconds, others never move it"):
        state, handle = standard_world({a: 10**12 for a in ("s", "x", "y")})
        tx(state, "deployer", handle.collection, "mint", to="s", token_id=1)
        tx(state, "s", handle.vault, "deposit_nft",
           nft_address=handle.collection, token_id=1)
        rng = random.Random(SEED)
        vault = handle.vault_module(state)
        in_window = out_window = 0
        bid = 0
        for _ in range(1_000):
            duration = rng.randrange(2_000, 30_000)
            tx(state, "s", handle.vault, "start_auction",
               asset_address=handle.collection, token_id=1,
               starting_price=1, duration=duration)
            offset = rng.randrange(1, 1_799)
            state.advance_clock(duration - offset)
            end_before = vault.auctions[1].end_time
            bid += rng.randrange(1, 20)
            tx(state, rng.choice(("x", "y")), handle.vault, "place_bid",
               token_id=1, value=bid)
            end_after = vault.auctions[1].end_time
            if offset < 900:
                assert end_after == end_before + 900
                in_window += 1
            else:
                assert end_after == end_before
                out_window += 1
            tx(state, handle.governance, handle.vault, "cancel_auction",
               token_id=1)
        assert in_window > 200 and out_window > 200  # both sides exercised


def test_criterion_8_mutation_detection():
    with criterion(8, "all six security mutants are flagged by a failing "
                      "property with a replayable minimized trace"):
        for mutant in MUTANTS:
            report = run_suite(seed=SEED, steps=400, mutant=mutant)
            failures = report.failures()
            assert failures, f"{mutant} was not detected"
            traced = [f for f in failures if f.trace]
            assert traced, f"{mutant} produced no replayable trace"
            failure = traced[0]
            assert replay_property_trace(failure.name, failure.trace,
                                         MUTANTS[mutant]), \
                f"{mutant}: trace does not reproduce"
            assert not replay_property_trace(failure.name, failure.trace), \
                f"{mutant}: trace also fails the hardened build"


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "fuzz --seed 42 --steps 10000 twice is byte-identical "
                      "and every produced trace replays clean"):
        runner = CliRunner()
        first = tmp_path / "one.json"
        second = tmp_path / "two.json"
        for path in (first, second):
            result = runner.invoke(cli_main, ["fuzz", "--seed", "42", "--steps",
                                              "10000", "--report", str(path)])
            assert result.exit_code == 0, result.output
        assert first.read_bytes() == second.read_bytes()

        from importlib import resources
        scenario_path = resources.files("fracvault") / "scenarios" / "lifecycle.json"
        trace_path = tmp_path / "lifecycle.trace.jsonl"
        result = runner.invoke(cli_main, ["run", str(scenario_path),
                                          "--trace", str(trace_path)])
        assert result.exit_code == 0, result.output
        result = runner.invoke(cli_main, ["replay", str(trace_path)])
        assert result.exit_code == 0, result.output
        # a fresh run of the same scenario reaches identical digests
        scenario = load_scenario(str(scenario_path))
        digests = [record.digest for record in run_scenario(scenario).records]
        import json
        recorded = [json.loads(line)["digest"]
                    for line in trace_path.read_text().splitlines()[1:]]
        assert digests == recorded
