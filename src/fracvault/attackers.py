"""Scripted adversaries run against twin worlds.

Each strategy builds two identical worlds from the same genesis, installs
the hostile payment hook (or extra hostile transactions) in one of them,
runs the same legitimate script of ``FuzzAction``s in both, and reports
the attacker's net position relative to the honest twin.  A hardened
system yields a net gain of exactly zero everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fuzz import (FuzzAction, actor_world, auction_start, build_sold_world,
                   clock_action, deposit_prefix, fraction_transfers, run_action,
                   run_setup, transact_action)
from .ledger import ChainState, HookCall, ReceiveHook
from .mutations import HEALTHY, Mutations
from .system import SystemHandle, must

STRATEGIES = ("ReenterWithdraw", "ReenterRedeem", "RejectPayment",
              "DoubleRedeem", "BidSniper", "GovernanceSpammer")


@dataclass
class AttackReport:
    strategy: str
    attacker: str
    net_native_gain: int
    net_fraction_gain: int
    details: dict = field(default_factory=dict)

    @property
    def neutralized(self) -> bool:
        return self.net_native_gain == 0 and self.net_fraction_gain == 0

    def as_data(self) -> dict:
        return {"strategy": self.strategy, "attacker": self.attacker,
                "net_native_gain": self.net_native_gain,
                "net_fraction_gain": self.net_fraction_gain,
                "neutralized": self.neutralized, "details": self.details}


def _position(state: ChainState, handle: SystemHandle, who: str) -> tuple[int, int]:
    """Attacker worth: native plus unclaimed pending, and fraction holdings."""
    vault = handle.vault_module(state)
    return (state.native.get(who, 0) + vault.pending.get(who, 0),
            state.fungible_balance(handle.fractions, who))


def _outcomes(state: ChainState, script: list[FuzzAction]) -> list[str]:
    """Run ``script``; each step's error name, or "ok" where it committed."""
    outcomes = []
    for action in script:
        result = run_action(state, action)
        outcomes.append(result.error if not result.ok else "ok")
    return outcomes


def _redeem(attacker: str, amount: int) -> FuzzAction:
    return transact_action(attacker, "vault", "redeem_fraction_value",
                           token_id=1, fraction_amount=amount)


def _withdraw(attacker: str) -> FuzzAction:
    return transact_action(attacker, "vault", "withdraw_pending")


def reenter_withdraw(mutations: Mutations = HEALTHY) -> AttackReport:
    """Hook re-enters withdraw_pending during its own payout."""
    attacker = "a1"
    script = [_redeem(attacker, 250), _withdraw(attacker)]
    honest, handle = build_sold_world(mutations, ((attacker, 250),))
    _outcomes(honest, script)

    attacked, handle2 = build_sold_world(mutations, ((attacker, 250),))
    hook = ReceiveHook(owner=attacker, max_activations=2, calls=(
        HookCall(module=handle2.vault, method="withdraw_pending",
                 record_result=True),
    ))
    attacked.set_receive_hook(attacker, hook)
    outcomes = _outcomes(attacked, script)

    native_h, frac_h = _position(honest, handle, attacker)
    native_a, frac_a = _position(attacked, handle2, attacker)
    return AttackReport(
        strategy="ReenterWithdraw", attacker=attacker,
        net_native_gain=native_a - native_h, net_fraction_gain=frac_a - frac_h,
        details={"outcomes": outcomes, "hook_observed": list(map(list, hook.observed))})


def reenter_redeem(mutations: Mutations = HEALTHY) -> AttackReport:
    """Hook re-enters redeem_fraction_value during the withdraw payout."""
    attacker = "a1"
    script = [_redeem(attacker, 250), _withdraw(attacker)] * 2
    honest, handle = build_sold_world(mutations, ((attacker, 500),))
    _outcomes(honest, script)

    attacked, handle2 = build_sold_world(mutations, ((attacker, 500),))
    hook = ReceiveHook(owner=attacker, max_activations=2, calls=(
        HookCall(module=handle2.vault, method="redeem_fraction_value",
                 args=(("token_id", 1), ("fraction_amount", 250)),
                 record_result=True),
    ))
    attacked.set_receive_hook(attacker, hook)
    outcomes = _outcomes(attacked, script)

    native_h, frac_h = _position(honest, handle, attacker)
    native_a, frac_a = _position(attacked, handle2, attacker)
    return AttackReport(
        strategy="ReenterRedeem", attacker=attacker,
        net_native_gain=native_a - native_h, net_fraction_gain=frac_a - frac_h,
        details={"outcomes": outcomes, "hook_observed": list(map(list, hook.observed))})


def double_redeem(mutations: Mutations = HEALTHY) -> AttackReport:
    """Plain second redemption of fractions that were already burned."""
    attacker = "a1"
    honest, handle = build_sold_world(mutations, ((attacker, 250),))
    _outcomes(honest, [_redeem(attacker, 250), _withdraw(attacker)])
    attacked, handle2 = build_sold_world(mutations, ((attacker, 250),))
    outcomes = _outcomes(attacked, [_redeem(attacker, 250), _redeem(attacker, 250),
                                    _withdraw(attacker), _withdraw(attacker)])
    native_h, frac_h = _position(honest, handle, attacker)
    native_a, frac_a = _position(attacked, handle2, attacker)
    return AttackReport(
        strategy="DoubleRedeem", attacker=attacker,
        net_native_gain=native_a - native_h, net_fraction_gain=frac_a - frac_h,
        details={"outcomes": outcomes,
                 "second_redeem_rejected": outcomes[1] == "InsufficientFractions"})


def reject_payment(mutations: Mutations = HEALTHY) -> AttackReport:
    """Original owner refuses payments during settlement; pull-over-push
    means the auction still settles and the royalty stays claimable."""
    attacker = "a0"

    def build(with_hook: bool):
        state, handle, _ = actor_world(4, mutations)
        run_setup(state, deposit_prefix(handle)
                  + auction_start(handle, "a3", 1_000_000))
        if with_hook:
            state.set_receive_hook(attacker,
                                   ReceiveHook(owner=attacker, reject=True))
        state.advance_clock(10_000)
        settle = run_action(state, transact_action("a2", handle.vault,
                                                   "end_auction", token_id=1))
        withdraw = run_action(state, _withdraw(attacker))
        return state, handle, settle, withdraw

    honest, handle, settle_h, _ = build(with_hook=False)
    attacked, handle2, settle_a, withdraw_a = build(with_hook=True)
    vault = handle2.vault_module(attacked)
    native_h, frac_h = _position(honest, handle, attacker)
    native_a, frac_a = _position(attacked, handle2, attacker)
    return AttackReport(
        strategy="RejectPayment", attacker=attacker,
        net_native_gain=native_a - native_h, net_fraction_gain=frac_a - frac_h,
        details={"settlement_committed": settle_a.ok,
                 "withdraw_error": withdraw_a.error,
                 "royalty_still_claimable": vault.pending.get(attacker, 0)})


def bid_sniper(mutations: Mutations = HEALTHY) -> AttackReport:
    """Last-minute bid triggers the extension; an honest rival retakes the
    lead inside the extra window and the sniper gets a full refund."""
    attacker = "a1"

    def build(with_snipe: bool):
        state, handle, _ = actor_world(4, mutations)
        run_setup(state, deposit_prefix(handle) + auction_start(handle, "a2", 100)
                  + [clock_action(10_000 - 60)])
        end_before = handle.vault_module(state).auctions[1].end_time
        if with_snipe:
            run_setup(state, [
                transact_action(attacker, handle.vault, "place_bid", value=150,
                                token_id=1),
                transact_action("a2", handle.vault, "place_bid", value=200,
                                token_id=1)])
        end_after = handle.vault_module(state).auctions[1].end_time
        run_setup(state, [clock_action(end_after - state.clock),
                          transact_action("a3", handle.vault, "end_auction",
                                          token_id=1)])
        return state, handle, end_after - end_before

    honest, handle, _ = build(with_snipe=False)
    attacked, handle2, extension = build(with_snipe=True)
    native_h, frac_h = _position(honest, handle, attacker)
    native_a, frac_a = _position(attacked, handle2, attacker)
    return AttackReport(
        strategy="BidSniper", attacker=attacker,
        net_native_gain=native_a - native_h, net_fraction_gain=frac_a - frac_h,
        details={"extension_seconds": extension,
                 "winner": attacked.nft_owner(handle2.collection, 1),
                 "sniper_refund": handle2.vault_module(attacked).pending.get(attacker, 0)})


def governance_spammer(mutations: Mutations = HEALTHY) -> AttackReport:
    """Dust holder floods proposal creation and votes alone; nothing passes
    quorum and no governed parameter moves."""
    attacker = "a3"

    def build(with_spam: bool):
        state, handle, _ = actor_world(4, mutations)
        gift = fraction_transfers(handle, ((attacker, 5),))
        run_setup(state, deposit_prefix(handle) + gift)
        outcomes = []
        if with_spam:
            spam = transact_action(
                attacker, handle.governance, "create_proposal",
                description="spam", target=handle.vault,
                action={"kind": "set_royalty_percent", "args": {"percent": 0}},
                voting_period=600)
            # below the 10-fraction threshold
            outcomes += [run_action(state, spam).error for _ in range(5)]
            run_setup(state, gift)
            created = must(run_action(state, spam))
            run_setup(state, [transact_action(attacker, handle.governance, "vote",
                                              proposal_id=created.value,
                                              support=True),
                              clock_action(600)])
            outcomes.append(run_action(state, transact_action(
                attacker, handle.governance, "execute_proposal",
                proposal_id=created.value)).error)
        return state, handle, outcomes

    honest, handle, _ = build(with_spam=False)
    attacked, handle2, outcomes = build(with_spam=True)
    vault_h = handle.vault_module(honest)
    vault_a = handle2.vault_module(attacked)
    native_h, frac_h = _position(honest, handle, attacker)
    native_a, frac_a = _position(attacked, handle2, attacker)
    return AttackReport(
        strategy="GovernanceSpammer", attacker=attacker,
        net_native_gain=native_a - native_h,
        net_fraction_gain=(frac_a - frac_h) - 5,  # the extra 5 were a gift
        details={"outcomes": outcomes,
                 "params_unchanged": (vault_a.royalty_percent,
                                      vault_a.auction_duration)
                 == (vault_h.royalty_percent, vault_h.auction_duration)})


ATTACKS = {
    "ReenterWithdraw": reenter_withdraw,
    "ReenterRedeem": reenter_redeem,
    "DoubleRedeem": double_redeem,
    "RejectPayment": reject_payment,
    "BidSniper": bid_sniper,
    "GovernanceSpammer": governance_spammer,
}


def run_attack(strategy: str, mutations: Mutations = HEALTHY) -> AttackReport:
    return ATTACKS[strategy](mutations)
