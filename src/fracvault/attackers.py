"""Scripted adversaries run against twin worlds.

``ATTACKS`` is one table of ``Strategy`` records, one per attack, and
``run_attack`` the one runner, which plays a record on an honest and an
attacked twin of one genesis.  A hardened system yields a net gain of
exactly zero everywhere.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .fuzz import (FuzzAction, actor_world, auction_start, clock_action,
                   deposit_prefix, fraction_transfers, run_action, run_setup,
                   sold_setup, transact_action)
from .ledger import ChainState, HookCall, ReceiveHook, TxResult
from .mutations import HEALTHY, Mutations
from .system import SystemHandle
from .vault import EXTENSION_DELTA, Vault

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


class Twin(NamedTuple):
    """One world of an attack after its script: each step's result (None
    for a clock-only step) and the attacker's hook, if it installed one."""

    state: ChainState
    handle: SystemHandle
    results: list[TxResult | None]
    hook: ReceiveHook | None

    @property
    def vault(self) -> Vault:
        return self.handle.vault_module(self.state)

    def position(self, who: str) -> tuple[int, int]:
        """Native plus unclaimed pending, and fraction holdings."""
        return (self.state.native.get(who, 0) + self.vault.pending.get(who, 0),
                self.state.fungible_balance(self.handle.fractions, who))

    def outcomes(self) -> list[str]:
        """Each step's error name, or "ok" where it committed."""
        return [result.error or "ok" for result in self.results]


@dataclass(frozen=True)
class Strategy:
    """One attack.  The attacked twin runs ``hostile`` in place of
    ``honest`` where it is set, and installs a copy of ``hook`` first.
    ``details`` reads the attacked and the honest twin; ``judge`` names what
    a neutralized attack's details show went wrong, or returns None."""

    name: str
    attacker: str
    setup: list[FuzzAction]
    honest: list[FuzzAction]
    details: Callable[[Twin, Twin], dict]
    hostile: list[FuzzAction] | None = None
    hook: ReceiveHook | None = None
    judge: Callable[[dict], str | None] = lambda details: None


def run_attack(strategy: str, mutations: Mutations = HEALTHY) -> AttackReport:
    """Build the honest and the attacked twin from the same genesis, run
    each its script, and net the attacker's position in the attacked twin
    against the honest one."""
    attack = ATTACKS[strategy]
    twins = []
    for hostile in (False, True):
        state, handle, _ = actor_world(4, mutations)
        run_setup(state, attack.setup)
        hook = copy.deepcopy(attack.hook) if hostile else None
        if hook is not None:
            state.set_receive_hook(attack.attacker, hook)
        script = attack.hostile if hostile and attack.hostile else attack.honest
        twins.append(Twin(state, handle,
                          [run_action(state, action) for action in script], hook))
    honest, attacked = twins
    native_h, frac_h = honest.position(attack.attacker)
    native_a, frac_a = attacked.position(attack.attacker)
    return AttackReport(
        strategy=strategy, attacker=attack.attacker,
        net_native_gain=native_a - native_h, net_fraction_gain=frac_a - frac_h,
        details=attack.details(attacked, honest))


# the module ids of the standard deployment every attack world starts from
_IDS = SystemHandle(deployer="deployer")
_REDEEM = transact_action("a1", _IDS.vault, "redeem_fraction_value",
                          token_id=1, fraction_amount=250)
_WITHDRAW = transact_action("a1", _IDS.vault, "withdraw_pending")
# the clock passes the end of one extension, and a3 settles
_SNIPER_SETTLE = [clock_action(60 + EXTENSION_DELTA),
                  transact_action("a3", _IDS.vault, "end_auction", token_id=1)]
_GIFT = fraction_transfers(_IDS, (("a3", 5),))
# below the 10-fraction threshold until a3 holds a second gift
_SPAM = transact_action(
    "a3", _IDS.governance, "create_proposal", description="spam",
    target=_IDS.vault,
    action={"kind": "set_royalty_percent", "args": {"percent": 0}},
    voting_period=600)


def _reentry_hook(method: str, *args: tuple[str, int]) -> ReceiveHook:
    """a1 calls ``method`` back on each of up to two payments and records
    the result."""
    return ReceiveHook(owner="a1", max_activations=2, calls=(
        HookCall(module=_IDS.vault, method=method, args=args,
                 record_result=True),))


def _reentry_details(attacked: Twin, honest: Twin) -> dict:
    return {"outcomes": attacked.outcomes(),
            "hook_observed": list(map(list, attacked.hook.observed))}


def _reject_payment_details(attacked: Twin, honest: Twin) -> dict:
    _, settle, withdraw = attacked.results
    return {"settlement_committed": settle.ok,
            "withdraw_error": withdraw.error,
            "royalty_still_claimable": attacked.vault.pending.get("a0", 0)}


def _reject_payment_judge(details: dict) -> str | None:
    if not details["settlement_committed"]:
        return "a rejecting recipient blocked auction settlement"
    if details["royalty_still_claimable"] <= 0:
        return "royalty claim was lost"
    return None


def _sniper_details(attacked: Twin, honest: Twin) -> dict:
    return {"extension_seconds": attacked.vault.auctions[1].end_time
            - honest.vault.auctions[1].end_time,
            "winner": attacked.state.nft_owner(attacked.handle.collection, 1),
            "sniper_refund": attacked.vault.pending.get("a1", 0)}


def _spammer_details(attacked: Twin, honest: Twin) -> dict:
    def params(twin: Twin) -> tuple[int, int]:
        return twin.vault.royalty_percent, twin.vault.auction_duration

    spam, execute = attacked.results[:5], attacked.results[-1]
    return {"outcomes": [result.error for result in spam] + [execute.error],
            "params_unchanged": params(attacked) == params(honest)}


ATTACKS = {attack.name: attack for attack in (
    # a1's hook re-enters withdraw_pending during its own payout
    Strategy("ReenterWithdraw", "a1", sold_setup(_IDS, (("a1", 250),)),
             [_REDEEM, _WITHDRAW], hook=_reentry_hook("withdraw_pending"),
             details=_reentry_details),
    # a1's hook re-enters redeem_fraction_value during the withdraw payout
    Strategy("ReenterRedeem", "a1", sold_setup(_IDS, (("a1", 500),)),
             [_REDEEM, _WITHDRAW] * 2,
             hook=_reentry_hook("redeem_fraction_value", ("token_id", 1),
                                ("fraction_amount", 250)),
             details=_reentry_details),
    # a plain second redemption of fractions that were already burned
    Strategy("DoubleRedeem", "a1", sold_setup(_IDS, (("a1", 250),)),
             [_REDEEM, _WITHDRAW],
             hostile=[_REDEEM, _REDEEM, _WITHDRAW, _WITHDRAW],
             details=lambda attacked, honest: {
                 "outcomes": attacked.outcomes(),
                 "second_redeem_rejected":
                     attacked.outcomes()[1] == "InsufficientFractions"},
             judge=lambda details: None if details["second_redeem_rejected"]
             else "second redemption of burned fractions was not rejected"),
    # the original owner refuses payments during settlement; pull over push
    # means the auction still settles and the royalty stays claimable
    Strategy("RejectPayment", "a0",
             deposit_prefix(_IDS) + auction_start(_IDS, "a3", 1_000_000),
             [clock_action(10_000),
              transact_action("a2", _IDS.vault, "end_auction", token_id=1),
              transact_action("a0", _IDS.vault, "withdraw_pending")],
             hook=ReceiveHook(owner="a0", reject=True),
             details=_reject_payment_details, judge=_reject_payment_judge),
    # a last-minute bid triggers the extension; an honest rival retakes the
    # lead inside the extra window and the sniper gets a full refund
    Strategy("BidSniper", "a1",
             deposit_prefix(_IDS) + auction_start(_IDS, "a2", 100)
             + [clock_action(10_000 - 60)],
             _SNIPER_SETTLE,
             hostile=[transact_action("a1", _IDS.vault, "place_bid", value=150,
                                      token_id=1),
                      transact_action("a2", _IDS.vault, "place_bid", value=200,
                                      token_id=1)] + _SNIPER_SETTLE,
             details=_sniper_details,
             judge=lambda details: None
             if details["extension_seconds"] == EXTENSION_DELTA
             else f"snipe extended by {details['extension_seconds']}, "
                  f"not {EXTENSION_DELTA}"),
    # a dust holder floods proposal creation and votes alone on proposal 0;
    # nothing passes quorum and no governed parameter moves
    Strategy("GovernanceSpammer", "a3", deposit_prefix(_IDS) + _GIFT, _GIFT,
             hostile=[_SPAM] * 5 + _GIFT + [
                 _SPAM,
                 transact_action("a3", _IDS.governance, "vote", proposal_id=0,
                                 support=True),
                 clock_action(600),
                 transact_action("a3", _IDS.governance, "execute_proposal",
                                 proposal_id=0)],
             details=_spammer_details,
             judge=lambda details: None if details["params_unchanged"]
             else "spam campaign moved a governed parameter"),
)}
