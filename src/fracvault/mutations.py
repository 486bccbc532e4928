"""Built-in security mutants.

Each flag reintroduces one defect the hardened modules defend against, so
the property suite can prove it would catch the regression.  All flags
default off; ``MUTANTS`` maps the CLI spelling to a configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Mutations:
    # Redemption reverts to the legacy shape: push payment first, burn from a
    # stale balance read afterwards, no guard on the redemption path.
    drop_burn_before_pay: bool = False
    # Reentrancy locks on guarded vault operations are skipped.
    drop_reentrancy_guard: bool = False
    # Proposals schedule without the 50 percent turnout requirement.
    drop_quorum_check: bool = False
    # Fraction mint/burn accepts any caller, not just the bound vault.
    drop_only_vault: bool = False
    # Trades execute even below the caller's minimum acceptable output.
    drop_slippage_check: bool = False
    # The vault's governance binding can be overwritten after the first set.
    drop_set_once_governance: bool = False

    def __deepcopy__(self, memo: dict) -> "Mutations":
        return self  # never changes, so copies of a world share it


HEALTHY = Mutations()

MUTANTS: dict[str, Mutations] = {
    "drop-burn-before-pay": replace(HEALTHY, drop_burn_before_pay=True),
    "drop-reentrancy-guard": replace(HEALTHY, drop_reentrancy_guard=True),
    "drop-quorum-check": replace(HEALTHY, drop_quorum_check=True),
    "drop-only-vault": replace(HEALTHY, drop_only_vault=True),
    "drop-slippage-check": replace(HEALTHY, drop_slippage_check=True),
    "drop-set-once-governance": replace(HEALTHY, drop_set_once_governance=True),
}
