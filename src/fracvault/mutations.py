"""Built-in security mutants: one patch table, installed on a built world.

Each row of ``MUTANTS`` reintroduces one defect the hardened modules defend
against, so the harness can prove it catches the regression.  A row maps
each module class it patches to the patched methods: a replacement
function, or ``DropGuard("X")``, the method without its one
``if ...: raise errors.X(...)``.  ``install`` swaps the modules of a built
world to the row's subclasses, built on first use; forks keep them.
"""

from __future__ import annotations

import __future__
import ast
import inspect
import textwrap
from contextlib import nullcontext
from dataclasses import replace
from functools import cache
from typing import Callable, NamedTuple

from . import errors
from .governance import Governance
from .ledger import ChainState, ExecutionContext
from .market import Market
from .tokens import FractionalToken
from .vault import Vault


class DropGuard(NamedTuple):
    error: str

    def patch(self, method: Callable) -> Callable:
        """``method`` without its guard, compiled in its module's globals."""
        lines, first = inspect.getsourcelines(method)
        tree = ast.increment_lineno(ast.parse(textwrap.dedent("".join(lines))), first - 1)
        raise_x = f"raise errors.{self.error}("
        found = [(node.body, stmt) for node in ast.walk(tree) if isinstance(node, ast.stmt)
                 for stmt in getattr(node, "body", ()) if isinstance(stmt, ast.If)
                 and not stmt.orelse and len(stmt.body) == 1
                 and ast.unparse(stmt.body[0]).startswith(raise_x)]
        if len(found) != 1:
            raise ValueError(f"{method.__qualname__}: {len(found)} guards raising {self.error}")
        body, guard = found[0]
        body[body.index(guard)] = ast.copy_location(ast.Pass(), guard)
        namespace: dict = {}
        exec(compile(tree, method.__code__.co_filename, "exec", dont_inherit=True,
                     flags=__future__.annotations.compiler_flag),
             method.__globals__, namespace)
        return namespace[method.__name__]


def _redeem_paying_first(self: Vault, state: ChainState, ctx: ExecutionContext,
                         token_id: int, fraction_amount: int) -> int:
    # the legacy redemption: no guard, payment pushed before the burn, and
    # the burn written from a stale balance read
    record = self.sales.get(token_id)
    if record is None or record.proceeds_remaining <= 0:
        raise errors.NoProceeds(f"token {token_id} has no redeemable proceeds")
    if fraction_amount < 0:
        raise errors.InvalidAmount("negative redemption")
    held = state.fungible_balance(self.fractions, ctx.sender)
    if fraction_amount > held:
        raise errors.InsufficientFractions(
            f"redeeming {fraction_amount}, caller holds {held}")
    if fraction_amount == 0:
        return 0
    payout = fraction_amount * record.proceeds_total // record.supply_snapshot
    state.jset(self.sales, token_id, replace(
        record, proceeds_remaining=record.proceeds_remaining - payout))
    state.transfer_native(ctx, self.address, ctx.sender, payout)
    ledger = state.fungible[self.fractions]
    state.jset(ledger.balances, ctx.sender, held - fraction_amount)
    state.jsetattr(ledger, "total_supply", ledger.total_supply - fraction_amount)
    state.emit(ctx, self.module_id, "FractionsRedeemed",
               {"token_id": token_id, "redeemer": ctx.sender,
                "fractions": fraction_amount, "payout": payout})
    return payout


MUTANTS: dict[str, dict[type, dict[str, Callable | DropGuard]]] = {
    "drop-burn-before-pay": {Vault: {"redeem_fraction_value": _redeem_paying_first}},
    "drop-reentrancy-guard": {cls: {"_guard": lambda self, state: nullcontext()}
                              for cls in (Vault, Governance, Market)},
    "drop-quorum-check": {Governance: {"execute_proposal": DropGuard("QuorumNotMet")}},
    "drop-only-vault": {FractionalToken: {"_check_supply_authority": DropGuard("NotVault")}},
    "drop-slippage-check": {Market: {"execute_trade": DropGuard("SlippageExceeded")}},
    "drop-set-once-governance": {Vault: {"set_governance_contract": DropGuard("AlreadySet")}},
}


@cache
def mutant_class(mutant: str, cls: type) -> type:
    """The subclass of ``cls`` with the methods that ``mutant`` patches."""
    methods = {name: patch.patch(getattr(cls, name)) if isinstance(patch, DropGuard)
               else patch for name, patch in MUTANTS[mutant][cls].items()}
    return type(cls.__name__, (cls,), dict(
        methods, __module__=cls.__module__, __qualname__=cls.__qualname__))


def install(state: ChainState, mutant: str | None) -> None:
    """Swap each module of a class that ``mutant`` patches to its subclass;
    nothing for no mutant, KeyError for an unknown one."""
    table = MUTANTS[mutant] if mutant else {}
    for module in state.modules.values():
        if type(module) in table:
            module.__class__ = mutant_class(mutant, type(module))
