"""Two-token liquidity pool with share accounting and fee-bearing trades.

Output for a trade is the fee-adjusted constant-product formula, all in
integer math:

    adjusted  = amount_in * fee_multiplier
    amount_out = adjusted * output_reserve // (input_reserve * 10000 + adjusted)

with fee_multiplier defaulting to 9975 against a 10000 denominator, so the
pool retains a slice of every trade and the reserve product never decreases.
Liquidity shares bootstrap at the floor square root of the first deposit's
product and grow proportionally afterwards.
"""

from __future__ import annotations

import math
from contextlib import nullcontext

from . import errors
from .ledger import Address, ChainState, ExecutionContext, Module
from .mutations import HEALTHY, Mutations

FEE_DENOMINATOR = 10_000
DEFAULT_FEE_MULTIPLIER = 9_975


def swap_output(amount_in: int, input_reserve: int, output_reserve: int,
                fee_multiplier: int = DEFAULT_FEE_MULTIPLIER) -> int:
    """Pure trade quote; raises EmptyReserves on an unfunded side."""
    if input_reserve <= 0 or output_reserve <= 0:
        raise errors.EmptyReserves("both reserves must be positive")
    if amount_in < 0:
        raise errors.InvalidAmount("negative trade input")
    adjusted = amount_in * fee_multiplier
    return adjusted * output_reserve // (input_reserve * FEE_DENOMINATOR + adjusted)


class Market(Module):
    exposed = frozenset({
        "add_liquidity", "remove_liquidity", "execute_trade", "quote",
        "reserves", "shares_of", "total_shares_of_pool",
    })

    def __init__(self, module_id: str, state: ChainState, deployer: Address,
                 token_a: str, token_b: str, *,
                 fee_multiplier: int = DEFAULT_FEE_MULTIPLIER,
                 mutations: Mutations = HEALTHY):
        super().__init__(module_id)
        if token_a == token_b:
            raise ValueError("pool needs two distinct tokens")
        if not 0 < fee_multiplier <= FEE_DENOMINATOR:
            raise ValueError("fee multiplier out of range")
        self.deployer = deployer
        self.token_a = token_a
        self.token_b = token_b
        self.fee_multiplier = fee_multiplier
        self.reserve_a = 0
        self.reserve_b = 0
        self.shares: dict[Address, int] = {}
        self.total_shares = 0
        self.mutations = mutations

    def _guard(self, state: ChainState):
        if self.mutations.drop_reentrancy_guard:
            return nullcontext()
        return state.reentrancy_lock(self.module_id)

    def _pull(self, state: ChainState, ctx: ExecutionContext, token: str,
              frm: Address, amount: int) -> None:
        ok = state.call(ctx, token, "transfer_from",
                        {"frm": frm, "to": self.address, "amount": amount},
                        sender=self.address)
        if ok is not True:
            raise errors.TransferFailed(f"{token} transfer_from returned {ok!r}")

    def _push(self, state: ChainState, ctx: ExecutionContext, token: str,
              to: Address, amount: int) -> None:
        ok = state.call(ctx, token, "transfer", {"to": to, "amount": amount},
                        sender=self.address)
        if ok is not True:
            raise errors.TransferFailed(f"{token} transfer returned {ok!r}")

    # ------------------------------------------------------------------ #
    # Liquidity
    # ------------------------------------------------------------------ #

    def add_liquidity(self, state: ChainState, ctx: ExecutionContext,
                      amount_a: int, amount_b: int) -> int:
        """Deposit both tokens; returns freshly minted pool shares."""
        with self._guard(state):
            if amount_a <= 0 or amount_b <= 0:
                raise errors.ZeroAmount("both deposit amounts must be positive")
            if self.total_shares == 0:
                minted = math.isqrt(amount_a * amount_b)
            else:
                skew = abs(amount_a * self.reserve_b - amount_b * self.reserve_a)
                if skew > max(self.reserve_a, self.reserve_b):
                    raise errors.RatioMismatch(
                        "deposit does not match the pool ratio")
                minted = min(amount_a * self.total_shares // self.reserve_a,
                             amount_b * self.total_shares // self.reserve_b)
            self._pull(state, ctx, self.token_a, ctx.sender, amount_a)
            self._pull(state, ctx, self.token_b, ctx.sender, amount_b)
            state.jsetattr(self, "reserve_a", self.reserve_a + amount_a)
            state.jsetattr(self, "reserve_b", self.reserve_b + amount_b)
            state.jset(self.shares, ctx.sender, self.shares.get(ctx.sender, 0) + minted)
            state.jsetattr(self, "total_shares", self.total_shares + minted)
            state.emit(ctx, self.module_id, "LiquidityAdded",
                       {"provider": ctx.sender, "amount_a": amount_a,
                        "amount_b": amount_b, "shares": minted})
            return minted

    def remove_liquidity(self, state: ChainState, ctx: ExecutionContext,
                         shares_burned: int) -> tuple[int, int]:
        """Burn shares for the proportional floor of each reserve.

        Share and reserve accounting updates before the outbound transfers.
        """
        with self._guard(state):
            if shares_burned < 0:
                raise errors.InvalidAmount("negative share burn")
            held = self.shares.get(ctx.sender, 0)
            if shares_burned > held:
                raise errors.InsufficientShares(
                    f"burning {shares_burned}, caller holds {held}")
            if shares_burned == 0:
                return (0, 0)
            out_a = shares_burned * self.reserve_a // self.total_shares
            out_b = shares_burned * self.reserve_b // self.total_shares
            state.jset(self.shares, ctx.sender, held - shares_burned)
            state.jsetattr(self, "total_shares", self.total_shares - shares_burned)
            state.jsetattr(self, "reserve_a", self.reserve_a - out_a)
            state.jsetattr(self, "reserve_b", self.reserve_b - out_b)
            if out_a:
                self._push(state, ctx, self.token_a, ctx.sender, out_a)
            if out_b:
                self._push(state, ctx, self.token_b, ctx.sender, out_b)
            state.emit(ctx, self.module_id, "LiquidityRemoved",
                       {"provider": ctx.sender, "shares": shares_burned,
                        "amount_a": out_a, "amount_b": out_b})
            return (out_a, out_b)

    # ------------------------------------------------------------------ #
    # Trading
    # ------------------------------------------------------------------ #

    def quote(self, state: ChainState, ctx: ExecutionContext, amount_in: int,
              input_reserve: int, output_reserve: int) -> int:
        return swap_output(amount_in, input_reserve, output_reserve,
                           self.fee_multiplier)

    def execute_trade(self, state: ChainState, ctx: ExecutionContext,
                      token_in: str, amount_in: int, min_amount_out: int) -> int:
        """Swap token_in for the other side, honoring the caller's minimum."""
        with self._guard(state):
            if token_in == self.token_a:
                token_out = self.token_b
                reserve_in, reserve_out = self.reserve_a, self.reserve_b
            elif token_in == self.token_b:
                token_out = self.token_a
                reserve_in, reserve_out = self.reserve_b, self.reserve_a
            else:
                raise errors.UnknownToken(f"{token_in!r} is not in this pool")
            if amount_in <= 0:
                raise errors.ZeroAmount("trade input must be positive")
            amount_out = swap_output(amount_in, reserve_in, reserve_out,
                                     self.fee_multiplier)
            if not self.mutations.drop_slippage_check and amount_out < min_amount_out:
                raise errors.SlippageExceeded(
                    f"quote {amount_out} below minimum {min_amount_out}")
            self._pull(state, ctx, token_in, ctx.sender, amount_in)
            if token_in == self.token_a:
                state.jsetattr(self, "reserve_a", self.reserve_a + amount_in)
                state.jsetattr(self, "reserve_b", self.reserve_b - amount_out)
            else:
                state.jsetattr(self, "reserve_b", self.reserve_b + amount_in)
                state.jsetattr(self, "reserve_a", self.reserve_a - amount_out)
            if amount_out:
                self._push(state, ctx, token_out, ctx.sender, amount_out)
            state.emit(ctx, self.module_id, "TradeExecuted",
                       {"trader": ctx.sender, "token_in": token_in,
                        "amount_in": amount_in, "token_out": token_out,
                        "amount_out": amount_out})
            return amount_out

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #

    def reserves(self, state: ChainState, ctx: ExecutionContext) -> dict:
        return {"token_a": self.token_a, "reserve_a": self.reserve_a,
                "token_b": self.token_b, "reserve_b": self.reserve_b}

    def shares_of(self, state: ChainState, ctx: ExecutionContext, owner: Address) -> int:
        return self.shares.get(owner, 0)

    def total_shares_of_pool(self, state: ChainState, ctx: ExecutionContext) -> int:
        return self.total_shares

    def snapshot_data(self) -> dict:
        return {"kind": "market", "token_a": self.token_a, "token_b": self.token_b,
                "fee_multiplier": self.fee_multiplier,
                "reserve_a": self.reserve_a, "reserve_b": self.reserve_b,
                "shares": self.shares, "total_shares": self.total_shares}
