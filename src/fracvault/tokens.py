"""Token modules: a plain fungible token, the vault-gated fraction token,
and a minimal NFT collection.

Each module wraps one ledger owned by the chain state; all balance math and
event emission happens in the ledger primitives so supply consistency is a
single code path.
"""

from __future__ import annotations

from . import errors
from .ledger import Address, ChainState, ExecutionContext, Module, ZERO_ADDRESS


class FungibleToken(Module):
    """Standard fungible token; the deployer may mint and burn freely."""

    exposed = frozenset({
        "transfer", "transfer_from", "approve", "mint", "burn_from",
        "balance_of", "total_supply", "allowance",
    })

    def __init__(self, module_id: str, state: ChainState, deployer: Address,
                 token_name: str, symbol: str):
        super().__init__(module_id)
        self.token_name = token_name
        self.symbol = symbol
        self.deployer = deployer
        state.create_fungible(module_id)

    # -- shared fungible surface --

    def transfer(self, state: ChainState, ctx: ExecutionContext, to: Address, amount: int) -> bool:
        return state.fungible_transfer(ctx, self.module_id, ctx.sender, to, amount)

    def transfer_from(self, state: ChainState, ctx: ExecutionContext,
                      frm: Address, to: Address, amount: int) -> bool:
        return state.fungible_transfer(ctx, self.module_id, frm, to, amount)

    def approve(self, state: ChainState, ctx: ExecutionContext, spender: Address, amount: int) -> bool:
        return state.fungible_approve(ctx, self.module_id, spender, amount)

    def balance_of(self, state: ChainState, ctx: ExecutionContext, owner: Address) -> int:
        return state.fungible_balance(self.module_id, owner)

    def total_supply(self, state: ChainState, ctx: ExecutionContext) -> int:
        return state.fungible_supply(self.module_id)

    def allowance(self, state: ChainState, ctx: ExecutionContext,
                  owner: Address, spender: Address) -> int:
        return state.fungible_allowance(self.module_id, owner, spender)

    # -- supply management --

    def _check_supply_authority(self, ctx: ExecutionContext) -> None:
        if ctx.sender != self.deployer:
            raise errors.NotOwner(f"{ctx.sender} may not manage {self.module_id} supply")

    def mint(self, state: ChainState, ctx: ExecutionContext, to: Address, amount: int) -> None:
        self._check_supply_authority(ctx)
        state.fungible_mint(ctx, self.module_id, to, amount)

    def burn_from(self, state: ChainState, ctx: ExecutionContext, frm: Address, amount: int) -> None:
        self._check_supply_authority(ctx)
        state.fungible_burn(ctx, self.module_id, frm, amount)

    def snapshot_data(self) -> dict:
        return {"kind": "fungible", "name": self.token_name, "symbol": self.symbol,
                "deployer": self.deployer}


class FractionalToken(FungibleToken):
    """Fraction ledger for vaulted NFTs.

    Mint and burn are reserved for the bound vault.  The binding starts
    explicitly unset and can be written exactly once, by the deployer, to a
    non-zero address; the update emits NFTVaultUpdated.
    """

    exposed = FungibleToken.exposed | frozenset({"update_nft_vault", "nft_vault"})

    def __init__(self, module_id: str, state: ChainState, deployer: Address,
                 token_name: str, symbol: str):
        super().__init__(module_id, state, deployer, token_name, symbol)
        self.nft_vault_addr: Address = ZERO_ADDRESS
        self.is_nft_vault_set: bool = False

    def update_nft_vault(self, state: ChainState, ctx: ExecutionContext, vault: Address) -> None:
        if ctx.sender != self.deployer:
            raise errors.NotOwner(f"{ctx.sender} is not the token deployer")
        if vault == ZERO_ADDRESS:
            raise errors.ZeroAddress("vault binding cannot be the zero address")
        if self.is_nft_vault_set:
            raise errors.AlreadySet("vault binding is write-once")
        state.jsetattr(self, "nft_vault_addr", vault)
        state.jsetattr(self, "is_nft_vault_set", True)
        state.emit(ctx, self.module_id, "NFTVaultUpdated", {"vault": vault})

    def nft_vault(self, state: ChainState, ctx: ExecutionContext) -> Address:
        return self.nft_vault_addr

    def _check_supply_authority(self, ctx: ExecutionContext) -> None:
        if not self.is_nft_vault_set or ctx.sender != self.nft_vault_addr:
            raise errors.NotVault(f"{ctx.sender} is not the bound vault")

    def snapshot_data(self) -> dict:
        return {"kind": "fractional", "name": self.token_name, "symbol": self.symbol,
                "deployer": self.deployer, "vault": self.nft_vault_addr,
                "vault_set": self.is_nft_vault_set}


class NftCollection(Module):
    """Single NFT collection; per-token approvals, deployer minting."""

    exposed = frozenset({"mint", "transfer", "approve", "owner_of"})

    def __init__(self, module_id: str, state: ChainState, deployer: Address,
                 collection_name: str):
        super().__init__(module_id)
        self.collection_name = collection_name
        self.deployer = deployer
        state.create_nft_ledger(module_id)

    def mint(self, state: ChainState, ctx: ExecutionContext, to: Address, token_id: int) -> None:
        if ctx.sender != self.deployer:
            raise errors.NotOwner(f"{ctx.sender} may not mint into {self.module_id}")
        state.nft_mint(ctx, self.module_id, to, token_id)

    def transfer(self, state: ChainState, ctx: ExecutionContext, token_id: int, to: Address) -> None:
        state.nft_transfer(ctx, ctx.sender, self.module_id, token_id, to)

    def approve(self, state: ChainState, ctx: ExecutionContext, token_id: int, spender: Address) -> None:
        state.nft_approve(ctx, self.module_id, token_id, spender)

    def owner_of(self, state: ChainState, ctx: ExecutionContext, token_id: int) -> Address:
        return state.nft_owner(self.module_id, token_id)

    def snapshot_data(self) -> dict:
        return {"kind": "nft", "name": self.collection_name, "deployer": self.deployer}
