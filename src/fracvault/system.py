"""Standard world assembly.

``deploy_standard_system`` instantiates the full stack in the canonical
order (fraction token, NFT collection, vault, timelock, governance with its
vault registration, pair token, market) and wires the write-once bindings.
Fuzz campaigns, attack scenarios and the CLI all build worlds through here
so that every run shares one deployment recipe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .governance import (DEFAULT_PROPOSAL_THRESHOLD_BPS, DEFAULT_TIMELOCK_DELAY,
                         Governance, Timelock)
from .ledger import Address, ChainState, TxResult
from .market import DEFAULT_FEE_MULTIPLIER, Market
from .mutations import HEALTHY, Mutations
from .tokens import FractionalToken, FungibleToken, NftCollection
from .vault import DEFAULT_AUCTION_DURATION, Vault


@dataclass(frozen=True)
class GenesisParams:
    auction_duration: int = DEFAULT_AUCTION_DURATION
    royalty_percent: int = 5
    fee_multiplier: int = DEFAULT_FEE_MULTIPLIER
    timelock_delay: int = DEFAULT_TIMELOCK_DELAY
    proposal_threshold_bps: int = DEFAULT_PROPOSAL_THRESHOLD_BPS

    @classmethod
    def from_data(cls, data: dict) -> "GenesisParams":
        known = {f: int(v) for f, v in data.items()}
        return cls(**known)

    def as_data(self) -> dict:
        return {"auction_duration": self.auction_duration,
                "royalty_percent": self.royalty_percent,
                "fee_multiplier": self.fee_multiplier,
                "timelock_delay": self.timelock_delay,
                "proposal_threshold_bps": self.proposal_threshold_bps}


@dataclass
class SystemHandle:
    deployer: Address
    fractions: str = "fractions"
    collection: str = "collection"
    vault: str = "vault"
    timelock: str = "timelock"
    governance: str = "governance"
    pair: str = "pair"
    market: str = "market"
    params: GenesisParams = field(default_factory=GenesisParams)

    def vault_module(self, state: ChainState) -> Vault:
        return state.modules[self.vault]  # type: ignore[return-value]

    def governance_module(self, state: ChainState) -> Governance:
        return state.modules[self.governance]  # type: ignore[return-value]

    def timelock_module(self, state: ChainState) -> Timelock:
        return state.modules[self.timelock]  # type: ignore[return-value]

    def market_module(self, state: ChainState) -> Market:
        return state.modules[self.market]  # type: ignore[return-value]


def must(result: TxResult) -> TxResult:
    """The result of a world-setup transaction; RuntimeError if it reverted."""
    if not result.ok:
        raise RuntimeError(f"world setup transaction failed: {result.error}: "
                           f"{result.error_message}")
    return result


def deploy_standard_system(state: ChainState, deployer: Address,
                           params: GenesisParams = GenesisParams(),
                           mutations: Mutations = HEALTHY) -> SystemHandle:
    handle = SystemHandle(deployer=deployer, params=params)
    state.install_module(FractionalToken(
        handle.fractions, state, deployer, "Fraction Token", "FTK",
        mutations=mutations))
    state.install_module(NftCollection(
        handle.collection, state, deployer, "Vaulted Collection"))
    state.install_module(Vault(
        handle.vault, state, deployer, handle.collection, handle.fractions,
        auction_duration=params.auction_duration,
        royalty_percent=params.royalty_percent, mutations=mutations))
    must(state.transact(deployer, handle.fractions, "update_nft_vault",
                        {"vault": handle.vault}))
    timelock = Timelock(handle.timelock, state, deployer, delay=params.timelock_delay)
    state.install_module(timelock)
    state.install_module(Governance(
        handle.governance, state, deployer, handle.fractions, handle.vault,
        handle.timelock, threshold_bps=params.proposal_threshold_bps,
        mutations=mutations))
    timelock.bind_controller(state, handle.governance)
    must(state.transact(deployer, handle.vault, "set_governance_contract",
                        {"governance": handle.governance}))
    state.install_module(FungibleToken(
        handle.pair, state, deployer, "Base Token", "TB"))
    state.install_module(Market(
        handle.market, state, deployer, handle.fractions, handle.pair,
        fee_multiplier=params.fee_multiplier, mutations=mutations))
    return handle


def standard_world(accounts: dict[Address, int], *, deployer: Address = "deployer",
                   params: GenesisParams = GenesisParams(),
                   mutations: Mutations = HEALTHY) -> tuple[ChainState, SystemHandle]:
    """Fresh chain with funded accounts and the standard stack deployed."""
    state = ChainState()
    if deployer not in accounts:
        state.fund(deployer, 0)
    for addr, balance in accounts.items():
        state.fund(addr, balance)
    handle = deploy_standard_system(state, deployer, params, mutations)
    return state, handle
