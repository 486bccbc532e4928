"""Standard world assembly.

A deployment is a list of entries, each naming a module ``id``, its
``kind``, its ``deployer`` and its constructor ``args``.  ``deploy_module``
installs one entry; ``scenario.build_world`` calls it for every entry of a
scenario file, and ``deploy_standard_system`` for every entry of
``STANDARD_DEPLOYMENT``, the canonical order (fraction token, NFT
collection, vault, timelock, governance with its vault registration, pair
token, market) that ``scenarios/lifecycle.json`` also lists.
``standard_world`` funds the accounts and deploys that stack.  The fuzz,
campaign and attack worlds are all built from it by the one recipe
``fuzz.actor_world``, which then runs their setup transactions, a
``FuzzAction`` list, and installs their hooks and mutant.

``FuzzAction`` is the one transaction record (a fuzz or campaign action, a
scenario transaction, a trace record's inputs) and ``run_action`` its one
executor; its file encoding is the input fields of a ``fracvault-trace-v1``
record, decoded as scenario files are.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Any, NamedTuple

from .governance import (DEFAULT_PROPOSAL_THRESHOLD_BPS, DEFAULT_TIMELOCK_DELAY,
                         Governance, Timelock)
from .ledger import Address, ChainState, TxResult, normalize
from .market import DEFAULT_FEE_MULTIPLIER, Market
from .tokens import FractionalToken, FungibleToken, NftCollection
from .vault import DEFAULT_AUCTION_DURATION, Vault

STANDARD_DEPLOYMENT: tuple[dict, ...] = (
    {"id": "fractions", "kind": "fractional_token", "deployer": "deployer",
     "args": {"token_name": "Fraction Token", "symbol": "FTK"}},
    {"id": "collection", "kind": "nft_collection", "deployer": "deployer",
     "args": {"collection_name": "Vaulted Collection"}},
    {"id": "vault", "kind": "vault", "deployer": "deployer",
     "args": {"collection": "collection", "fractions": "fractions"}},
    {"id": "timelock", "kind": "timelock", "deployer": "deployer"},
    {"id": "governance", "kind": "governance", "deployer": "deployer",
     "args": {"fractions": "fractions", "vault": "vault", "timelock": "timelock"}},
    {"id": "pair", "kind": "fungible_token", "deployer": "deployer",
     "args": {"token_name": "Base Token", "symbol": "TB"}},
    {"id": "market", "kind": "market", "deployer": "deployer",
     "args": {"token_a": "fractions", "token_b": "pair"}},
)


class ScenarioError(Exception):
    """Malformed scenario document; the message carries line/step context."""


def parse_amount(value: Any, where: str) -> int:
    """A non-negative decimal amount of a scenario file; ``where`` names it."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ScenarioError(f"{where}: amounts are decimal strings")
    try:
        number = int(value)
    except ValueError:
        raise ScenarioError(f"{where}: {value!r} is not a decimal amount") from None
    if number < 0:
        raise ScenarioError(f"{where}: negative amount")
    return number


def decode_value(value: Any) -> Any:
    """File-to-runtime value mapping: digit strings become integers."""
    if isinstance(value, str) and value.isdigit():
        return int(value)
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    if isinstance(value, dict):
        return {k: decode_value(v) for k, v in value.items()}
    return value


class FuzzAction(NamedTuple):
    """One transaction: ``sender`` calls ``module.method`` with ``args``, the
    keyword arguments the method receives, attaching ``value``, after the
    clock advances by ``delta``.  A record with no call (an empty
    ``method``) is a clock-only step."""

    sender: str
    module: str
    method: str
    args: dict
    value: int = 0
    delta: int = 0

    def as_data(self) -> dict:
        if not self.method:
            return {"advance_clock": str(self.delta)}
        return {"sender": self.sender, "call": f"{self.module}.{self.method}",
                "args": normalize(self.args), "value": str(self.value),
                "advance_clock": str(self.delta)}

    @classmethod
    def from_data(cls, data: Any, where: str = "step") -> "FuzzAction":
        """Decode ``as_data`` output or a scenario entry; an entry with
        neither ``sender`` nor ``call`` is a clock-only step."""
        if not isinstance(data, dict):
            raise ScenarioError(f"{where}: must be a JSON object")
        delta = parse_amount(data.get("advance_clock", 0), f"{where}.advance_clock")
        if "sender" not in data and "call" not in data:
            return cls("", "", "", {}, 0, delta)
        call, args = data.get("call"), data.get("args", {})
        if not isinstance(data.get("sender"), str):
            raise ScenarioError(f"{where}: missing 'sender'")
        module, _, method = call.partition(".") if isinstance(call, str) \
            else ("", "", "")
        if not module or not method or "." in method:
            raise ScenarioError(f"{where}: 'call' must be 'module.method'")
        if not isinstance(args, dict):
            raise ScenarioError(f"{where}: 'args' must be a JSON object")
        return cls(data["sender"], module, method, decode_value(args),
                   parse_amount(data.get("value", 0), f"{where}.value"), delta)


def run_action(state: ChainState, action: FuzzAction) -> TxResult | None:
    """Advance the clock by ``action.delta``, then run its call; None for a
    clock-only step."""
    if action.delta:
        state.advance_clock(action.delta)
    if not action.method:
        return None
    return state.transact(action.sender, action.module, action.method,
                          action.args, value=action.value)


@dataclass(frozen=True)
class GenesisParams:
    auction_duration: int = DEFAULT_AUCTION_DURATION
    royalty_percent: int = 5
    fee_multiplier: int = DEFAULT_FEE_MULTIPLIER
    timelock_delay: int = DEFAULT_TIMELOCK_DELAY
    proposal_threshold_bps: int = DEFAULT_PROPOSAL_THRESHOLD_BPS

    @classmethod
    def from_data(cls, data: dict) -> "GenesisParams":
        if not isinstance(data, dict):
            raise ScenarioError("genesis.parameters must be an object")
        known = {f.name for f in fields(cls)}
        values = {}
        for name, value in data.items():
            if name not in known:
                raise ScenarioError(f"genesis.parameters: unknown parameter {name!r}")
            values[name] = parse_amount(value, f"genesis.parameters.{name}")
        return cls(**values)

    def as_data(self) -> dict:
        return asdict(self)


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


def deploy_module(state: ChainState, entry: dict, params: GenesisParams,
                  index: int) -> None:
    """Install the module that deployment entry ``index`` describes: its
    ``kind`` picks the class, its ``args`` the constructor arguments, and
    ``params`` the tunable ones.  A governance entry also becomes its
    timelock's controller and registers with its vault."""
    kind, mid, deployer = entry["kind"], entry["id"], entry["deployer"]
    args = entry.get("args", {})
    where = f"deployment[{index}]"
    try:
        if kind == "fractional_token":
            state.install_module(FractionalToken(
                mid, state, deployer, args["token_name"], args["symbol"]))
        elif kind == "fungible_token":
            state.install_module(FungibleToken(
                mid, state, deployer, args["token_name"], args["symbol"]))
        elif kind == "nft_collection":
            state.install_module(NftCollection(
                mid, state, deployer, args["collection_name"]))
        elif kind == "vault":
            state.install_module(Vault(
                mid, state, deployer, args["collection"], args["fractions"],
                auction_duration=params.auction_duration,
                royalty_percent=params.royalty_percent))
        elif kind == "timelock":
            state.install_module(Timelock(mid, state, deployer,
                                          delay=params.timelock_delay))
        elif kind == "governance":
            state.install_module(Governance(
                mid, state, deployer, args["fractions"], args["vault"],
                args["timelock"], threshold_bps=params.proposal_threshold_bps))
            timelock = state.modules[args["timelock"]]
            timelock.bind_controller(state, mid)  # type: ignore[attr-defined]
            registration = state.transact(
                deployer, args["vault"], "set_governance_contract",
                {"governance": mid})
            if not registration.ok:
                raise ScenarioError(
                    f"{where}: vault registration failed: {registration.error}")
        elif kind == "market":
            state.install_module(Market(
                mid, state, deployer, args["token_a"], args["token_b"],
                fee_multiplier=params.fee_multiplier))
        else:
            raise ScenarioError(f"{where}: unknown kind {kind!r}")
    except KeyError as exc:
        raise ScenarioError(f"{where}: missing argument {exc}") from exc
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def deploy_standard_system(state: ChainState, deployer: Address,
                           params: GenesisParams = GenesisParams()) -> SystemHandle:
    handle = SystemHandle(deployer=deployer, params=params)
    for index, entry in enumerate(STANDARD_DEPLOYMENT):
        deploy_module(state, dict(entry, deployer=deployer), params, index)
        if entry["kind"] == "vault":
            # the binding's event precedes the governance registration's in
            # every world's event hash
            must(state.transact(deployer, handle.fractions, "update_nft_vault",
                                {"vault": handle.vault}))
    return handle


def standard_world(accounts: dict[Address, int], *, deployer: Address = "deployer",
                   params: GenesisParams = GenesisParams()) -> tuple[ChainState, SystemHandle]:
    """Fresh chain with funded accounts and the standard stack deployed."""
    state = ChainState()
    if deployer not in accounts:
        state.fund(deployer, 0)
    for addr, balance in accounts.items():
        state.fund(addr, balance)
    handle = deploy_standard_system(state, deployer, params)
    return state, handle
