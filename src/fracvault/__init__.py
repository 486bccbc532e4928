"""Deterministic off-chain simulator and property-testing harness for an
NFT fractionalization protocol: vault custody, fraction token, English
auctions with anti-sniping, fraction-holder governance with a timelock, and
a constant-product market, all on one transactional ledger state machine.
"""

from . import errors
from .ledger import (Address, ChainState, Event, ExecutionContext, HookCall,
                     Module, ReceiveHook, TxResult, ZERO_ADDRESS)
from .mutations import MUTANTS
from .system import GenesisParams, SystemHandle, deploy_standard_system, standard_world

__version__ = "0.1.0"

__all__ = [
    "Address", "ChainState", "Event", "ExecutionContext", "GenesisParams",
    "HookCall", "MUTANTS", "Module", "ReceiveHook",
    "SystemHandle", "TxResult", "ZERO_ADDRESS", "deploy_standard_system",
    "errors", "standard_world",
]
