from __future__ import annotations

import pytest

from fracvault import standard_world
from fracvault.ledger import ChainState

from helpers import tx

ACTORS = ("alice", "bob", "carol", "dave")
START_NATIVE = 1_000_000


@pytest.fixture
def chain() -> ChainState:
    state = ChainState()
    for name in ACTORS:
        state.fund(name, START_NATIVE)
    return state


@pytest.fixture
def world():
    """Standard stack plus NFTs 1..2 for alice and 3 for bob."""
    state, handle = standard_world({name: START_NATIVE for name in ACTORS})
    for token_id, owner in ((1, "alice"), (2, "alice"), (3, "bob")):
        tx(state, "deployer", handle.collection, "mint", to=owner, token_id=token_id)
    return state, handle


@pytest.fixture
def proposal_world(world):
    """``world`` after alice deposits NFT 1 (all 1000 fractions) and
    proposes a one-day auction duration: proposal 0."""
    state, handle = world
    tx(state, "alice", handle.vault, "deposit_nft",
       nft_address=handle.collection, token_id=1)
    tx(state, "alice", handle.governance, "create_proposal",
       description="one-day auctions", target=handle.vault,
       action={"kind": "set_auction_duration", "args": {"seconds": 86_400}},
       voting_period=86_400)
    return state, handle
