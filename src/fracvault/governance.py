"""Fraction-holder governance: proposals, balance-weighted voting, a 50
percent quorum against the supply snapshotted at creation, and delayed
execution through a timelock.

Execution is two-phase.  The first successful ``execute_proposal`` call
after the voting deadline checks quorum and majority and schedules the
action; a later call, once the delay has elapsed, applies the action to the
target with the governance module as sender and marks the proposal executed.
A guardian (the deployer by default) may cancel anything still scheduled.

Proposals and timelock entries are frozen values: a write, a vote
included, replaces the whole entry in ``Governance.proposals`` or
``Timelock.entries`` through ``ChainState.jset``.  They are immutable in
fact, down to a proposal's read-only ``voters`` mapping and the tuples of
its action's arguments, so an entry that is the same object renders the
same.  Each encodes its own digest fragment (``digest_json``), byte for
byte the canonical JSON of its normalized ``as_data``.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Any, Mapping

from . import errors
from .ledger import (Address, ChainState, ExecutionContext, Module, ZERO_ADDRESS,
                     canonical_text, record_encoder)
from .mutations import HEALTHY, Mutations
from .vault import Vault

DEFAULT_TIMELOCK_DELAY = 172_800  # two days
DEFAULT_PROPOSAL_THRESHOLD_BPS = 100  # one percent of supply

SCHEDULED = "Scheduled"
EXECUTED = "Executed"
CANCELLED = "Cancelled"

VAULT_ACTION_KINDS = frozenset({
    "set_auction_duration", "set_royalty_percent", "cancel_auction",
})


def _frozen(value: Any) -> Any:
    """An action argument with its lists as tuples, which encode as the
    same JSON lists, and its objects as read-only mappings."""
    if isinstance(value, (list, tuple)):
        return tuple(_frozen(v) for v in value)
    if isinstance(value, dict):
        return MappingProxyType({k: _frozen(v) for k, v in value.items()})
    return value


@dataclass(frozen=True)
class GovernanceAction:
    kind: str
    args: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def from_data(cls, data: "GovernanceAction | dict") -> "GovernanceAction":
        if isinstance(data, GovernanceAction):
            return data
        if not isinstance(data, dict) or not isinstance(data.get("kind"), str):
            raise errors.InvalidTarget("action needs a kind")
        args = data.get("args", {})
        if not isinstance(args, dict):
            raise errors.InvalidTarget("action args must be an object")
        return cls(kind=data["kind"],
                   args=tuple((k, _frozen(v)) for k, v in sorted(args.items())))

    def as_data(self) -> dict:
        return {"kind": self.kind, "args": {k: v for k, v in self.args}}

    def digest_json(self) -> str:
        """``canonical_json(normalize(self))``, encoded by exact type."""
        return '{"args":%s,"kind":%s}' % (canonical_text(dict(self.args)),
                                          canonical_text(self.kind))


@dataclass(frozen=True)
class TimelockEntry:
    proposal_id: int
    scheduled_at: int
    ready_at: int
    state: str = SCHEDULED
    executed_at: int | None = None

    def __deepcopy__(self, memo: dict) -> "TimelockEntry":
        return self  # a write replaces the entry, so forks of a world share it

    def as_data(self) -> dict:
        return {"proposal_id": self.proposal_id, "scheduled_at": self.scheduled_at,
                "ready_at": self.ready_at, "state": self.state,
                "executed_at": self.executed_at}

    digest_json = record_encoder(
        "proposal_id", "scheduled_at", "ready_at", "state", "executed_at")


_NO_VOTERS: Mapping[Address, int] = MappingProxyType({})


@dataclass(frozen=True)
class Proposal:
    proposal_id: int
    description: str
    target: str
    action: GovernanceAction
    voting_deadline: int
    supply_at_creation: int
    proposer: Address
    executed: bool = False
    votes_for: int = 0
    votes_against: int = 0
    total_votes_cast: int = 0
    # read-only: a vote replaces it with a mapping over a new dict
    voters: Mapping[Address, int] = field(default_factory=lambda: _NO_VOTERS)

    def __deepcopy__(self, memo: dict) -> "Proposal":
        return self  # a write replaces the entry, so forks of a world share it

    def as_data(self) -> dict:
        return {
            "id": self.proposal_id,
            "description": self.description,
            "target": self.target,
            "action": self.action.as_data(),
            "voting_deadline": self.voting_deadline,
            "supply_at_creation": self.supply_at_creation,
            "proposer": self.proposer,
            "executed": self.executed,
            "votes_for": self.votes_for,
            "votes_against": self.votes_against,
            "total_votes_cast": self.total_votes_cast,
            "voters": dict(self.voters),
        }

    # the action and the voters encode as their data: ``canonical_text``
    # reads the action's ``digest_json`` and the voters as a dict
    digest_json = record_encoder(
        "description", "target", "action", "voting_deadline", "supply_at_creation",
        "proposer", "executed", "votes_for", "votes_against", "total_votes_cast",
        "voters", id="proposal_id")


class Timelock(Module):
    """Mandatory delay between approval and execution of governance actions."""

    exposed = frozenset({"schedule", "cancel", "mark_executed", "entry_of"})

    def __init__(self, module_id: str, state: ChainState, deployer: Address,
                 delay: int = DEFAULT_TIMELOCK_DELAY):
        super().__init__(module_id)
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.deployer = deployer
        self.delay = delay
        self.controller: Address = ZERO_ADDRESS
        self.controller_set = False
        self.entries: dict[int, TimelockEntry] = {}

    def bind_controller(self, state: ChainState, controller: Address) -> None:
        """Deployment-time, write-once binding to the governance module."""
        if self.controller_set:
            raise errors.AlreadySet("timelock controller is write-once")
        if controller == ZERO_ADDRESS:
            raise errors.ZeroAddress("controller cannot be the zero address")
        state.jsetattr(self, "controller", controller)
        state.jsetattr(self, "controller_set", True)

    def _require_controller(self, ctx: ExecutionContext) -> None:
        if not self.controller_set or ctx.sender != self.controller:
            raise errors.NotController(f"{ctx.sender} does not control this timelock")

    def schedule(self, state: ChainState, ctx: ExecutionContext, proposal_id: int) -> int:
        self._require_controller(ctx)
        entry = self.entries.get(proposal_id)
        if entry is not None:
            raise errors.AlreadySet(f"proposal {proposal_id} already scheduled")
        ready_at = state.clock + self.delay
        state.jset(self.entries, proposal_id,
                   TimelockEntry(proposal_id=proposal_id, scheduled_at=state.clock,
                                 ready_at=ready_at))
        state.emit(ctx, self.module_id, "OperationScheduled",
                   {"proposal_id": proposal_id, "ready_at": ready_at})
        return ready_at

    def cancel(self, state: ChainState, ctx: ExecutionContext, proposal_id: int) -> None:
        self._require_controller(ctx)
        entry = self.entries.get(proposal_id)
        if entry is None or entry.state != SCHEDULED:
            raise errors.NotScheduled(f"proposal {proposal_id} is not scheduled")
        state.jset(self.entries, proposal_id, replace(entry, state=CANCELLED))
        state.emit(ctx, self.module_id, "OperationCancelled",
                   {"proposal_id": proposal_id})

    def mark_executed(self, state: ChainState, ctx: ExecutionContext, proposal_id: int) -> None:
        self._require_controller(ctx)
        entry = self.entries.get(proposal_id)
        if entry is None or entry.state != SCHEDULED:
            raise errors.NotScheduled(f"proposal {proposal_id} is not scheduled")
        if state.clock < entry.ready_at:
            raise errors.TimelockPending(
                f"ready at {entry.ready_at}, clock is {state.clock}")
        state.jset(self.entries, proposal_id,
                   replace(entry, state=EXECUTED, executed_at=state.clock))

    def entry_of(self, state: ChainState, ctx: ExecutionContext, proposal_id: int) -> dict:
        entry = self.entries.get(proposal_id)
        if entry is None:
            raise errors.NotScheduled(f"proposal {proposal_id} is not scheduled")
        return entry.as_data()

    def snapshot_data(self) -> dict:
        return {"kind": "timelock", "delay": self.delay, "controller": self.controller,
                "entries": self.entries}


class Governance(Module):
    exposed = frozenset({
        "create_proposal", "vote", "execute_proposal", "cancel_scheduled",
        "proposal_count", "proposal_info", "proposal_threshold",
    })

    def __init__(self, module_id: str, state: ChainState, deployer: Address,
                 fractions: str, vault: str, timelock: str, *,
                 threshold_bps: int = DEFAULT_PROPOSAL_THRESHOLD_BPS,
                 mutations: Mutations = HEALTHY):
        super().__init__(module_id)
        if threshold_bps < 0:
            raise ValueError("threshold must be non-negative")
        self.deployer = deployer
        self.guardian = deployer
        self.fractions = fractions
        self.vault = vault
        self.timelock = timelock
        self.threshold_bps = threshold_bps
        self.proposals: list[Proposal] = []
        self.mutations = mutations

    def _guard(self, state: ChainState):
        if self.mutations.drop_reentrancy_guard:
            return nullcontext()
        return state.reentrancy_lock(self.module_id)

    def _proposal(self, proposal_id: int) -> Proposal:
        if not 0 <= proposal_id < len(self.proposals):
            raise errors.UnknownProposal(f"no proposal {proposal_id}")
        return self.proposals[proposal_id]

    def _validate_action(self, state: ChainState, target: str,
                         action: GovernanceAction) -> None:
        module = state.modules.get(target)
        if module is None:
            raise errors.InvalidTarget(f"no module {target!r}")
        if action.kind not in VAULT_ACTION_KINDS:
            raise errors.InvalidTarget(f"unknown action kind {action.kind!r}")
        if not isinstance(module, Vault):
            raise errors.InvalidTarget(
                f"{action.kind} only applies to a vault, not {target!r}")

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def create_proposal(self, state: ChainState, ctx: ExecutionContext,
                        description: str, target: str, action: GovernanceAction | dict,
                        voting_period: int) -> int:
        if voting_period <= 0:
            raise errors.ZeroVotingPeriod("voting period must be positive")
        action = GovernanceAction.from_data(action)
        self._validate_action(state, target, action)
        supply = state.fungible_supply(self.fractions)
        threshold = supply * self.threshold_bps // 10_000
        held = state.fungible_balance(self.fractions, ctx.sender)
        if held < threshold:
            raise errors.BelowThreshold(
                f"proposing needs {threshold} fractions, caller holds {held}")
        proposal = Proposal(proposal_id=len(self.proposals), description=description,
                            target=target, action=action,
                            voting_deadline=state.clock + voting_period,
                            supply_at_creation=supply, proposer=ctx.sender)
        state.jappend(self.proposals, proposal)
        state.emit(ctx, self.module_id, "ProposalCreated",
                   {"proposal_id": proposal.proposal_id, "proposer": ctx.sender,
                    "target": target, "kind": action.kind,
                    "voting_deadline": proposal.voting_deadline,
                    "supply_at_creation": supply})
        return proposal.proposal_id

    def vote(self, state: ChainState, ctx: ExecutionContext,
             proposal_id: int, support: bool) -> int:
        """Cast a balance-weighted vote; one vote per address per proposal."""
        with self._guard(state):
            proposal = self._proposal(proposal_id)
            if state.clock >= proposal.voting_deadline:
                raise errors.VotingClosed(f"voting ended at {proposal.voting_deadline}")
            if ctx.sender in proposal.voters:
                raise errors.AlreadyVoted(f"{ctx.sender} already voted")
            weight = state.fungible_balance(self.fractions, ctx.sender)
            if weight <= 0:
                raise errors.ZeroWeight(f"{ctx.sender} holds no fractions")
            votes_for = proposal.votes_for + (weight if support else 0)
            votes_against = proposal.votes_against + (0 if support else weight)
            state.jset(self.proposals, proposal_id, replace(
                proposal,
                voters=MappingProxyType({**proposal.voters, ctx.sender: weight}),
                votes_for=votes_for, votes_against=votes_against,
                total_votes_cast=proposal.total_votes_cast + weight))
            state.emit(ctx, self.module_id, "VoteCast",
                       {"proposal_id": proposal_id, "voter": ctx.sender,
                        "support": support, "weight": weight})
            return weight

    def execute_proposal(self, state: ChainState, ctx: ExecutionContext,
                         proposal_id: int) -> str:
        """Schedule on first success, apply once the delay has elapsed."""
        proposal = self._proposal(proposal_id)
        if proposal.executed:
            raise errors.AlreadyExecuted(f"proposal {proposal_id} already executed")
        if state.clock < proposal.voting_deadline:
            raise errors.VotingOpen(
                f"voting runs until {proposal.voting_deadline}, clock is {state.clock}")
        timelock: Timelock = state.modules[self.timelock]  # type: ignore[assignment]
        entry = timelock.entries.get(proposal_id)
        if entry is None:
            quorum = proposal.supply_at_creation // 2
            if not self.mutations.drop_quorum_check and proposal.total_votes_cast <= quorum:
                raise errors.QuorumNotMet(
                    f"{proposal.total_votes_cast} votes cast, quorum needs more than {quorum}")
            if proposal.votes_for <= proposal.votes_against:
                raise errors.Defeated(
                    f"for {proposal.votes_for} does not beat against {proposal.votes_against}")
            ready_at = state.call(ctx, self.timelock, "schedule",
                                  {"proposal_id": proposal_id}, sender=self.address)
            state.emit(ctx, self.module_id, "ProposalScheduled",
                       {"proposal_id": proposal_id, "ready_at": ready_at})
            return SCHEDULED
        if entry.state == CANCELLED:
            raise errors.Cancelled(f"proposal {proposal_id} was cancelled")
        if entry.state == EXECUTED:
            raise errors.AlreadyExecuted(f"proposal {proposal_id} already executed")
        state.call(ctx, self.timelock, "mark_executed",
                   {"proposal_id": proposal_id}, sender=self.address)
        state.call(ctx, proposal.target, proposal.action.kind,
                   dict(proposal.action.args), sender=self.address)
        state.jset(self.proposals, proposal_id, replace(proposal, executed=True))
        state.emit(ctx, self.module_id, "ProposalExecuted",
                   {"proposal_id": proposal_id, "target": proposal.target,
                    "kind": proposal.action.kind})
        return EXECUTED

    def cancel_scheduled(self, state: ChainState, ctx: ExecutionContext,
                         proposal_id: int) -> None:
        if ctx.sender != self.guardian:
            raise errors.NotGuardian(f"{ctx.sender} is not the guardian")
        self._proposal(proposal_id)
        state.call(ctx, self.timelock, "cancel", {"proposal_id": proposal_id},
                   sender=self.address)
        state.emit(ctx, self.module_id, "ProposalCancelled",
                   {"proposal_id": proposal_id})

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #

    def proposal_count(self, state: ChainState, ctx: ExecutionContext) -> int:
        return len(self.proposals)

    def proposal_info(self, state: ChainState, ctx: ExecutionContext,
                      proposal_id: int) -> dict:
        return self._proposal(proposal_id).as_data()

    def proposal_threshold(self, state: ChainState, ctx: ExecutionContext) -> int:
        return state.fungible_supply(self.fractions) * self.threshold_bps // 10_000

    def snapshot_data(self) -> dict:
        return {"kind": "governance", "guardian": self.guardian,
                "fractions": self.fractions, "vault": self.vault,
                "timelock": self.timelock, "threshold_bps": self.threshold_bps,
                "proposals": self.proposals}
