"""Revert hierarchy.

Every exception below aborts the enclosing call frame; the journal rolls the
frame back so a failed transaction leaves no trace in committed state.  The
class name is the stable error identifier used by scenario files, traces and
tests.
"""

from __future__ import annotations


class LedgerError(Exception):
    """Base class for every revertable failure."""

    @property
    def name(self) -> str:
        return type(self).__name__


# --- ledger core ---

class InvalidAmount(LedgerError):
    """Negative or otherwise malformed amount; checked arithmetic failed."""


class InsufficientNative(LedgerError):
    """Sender holds less native currency than the transfer requires."""


class HookReverted(LedgerError):
    """A recipient's payment hook failed; the transfer was undone."""


class DepthExceeded(LedgerError):
    """Nested call depth went past the configured maximum."""


class NonPayable(LedgerError):
    """Native value attached to a call that does not accept it."""


class InsufficientBalance(LedgerError):
    pass


class InsufficientAllowance(LedgerError):
    pass


class ZeroAddressRecipient(LedgerError):
    pass


class ZeroAddress(LedgerError):
    pass


class NotOwnerNorApproved(LedgerError):
    pass


class UnknownToken(LedgerError):
    pass


class TokenExists(LedgerError):
    pass


class UnknownFrame(LedgerError):
    """snapshot/rollback token does not name a live frame."""


class UnknownOperation(LedgerError):
    """Call names no module, or a method outside the module's interface, or
    arguments that are not exactly the method's names, each of its kind."""


class Reentered(LedgerError):
    """A guarded operation was entered again while its lock was held."""


# --- fractional token ---

class NotVault(LedgerError):
    pass


class NotOwner(LedgerError):
    pass


class AlreadySet(LedgerError):
    pass


# --- vault / auctions ---

class WrongCollection(LedgerError):
    pass


class NotInVault(LedgerError):
    pass


class TransferFailed(LedgerError):
    pass


class InsufficientFractions(LedgerError):
    pass


class AuctionActive(LedgerError):
    pass


class AlreadyActive(LedgerError):
    pass


class NoAuction(LedgerError):
    pass


class AuctionEnded(LedgerError):
    pass


class BidTooLow(LedgerError):
    pass


class NotYetEnded(LedgerError):
    pass


class NotGovernance(LedgerError):
    pass


class NotDeployer(LedgerError):
    pass


class NoProceeds(LedgerError):
    pass


class NothingPending(LedgerError):
    pass


class ZeroDuration(LedgerError):
    pass


class RoyaltyOutOfRange(LedgerError):
    pass


# --- governance ---

class BelowThreshold(LedgerError):
    pass


class ZeroVotingPeriod(LedgerError):
    pass


class InvalidTarget(LedgerError):
    pass


class UnknownProposal(LedgerError):
    pass


class VotingClosed(LedgerError):
    pass


class AlreadyVoted(LedgerError):
    pass


class ZeroWeight(LedgerError):
    pass


class VotingOpen(LedgerError):
    pass


class QuorumNotMet(LedgerError):
    pass


class Defeated(LedgerError):
    pass


class TimelockPending(LedgerError):
    pass


class AlreadyExecuted(LedgerError):
    pass


class Cancelled(LedgerError):
    pass


class NotGuardian(LedgerError):
    pass


class NotScheduled(LedgerError):
    pass


class NotController(LedgerError):
    pass


# --- market ---

class ZeroAmount(LedgerError):
    pass


class InsufficientShares(LedgerError):
    pass


class RatioMismatch(LedgerError):
    pass


class SlippageExceeded(LedgerError):
    pass


class EmptyReserves(LedgerError):
    pass
