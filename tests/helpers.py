"""Shared test shorthand."""

from __future__ import annotations

from fracvault import ledger
from fracvault.ledger import ChainState, Event


def tx(state: ChainState, sender: str, module: str, method: str, value: int = 0, **args):
    result = state.transact(sender, module, method, args, value=value)
    assert result.ok, f"{module}.{method} failed: {result.error}: {result.error_message}"
    return result.value


def tx_err(state: ChainState, error: str, sender: str, module: str, method: str,
           value: int = 0, **args):
    result = state.transact(sender, module, method, args, value=value)
    assert not result.ok, f"{module}.{method} unexpectedly succeeded: {result.value!r}"
    assert result.error == error, (
        f"expected {error}, got {result.error}: {result.error_message}")
    return result


def native_total(state: ChainState) -> int:
    return sum(state.native.values())


def genesis_ddmin(trace: list, fails) -> list:
    """Delete-only ddmin that replays every candidate from genesis through
    ``fails(candidate)``, its chunk-1 pass repeated until it deletes
    nothing: the reference for the checkpointed ddmin."""
    trace = list(trace)
    chunk = max(len(trace) // 2, 1)
    while True:
        length = len(trace)
        i = 0
        while i < len(trace):
            candidate = trace[:i] + trace[i + chunk:]
            if candidate and fails(candidate):
                trace = candidate
            else:
                i += chunk
        if chunk == 1 and len(trace) == length:
            return trace
        chunk = max(chunk // 2, 1)


def counting_reruns(monkeypatch, module) -> list:
    """The runs that ``module`` rebuilds from their seed with ``rerun``,
    each by the count of actions it ran."""
    reruns = []
    original = module.rerun

    def counting(world, generate, steps, tail, executed, detail, digest):
        reruns.append(executed)
        return original(world, generate, steps, tail, executed, detail, digest)

    monkeypatch.setattr(module, "rerun", counting)
    return reruns


def held_events(monkeypatch) -> list:
    """For every transaction run in this process from now on, the events
    its world's log held before it, the events it committed, and the events
    held after it."""
    seen = []
    transact = ChainState.transact

    def spied(self, *args, **kwargs):
        held = len(self.events)
        result = transact(self, *args, **kwargs)
        seen.append((held, len(result.events), len(self.events)))
        return result

    monkeypatch.setattr(ChainState, "transact", spied)
    return seen


def assert_folds_by_the_rule(seen: list) -> int:
    """Each transaction of ``seen`` (``held_events``) folded the log it
    found, to its last event, exactly when it held ``FOLD_EVENTS`` events or
    more; so a log holds fewer than ``FOLD_EVENTS`` events plus one
    transaction's.  How many transactions folded."""
    for held, committed, after in seen:
        assert after == (1 if held >= ledger.FOLD_EVENTS else held) + committed
        assert after < ledger.FOLD_EVENTS + committed
    return sum(held >= ledger.FOLD_EVENTS for held, _, _ in seen)


def hashed_events(monkeypatch) -> list:
    """Every event the event hash encodes from now on."""
    hashed = []
    canonical = Event.canonical
    monkeypatch.setattr(Event, "canonical",
                        lambda event: hashed.append(event) or canonical(event))
    return hashed
