"""Shared test shorthand."""

from __future__ import annotations

from fracvault.ledger import ChainState


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
