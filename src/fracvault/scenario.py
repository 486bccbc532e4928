"""Scenario files: genesis, deployment, and an expected-outcome transaction
script, all in one JSON document.

Format (``fracvault-scenario-v1``): amounts are decimal strings; account and
module ids are strings containing at least one non-digit.  Every transaction
entry names a ``sender`` and a ``call`` ("module.method"), may attach
``value`` and a pre-call ``advance_clock``, and pins its outcome with
``expect``: either ``"success"`` or ``{"error": "<ErrorName>"}``.  A run
aborts on the first expectation mismatch, naming the step.

Each deployment entry is installed by ``system.deploy_module``.  The
bundled ``scenarios/lifecycle.json`` deploys ``system.STANDARD_DEPLOYMENT``
and walks deposit, auction, redemption, withdrawal, governance and market
trading end to end.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from .ledger import ChainState, HookCall, ReceiveHook, normalize
from .mutations import HEALTHY, MUTANTS, Mutations
from .system import GenesisParams, ScenarioError, deploy_module

FORMAT = "fracvault-scenario-v1"


class ExpectationMismatch(Exception):
    def __init__(self, step: int, expected: str, got: str, message: str = ""):
        self.step = step
        self.expected = expected
        self.got = got
        super().__init__(
            f"transactions[{step}]: expected {expected}, got {got}"
            + (f" ({message})" if message else ""))


@dataclass
class TraceRecord:
    step: int
    sender: str
    call: str
    args: dict
    value: int
    advance_clock: int
    result: str  # "success" or the error name
    returned: Any
    events: list[dict]
    digest: str

    def as_data(self) -> dict:
        return {"step": self.step, "sender": self.sender, "call": self.call,
                "args": normalize(self.args), "value": str(self.value),
                "advance_clock": str(self.advance_clock), "result": self.result,
                "return": normalize(self.returned), "events": self.events,
                "digest": self.digest}


@dataclass
class ScenarioRun:
    scenario: dict
    records: list[TraceRecord] = field(default_factory=list)
    state: ChainState | None = None


# --------------------------------------------------------------------- #
# Parsing
# --------------------------------------------------------------------- #

def parse_scenario(text: str) -> dict:
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(document, dict):
        raise ScenarioError("scenario must be a JSON object")
    if document.get("format", FORMAT) != FORMAT:
        raise ScenarioError(f"unsupported format {document.get('format')!r}")
    check_world(document)
    if not isinstance(document.get("transactions"), list):
        raise ScenarioError("'transactions' section missing or mistyped")
    for i, entry in enumerate(document["transactions"]):
        check_transaction(entry, f"transactions[{i}]")
    return document


def check_world(document: dict) -> None:
    """Check the ``genesis`` and ``deployment`` sections of a scenario or a
    trace header."""
    for section, kind in (("genesis", dict), ("deployment", list)):
        if not isinstance(document.get(section), kind):
            raise ScenarioError(f"{section!r} section missing or mistyped")
    if not isinstance(document["genesis"].get("accounts"), dict):
        raise ScenarioError("genesis.accounts missing or mistyped")
    for i, entry in enumerate(document["deployment"]):
        for key in ("id", "kind", "deployer"):
            if not isinstance(entry, dict) or not isinstance(entry.get(key), str):
                raise ScenarioError(f"deployment[{i}]: missing {key!r}")


def check_transaction(entry: Any, where: str) -> None:
    """Check one transaction entry or trace record; ``where`` names it."""
    if not isinstance(entry, dict):
        raise ScenarioError(f"{where}: must be a JSON object")
    if not isinstance(entry.get("sender"), str):
        raise ScenarioError(f"{where}: missing 'sender'")
    call = entry.get("call")
    if not isinstance(call, str) or call.count(".") != 1:
        raise ScenarioError(f"{where}: 'call' must be 'module.method'")
    expect = entry.get("expect", "success")
    if expect != "success" and not (isinstance(expect, dict)
                                    and isinstance(expect.get("error"), str)):
        raise ScenarioError(f"{where}: bad 'expect'")


def load_scenario(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def _amount(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ScenarioError(f"{where}: amounts are decimal strings")
    try:
        number = int(value)
    except ValueError:
        raise ScenarioError(f"{where}: {value!r} is not a decimal amount") from None
    if number < 0:
        raise ScenarioError(f"{where}: negative amount")
    return number


def _decode(value: Any) -> Any:
    """File-to-runtime value mapping: digit strings become integers."""
    if isinstance(value, str) and value.isdigit():
        return int(value)
    if isinstance(value, list):
        return [_decode(v) for v in value]
    if isinstance(value, dict):
        return {k: _decode(v) for k, v in value.items()}
    return value


# --------------------------------------------------------------------- #
# World construction
# --------------------------------------------------------------------- #

def _parse_hook(owner: str, spec: dict) -> ReceiveHook:
    calls = []
    for entry in spec.get("calls", []):
        calls.append(HookCall(
            module=entry["module"], method=entry["method"],
            args=tuple(sorted(_decode(entry.get("args", {})).items())),
            value=_amount(entry.get("value", 0), f"hook of {owner}"),
            require_success=bool(entry.get("require_success", False)),
            record_result=bool(entry.get("record_result", False))))
    max_activations = spec.get("max_activations")
    return ReceiveHook(owner=owner, calls=tuple(calls),
                       reject=bool(spec.get("reject", False)),
                       max_activations=None if max_activations is None
                       else int(max_activations))


def build_world(scenario: dict, mutations: Mutations | None = None) -> ChainState:
    genesis = scenario["genesis"]
    params = GenesisParams.from_data(genesis.get("parameters", {}))
    if mutations is None:
        name = scenario.get("mutant")
        if name and name not in MUTANTS:
            raise ScenarioError(f"unknown mutant {name!r}")
        mutations = MUTANTS[name] if name else HEALTHY
    state = ChainState()
    hooks: list[tuple[str, ReceiveHook]] = []
    for account, spec in genesis["accounts"].items():
        if isinstance(spec, dict):
            state.fund(account, _amount(spec.get("balance", 0), account))
            if "hook" in spec:
                hooks.append((account, _parse_hook(account, spec["hook"])))
        else:
            state.fund(account, _amount(spec, account))
    for i, entry in enumerate(scenario["deployment"]):
        deploy_module(state, entry, params, mutations, i)
    for account, hook in hooks:
        state.set_receive_hook(account, hook)
    return state


# --------------------------------------------------------------------- #
# Execution
# --------------------------------------------------------------------- #

def run_scenario(scenario: dict, mutations: Mutations | None = None) -> ScenarioRun:
    state = build_world(scenario, mutations)
    run = ScenarioRun(scenario=scenario, state=state)
    for step, entry in enumerate(scenario["transactions"]):
        record = execute_entry(state, step, entry)
        run.records.append(record)
        expect = entry.get("expect", "success")
        expected = "success" if expect == "success" else expect["error"]
        if record.result != expected:
            raise ExpectationMismatch(step, expected, record.result)
    return run


def execute_entry(state: ChainState, step: int, entry: dict) -> TraceRecord:
    module, method = entry["call"].split(".", 1)
    args = _decode(entry.get("args", {}))
    value = _amount(entry.get("value", 0), f"transactions[{step}].value")
    advance = _amount(entry.get("advance_clock", 0),
                      f"transactions[{step}].advance_clock")
    if advance:
        state.advance_clock(advance)
    result = state.transact(entry["sender"], module, method, args, value=value)
    return TraceRecord(
        step=step, sender=entry["sender"], call=entry["call"], args=args,
        value=value, advance_clock=advance,
        result="success" if result.ok else (result.error or "error"),
        returned=result.value if result.ok else None,
        events=[e.as_data() for e in result.events], digest=state.digest())
