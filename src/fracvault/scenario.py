"""Scenario files: genesis, deployment, and an expected-outcome transaction
script, all in one JSON document.

Format (``fracvault-scenario-v1``): amounts are decimal strings; account and
module ids are strings containing at least one non-digit.  Every transaction
entry names a ``sender`` and a ``call`` ("module.method"), may attach
``value`` and a pre-call ``advance_clock``, and pins its outcome with
``expect``: either ``"success"`` or ``{"error": "<ErrorName>"}``.  Each
entry decodes to a ``system.FuzzAction``; ``execute_entry`` runs it and adds
the outcome (result, return value, events, digest) as a ``TraceRecord``, for
``run_scenario`` and ``trace.replay_trace`` alike; ``TraceRecord.line()``
is its trace line.  A run aborts on the first expectation mismatch,
naming the step.

Each deployment entry is installed by ``system.deploy_module``.  The
bundled ``scenarios/lifecycle.json`` deploys ``system.STANDARD_DEPLOYMENT``
and walks deposit, auction, redemption, withdrawal, governance and market
trading end to end.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str
from typing import Any, Sequence

from .ledger import (ChainState, Event, HookCall, ReceiveHook, canonical_text,
                     normalize)
from .mutations import MUTANTS, install
from .system import (FuzzAction, GenesisParams, ScenarioError, decode_value,
                     deploy_module, parse_amount, run_action)

FORMAT = "fracvault-scenario-v1"


class ExpectationMismatch(Exception):
    def __init__(self, step: int, expected: str, got: str):
        self.step = step
        self.expected = expected
        self.got = got
        super().__init__(f"transactions[{step}]: expected {expected}, got {got}")


# a trace line: ``canonical_json(TraceRecord.as_data())`` and a newline
_LINE = ('{"advance_clock":"%d","args":%s,"call":%s,"digest":%s,"events":[%s],'
         '"result":%s,"return":%s,"sender":%s,"step":%d,"value":"%d"}\n')


@dataclass
class TraceRecord:
    """One executed step: its record and the outcome, the emitted events
    as they are."""
    step: int
    action: FuzzAction
    result: str  # "success" or the error name
    returned: Any
    events: Sequence[Event]
    digest: str

    def outcome(self) -> dict:
        return {"result": self.result, "return": normalize(self.returned),
                "events": [e.as_data() for e in self.events], "digest": self.digest}

    def as_data(self) -> dict:
        return {"step": self.step, **self.action.as_data(), **self.outcome()}

    def line(self) -> str:
        """The record's trace line, ``canonical_json(self.as_data())`` and a
        newline, filled into one template without building the data."""
        action = self.action
        return _LINE % (
            action.delta, canonical_text(action.args),
            _json_str(f"{action.module}.{action.method}"), _json_str(self.digest),
            ",".join([e.canonical() for e in self.events]), _json_str(self.result),
            canonical_text(self.returned), _json_str(action.sender), self.step,
            action.value)


@dataclass
class ScenarioRun:
    records: list[TraceRecord] = field(default_factory=list)
    state: ChainState | None = None


# --------------------------------------------------------------------- #
# Parsing
# --------------------------------------------------------------------- #

def parse_scenario(text: str) -> dict:
    """The document, each transaction decoded to ``(action, expected result)``."""
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
    transactions = document["transactions"]
    for i, entry in enumerate(transactions):
        where = f"transactions[{i}]"
        action = decode_transaction(entry, where)
        expect = entry.get("expect", "success")  # "success" or the error name
        if isinstance(expect, dict) and isinstance(expect.get("error"), str):
            expect = expect["error"]
        elif expect != "success":
            raise ScenarioError(f"{where}: bad 'expect'")
        transactions[i] = (action, expect)
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


def decode_transaction(entry: Any, where: str) -> FuzzAction:
    """Decode one transaction entry or trace record, which must name a call;
    ``where`` names it."""
    action = FuzzAction.from_data(entry, where)
    if not action.method:
        raise ScenarioError(f"{where}: missing 'sender'")
    return action


def load_scenario(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


# --------------------------------------------------------------------- #
# World construction
# --------------------------------------------------------------------- #

def _flag(spec: dict, key: str, where: str) -> bool:
    """A hook flag of a scenario file: JSON ``true`` or ``false``, false
    when absent; ``where`` names the hook or its call."""
    value = spec.get(key, False)
    if not isinstance(value, bool):
        raise ScenarioError(f"{where}: {key!r} must be true or false, not {value!r}")
    return value


def _parse_hook(owner: str, spec: Any) -> ReceiveHook:
    where = f"hook of {owner}"
    if not isinstance(spec, dict):
        raise ScenarioError(f"{where} must be a JSON object")
    entries = spec.get("calls", [])
    if not isinstance(entries, list):
        raise ScenarioError(f"{where}: 'calls' must be a list")
    calls = []
    for i, entry in enumerate(entries):
        call = f"{where}: calls[{i}]"
        if not isinstance(entry, dict):
            raise ScenarioError(f"{call} must be a JSON object")
        for key in ("module", "method"):
            if not isinstance(entry.get(key), str):
                raise ScenarioError(f"{call}: missing {key!r}")
        if not isinstance(entry.get("args", {}), dict):
            raise ScenarioError(f"{call}: 'args' must be an object")
        calls.append(HookCall(
            module=entry["module"], method=entry["method"],
            args=tuple(sorted(decode_value(entry.get("args", {})).items())),
            value=parse_amount(entry.get("value", 0), call),
            require_success=_flag(entry, "require_success", call),
            record_result=_flag(entry, "record_result", call)))
    max_activations = spec.get("max_activations")
    return ReceiveHook(owner=owner, calls=tuple(calls),
                       reject=_flag(spec, "reject", where),
                       max_activations=None if max_activations is None
                       else parse_amount(max_activations, f"{where}: max_activations"))


def build_world(scenario: dict) -> ChainState:
    """The scenario's genesis and deployment, then its ``"mutant"``."""
    genesis = scenario["genesis"]
    params = GenesisParams.from_data(genesis.get("parameters", {}))
    mutant = scenario.get("mutant")
    if mutant is not None and not isinstance(mutant, str):
        raise ScenarioError(f"mutant must be a string, not {mutant!r}")
    if mutant and mutant not in MUTANTS:
        raise ScenarioError(f"unknown mutant {mutant!r}")
    state = ChainState()
    hooks: list[tuple[str, ReceiveHook]] = []
    for account, spec in genesis["accounts"].items():
        if isinstance(spec, dict):
            state.fund(account, parse_amount(spec.get("balance", 0), account))
            if "hook" in spec:
                hooks.append((account, _parse_hook(account, spec["hook"])))
        else:
            state.fund(account, parse_amount(spec, account))
    for i, entry in enumerate(scenario["deployment"]):
        deploy_module(state, entry, params, i)
    for account, hook in hooks:
        state.set_receive_hook(account, hook)
    install(state, mutant)
    return state


# --------------------------------------------------------------------- #
# Execution
# --------------------------------------------------------------------- #

def run_scenario(scenario: dict) -> ScenarioRun:
    state = build_world(scenario)
    run = ScenarioRun(state=state)
    for step, (action, expected) in enumerate(scenario["transactions"]):
        record = execute_entry(state, step, action)
        run.records.append(record)
        if record.result != expected:
            raise ExpectationMismatch(step, expected, record.result)
    return run


def execute_entry(state: ChainState, step: int, action: FuzzAction) -> TraceRecord:
    """Run ``action``, which names a call, and record its outcome."""
    result = run_action(state, action)
    return TraceRecord(
        step=step, action=action,
        result="success" if result.ok else (result.error or "error"),
        returned=result.value if result.ok else None,
        events=result.events, digest=state.digest())
