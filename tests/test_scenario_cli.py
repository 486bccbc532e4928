"""Scenario execution, trace replay idempotence, tamper and truncation
detection, replay reading one record at a time, the CLI exit-code
contract, and reports that reproduce their findings from disk."""

from __future__ import annotations

import json
from importlib import resources

import pytest
from click.testing import CliRunner

from fracvault import trace as fv_trace
from fracvault.cli import main
from fracvault.fuzz import FuzzAction, FuzzPlan, replay_violates
from fracvault.mutations import MUTANTS
from fracvault.properties import replay_property_trace
from fracvault.scenario import (ExpectationMismatch, ScenarioError,
                                build_world, parse_scenario, run_scenario)
from fracvault.system import STANDARD_DEPLOYMENT
from fracvault.trace import DigestMismatch, replay_trace, write_trace

LIFECYCLE = resources.files("fracvault") / "scenarios" / "lifecycle.json"


@pytest.fixture
def lifecycle():
    return parse_scenario(LIFECYCLE.read_text())


def small_scenario(transactions, accounts=None):
    return {
        "format": "fracvault-scenario-v1",
        "genesis": {"accounts": accounts or {"deployer": "0", "alice": "1000"},
                    "parameters": {}},
        "deployment": [
            {"id": "fractions", "kind": "fractional_token", "deployer": "deployer",
             "args": {"token_name": "F", "symbol": "F"}},
            {"id": "collection", "kind": "nft_collection", "deployer": "deployer",
             "args": {"collection_name": "C"}},
            {"id": "vault", "kind": "vault", "deployer": "deployer",
             "args": {"collection": "collection", "fractions": "fractions"}},
        ],
        "transactions": transactions,
    }


def test_bundled_deployment_order(lifecycle):
    kinds = [entry["kind"] for entry in lifecycle["deployment"]]
    assert kinds == ["fractional_token", "nft_collection", "vault", "timelock",
                     "governance", "fungible_token", "market"]
    assert lifecycle["deployment"] == list(STANDARD_DEPLOYMENT)


@pytest.mark.parametrize("index, entry, message", [
    (1, {"id": "collection", "kind": "nft_vault", "deployer": "deployer"},
     r"deployment\[1\]: unknown kind 'nft_vault'"),
    (2, {"id": "vault", "kind": "vault", "deployer": "deployer",
         "args": {"collection": "collection"}},
     r"deployment\[2\]: missing argument 'fractions'"),
    (4, {"id": "governance", "kind": "governance", "deployer": "mallory",
         "args": {"fractions": "fractions", "vault": "vault",
                  "timelock": "timelock"}},
     r"deployment\[4\]: vault registration failed: NotDeployer"),
])
def test_deployment_errors_name_the_entry(lifecycle, index, entry, message):
    lifecycle["deployment"][index] = entry
    with pytest.raises(ScenarioError, match=message):
        build_world(lifecycle)


def test_lifecycle_runs_and_replays(tmp_path, lifecycle):
    run = run_scenario(lifecycle)
    assert len(run.records) == len(lifecycle["transactions"])
    trace_path = tmp_path / "lifecycle.jsonl"
    write_trace(str(trace_path), lifecycle, run.records)
    assert replay_trace(str(trace_path)) == len(run.records)


def test_scenario_runs_are_deterministic(tmp_path, lifecycle):
    one = run_scenario(lifecycle)
    two = run_scenario(parse_scenario(LIFECYCLE.read_text()))
    assert [r.as_data() for r in one.records] == [r.as_data() for r in two.records]


def test_parse_error_carries_line_number():
    with pytest.raises(ScenarioError, match=r"line 3"):
        parse_scenario('{\n "format": "fracvault-scenario-v1",\n broken\n}')


def test_parse_rejects_bad_call_shape():
    scenario = small_scenario([{"sender": "alice", "call": "no_dot_here"}])
    with pytest.raises(ScenarioError, match=r"transactions\[0\]"):
        parse_scenario(json.dumps(scenario))


def test_expectation_mismatch_names_step():
    scenario = small_scenario([
        {"sender": "deployer", "call": "collection.mint",
         "args": {"to": "alice", "token_id": "1"}, "expect": "success"},
        {"sender": "alice", "call": "vault.deposit_nft",
         "args": {"nft_address": "collection", "token_id": "1"},
         "expect": {"error": "NotOwner"}},
    ])
    with pytest.raises(ExpectationMismatch) as excinfo:
        run_scenario(parse_scenario(json.dumps(scenario)))
    assert excinfo.value.step == 1
    assert excinfo.value.expected == "NotOwner"
    assert excinfo.value.got == "NotVault"  # the vault binding was never set


def test_expected_error_path_passes():
    scenario = small_scenario([
        {"sender": "deployer", "call": "fractions.update_nft_vault",
         "args": {"vault": "vault"}, "expect": "success"},
        {"sender": "alice", "call": "vault.deposit_nft",
         "args": {"nft_address": "collection", "token_id": "1"},
         "expect": {"error": "UnknownToken"}},
    ])
    run = run_scenario(parse_scenario(json.dumps(scenario)))
    assert run.records[1].result == "UnknownToken"


def test_genesis_hook_installs():
    scenario = small_scenario(
        [{"sender": "deployer", "call": "fractions.update_nft_vault",
          "args": {"vault": "vault"}, "expect": "success"},
         {"sender": "alice", "call": "native.transfer",
          "args": {"to": "eve", "amount": "5"},
          "expect": {"error": "HookReverted"}}],
        accounts={"deployer": "0", "alice": "1000",
                  "eve": {"balance": "0", "hook": {"reject": True}}})
    run = run_scenario(parse_scenario(json.dumps(scenario)))
    assert run.records[-1].result == "HookReverted"


def test_trace_tamper_detection(tmp_path, lifecycle):
    run = run_scenario(lifecycle)
    path = tmp_path / "t.jsonl"
    write_trace(str(path), lifecycle, run.records)
    lines = path.read_text().splitlines()
    lines[5] = lines[5].replace('"result":"success"', '"result":"BidTooLow"')
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("\n".join(lines) + "\n")
    with pytest.raises(DigestMismatch):
        replay_trace(str(tampered))


@pytest.mark.parametrize("step", [999, 4, 6, "5", 5.0, None])
def test_an_edited_step_fails_replay(lifecycle_trace, step):
    path, lines = lifecycle_trace
    record = json.loads(lines[6])
    record["step"] = step
    lines[6] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    result = CliRunner().invoke(main, ["replay", str(path)])
    assert result.exit_code == 1
    assert (f"replay diverged: trace step 5: step diverged; recorded {step!r}, "
            "replay produced 5") in result.output


# --------------------------------------------------------------------- #
# Replay reads one record at a time
# --------------------------------------------------------------------- #

@pytest.fixture
def lifecycle_trace(tmp_path, lifecycle):
    """The lifecycle trace's path and its lines: the header, then one
    record per line."""
    path = tmp_path / "lifecycle.trace.jsonl"
    write_trace(str(path), lifecycle, run_scenario(lifecycle).records)
    return path, path.read_text().splitlines()


def _spy_on_replay(monkeypatch) -> list[int]:
    """For each record replay runs, how many records it had decoded."""
    decoded, executed = [], []
    decode, execute = fv_trace.decode_transaction, fv_trace.execute_entry

    def decoding(entry, where):
        decoded.append(where)
        return decode(entry, where)

    def executing(state, step, action):
        executed.append(len(decoded))
        return execute(state, step, action)

    monkeypatch.setattr(fv_trace, "decode_transaction", decoding)
    monkeypatch.setattr(fv_trace, "execute_entry", executing)
    return executed


def test_replay_decodes_no_record_ahead_of_the_one_it_runs(lifecycle_trace, monkeypatch):
    path, lines = lifecycle_trace
    executed = _spy_on_replay(monkeypatch)
    assert replay_trace(str(path)) == len(lines) - 1
    assert executed == list(range(1, len(lines)))  # record i runs after i + 1 decodes


@pytest.mark.parametrize("k", [0, 1, 20, 35])
def test_replay_runs_the_records_before_a_malformed_one(lifecycle_trace, monkeypatch, k):
    path, lines = lifecycle_trace
    lines[k + 1] = lines[k + 1].replace('"step":', "step:", 1)
    path.write_text("\n".join(lines) + "\n")
    executed = _spy_on_replay(monkeypatch)
    with pytest.raises(ScenarioError, match=fr"^line {k + 2}: record {k}: "):
        replay_trace(str(path))
    assert len(executed) == k


def test_a_diverged_replay_closes_its_trace(lifecycle_trace, monkeypatch):
    path, lines = lifecycle_trace
    record = json.loads(lines[6])
    record["digest"] = "0" * 64
    lines[6] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    opened = []

    def spy(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(fv_trace, "open", spy, raising=False)
    with pytest.raises(DigestMismatch, match="trace step 5: digest diverged"):
        try:
            replay_trace(str(path))
        finally:  # before pytest.raises drops the replay's frame
            assert len(opened) == 1 and opened[0].closed


def test_a_trace_cut_at_a_record_boundary_replays_as_the_shorter_run(lifecycle_trace):
    # nothing but the step count shows the cut: the format has no trailer
    path, lines = lifecycle_trace
    path.write_text("\n".join(lines[:-3]) + "\n")
    result = CliRunner().invoke(main, ["replay", str(path)])
    assert result.exit_code == 0, result.output
    assert result.output == "ok: replayed 33 steps with matching digests\n"


def test_a_trace_cut_inside_a_line_fails(lifecycle_trace):
    path, lines = lifecycle_trace
    cut = lines[-3][:len(lines[-3]) // 2]
    path.write_text("\n".join([*lines[:-3], cut]))
    result = CliRunner().invoke(main, ["replay", str(path)])
    assert result.exit_code == 1
    assert "parse error: line 35: record 33: " in result.output


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #

def test_cli_run_and_replay(tmp_path):
    runner = CliRunner()
    trace_path = tmp_path / "out.jsonl"
    result = runner.invoke(main, ["run", str(LIFECYCLE), "--trace",
                                  str(trace_path)])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["replay", str(trace_path)])
    assert result.exit_code == 0, result.output


def test_cli_run_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    result = CliRunner().invoke(main, ["run", str(bad)])
    assert result.exit_code == 1
    assert "parse error" in result.output


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["genesis"]["parameters"].update(bogus="1"),
     "genesis.parameters: unknown parameter 'bogus'"),
    (lambda doc: doc["genesis"]["parameters"].update(royalty_percent="five"),
     "genesis.parameters.royalty_percent: 'five' is not a decimal amount"),
    (lambda doc: doc["genesis"]["parameters"].update(auction_duration=1.9),
     "genesis.parameters.auction_duration: amounts are decimal strings"),
    (lambda doc: doc["genesis"]["parameters"].update(royalty_percent=True),
     "genesis.parameters.royalty_percent: amounts are decimal strings"),
    (lambda doc: doc["genesis"].update(parameters=["604800"]),
     "genesis.parameters must be an object"),
    (lambda doc: doc.update(mutant="no-such-mutant"),
     "unknown mutant 'no-such-mutant'"),
    (lambda doc: doc.update(mutant=["x"]), "mutant must be a string, not ['x']"),
    (lambda doc: doc.update(mutant=0), "mutant must be a string, not 0"),
], ids=["unknown-parameter", "non-decimal-parameter", "float-parameter",
        "boolean-parameter", "mistyped-parameters", "unknown-mutant",
        "non-string-mutant", "numeric-mutant"])
def test_cli_run_reports_bad_scenario_input(tmp_path, edit, message):
    document = json.loads(LIFECYCLE.read_text())
    edit(document)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document))
    result = CliRunner().invoke(main, ["run", str(path)])
    assert result.exit_code == 1
    assert f"scenario error: {message}" in result.output


@pytest.mark.parametrize("hook, message", [
    ({"max_activations": "two"},
     "hook of mallory: max_activations: 'two' is not a decimal amount"),
    ({"max_activations": "-1"}, "hook of mallory: max_activations: negative amount"),
    ({"calls": [{"method": "withdraw_pending"}]},
     "hook of mallory: calls[0]: missing 'module'"),
    ({"calls": [{"module": "vault"}]}, "hook of mallory: calls[0]: missing 'method'"),
    ({"calls": {"module": "vault", "method": "withdraw_pending"}},
     "hook of mallory: 'calls' must be a list"),
    ({"calls": ["vault.withdraw_pending"]},
     "hook of mallory: calls[0] must be a JSON object"),
    ({"reject": "false"}, "hook of mallory: 'reject' must be true or false, not 'false'"),
    ({"calls": [{"module": "vault", "method": "withdraw_pending",
                 "require_success": "false"}]},
     "hook of mallory: calls[0]: 'require_success' must be true or false, not 'false'"),
    ({"calls": [{"module": "vault", "method": "withdraw_pending",
                 "record_result": "false"}]},
     "hook of mallory: calls[0]: 'record_result' must be true or false, not 'false'"),
], ids=["non-decimal-activations", "negative-activations", "call-without-module",
        "call-without-method", "calls-not-a-list", "call-not-an-object",
        "string-reject", "string-require-success", "string-record-result"])
def test_cli_run_reports_a_malformed_genesis_hook(tmp_path, hook, message):
    document = json.loads(LIFECYCLE.read_text())
    document["genesis"]["accounts"]["mallory"] = {"balance": "0", "hook": hook}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document))
    result = CliRunner().invoke(main, ["run", str(path)])
    assert result.exit_code == 1
    assert f"scenario error: {message}" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


def _replay_with_trace_mutant(tmp_path, lifecycle, mutant):
    path = tmp_path / "t.jsonl"
    write_trace(str(path), lifecycle, run_scenario(lifecycle).records)
    header, *records = path.read_text().splitlines()
    header = json.dumps(dict(json.loads(header), mutant=mutant))
    path.write_text("\n".join([header, *records]) + "\n")
    return CliRunner().invoke(main, ["replay", str(path)])


def test_cli_replay_reports_unknown_trace_mutant(tmp_path, lifecycle):
    result = _replay_with_trace_mutant(tmp_path, lifecycle, "no-such-mutant")
    assert result.exit_code == 1
    assert "parse error: unknown mutant 'no-such-mutant'" in result.output


def test_cli_replay_reports_a_non_string_trace_mutant(tmp_path, lifecycle):
    result = _replay_with_trace_mutant(tmp_path, lifecycle, ["x"])
    assert result.exit_code == 1
    assert "parse error: mutant must be a string, not ['x']" in result.output


@pytest.mark.parametrize("action", [
    "set_auction_duration",
    {"kind": "set_auction_duration", "args": ["86400"]},
], ids=["string-action", "list-args"])
def test_cli_run_reverts_a_malformed_governance_action(tmp_path, action):
    document = json.loads(LIFECYCLE.read_text())
    document["transactions"].append(
        {"sender": "bob", "call": "governance.create_proposal",
         "args": {"description": "malformed", "target": "vault",
                  "action": action, "voting_period": "3600"},
         "expect": {"error": "InvalidTarget"}})
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(document))
    result = CliRunner().invoke(main, ["run", str(path), "--trace",
                                       str(tmp_path / "t.jsonl")])
    assert result.exit_code == 0, result.output
    assert result.output.startswith("ok: ")


# a malformed transaction, and the error after the name of its entry
MALFORMED_TRANSACTIONS = {
    "list-args": ({"sender": "bob", "call": "vault.withdraw_pending", "args": [1]},
                  ": 'args' must be a JSON object"),
    "non-decimal-value": ({"sender": "bob", "call": "vault.withdraw_pending",
                           "value": "1e3"},
                          ".value: '1e3' is not a decimal amount"),
    "negative-clock": ({"sender": "bob", "call": "vault.withdraw_pending",
                        "advance_clock": "-5"}, ".advance_clock: negative amount"),
    "no-method": ({"sender": "bob", "call": "vault."},
                  ": 'call' must be 'module.method'"),
}


@pytest.mark.parametrize("entry, message", list(MALFORMED_TRANSACTIONS.values()),
                         ids=list(MALFORMED_TRANSACTIONS))
def test_cli_run_reports_a_malformed_transaction(tmp_path, entry, message):
    document = json.loads(LIFECYCLE.read_text())
    index = len(document["transactions"])
    document["transactions"].append(entry)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document))
    result = CliRunner().invoke(main, ["run", str(path)])
    assert result.exit_code == 1
    assert f"parse error: transactions[{index}]{message}" in result.output


def test_cli_replay_names_the_line_of_a_syntax_error(tmp_path, lifecycle):
    path = tmp_path / "t.jsonl"
    write_trace(str(path), lifecycle, run_scenario(lifecycle).records)
    lines = path.read_text().splitlines()
    lines[6] = lines[6].replace('"step":', "step:", 1)  # the seventh line
    path.write_text("\n".join(lines) + "\n")
    result = CliRunner().invoke(main, ["replay", str(path)])
    assert result.exit_code == 1
    assert "parse error: line 7: record 5: Expecting property name" in result.output


@pytest.mark.parametrize("line, message", [
    ('{"step":"0"}', "record 0: missing 'sender'"),
    ("[1,2]", "record 0: must be a JSON object"),
] + [(json.dumps(entry), f"record 0{message}")
     for entry, message in MALFORMED_TRANSACTIONS.values()],
    ids=["missing-fields", "not-an-object", *MALFORMED_TRANSACTIONS])
def test_cli_replay_reports_a_malformed_record(tmp_path, lifecycle, line, message):
    path = tmp_path / "t.jsonl"
    write_trace(str(path), lifecycle, run_scenario(lifecycle).records)
    header, _, *records = path.read_text().splitlines()
    path.write_text("\n".join([header, line, *records]) + "\n")
    result = CliRunner().invoke(main, ["replay", str(path)])
    assert result.exit_code == 1
    assert f"parse error: {message}" in result.output


def test_cli_fuzz_exit_codes(tmp_path):
    runner = CliRunner()
    report = tmp_path / "r.json"
    ok = runner.invoke(main, ["fuzz", "--seed", "5", "--steps", "400",
                              "--report", str(report)])
    assert ok.exit_code == 0, ok.output
    bad = runner.invoke(main, ["fuzz", "--seed", "5", "--steps", "4000",
                               "--mutant", "drop-burn-before-pay",
                               "--report", str(tmp_path / "m.json")])
    assert bad.exit_code == 1
    assert "violation" in bad.output


def test_cli_fuzz_check_revert_atomicity(tmp_path):
    path = tmp_path / "atomic.json"
    result = CliRunner().invoke(main, ["fuzz", "--check-revert-atomicity",
                                       "--seed", "11", "--steps", "400",
                                       "--report", str(path)])
    assert result.exit_code == 0, result.output
    assert json.loads(path.read_text())["plan"]["check_revert_atomicity"] is True


def test_cli_fuzz_zero_steps(tmp_path):
    result = CliRunner().invoke(main, ["fuzz", "--seed", "1", "--steps", "0",
                                       "--report", str(tmp_path / "z.json")])
    assert result.exit_code == 0
    report = json.loads((tmp_path / "z.json").read_text())
    assert report["violations"] == []


@pytest.mark.parametrize("args", [
    ["fuzz", "--seed", "1", "--actors", "0"],
    ["fuzz", "--seed", "1", "--actors", "-2"],
    ["fuzz", "--seed", "1", "--steps", "-3"],
    ["suite", "--steps", "-1"],
], ids=["fuzz-zero-actors", "fuzz-negative-actors", "fuzz-negative-steps",
        "suite-negative-steps"])
def test_cli_rejects_a_count_out_of_range(tmp_path, args):
    path = tmp_path / "r.json"
    result = CliRunner().invoke(main, args + ["--report", str(path)])
    assert result.exit_code == 2, result.output
    assert not path.exists()


def test_cli_suite_runs_and_prints_lines(tmp_path):
    result = CliRunner().invoke(main, ["suite", "--steps", "150", "--report",
                                       str(tmp_path / "s.json")])
    assert result.exit_code == 0, result.output
    assert result.output.count("PASS") == 28
    report = json.loads((tmp_path / "s.json").read_text())
    assert report["passed"] is True


def test_cli_suite_mutant_fails(tmp_path):
    result = CliRunner().invoke(main, ["suite", "--steps", "300", "--mutant",
                                       "drop-quorum-check", "--report",
                                       str(tmp_path / "m.json")])
    assert result.exit_code == 1
    assert "FAIL quorum_not_met_rejected" in result.output


def test_cli_report_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("FRACVAULT_REPORT_DIR", str(tmp_path / "reports"))
    result = CliRunner().invoke(main, ["fuzz", "--seed", "2", "--steps", "50"])
    assert result.exit_code == 0
    assert (tmp_path / "reports" / "fuzz-seed2-steps50.json").exists()


# --------------------------------------------------------------------- #
# Reports read back from disk
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("mutant", ["drop-burn-before-pay", "drop-quorum-check"])
def test_written_fuzz_report_reproduces_its_violation(tmp_path, mutant):
    path = tmp_path / "fuzz.json"
    result = CliRunner().invoke(main, ["fuzz", "--seed", "42", "--steps", "20000",
                                       "--mutant", mutant, "--report", str(path)])
    assert result.exit_code == 1, result.output
    violations = json.loads(path.read_text())["violations"]
    assert violations
    plan = FuzzPlan(seed=42, steps=20_000, mutant=mutant)
    for violation in violations:
        trace = [FuzzAction.from_data(step) for step in violation["trace"]]
        assert replay_violates(plan, trace, violation["invariant"])


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_written_suite_report_reproduces_its_failures(tmp_path, mutant):
    path = tmp_path / "suite.json"
    result = CliRunner().invoke(main, ["suite", "--seed", "0", "--steps", "400",
                                       "--mutant", mutant, "--report", str(path)])
    assert result.exit_code == 1, result.output
    traced = [p for p in json.loads(path.read_text())["properties"] if p["trace"]]
    assert traced
    for failure in traced:
        trace = [FuzzAction.from_data(step) for step in failure["trace"]]
        assert replay_property_trace(failure["name"], trace, mutant), \
            failure["name"]
