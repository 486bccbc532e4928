"""Deterministic input generator for the trace-replay workload.

``build_scenario(seed, transactions)`` returns the text of a
``fracvault-scenario-v1`` document: the bundled lifecycle deployment, a
genesis that matches ``fuzz.build_fuzz_world`` (six funded actors, the
intruder hook on the last one, NFT and pair mints, market approvals), and
``transactions`` calls drawn by ``fuzz.ActionGenerator`` against a world
built by ``scenario.build_world``.  Each call is executed while it is drawn
and its outcome is pinned as the entry's ``expect``; clock actions fold into
the next entry's ``advance_clock``.  The same seed gives byte-identical text.
"""

from __future__ import annotations

import json
from importlib import resources

from fracvault import fuzz, scenario
from fracvault.ledger import normalize
from fracvault.system import GenesisParams, SystemHandle


def _entry(sender: str, call: str, args: dict, value: int, advance: int,
           expect) -> dict:
    entry = {"sender": sender, "call": call, "args": normalize(args),
             "expect": expect}
    if value:
        entry["value"] = str(value)
    if advance:
        entry["advance_clock"] = str(advance)
    return entry


def _genesis(actors: list[str]) -> dict:
    accounts: dict = {"deployer": "0"}
    accounts.update({a: str(fuzz.ACTOR_FUND) for a in actors})
    # same reentry hook as build_fuzz_world wires on the intruder
    accounts[actors[-1]] = {"balance": str(fuzz.ACTOR_FUND), "hook": {
        "max_activations": "2",
        "calls": [{"module": "vault", "method": "withdraw_pending"},
                  {"module": "vault", "method": "redeem_fraction_value",
                   "args": {"token_id": "1", "fraction_amount": "50"}}]}}
    return {"accounts": accounts,
            "parameters": normalize(GenesisParams().as_data())}


def _setup_calls(plan: fuzz.FuzzPlan, actors: list[str]) -> list[tuple]:
    """(sender, module, method, args) of the build_fuzz_world set-up."""
    calls = [("deployer", "fractions", "update_nft_vault", {"vault": "vault"})]
    for i, token_id in enumerate(range(1, 2 * plan.actor_count + 1)):
        calls.append(("deployer", "collection", "mint",
                      {"to": actors[i % len(actors)], "token_id": token_id}))
    for actor in actors:
        calls.append(("deployer", "pair", "mint",
                      {"to": actor, "amount": fuzz.PAIR_FUND}))
        for token in ("fractions", "pair"):
            calls.append((actor, token, "approve",
                          {"spender": "market", "amount": fuzz.BIG_APPROVAL}))
    return calls


def build_scenario(seed: int, transactions: int) -> str:
    plan = fuzz.FuzzPlan(seed=seed, steps=transactions)
    actors = [f"a{i}" for i in range(plan.actor_count)]
    lifecycle = json.loads((resources.files("fracvault") / "scenarios"
                            / "lifecycle.json").read_text(encoding="utf-8"))
    document = {"format": scenario.FORMAT,
                "genesis": _genesis(actors),
                "deployment": lifecycle["deployment"],
                "transactions": []}
    state = scenario.build_world(document)
    entries = document["transactions"]
    for sender, module, method, args in _setup_calls(plan, actors):
        result = state.transact(sender, module, method, args)
        if not result.ok:
            raise RuntimeError(f"scenario set-up {module}.{method} failed: "
                               f"{result.error}")
        entries.append(_entry(sender, f"{module}.{method}", args, 0, 0, "success"))

    handle = SystemHandle(deployer="deployer")
    generator = fuzz.ActionGenerator(plan, state, handle, actors)
    clock = 0
    drawn = 0
    while drawn < transactions:
        action = generator.generate()
        result = fuzz.run_action(state, action)
        if result is None:
            clock += action.delta
            continue
        expect = "success" if result.ok else {"error": result.error}
        entries.append(_entry(action.sender, f"{action.module}.{action.method}",
                              fuzz._action_args(action), action.value, clock,
                              expect))
        clock = 0
        drawn += 1
    return json.dumps(document, sort_keys=True, separators=(",", ":"))
