"""The mutant patch table: each row's subclasses differ from their healthy
classes in exactly the listed methods, a guard deletion removes exactly one
raise, ``install`` swaps only the patched classes, and no protocol module
knows about mutants."""

from __future__ import annotations

import dis
import sys
from importlib import resources

import pytest
from click.testing import CliRunner

from fracvault.attackers import run_attack
from fracvault.cli import main
from fracvault.fuzz import FuzzPlan, actor_world, build_fuzz_world, run_fuzz
from fracvault.mutations import MUTANTS, DropGuard, install, mutant_class
from fracvault.properties import run_suite
from fracvault.vault import Vault

ROWS = [(mutant, cls) for mutant, table in sorted(MUTANTS.items()) for cls in table]
GUARDS = [(mutant, cls, method, patch.error) for mutant, cls in ROWS
          for method, patch in MUTANTS[mutant][cls].items()
          if isinstance(patch, DropGuard)]


def _healthy(module) -> bool:
    """``module``'s class is the one its python module defines."""
    cls = type(module)
    return getattr(sys.modules[cls.__module__], cls.__name__) is cls


def _raises(method) -> int:
    return sum(i.opname == "RAISE_VARARGS" for i in dis.get_instructions(method))


@pytest.mark.parametrize("mutant, cls", ROWS,
                         ids=[f"{mutant}-{cls.__name__}" for mutant, cls in ROWS])
def test_a_row_subclass_differs_in_exactly_the_listed_methods(mutant, cls):
    patched = mutant_class(mutant, cls)
    assert patched.__bases__ == (cls,) and mutant_class(mutant, cls) is patched
    assert (patched.__module__, patched.__qualname__) == (cls.__module__, cls.__qualname__)
    own = {name for name in vars(patched) if not name.startswith("__")}
    assert own == set(MUTANTS[mutant][cls])
    assert all(getattr(patched, name) is not getattr(cls, name) for name in own)


@pytest.mark.parametrize("mutant, cls, method, error", GUARDS,
                         ids=[f"{g[0]}-{g[2]}" for g in GUARDS])
def test_a_guard_deletion_removes_exactly_one_raise(mutant, cls, method, error):
    healthy, patched = getattr(cls, method), getattr(mutant_class(mutant, cls), method)
    assert _raises(healthy) - _raises(patched) == 1
    assert error in healthy.__code__.co_names
    assert error not in patched.__code__.co_names
    # compiled in the healthy module's globals, with its lines and annotations
    assert patched.__globals__ is healthy.__globals__
    assert patched.__code__.co_filename == healthy.__code__.co_filename
    assert patched.__code__.co_firstlineno == healthy.__code__.co_firstlineno
    assert patched.__annotations__ == healthy.__annotations__


def test_a_guard_deletion_needs_exactly_one_guard():
    with pytest.raises(ValueError, match="0 guards raising QuorumNotMet"):
        DropGuard("QuorumNotMet").patch(Vault.withdraw_nft)


def test_a_healthy_world_holds_only_healthy_classes():
    state, _, _ = build_fuzz_world(FuzzPlan(seed=1, steps=0))
    assert all(_healthy(module) for module in state.modules.values())


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_install_swaps_only_the_patched_classes(mutant):
    state, _, _ = actor_world(2)
    healthy = {mid: type(module) for mid, module in state.modules.items()}
    install(state, mutant)
    table = MUTANTS[mutant]
    for mid, module in state.modules.items():
        cls = healthy[mid]
        assert type(module) is (mutant_class(mutant, cls) if cls in table else cls)


def test_an_unknown_mutant_fails_as_before():
    with pytest.raises(KeyError):
        run_fuzz(FuzzPlan(seed=1, steps=5, mutant="drop-everything"))
    with pytest.raises(KeyError):
        run_suite(steps=5, mutant="drop-everything")
    with pytest.raises(KeyError):
        run_attack("DoubleRedeem", "drop-everything")
    for command in ("fuzz", "suite"):
        result = CliRunner().invoke(main, [command, "--mutant", "drop-everything"])
        assert result.exit_code == 2 and "drop-everything" in result.output


@pytest.mark.parametrize("name", ["vault", "governance", "market", "tokens",
                                  "ledger", "system"])
def test_protocol_modules_know_nothing_of_mutants(name):
    # a mutant is a row of the patch table, never a flag in the healthy code
    source = (resources.files("fracvault") / f"{name}.py").read_text()
    assert "mutations" not in source.lower()
