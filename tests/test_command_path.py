"""No command reaches the names that only the tests read: with each of
them stubbed to raise, every command on every fixture and golden-gallery
input, on the two-stage benchmark groups and on two splits with a ker mu
of order 25 and 4, exits with the same code and prints the same bytes.
The names are ROADMAP item 5's list of test-only runtime code; one the
commands reach again fails here.  Runtime code that moved into
``tests/oracles.py`` is stubbed there too, and no fqav module may bind it
again."""

import contextlib
import importlib
import io
import json

import pytest

from fqav.cli import COMMANDS, main

from test_cli import RAMIFIED_CM_DOCS
from test_definitions import MODULES
from test_golden import (
    DIAG_PERM,
    FIXTURES,
    SL_DIAG,
    _document_text,
    glue_document,
    symmetric_document,
    translated_sl_diag_document,
)

# module -> its test-only functions and classes, and class -> its
# test-only methods, as ``module.Class``
TEST_ONLY = {
    "decompose": ("close_with_tables", "close_elements", "check_normal", "_element_inverse"),
    "action": ("pointwise_stabilizer",),
    "linalg": ("solve_affine_mod_lattice",),
    "cyclotomic": ("kernel_dimension", "eigen_multiplicity", "CycloField"),
}
TEST_ONLY_METHODS = ("variety.EndoBlockMatrix.compose", "action.LatticeElement.compose",
                     "action.AffineAutomorphism.compose")
# runtime code that is now a test-side oracle in ``tests/oracles.py``
ORACLES = ("fixed_solutions", "lattice_coordinates")

PACKAGE = [importlib.import_module("fqav")] + [
    importlib.import_module(f"fqav.{path.stem}") for path in MODULES if path.stem != "__init__"]

# the golden gallery's inputs but the order-41472 one, whose six commands
# alone take seconds, the four ramified benchmark groups, S5 and glue-2
INPUTS = {name: _document_text(name) for name in FIXTURES + tuple(SL_DIAG) + tuple(DIAG_PERM)}
INPUTS["sl-diag-c3-6912"] = json.dumps(translated_sl_diag_document())
INPUTS.update((name, json.dumps(doc)) for name, (doc, _) in RAMIFIED_CM_DOCS.items())
# two splits whose ker mu is not trivial
INPUTS["sym-5-120"] = json.dumps(symmetric_document(5))
INPUTS["glue-2-5184"] = json.dumps(glue_document())


def run_commands(path):
    """(exit code, stdout) of each command on the input at ``path``."""
    runs = []
    for command in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            runs.append((main([command, str(path)]), out.getvalue()))
    return runs


def refusing(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"a command reached {name}")
    return refuse


def stub_test_only(monkeypatch):
    """Replace every binding of the test-only names in the package, and
    the test-only methods, by a stub that raises, and empty the package's
    caches, so that no cached result stands in for a call; the stubbed
    names."""
    stubbed = []
    for module_name, names in TEST_ONLY.items():
        module = importlib.import_module(f"fqav.{module_name}")
        for name in names:
            original = getattr(module, name)
            for reader in PACKAGE:
                for bound, value in list(vars(reader).items()):
                    if value is original:
                        monkeypatch.setattr(reader, bound, refusing(name))
                        stubbed.append(f"{reader.__name__}.{bound}")
    for dotted in TEST_ONLY_METHODS:
        module_name, class_name, method = dotted.split(".")
        cls = getattr(importlib.import_module(f"fqav.{module_name}"), class_name)
        monkeypatch.setattr(cls, method, refusing(dotted))
        stubbed.append(dotted)
    oracles = importlib.import_module("oracles")
    for name in ORACLES:
        monkeypatch.setattr(oracles, name, refusing(name))
        stubbed.append(f"oracles.{name}")
    for module in PACKAGE:
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    return stubbed


def test_stubs_bind_every_name(monkeypatch):
    stubbed = stub_test_only(monkeypatch)
    for module_name, names in TEST_ONLY.items():
        assert {f"fqav.{module_name}.{name}" for name in names} <= set(stubbed)
    assert "fqav.decompose.close_with_tables" in stubbed and "fqav.CycloField" in stubbed
    assert {f"oracles.{name}" for name in ORACLES} <= set(stubbed)
    with pytest.raises(AssertionError, match="a command reached close_with_tables"):
        importlib.import_module("fqav.decompose").close_with_tables([])


def test_oracles_not_bound_in_the_runtime():
    assert [f"{module.__name__}.{name}" for module in PACKAGE for name in ORACLES
            if hasattr(module, name)] == []


@pytest.mark.parametrize("name", list(INPUTS))
def test_commands_reach_no_test_only_name(name, tmp_path, monkeypatch):
    path = tmp_path / "input.json"
    path.write_text(INPUTS[name])
    want = run_commands(path)
    stub_test_only(monkeypatch)
    assert run_commands(path) == want
