"""The commands count eigenvalues modulo a split prime and never build the
exact cyclotomic field.  ``CycloField``, ``CycloNumber``,
``kernel_dimension`` and ``eigen_multiplicity`` stay as the tests'
reference: no module on a command's path imports or reads any of them, so
no command can reach the exact field."""

import ast

import pytest

from test_definitions import SOURCE, parse

EXACT_FIELD = {"CycloField", "CycloNumber", "kernel_dimension", "eigen_multiplicity"}
COMMAND_MODULES = ("action", "classify", "decompose", "linalg", "cli", "variety")


def reads(tree):
    """Each name in ``EXACT_FIELD`` the module imports, or reads as a name
    or an attribute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [alias.name.rsplit(".", 1)[-1] for alias in node.names]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.append(node.attr)
    return [name for name in found if name in EXACT_FIELD]


@pytest.mark.parametrize("module", COMMAND_MODULES)
def test_commands_never_reach_the_exact_field(module):
    assert reads(parse(SOURCE / f"{module}.py")) == []
