"""Each stage certifies that N is normal by look-ups in its closure tables,
and names a failing pair's witness from them too.  The element-wise
``check_normal``, with the inverse by powers it composes with, stays as the
tests' oracle: no function in fqav but ``check_normal`` itself reads either
name, so no command can reach them."""

import ast

import pytest

from test_definitions import MODULES, parse

ORACLE_ONLY = {"check_normal", "_element_inverse"}


def readers(tree):
    """(enclosing function or None, name) for each read of a name in
    ``ORACLE_ONLY``, as a name or an attribute."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else None)
        if name in ORACLE_ONLY and isinstance(node.ctx, ast.Load):
            found.append((function, name))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_only_check_normal_reads_the_oracle(path):
    reads = readers(parse(path))
    assert [read for read in reads if read[0] != "check_normal"] == []
    if path.stem == "decompose":
        assert reads == [("check_normal", "_element_inverse")]
