"""Every error code fqav raises is one some test expects, and every code a
test expects is one fqav raises, so a code left behind by a change, or a
test of a code that no longer exists, fails here.  A raised code is a
``code="..."`` literal in a call in a fqav module.  A test expects a code
when it compares the literal with a ``.code`` (directly or through a
module-level collection of literals), spells it as ``error[...]`` in a
string, or passes it as a ``code`` argument of ``pytest.mark.parametrize``.
And every ``InputError`` fqav raises names its code."""

import ast
import pathlib
import re

from test_definitions import MODULES, parse

TESTS = sorted(pathlib.Path(__file__).resolve().parent.glob("*.py"))

_PRINTED = re.compile(r"error\[([a-z]+(?:-[a-z]+)+)\]")


def raised_codes(tree):
    return {kw.value.value for node in ast.walk(tree) if isinstance(node, ast.Call)
            for kw in node.keywords
            if kw.arg == "code" and isinstance(kw.value, ast.Constant)}


def literals(node, collections):
    """The str literals of ``node``, a literal or a collection of them, or
    the name of a module-level one in ``collections``."""
    if isinstance(node, ast.Name):
        node = collections.get(node.id, node)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, (ast.Set, ast.List, ast.Tuple)):
        return set().union(*(literals(e, collections) for e in node.elts))
    return set()


def parametrized_codes(call):
    """The ``code`` column of a ``pytest.mark.parametrize(names, rows)``."""
    names = call.args[0].value if call.args and isinstance(call.args[0], ast.Constant) else ""
    names = [name.strip() for name in names.split(",")]
    if "code" not in names or len(call.args) < 2 or not isinstance(call.args[1], ast.List):
        return set()
    column = names.index("code")
    return {row.elts[column].value for row in call.args[1].elts
            if isinstance(row, ast.Tuple) and isinstance(row.elts[column], ast.Constant)}


def expected_codes(tree):
    collections = {target.id: node.value for node in tree.body if isinstance(node, ast.Assign)
                   for target in node.targets if isinstance(target, ast.Name)}
    codes = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            sides = [node.left] + node.comparators
            if any(isinstance(side, ast.Attribute) and side.attr == "code" for side in sides):
                codes |= set().union(*(literals(side, collections) for side in sides))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            codes.update(_PRINTED.findall(node.value))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "parametrize"):
            codes |= parametrized_codes(node)
    return codes


RAISED = set().union(*(raised_codes(parse(path)) for path in MODULES))
EXPECTED = set().union(*(expected_codes(parse(path)) for path in TESTS))


def test_every_raised_code_is_expected():
    assert sorted(RAISED - EXPECTED) == []


def test_every_expected_code_is_raised():
    assert sorted(EXPECTED - RAISED) == []
    assert "not-endomorphism" in EXPECTED & RAISED


def input_errors_without_code(tree):
    """The line numbers of the ``InputError(...)`` calls with no ``code=``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "InputError"
            and not any(kw.arg == "code" for kw in node.keywords)]


def test_every_input_error_has_a_code():
    missing = {path.name: lines for path in MODULES
               if (lines := input_errors_without_code(parse(path)))}
    assert missing == {}
    assert input_errors_without_code(ast.parse('InputError("m")')) == [1]
