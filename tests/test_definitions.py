"""Every function, class and method defined in a fqav module is read by name
somewhere in the package, the tests or the benchmark's tracer, so a helper
left behind by a move fails here.  A name counts as read when it is loaded,
read as an attribute, or spelt out as a whole (dotted) string, as the
tracer's ``TRACED`` and ``monkeypatch.setattr`` spell names.  Special
methods are called by the language, not by name, and are left out.  The
tracer module is only read."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "fqav"
MODULES = sorted(SOURCE.glob("*.py"))
READERS = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")) + [
    ROOT / "perfbench" / "tracer.py"]

_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def definitions(tree):
    """The names of the module's functions and classes, and of their
    methods, special methods left out."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    names = []
    for node in tree.body:
        if isinstance(node, defs):
            names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names += [f"{node.name}.{item.name}" for item in node.body
                          if isinstance(item, defs)]
    return [name for name in names if not name.rsplit(".", 1)[-1].startswith("__")]


def read_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value)):
            names.update(node.value.split("."))
    return names


READ = set().union(*(read_names(parse(path)) for path in READERS))


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_definition_is_read(path):
    unread = [name for name in definitions(parse(path))
              if name.rsplit(".", 1)[-1] not in READ]
    assert unread == []
