"""Every ``CertificateError`` fqav raises is one some test makes fire, or is
listed in ``UNFIRED`` with the reason no test does, so a new certificate
check without a test that fires it fails here.  A site is a
``CertificateError(...)`` call in a fqav module, named by its message's
literal text, each f-string field written ``{}``; a name the message adds
is read off its assignment of a str literal.  A test fires a site when one
of its strings, its own f-string fields written ``{}``, holds the whole
message, each ``{}`` of the site standing for any text."""

import ast
import pathlib
import re

from test_definitions import MODULES, parse
from test_error_codes import TESTS

# message -> why no test makes it fire
UNFIRED = {}


def strings(tree):
    """The str literals of the module, names bound to one by assignment."""
    return {target.id: node.value.value for node in ast.walk(tree)
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
            for target in node.targets if isinstance(target, ast.Name)}


def text(node, names):
    """The literal text of a str expression, ``{}`` for each part it does
    not spell out."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(text(value, names) for value in node.values)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return text(node.left, names) + text(node.right, names)
    if isinstance(node, ast.Name) and node.id in names:
        return names[node.id]
    return "{}"


def sites(tree):
    names = strings(tree)
    return [text(node.args[0], names) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "CertificateError"]


def written_strings(tree):
    return {text(node, {}) for node in ast.walk(tree)
            if isinstance(node, ast.JoinedStr)
            or isinstance(node, ast.Constant) and isinstance(node.value, str)}


def pattern(message):
    return re.compile(".+".join(map(re.escape, message.split("{}"))))


SITES = [message for path in MODULES for message in sites(parse(path))]
# the strings of every test module but this one, which names sites itself
WRITTEN = set().union(*(written_strings(parse(path)) for path in TESTS
                        if path.name != pathlib.Path(__file__).name))


def fired(message):
    return any(pattern(message).search(written) for written in WRITTEN)


def test_every_site_fires_or_is_listed():
    assert [m for m in SITES if not fired(m) and m not in UNFIRED] == []


def test_listed_sites_exist_and_do_not_fire():
    assert [m for m in UNFIRED if m not in SITES or fired(m)] == []


def test_sites_are_read():
    # the messages are distinct, and the three forms of a message are read
    assert len(SITES) == len(set(SITES)) > 20
    assert {"complement is not invariant", "order {} does not kill the spectrum of {}",
            "N-tilde is not an extension of N by ker mu: {} does not lift generator {} of N"
            } <= set(SITES)
    assert pattern("order {} does not kill the spectrum of {}").search(
        "certificate failure: order 4 does not kill the spectrum of x -> [[0]] x + [0]")
