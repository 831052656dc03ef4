"""Fuzzing the command line: on any input, ``main`` exits 0 or 1, and a
failure is one ``error[code]: ...`` line, never a traceback."""

import contextlib
import io
import json
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fqav.action import close_group
from fqav.cli import COMMANDS, main, parse_input
from fqav.errors import InputError

FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def run_main(command, text):
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "-"])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(command, text):
    code, out, err = run_main(command, text)
    assert code in (0, 1), err
    if code == 0:
        json.loads(out)
    else:
        assert err.startswith("error["), err
        assert "Traceback" not in err
        assert out == ""


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children, max_size=4)),
    max_leaves=20)

schema_keys = st.sampled_from(["schema_version", "factors", "generators", "options"])


@FUZZ
@given(st.sampled_from(COMMANDS),
       json_values | st.dictionaries(schema_keys, json_values, max_size=4))
def test_arbitrary_json(command, doc):
    assert_clean_exit(command, json.dumps(doc))


@FUZZ
@given(st.sampled_from(COMMANDS), st.text(max_size=40))
def test_arbitrary_text(command, text):
    assert_clean_exit(command, text)


entries = st.integers(min_value=-2, max_value=2)
rationals = (entries
             | st.builds(lambda p, q: f"{p}/{q}", entries, st.integers(1, 4)))


@st.composite
def schema_docs(draw):
    """Documents of the input schema: n <= 2, block entries in -2..2,
    translations with small denominators, group_cap <= 64."""
    n = draw(st.integers(1, 2))
    factors = [{"cm": draw(st.sampled_from(["zeta4", "zeta6", "generic"])),
                "label": draw(st.sampled_from(["E", "F"]))} for _ in range(n)]
    generators = []
    for _ in range(draw(st.integers(1, 2))):
        holonomy = [[[draw(entries), draw(entries)] for _ in range(n)] for _ in range(n)]
        translation = [draw(rationals) for _ in range(2 * n)]
        generators.append({"holonomy": holonomy, "translation": translation})
    return {"schema_version": 1, "factors": factors, "generators": generators,
            "options": {"group_cap": draw(st.integers(1, 64))}}


@FUZZ
@given(st.sampled_from(COMMANDS), schema_docs())
def test_schema_shaped_documents(command, doc):
    assert_clean_exit(command, json.dumps(doc))


# the faults of the group a document's generators generate, which
# close_group finds; every other fault is the document's, which parse_input
# finds
GROUP_CODES = {"not-endomorphism", "not-automorphism", "infinite-order", "cap-exceeded"}


@FUZZ
@given(st.sampled_from(COMMANDS), schema_docs(), st.sampled_from([None, 0, "8"]))
def test_document_errors_before_group_errors(command, doc, bad_cap):
    # a document with faults of both kinds, here a group_cap that is not
    # a positive integer, fails on the document's; the pairs parse_input
    # returns fail in close_group only on the group's
    if bad_cap is not None:
        doc["options"]["group_cap"] = bad_cap
    text = json.dumps(doc)
    code = None
    try:
        variety, gens, options = parse_input(text)
    except InputError as exc:
        assert exc.code not in GROUP_CODES
        code = exc.code
    else:
        try:
            close_group(variety, gens, cap=options["group_cap"])
        except InputError as exc:
            assert exc.code in GROUP_CODES
            code = exc.code
    exit_code, _, err = run_main(command, text)
    if code is None:
        assert (exit_code, err) == (0, "")
    else:
        assert exit_code == 1 and err.startswith(f"error[{code}]:"), err
