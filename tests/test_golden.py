"""Golden gallery: the ``report`` bytes of every fixture, in both formats, and
of one order-36 quasietale special-linear group where ``age`` runs on every
element.  An optimisation must reproduce these bytes exactly.

To regenerate after an intended output change::

    PYTHONPATH=src:tests python -c "import test_golden; test_golden.regenerate()"
"""

import json
import pathlib

import pytest

from fqav.cli import main

from conftest import FIXTURE_DIR

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

FIXTURES = ("rot4-square", "sign-rot4", "kummer", "bielliptic", "p1-from-ei")
FORMATS = ("json", "md")

# zeta6 and zeta6^5 = zeta6^-1 as (c, d) meaning c + d*tau, tau = zeta6
_Z6, _Z6_INV, _ONE, _ZERO = [0, 1], [1, -1], [1, 0], [0, 0]


def _diag(*entries):
    n = len(entries)
    return [[entries[i] if i == j else _ZERO for j in range(n)] for i in range(n)]


def sl_diag_document():
    """E_zeta6^3 by <diag(z6, z6^-1, 1), diag(1, z6, z6^-1)>: order 36,
    every element has determinant 1, so the action is quasietale and the
    Reid-Tai test takes the age of each element."""
    zero = ["0"] * 6
    return {"schema_version": 1,
            "factors": [{"cm": "zeta6"}] * 3,
            "generators": [{"holonomy": _diag(_Z6, _Z6_INV, _ONE), "translation": zero},
                           {"holonomy": _diag(_ONE, _Z6, _Z6_INV), "translation": zero}]}


CASES = [(name, fmt) for name in FIXTURES + ("sl-diag",) for fmt in FORMATS]


def _input_path(name, tmp_dir):
    if name == "sl-diag":
        path = pathlib.Path(tmp_dir) / "sl-diag.json"
        path.write_text(json.dumps(sl_diag_document()))
        return path
    return FIXTURE_DIR / f"{name}.json"


def _report(name, fmt, tmp_dir, capsys):
    rc = main(["report", str(_input_path(name, tmp_dir)), "--format", fmt])
    out = capsys.readouterr().out
    assert rc == 0
    return out


@pytest.mark.parametrize("name,fmt", CASES)
def test_report_bytes_match_golden(name, fmt, tmp_path, capsys):
    expected = (GOLDEN_DIR / f"{name}.{fmt}").read_text()
    assert _report(name, fmt, tmp_path, capsys) == expected


def regenerate():
    """Rewrite every golden file from the current code."""
    import contextlib
    import io
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, fmt in CASES:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = main(["report", str(_input_path(name, tmp)), "--format", fmt])
            assert rc == 0, name
            (GOLDEN_DIR / f"{name}.{fmt}").write_text(buf.getvalue())
