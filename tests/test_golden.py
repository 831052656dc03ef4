"""Golden gallery: the ``report`` bytes of every fixture, in both formats, of
an order-36 quasietale special-linear group where ``age`` runs on every
element, of two non-abelian extensions of such groups by the cyclic
permutation of the coordinates (order 48 on zeta4^3 with 8 conjugacy
classes, order 108 on zeta6^3 with 20), and of three groups of order 192, 648 and 1296 generated by
``diag(zeta, 1, 1)`` and coordinate permutations, where the lattice kernels
are large, and of three of these groups with a translation added (orders
6912, 41472 and 82944; the last pinned by the sha256 of its json report).
Three more large groups are pinned by that sha256 alone: E_zeta6^4 by
``diag(zeta6, 1, 1, 1)`` and the permutations of S4 (order 31104), and two
diag-perm groups with a 1/3-translation (orders 34992 and 139968).  So are
seven groups whose decomposition splits: S5, S6, S7 and S8 permuting the
factors of E^5 to E^8, two groups of order 5184 and 15552 on E_zeta6^5 whose
B x C has a ker mu of order 4, and one of order 62208 on E_zeta6^5 whose
ramification subgroup has index 2.  An optimisation must reproduce these bytes exactly.

To regenerate after an intended output change::

    PYTHONPATH=src:tests python -c "import test_golden; test_golden.regenerate()"
"""

import hashlib
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from fqav.cli import build_report, main, parse_input, serialize

from conftest import FIXTURE_DIR

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

FIXTURES = ("rot4-square", "sign-rot4", "kummer", "bielliptic", "p1-from-ei")
FORMATS = ("json", "md")

# zeta6 and zeta6^5 = zeta6^-1 as (c, d) meaning c + d*tau, tau = zeta6
_Z6, _Z6_INV, _ONE, _ZERO = [0, 1], [1, -1], [1, 0], [0, 0]
# a primitive root of unity and its inverse on each CM type
_ROOTS = {"zeta4": ([0, 1], [0, -1]), "zeta6": (_Z6, _Z6_INV)}
# the cyclic permutation of three coordinates
_CYCLE = [[_ZERO, _ONE, _ZERO], [_ZERO, _ZERO, _ONE], [_ONE, _ZERO, _ZERO]]


def _diag(*entries):
    n = len(entries)
    return [[entries[i] if i == j else _ZERO for j in range(n)] for i in range(n)]


def sl_diag_document(cm="zeta6", cycle=False):
    """E_zeta^3 by <diag(z, z^-1, 1), diag(1, z, z^-1)>, z a primitive root
    of unity of order k: order k^2 (36 on zeta6^3).  Every element has
    determinant 1, so the action is quasietale and the Reid-Tai test takes
    the age of each element.  With the cyclic permutation of the
    coordinates as a third generator the group is non-abelian of order
    3 k^2 (48 on zeta4^3, 108 on zeta6^3)."""
    z, z_inv = _ROOTS[cm]
    zero = ["0"] * 6
    holonomies = [_diag(z, z_inv, _ONE), _diag(_ONE, z, z_inv)] + ([_CYCLE] if cycle else [])
    return {"schema_version": 1,
            "factors": [{"cm": cm}] * 3,
            "generators": [{"holonomy": h, "translation": zero} for h in holonomies]}


def diag_perm_document(cm, transposition=False):
    """E_zeta^3 by diag(zeta, 1, 1) and the cyclic permutation of the three
    coordinates: (Z/k)^3 x| Z/3 of order 3 k^3, where zeta has order k (192
    on zeta4^3, 648 on zeta6^3).  With the transposition of the first two
    coordinates as a third generator the permutations are all of S3, and
    the order is 6 k^3 (1296 on zeta6^3)."""
    zeta = [0, 1]
    swap = [[_ZERO, _ONE, _ZERO], [_ONE, _ZERO, _ZERO], [_ZERO, _ZERO, _ONE]]
    zero = ["0"] * 6
    holonomies = [_diag(zeta, _ONE, _ONE), _CYCLE] + ([swap] if transposition else [])
    return {"schema_version": 1,
            "factors": [{"cm": cm}] * 3,
            "generators": [{"holonomy": h, "translation": zero} for h in holonomies]}


# name -> (cm, with the cyclic permutation)
SL_DIAG = {"sl-diag": ("zeta6", False),
           "sl-diag-c3-48": ("zeta4", True),
           "sl-diag-c3-108": ("zeta6", True)}
CASES = [(name, fmt) for name in FIXTURES + tuple(SL_DIAG) for fmt in FORMATS]
# name -> (cm, with the transposition)
DIAG_PERM = {"diag-perm-192": ("zeta4", False),
             "diag-perm-648": ("zeta6", False),
             "diag-perm-1296": ("zeta6", True)}




def translated_sl_diag_document():
    """``sl_diag_document("zeta6", cycle=True)`` with the translation
    (1/2, 0, 1/2, 0, 1/2, 0) on the cyclic permutation and ``group_cap``
    200000: order 6912 = 108 * 64, quasietale."""
    doc = sl_diag_document("zeta6", cycle=True)
    doc["generators"][2]["translation"] = ["1/2", "0"] * 3
    doc["options"] = {"group_cap": 200000}
    return doc


TRANSLATED = "sl-diag-c3-6912"


def translated_diag_perm_document():
    """``diag_perm_document("zeta6")`` with the translation (1/2, 0, 0, 0, 0,
    0) on the cyclic permutation and ``group_cap`` 200000: order 41472 =
    648 * 64, with one decomposition stage whose N, of order 13824, holds
    translations."""
    doc = diag_perm_document("zeta6")
    doc["generators"][1]["translation"] = ["1/2"] + ["0"] * 5
    doc["options"] = {"group_cap": 200000}
    return doc


TRANSLATED_DIAG_PERM = "diag-perm-41472"


def translated_diag_perm_1296_document():
    """``diag_perm_document("zeta6", True)`` with the translation (1/2, 0,
    0, 0, 0, 0) on the cyclic permutation and ``group_cap`` 200000: order
    82944 = 1296 * 64, with a transposition and a translation."""
    doc = diag_perm_document("zeta6", True)
    doc["generators"][1]["translation"] = ["1/2"] + ["0"] * 5
    doc["options"] = {"group_cap": 200000}
    return doc


# sha256 of its ``report --format json``, pinned without a golden file
TRANSLATED_1296_SHA256 = "b6aef18ed3deff049bf31b07f8281232fc0a0bdc8df43758dae6c6ebdecb455d"


def e_zeta6_4_document():
    """E_zeta6^4 by diag(zeta6, 1, 1, 1), the 4-cycle sending factor k to
    factor k - 1, and the transposition of the first two factors, in that
    order, each with an explicit zero translation, and ``group_cap``
    200000: (Z/6)^4 x| S4 of order 31104, every holonomy distinct."""
    cycle = [[_ONE if j == (i + 1) % 4 else _ZERO for j in range(4)] for i in range(4)]
    swap = [[_ONE if j == (1, 0, 2, 3)[i] else _ZERO for j in range(4)] for i in range(4)]
    holonomies = [_diag(_Z6, _ONE, _ONE, _ONE), cycle, swap]
    return {"schema_version": 1,
            "factors": [{"cm": "zeta6"}] * 4,
            "generators": [{"holonomy": h, "translation": ["0"] * 8} for h in holonomies],
            "options": {"group_cap": 200000}}


def third_on_transposition_document():
    """``diag_perm_document("zeta6", True)`` with the translation (1/3, ...,
    1/3) on the transposition and ``group_cap`` 200000: order 34992 = 1296 *
    27."""
    doc = diag_perm_document("zeta6", True)
    doc["generators"][2]["translation"] = ["1/3"] * 6
    doc["options"] = {"group_cap": 200000}
    return doc


def third_on_cycle_document():
    """``diag_perm_document("zeta4")`` with the translation (1/3, 0, 0, 0, 0,
    0) on the cyclic permutation and ``group_cap`` 200000: order 139968 =
    192 * 729, with 192 distinct holonomies."""
    doc = diag_perm_document("zeta4")
    doc["generators"][1]["translation"] = ["1/3"] + ["0"] * 5
    doc["options"] = {"group_cap": 200000}
    return doc


# name -> (input document, order, sha256 of its ``report --format json``),
# pinned without a golden file
LARGE_ORDER = {
    "e-zeta6-4-31104": (e_zeta6_4_document, 31104,
                        "2ede95656bf56c54aa10a26f1d5a7fa6b1a6a5e2800715af97cec9b4a11aecba"),
    "diag-perm-34992": (third_on_transposition_document, 34992,
                        "cb6b4e4bf965b12535a2d9454bba262118a0ca5a657bac1b672979baddd60172"),
    "diag-perm-139968": (third_on_cycle_document, 139968,
                         "f4cfc44eaaf0dcb327959a04e7977bc037a59c33b319fb9c107101fd6e47fa60"),
}


def _permutation(images):
    """The holonomy sending factor k to factor images[k]."""
    n = len(images)
    return [[_ONE if i == images[k] else _ZERO for k in range(n)] for i in range(n)]


def symmetric_document(n):
    """E^n, E one curve without CM, by the transposition of the first two
    factors and the n-cycle sending factor k to factor k + 1: S_n of order
    n!, which splits with B the diagonal, C the sum-zero sublattice and
    ker mu of order n^2; ``group_cap`` is 2000000 from n = 8 on."""
    holonomies = [_permutation([1, 0] + list(range(2, n))),
                  _permutation([(k + 1) % n for k in range(n)])]
    doc = {"schema_version": 1,
           "factors": [{"cm": "generic", "label": "E"}] * n,
           "generators": [{"holonomy": h, "translation": ["0"] * (2 * n)}
                          for h in holonomies]}
    if n >= 8:
        doc["options"] = {"group_cap": 2000000}
    return doc


def glue_document(den=2):
    """E_zeta6^5 by diag(zeta6, 1, 1, 1, 1), the 3-cycle of the first three
    factors sending factor k to factor k + 1 and translating by 1/den in the
    first real coordinate of the last two factors, the transposition of the
    first two factors, and -swap of the last two: order 5184 with den 2 and
    15552 with den 6, which split with B the antidiagonal of the last two
    factors and ker mu of order 4."""
    diag = _diag(_Z6, _ONE, _ONE, _ONE, _ONE)
    minus_swap = [[[-1, 0] if {i, j} == {3, 4} else (_ONE if i == j < 3 else _ZERO)
                   for j in range(5)] for i in range(5)]
    translation = ["0"] * 10
    translation[6] = translation[8] = f"1/{den}"
    generators = [(diag, ["0"] * 10), (_permutation([1, 2, 0, 3, 4]), translation),
                  (_permutation([1, 0, 2, 3, 4]), ["0"] * 10), (minus_swap, ["0"] * 10)]
    doc = {"schema_version": 1,
           "factors": [{"cm": "zeta6"}] * 5,
           "generators": [{"holonomy": h, "translation": t} for h, t in generators]}
    if den != 2:
        doc["options"] = {"group_cap": 2000000}
    return doc


def s4_split_document():
    """E_zeta6^5 by diag(zeta6, 1, 1, 1, 1), the 4-cycle of the first four
    factors sending factor k to factor k + 1 and translating by 1/2 in the
    first real coordinate of the last factor, and the transposition of the
    first two factors: order 62208, with a ramification subgroup of order
    31104 that splits with ker mu of order 1."""
    translation = ["0"] * 10
    translation[8] = "1/2"
    generators = [(_diag(_Z6, _ONE, _ONE, _ONE, _ONE), ["0"] * 10),
                  (_permutation([1, 2, 3, 0, 4]), translation),
                  (_permutation([1, 0, 2, 3, 4]), ["0"] * 10)]
    return {"schema_version": 1,
            "factors": [{"cm": "zeta6"}] * 5,
            "generators": [{"holonomy": h, "translation": t} for h, t in generators],
            "options": {"group_cap": 2000000}}


# name -> (input document, order, (ker mu order, N-tilde order) of its split
# stage, sha256 of its ``report --format json``): the inputs that split,
# pinned without a golden file.  N-tilde has |N| |ker mu| elements
SPLIT = {
    "sym-5-120": (lambda: symmetric_document(5), 120, (25, 3000),
                  "dc7e1a15d11cb84b1d742626b0024fd09e7a5d62e757c82912963f7d05132d62"),
    "sym-6-720": (lambda: symmetric_document(6), 720, (36, 25920),
                  "9526c788efd316d5bd32e345a697b0a72d70bd2de548167045c453dc4bf019e3"),
    "sym-7-5040": (lambda: symmetric_document(7), 5040, (49, 246960),
                   "eb8ac79df01d36becdb631a4971c62706ad2ca7a12f7832d89cc0e12f7148d24"),
    "sym-8-40320": (lambda: symmetric_document(8), 40320, (64, 2580480),
                    "786d265eebc410c31a3d5f1c4d9127f58f961b7c25ae68e9a3f4f952826fe6de"),
    "glue-2-5184": (glue_document, 5184, (4, 20736),
                    "17e8bca5184f7e2ca4d8af1163d81e3e40a75bc72e6a2b55414618bbd5764c94"),
    "glue-6-15552": (lambda: glue_document(6), 15552, (4, 62208),
                     "e635cfb80aabda199cdc2be3440c62829440e1a02b42d49fd3bf6d7a54a8adc2"),
    "s4-split-62208": (s4_split_document, 62208, (1, 31104),
                       "fd9c33bf1b94847aa005bef17d4228c71f77f2a8571f5665424359d0fee4a11e"),
}


def _document_text(name):
    """The input document of the golden gallery's group ``name``."""
    if name in SL_DIAG:
        return json.dumps(sl_diag_document(*SL_DIAG[name]))
    if name in DIAG_PERM:
        return json.dumps(diag_perm_document(*DIAG_PERM[name]))
    return (FIXTURE_DIR / f"{name}.json").read_text()


def _input_path(name, tmp_dir):
    if name in SL_DIAG:
        path = pathlib.Path(tmp_dir) / f"{name}.json"
        path.write_text(_document_text(name))
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


def _diag_perm_report_doc(name):
    variety, gens, options = parse_input(_document_text(name))
    return build_report(variety, gens, options, "report")


@pytest.fixture(scope="module", params=list(DIAG_PERM))
def diag_perm_doc(request):
    """(name, report document) of each diag-perm group, built once for both
    formats."""
    return request.param, _diag_perm_report_doc(request.param)


@pytest.mark.parametrize("fmt", FORMATS)
def test_diag_perm_report_bytes_match_golden(diag_perm_doc, fmt):
    name, doc = diag_perm_doc
    assert serialize(doc, fmt) == (GOLDEN_DIR / f"{name}.{fmt}").read_text()


@pytest.fixture(scope="module")
def translated_doc():
    """The report document of the order-6912 group, built once for both
    formats."""
    variety, gens, options = parse_input(json.dumps(translated_sl_diag_document()))
    return build_report(variety, gens, options, "report")


@pytest.mark.parametrize("fmt", FORMATS)
def test_translated_report_bytes_match_golden(translated_doc, fmt):
    assert serialize(translated_doc, fmt) == (GOLDEN_DIR / f"{TRANSLATED}.{fmt}").read_text()


@pytest.fixture(scope="module")
def translated_diag_perm_doc():
    """The report document of the order-41472 group, built once for both
    formats."""
    variety, gens, options = parse_input(json.dumps(translated_diag_perm_document()))
    return build_report(variety, gens, options, "report")


@pytest.mark.parametrize("fmt", FORMATS)
def test_translated_diag_perm_report_bytes_match_golden(translated_diag_perm_doc, fmt):
    assert serialize(translated_diag_perm_doc, fmt) == \
        (GOLDEN_DIR / f"{TRANSLATED_DIAG_PERM}.{fmt}").read_text()


def test_translated_diag_perm_1296_report_digest():
    variety, gens, options = parse_input(json.dumps(translated_diag_perm_1296_document()))
    text = serialize(build_report(variety, gens, options, "report"), "json")
    assert hashlib.sha256(text.encode()).hexdigest() == TRANSLATED_1296_SHA256


@pytest.mark.parametrize("name", list(LARGE_ORDER))
def test_large_order_report_digest(name):
    document, order, digest = LARGE_ORDER[name]
    variety, gens, options = parse_input(json.dumps(document()))
    report = build_report(variety, gens, options, "report")
    assert report["classification"]["group_order"] == order
    text = serialize(report, "json")
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("name", list(SPLIT))
def test_split_report_digest(name):
    document, order, split, digest = SPLIT[name]
    variety, gens, options = parse_input(json.dumps(document()))
    report = build_report(variety, gens, options, "report")
    assert report["classification"]["group_order"] == order
    split_stage, fano_stage = report["decomposition"]["stages"]
    assert (split_stage["ker_mu_order"], split_stage["n_tilde_order"]) == split
    assert split_stage["n_order"] == fano_stage["n_order"] == split[1] // split[0]
    text = serialize(report, "json")
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# prints the sha256 of ``report --format json`` on each input path it is given
_DIGEST_SCRIPT = """
import contextlib, hashlib, io, sys
from fqav.cli import main
for path in sys.argv[1:]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["report", path, "--format", "json"]) == 0
    print(hashlib.sha256(out.getvalue().encode()).hexdigest())
"""


def test_report_does_not_depend_on_hash_seed(tmp_path):
    # one interpreter per string hash seed, each reporting on the five
    # fixtures and S5, which splits: every seed prints the same digests
    s5 = tmp_path / "sym-5-120.json"
    s5.write_text(json.dumps(symmetric_document(5)))
    paths = [str(FIXTURE_DIR / f"{name}.json") for name in FIXTURES] + [str(s5)]
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    digests = []
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed),
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT, *paths], env=env,
                             capture_output=True, text=True, check=True)
        digests.append(run.stdout.split())
    assert len(digests[0]) == len(paths) and digests[0][-1] == SPLIT["sym-5-120"][-1]
    assert all(d == digests[0] for d in digests)


@pytest.mark.parametrize("name", FIXTURES + tuple(SL_DIAG) + tuple(DIAG_PERM))
def test_one_divisor_pass_per_command(name, monkeypatch):
    # classify and report read quasietaleness and kappa off one divisor
    # pass each; only report lists the components, by one
    # ``ramification_data`` call, and the report bytes and the
    # classification are the gallery's
    classify = importlib.import_module("fqav.classify")
    passes, listings = [], []
    for func, calls in (("divisor_lattices", passes), ("ramification_data", listings)):
        original = getattr(classify, func)

        def counting(*args, original=original, calls=calls):
            calls.append(args[0])
            return original(*args)

        monkeypatch.setattr(classify, func, counting)
    variety, gens, options = parse_input(_document_text(name))
    report = build_report(variety, gens, options, "report")
    assert (len(passes), len(listings)) == (1, 1)
    for fmt in FORMATS:
        assert serialize(report, fmt) == (GOLDEN_DIR / f"{name}.{fmt}").read_text()
    classified = build_report(variety, gens, options, "classify")
    assert classified["classification"] == report["classification"]
    assert (len(passes), len(listings)) == (2, 1)


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
    for name in DIAG_PERM:
        doc = _diag_perm_report_doc(name)
        for fmt in FORMATS:
            (GOLDEN_DIR / f"{name}.{fmt}").write_text(serialize(doc, fmt))
    for name, document in ((TRANSLATED, translated_sl_diag_document),
                           (TRANSLATED_DIAG_PERM, translated_diag_perm_document)):
        variety, gens, options = parse_input(json.dumps(document()))
        doc = build_report(variety, gens, options, "report")
        for fmt in FORMATS:
            (GOLDEN_DIR / f"{name}.{fmt}").write_text(serialize(doc, fmt))
