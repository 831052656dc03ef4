import json
import re
import sys
from collections import Counter
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from fqav.action import (
    ClosureTables,
    FiniteGroupAction,
    LatticeElement,
    close_group,
    fixed_locus,
    holonomy_order,
)
from fqav.cli import COMMANDS, MAX_DENOMINATOR_BITS, build_report, main, parse_input, serialize
from fqav.cyclotomic import split_prime
from fqav.errors import InputError
from fqav.linalg import AffineSolutionSet, FixedPointSolver, TorsionPoint, identity_minus
from fqav.variety import EndoBlockMatrix, SubtorusTranslate

from conftest import FIXTURE_DIR, elementary_divisors
from oracles import union_find_class_rep
from test_golden import SL_DIAG, _document_text, sl_diag_document

FIXTURES = ("rot4-square.json", "sign-rot4.json", "kummer.json",
            "bielliptic.json", "p1-from-ei.json")


def load(name):
    return (FIXTURE_DIR / name).read_text()


def count_calls(monkeypatch, name, calls, results=None, key=None):
    """Count the calls of the fqav function ``name`` made through any fqav
    module that binds it, and append each return value to ``results`` when
    given.  With ``key``, the calls are counted under ``key(*args)`` and not
    under ``name``."""
    modules = [m for mod_name, m in sys.modules.items() if mod_name.startswith("fqav.")]
    original = next(getattr(m, name) for m in modules if hasattr(m, name))

    def counting(*args, **kwargs):
        calls[name if key is None else key(*args)] += 1
        result = original(*args, **kwargs)
        if results is not None:
            results.append(result)
        return result

    for m in modules:
        if getattr(m, name, None) is original:
            monkeypatch.setattr(m, name, counting)


def exit_code(argv):
    """main's return value, or the code of the SystemExit it raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# zeta6^2 by diag(zeta6, 1) and the swap: order 72, 8 distinct divisor
# lattices, Q-Fano (the shape of the benchmark's ramified-cm groups)
RAMIFIED_72_DOC = {"factors": [{"cm": "zeta6"}, {"cm": "zeta6"}],
                   "generators": [{"holonomy": [[[0, 1], [0, 0]], [[0, 0], [1, 0]]]},
                                  {"holonomy": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}]}

# the other three groups of the benchmark's ramified-cm workload, with their
# orders: on zeta4^2, diag(i, 1) and the swap; on zeta4^3, diag(i, 1, 1) and
# the swap of the first two factors carrying 1/2 along the third (two
# decomposition stages); on zeta6^3, diag(zeta6, 1, 1), diag(1, zeta3, 1)
# and the translation by 1/2 along the third factor
RAMIFIED_CM_DOCS = {
    "zeta4^2:C2": ({"factors": [{"cm": "zeta4"}] * 2,
                    "generators": RAMIFIED_72_DOC["generators"]}, 32),
    "zeta6^2:C2": (RAMIFIED_72_DOC, 72),
    "zeta4^3:C2+t": ({"factors": [{"cm": "zeta4"}] * 3,
                      "generators": [
                          {"holonomy": [[[0, 1], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]],
                                        [[0, 0], [0, 0], [1, 0]]]},
                          {"holonomy": [[[0, 0], [1, 0], [0, 0]], [[1, 0], [0, 0], [0, 0]],
                                        [[0, 0], [0, 0], [1, 0]]],
                           "translation": ["0", "0", "0", "0", "1/2", "0"]}]}, 32),
    "zeta6^3:mu6xmu3+t": ({"factors": [{"cm": "zeta6"}] * 3,
                           "generators": [
                               {"holonomy": [[[0, 1], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]],
                                             [[0, 0], [0, 0], [1, 0]]]},
                               {"holonomy": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [-1, 1], [0, 0]],
                                             [[0, 0], [0, 0], [1, 0]]]},
                               {"holonomy": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]],
                                             [[0, 0], [0, 0], [1, 0]]],
                                "translation": ["0", "0", "0", "0", "1/2", "0"]}]}, 36),
}

# zeta4^2 by [[0, i], [1, 0]], whose square is i: holonomy order 8
ORDER8_DOC = {"factors": [{"cm": "zeta4"}, {"cm": "zeta4"}],
              "generators": [{"holonomy": [[[0, 0], [1, 0]], [[0, 1], [0, 0]]]}]}


def translation_doc(first):
    """-1 on one curve without CM, translated by ``first`` on the first
    coordinate."""
    return {"factors": [{"cm": "generic"}],
            "generators": [{"holonomy": [[[-1, 0]]], "translation": [first, "0"]}]}


def fixed_rank(g):
    """rank(I - rho) for the holonomy rho of g, from its Smith form."""
    rho = g.matrix
    return len(elementary_divisors(identity_minus(rho)))


class TestParse:
    def test_fixture_files_parse(self):
        for name in FIXTURES:
            variety, gens, options = parse_input(load(name))
            assert gens
            assert options["group_cap"] >= 1

    def test_bad_json(self):
        with pytest.raises(InputError) as exc:
            parse_input("{not json")
        assert exc.value.code == "bad-json"

    def test_bad_top_level(self):
        with pytest.raises(InputError) as exc:
            parse_input("[1, 2]")
        assert exc.value.code == "bad-schema"

    def test_bad_schema_version(self):
        doc = json.loads(load("rot4-square.json"))
        doc["schema_version"] = 99
        with pytest.raises(InputError) as exc:
            parse_input(json.dumps(doc))
        assert exc.value.code == "bad-schema"

    def test_missing_generators(self):
        doc = json.loads(load("rot4-square.json"))
        del doc["generators"]
        with pytest.raises(InputError) as exc:
            parse_input(json.dumps(doc))
        assert exc.value.code == "bad-schema"

    def test_bad_rational(self):
        doc = json.loads(load("bielliptic.json"))
        doc["generators"][0]["translation"][0] = "0.5"
        with pytest.raises(InputError) as exc:
            parse_input(json.dumps(doc))
        assert exc.value.code == "bad-rational"

    def test_float_rational_rejected(self):
        doc = json.loads(load("bielliptic.json"))
        doc["generators"][0]["translation"][0] = 0.5
        with pytest.raises(InputError) as exc:
            parse_input(json.dumps(doc))
        assert exc.value.code == "bad-rational"

    @pytest.mark.parametrize("edit, code", [
        (lambda d: d.update(generators=[1]), "bad-schema"),
        (lambda d: d["factors"][0].update(label=[1]), "bad-schema"),
        (lambda d: d["factors"][0].update(cm=["zeta4"]), "bad-schema"),
        (lambda d: d["generators"][0].update(
            holonomy=[[[True, False], [0, 0]], [[0, 0], [1, 0]]]), "bad-schema"),
        (lambda d: d["generators"][0]["translation"].__setitem__(0, True), "bad-rational"),
        (lambda d: d.update(options={"group_cap": True}), "bad-schema"),
        (lambda d: d.update(schema_version=True), "bad-schema"),
        # strings Fraction reads but the "p/q" schema does not allow
        (lambda d: d["generators"][0]["translation"].__setitem__(0, " 1/2"), "bad-rational"),
        (lambda d: d["generators"][0]["translation"].__setitem__(0, "+1/2"), "bad-rational"),
        (lambda d: d["generators"][0]["translation"].__setitem__(0, "1_0/2"), "bad-rational"),
        (lambda d: d["generators"][0]["translation"].__setitem__(0, "\u0661/\u0662"),
         "bad-rational"),
        # more digits than int() converts
        (lambda d: d["generators"][0]["translation"].__setitem__(0, "1/" + "9" * 5000),
         "bad-rational"),
        (lambda d: d["factors"][0].update(cm="zeta3"), "bad-factor"),
        # a tau block on a curve without CM
        (lambda d: d["generators"][0]["holonomy"][0].__setitem__(0, [1, 1]), "not-endomorphism"),
        # a nonzero block between a curve without CM and a zeta4 curve
        (lambda d: (d["factors"].__setitem__(1, {"cm": "zeta4"}),
                    d["generators"][0]["holonomy"][0].__setitem__(1, [1, 0])),
         "not-endomorphism"),
        # a fault of the document is reported before one of the group
        (lambda d: (d["generators"][0]["holonomy"][0].__setitem__(0, [1, 1]),
                    d.update(options={"group_cap": 0})), "bad-schema"),
    ], ids=["generator-not-object", "label-not-string", "cm-not-string",
            "bool-holonomy", "bool-translation", "bool-group-cap", "bool-schema-version",
            "space-rational", "plus-rational", "underscore-rational", "arabic-indic-rational",
            "long-rational", "unknown-cm", "tau-on-generic", "generic-to-zeta4",
            "document-fault-first"])
    def test_malformed_node_exits_one(self, edit, code, tmp_path, capsys):
        doc = json.loads(load("bielliptic.json"))
        edit(doc)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        rc = main(["classify", str(p)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error[{code}]")
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, message", [
        ('{"factors": [{"cm": "zeta4"}], "generators": [{"holonomy": [[[0, 1]]]}], '
         '"options": {"group_cap": 1}, "options": {}}', "repeated key 'options'"),
        ('{"factors": [{"cm": "generic"}], '
         '"generators": [{"holonomy": [[[1, 0]]], "translaton": ["1/2", "0"]}]}',
         "generators[0]: unknown key 'translaton'"),
    ], ids=["repeated-key", "misspelt-key"])
    def test_every_key_is_read(self, text, message, tmp_path, capsys):
        # both used to validate with exit 0: the last "options" won, and the
        # misspelt translation was read as the zero translation
        p = tmp_path / "bad.json"
        p.write_text(text)
        assert main(["validate", str(p)]) == 1
        assert capsys.readouterr() == ("", f"error[bad-schema]: {message}\n")

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(zeta=1, extra=2), "unknown key 'extra'"),
        (lambda d: d["factors"][1].update(lable="E"), "factors[1]: unknown key 'lable'"),
        (lambda d: d["generators"][0].update(order=2), "generators[0]: unknown key 'order'"),
        (lambda d: d.update(options={"group_cap": 5, "cap": 5}), "options: unknown key 'cap'"),
    ], ids=["top-level", "factor", "generator", "options"])
    def test_unknown_key(self, edit, message):
        doc = json.loads(load("bielliptic.json"))
        edit(doc)
        with pytest.raises(InputError, match=f"^{re.escape(message)}$") as exc:
            parse_input(json.dumps(doc))
        assert exc.value.code == "bad-schema"

    def test_repeated_key_in_nested_object(self):
        text = load("bielliptic.json").replace('"cm": "generic", "label": "E"',
                                               '"cm": "generic", "cm": "zeta4"')
        with pytest.raises(InputError, match="repeated key 'cm'") as exc:
            parse_input(text)
        assert exc.value.code == "bad-schema"

    def test_wrong_holonomy_shape(self):
        doc = json.loads(load("rot4-square.json"))
        doc["generators"][0]["holonomy"] = [[[0, 1]]]
        with pytest.raises(InputError) as exc:
            parse_input(json.dumps(doc))
        assert exc.value.code == "bad-schema"


class TestBuildReport:
    def test_validate(self):
        variety, gens, options = parse_input(load("rot4-square.json"))
        doc = build_report(variety, gens, options, "validate")
        assert doc["group_order"] == 4
        assert doc["command"] == "validate"

    def test_classify_values(self):
        variety, gens, options = parse_input(load("sign-rot4.json"))
        doc = build_report(variety, gens, options, "classify")
        c = doc["classification"]
        assert c["quasietale"] is False
        assert c["kappa_anticanonical"] == 1
        assert c["q_circle"] == 1
        assert c["polarized_endo_m"] == 2

    def test_ramification_doc(self):
        variety, gens, options = parse_input(load("sign-rot4.json"))
        doc = build_report(variety, gens, options, "ramification")
        r = doc["ramification"]
        assert r["component_count"] == 4
        assert [c["index"] for c in r["components"]] == [2, 2, 2, 2]
        assert r["orbits"] == [[0], [1, 2], [3]]
        assert r["boundary_coeffs"] == ["1/2", "1/2", "1/2"]

    def test_reidtai_doc(self):
        variety, gens, options = parse_input(load("rot4-square.json"))
        doc = build_report(variety, gens, options, "reidtai")
        assert doc["reid_tai"]["holds"] is False
        assert doc["reid_tai"]["witness_age"] == "1/2"

    def test_decompose_doc(self):
        variety, gens, options = parse_input(load("sign-rot4.json"))
        doc = build_report(variety, gens, options, "decompose")
        d = doc["decomposition"]
        assert d["q_abelian"] is False
        assert d["total_abelian_dim"] == 1
        assert d["fano_part"]["dim"] == 1
        assert d["fano_part"]["group_order"] == 2

    def test_report_includes_everything(self):
        variety, gens, options = parse_input(load("kummer.json"))
        doc = build_report(variety, gens, options, "report")
        for key in ("classification", "ramification", "reid_tai",
                    "decomposition", "provenance"):
            assert key in doc

    def test_rationals_serialized_as_strings(self):
        variety, gens, options = parse_input(load("bielliptic.json"))
        doc = build_report(variety, gens, options, "report")
        text = json.dumps(doc)
        echo = doc["input"]["generators"][0]["translation"]
        assert echo[0] == "1/2"
        assert "0.5" not in text


class TestDeterminism:
    def test_byte_identical_reports(self):
        variety, gens, options = parse_input(load("sign-rot4.json"))
        a = serialize(build_report(variety, gens, options, "report"))
        b = serialize(build_report(variety, gens, options, "report"))
        assert a == b

    def test_reserialize_fixed_point(self):
        variety, gens, options = parse_input(load("rot4-square.json"))
        doc = build_report(variety, gens, options, "report")
        assert json.loads(serialize(doc)) == doc

    @settings(max_examples=200, deadline=None)
    @given(st.recursive(st.none() | st.booleans() | st.integers() | st.text(),
                        lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
                        max_leaves=20))
    def test_json_is_json_dumps(self, doc):
        # the document shapes a command prints: strings escaped to ASCII,
        # empty and nested containers, bool before int
        assert serialize(doc) == json.dumps(doc, indent=2) + "\n"

    def test_json_rejects_other_types(self):
        with pytest.raises(TypeError):
            serialize({"x": 0.5})


class TestMain:
    def test_exit_zero_and_json_output(self, capsys):
        rc = main(["report", str(FIXTURE_DIR / "sign-rot4.json")])
        assert rc == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["classification"]["kappa_anticanonical"] == 1

    def test_markdown_output(self, capsys):
        rc = main(["classify", str(FIXTURE_DIR / "kummer.json"),
                   "--format", "md"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("# fqav report")
        assert "**quasietale**: True" in out

    def test_missing_file_exit_one(self, capsys):
        rc = main(["classify", str(FIXTURE_DIR / "no-such.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error[io-error]")

    def test_bad_input_exit_one(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{}")
        rc = main(["classify", str(p)])
        assert rc == 1
        assert "error[bad-schema]" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        b'{"factors": "\xff\xfe"}',
        b"[" * 200000,
        b"[" + b"9" * 5000 + b"]",
    ], ids=["not-utf8", "nested-too-deep", "long-integer"])
    def test_undecodable_input_exit_one(self, content, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_bytes(content)
        rc = main(["validate", str(p)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error[bad-json]: invalid JSON")
        assert "Traceback" not in err

    def test_cap_exceeded_exit_one(self, capsys):
        rc = main(["validate", str(FIXTURE_DIR / "rot4-square.json"), "--cap", "2"])
        assert rc == 1
        assert "error[cap-exceeded]" in capsys.readouterr().err

    @pytest.mark.parametrize("block", [[[2, 1], [1, 1]], [[1, 1], [0, 1]]])
    def test_infinite_order_exit_one(self, block, tmp_path, capsys):
        doc = {"factors": [{"cm": "generic", "label": "E"}] * 2,
               "generators": [{"holonomy": [[[block[0][0], 0], [block[0][1], 0]],
                                            [[block[1][0], 0], [block[1][1], 0]]]}]}
        p = tmp_path / "infinite.json"
        p.write_text(json.dumps(doc))
        rc = main(["validate", str(p)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error[infinite-order]")

    def test_huge_infinite_order_exit_one(self, tmp_path, capsys):
        # [[N, 1], [-1, 0]] + 1 with N = 10^1000: its trace proves infinite
        # order before any power is taken
        one, zero = [1, 0], [0, 0]
        doc = {"factors": [{"cm": "generic", "label": "E"}] * 3,
               "generators": [{"holonomy": [[[10 ** 1000, 0], one, zero],
                                            [[-1, 0], zero, zero], [zero, zero, one]]}]}
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(doc))
        for command in COMMANDS:
            assert main([command, str(p)]) == 1
            assert capsys.readouterr().err.startswith("error[infinite-order]")

    def test_all_commands_run_on_all_fixtures(self, capsys):
        for name in FIXTURES:
            for command in COMMANDS:
                rc = main([command, str(FIXTURE_DIR / name)])
                capsys.readouterr()
                assert rc == 0, (name, command)

    def test_stdin_input(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(load("p1-from-ei.json")))
        rc = main(["validate", "-"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["group_order"] == 4

    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_command_checks_the_conductor(self, command, tmp_path, capsys,
                                                monkeypatch):
        # an order-8 holonomy needs 8 | m: each spectrum picks its own
        # conductor from its root's holonomy order d, lcm(12, 8) = 24, so
        # only the commands that print Reid-Tai take one.  The group is
        # cyclic, so one power walk reaches every class, and its one
        # spectrum is counted over the 8th roots
        spectra = Counter()
        count_calls(monkeypatch, "age", spectra, key=lambda g, d, variety: (lcm(12, d), d))
        p = tmp_path / "order8.json"
        p.write_text(json.dumps(ORDER8_DOC))
        assert main([command, str(p)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        reads_ages = command in ("classify", "reidtai", "report")
        assert spectra == (Counter({(24, 8): 1}) if reads_ages else Counter())
        if command == "report":
            doc = json.loads(captured.out)
            assert doc["classification"]["reid_tai_holds"] is False
            assert doc["classification"]["reid_tai_witness"] == doc["reid_tai"]["witness"]

    @pytest.mark.parametrize("command", ["classify", "reidtai", "report"])
    def test_wrong_walk_order_exits_two(self, command, tmp_path, capsys, monkeypatch):
        # a power walk that stops at g^4 on the order-8 holonomy counts its
        # spectrum over the 4th roots; its eigenvalues are primitive 8th
        # roots, so the counts stay below n = 2: an internal fault, which
        # names the root
        walk = FiniteGroupAction.power_walk

        def halved(group):
            return {c: (root, k, d // 2) for c, (root, k, d) in walk.func(group).items()}

        monkeypatch.setattr(FiniteGroupAction, "power_walk", property(halved))
        p = tmp_path / "order8.json"
        p.write_text(json.dumps(ORDER8_DOC))
        group = close_group(*parse_input(p.read_text())[:2])
        root = group.elements[walk.func(group)[1][0]]
        assert holonomy_order(root.matrix) == 8
        assert main([command, str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"certificate failure: order 4 does not kill the spectrum "
                                f"of {root}\n")

    def test_multiplication_map_not_commuting_exits_two(self, capsys, monkeypatch):
        # with every translation order read as 1, [2] is the map to descend,
        # and it moves the bielliptic generator's 1/2-translation
        monkeypatch.setattr(TorsionPoint, "order", property(lambda self: 1))
        assert main(["classify", str(FIXTURE_DIR / "bielliptic.json")]) == 2
        assert capsys.readouterr() == (
            "", "certificate failure: multiplication map does not commute\n")

    @pytest.mark.parametrize("argv", [
        ["validate", "kummer.json", "--cap", "abc"],
        ["validate", "kummer.json", "--cap", "0"],
        ["bogus", "kummer.json"],
        ["validate"],
        ["validate", "kummer.json", "--conductor", "24"],
        ["report", "kummer.json", "--format", "xml"],
    ], ids=["cap-not-int", "cap-not-positive", "unknown-command", "no-file",
            "unknown-option", "bad-format"])
    def test_usage_error_exits_one(self, argv, capsys):
        argv = [str(FIXTURE_DIR / a) if a.endswith(".json") else a for a in argv]
        assert exit_code(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error[bad-args]: ")
        assert captured.err.count("\n") == 1

    def test_help_exits_zero(self, capsys):
        assert exit_code(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: fqav")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_huge_translation_denominator_exits_one(self, command, tmp_path, capsys):
        # 1 + L, the descending multiplication, would have 4301 digits, and
        # the fixed-locus translates' denominators are 2 L
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(translation_doc("1/" + "9" * 4300)))
        assert main([command, str(p)]) == 1
        assert capsys.readouterr().err.startswith("error[bad-translation]")

    def test_denominator_under_the_bound_prints(self, tmp_path, capsys):
        bound = MAX_DENOMINATOR_BITS
        p = tmp_path / "large.json"
        for den, rc in ((2 ** bound - 1, 0), (2 ** bound, 1)):
            p.write_text(json.dumps(translation_doc(f"1/{den}")))
            assert main(["report", str(p)]) == rc
            captured = capsys.readouterr()
            if rc:
                assert captured.err.startswith("error[bad-translation]")
                continue
            doc = json.loads(captured.out)
            assert doc["classification"]["polarized_endo_m"] == den + 1
            translates = [c["translate"] for c in doc["ramification"]["components"]]
            assert f"1/{2 * den}" in [t[0] for t in translates]

    def test_field_found_only_for_reid_tai(self, capsys, monkeypatch):
        # ramification and decompose read no age, so they never need the
        # power walk, which gives the conductor and the ages
        path = str(FIXTURE_DIR / "sign-rot4.json")
        expected = {}
        for command in ("ramification", "decompose"):
            assert main([command, path]) == 0
            expected[command] = capsys.readouterr().out

        def no_walk(group):
            raise RuntimeError("power_walk taken")

        monkeypatch.setattr(FiniteGroupAction, "power_walk", property(no_walk))
        for command in ("ramification", "decompose"):
            assert main([command, path]) == 0, command
            assert capsys.readouterr().out == expected[command]
        with pytest.raises(RuntimeError):
            main(["reidtai", path])


    def test_parser_built_once(self, capsys, monkeypatch):
        import argparse

        def no_parser(*args, **kwargs):
            raise RuntimeError("parser built again")

        monkeypatch.setattr(argparse, "ArgumentParser", no_parser)
        assert main(["validate", str(FIXTURE_DIR / "kummer.json")]) == 0
        assert json.loads(capsys.readouterr().out)["group_order"] == 2

    def test_successive_calls_do_not_leak(self, capsys):
        path = str(FIXTURE_DIR / "rot4-square.json")

        def run(*argv):
            rc = main(list(argv))
            captured = capsys.readouterr()
            return rc, captured.out, captured.err

        plain = run("reidtai", path)
        assert plain[0] == 0 and plain[1].startswith("{")
        md = run("reidtai", path, "--format", "md")
        assert md[0] == 0 and md[1].startswith("# fqav report")
        assert run("reidtai", path) == plain
        capped = run("validate", path, "--cap", "2")
        assert capped[0] == 1 and capped[2].startswith("error[cap-exceeded]")
        valid = run("validate", path)
        assert valid[0] == 0 and json.loads(valid[1])["group_order"] == 4
        bad = run("reidtai", path, "--format", "xml")
        assert bad[0] == 1 and bad[2].startswith("error[bad-args]")
        assert run("reidtai", path) == plain
        assert run("classify", path, "--format", "md", "--cap", "2")[0] == 1
        assert run("reidtai", path) == plain


D4_DOC = {"factors": [{"cm": "generic", "label": "E"}] * 2,
          "generators": [{"holonomy": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]},
                         {"holonomy": [[[-1, 0], [0, 0]], [[0, 0], [1, 0]]]}]}


# -swap on E^2: N is the whole group of order 2, B the antidiagonal and C
# the diagonal, and ker mu has order 4
MINUS_SWAP_DOC = {"factors": [{"cm": "generic", "label": "E"}] * 2,
                  "generators": [{"holonomy": [[[0, 0], [-1, 0]], [[-1, 0], [0, 0]]]}]}


class TestCertificateWitness:
    """A failed certificate exits 2 and names its witness."""

    def test_non_normal_subgroup(self, tmp_path, capsys, monkeypatch):
        decompose_module = sys.modules["fqav.decompose"]
        p = tmp_path / "d4.json"
        p.write_text(json.dumps(D4_DOC))
        flip = ((-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

        original = decompose_module.ramification_on_tables

        def flip_only(elements, tables, divisors):
            # <(-1) x 1> in place of the ramification subgroup: not normal
            return original(elements, tables, [x for x in divisors
                                               if elements[x].matrix == flip])

        monkeypatch.setattr(decompose_module, "ramification_on_tables", flip_only)
        assert main(["decompose", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "certificate failure: ramification subgroup is not normal: generator "
            "x -> [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]] x + [0, 0, 0, 0] "
            "conjugates "
            "x -> [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]] x + [0, 0, 0, 0] "
            "to "
            "x -> [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]] x + [0, 0, 0, 0], "
            "outside the subgroup\n")

    def test_n_tilde_lift_not_a_lift(self, capsys, monkeypatch):
        decompose_module = sys.modules["fqav.decompose"]
        original = decompose_module._check_n_tilde_group

        def shifted(m, lifts, ker_generators):
            # each lift's translation moved by 1/2 in the first coordinate
            half = TorsionPoint.over((1, 0, 0, 0), 2)
            return original(m, [(g, LatticeElement(t.matrix, t.translation + half))
                                for g, t in lifts], ker_generators)

        monkeypatch.setattr(decompose_module, "_check_n_tilde_group", shifted)
        assert main(["decompose", str(FIXTURE_DIR / "sign-rot4.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # N = <1 x (-1)>, B the first factor and C the second: the lift of
        # the generator is diag(1, 1, -1, -1), and mu of its translation,
        # (1/2, 0) on B, is not the generator's translation 0
        assert captured.err == (
            "certificate failure: N-tilde is not an extension of N by ker mu: "
            "x -> [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]] x + [1/2, 0, 0, 0] "
            "does not lift generator "
            "x -> [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]] x + [0, 0, 0, 0] "
            "of N\n")

    def test_n_tilde_lift_leaves_ker_mu(self, tmp_path, capsys, monkeypatch):
        decompose_module = sys.modules["fqav.decompose"]
        original = decompose_module._check_n_tilde_group

        def doubled(m, lifts, ker_generators):
            # each lift's C block, W|_C, doubled
            return original(m, [(g, LatticeElement(t.matrix[:2] + tuple(
                row[:2] + tuple(2 * x for x in row[2:]) for row in t.matrix[2:]),
                t.translation)) for g, t in lifts], ker_generators)

        monkeypatch.setattr(decompose_module, "_check_n_tilde_group", doubled)
        p = tmp_path / "minus-swap.json"
        p.write_text(json.dumps(MINUS_SWAP_DOC))
        assert main(["decompose", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # N = <-swap>, B the antidiagonal and C the diagonal, ker mu of
        # order 4: the doubled lift sends its Smith generator (1/2, 0, 1/2, 0)
        # to a point mu maps to (1/2, 0, 1/2, 0)
        assert captured.err == (
            "certificate failure: N-tilde is not an extension of N by ker mu: the lift "
            "x -> [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -2, 0], [0, 0, 0, -2]] x + [0, 0, 0, 0] "
            "of generator "
            "x -> [[0, 0, -1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, -1, 0, 0]] x + [0, 0, 0, 0] "
            "of N moves [1/2, 0, 1/2, 0] off ker mu\n")


# report section -> the command that prints it alone
SECTIONS = {"input": "validate", "classification": "classify",
            "ramification": "ramification", "reid_tai": "reidtai",
            "decomposition": "decompose"}


class TestComputeOnce:
    @pytest.mark.parametrize("command, expected", [
        ("validate", {}),
        ("classify", {"group_divisors": 1, "divisor_lattices": 1, "decompose": 1,
                      "reid_tai": 1}),
        ("ramification", {"group_divisors": 1, "divisor_lattices": 1,
                          "ramification_data": 1}),
        ("reidtai", {"reid_tai": 1}),
        ("decompose", {"group_divisors": 1, "decompose": 1}),
        ("report", {"group_divisors": 1, "divisor_lattices": 1, "decompose": 1,
                    "ramification_data": 1, "reid_tai": 1}),
    ])
    def test_each_analysis_runs_at_most_once(self, command, expected, monkeypatch):
        # only the ramification section lists components: no other command
        # enumerates a fixed locus or keys a component
        listed = []
        representatives = AffineSolutionSet.representatives.func
        canonical_key = SubtorusTranslate.canonical_key
        for name in FIXTURES:
            calls = Counter()
            for func in ("group_divisors", "divisor_lattices", "decompose",
                         "ramification_data", "reid_tai"):
                count_calls(monkeypatch, func, calls)
            monkeypatch.setattr(AffineSolutionSet, "representatives", property(
                lambda sol: listed.append(sol) or representatives(sol)))
            monkeypatch.setattr(SubtorusTranslate, "canonical_key",
                                lambda comp: listed.append(comp) or canonical_key(comp))
            build_report(*parse_input(load(name)), command)
            assert calls == Counter(expected), name
            monkeypatch.undo()
        assert bool(listed) == (command in ("ramification", "report"))

    @pytest.mark.parametrize("command", ["classify", "report"])
    def test_each_fixed_locus_solved_once(self, command, monkeypatch):
        # the class path and every decomposition stage share the group's
        # solver, so each (W, a) reaches ``solve_factored`` at most once
        # per command
        original_solve = FixedPointSolver.solve
        solved_total = 0
        for name in FIXTURES:
            inside, solved = [], Counter()

            def recording_solve(solver, w, point):
                inside.append((w, point))
                try:
                    return original_solve(solver, w, point)
                finally:
                    inside.pop()

            monkeypatch.setattr(FixedPointSolver, "solve", recording_solve)
            count_calls(monkeypatch, "solve_factored", solved,
                        key=lambda *args: inside[-1] if inside else None)
            build_report(*parse_input(load(name)), command)
            monkeypatch.undo()
            solved.pop(None, None)  # the splittings along B x C solve no fixed locus
            assert max(solved.values(), default=1) == 1, name
            solved_total += len(solved)
        assert solved_total

    @pytest.mark.parametrize("name", ["kummer", "rot4-square", "sl-diag-c3-108"])
    def test_no_partition_without_a_low_rank_holonomy(self, name, monkeypatch):
        # no holonomy of these groups passes the trace tests, so no element
        # fixes a divisor: decompose and ramification print their sections
        # without reading the class partition, and take no Smith form
        text = _document_text(name)
        want = {command: build_report(*parse_input(text), command)
                for command in ("decompose", "ramification")}

        def unread(tables):
            raise AssertionError("class partition read")

        monkeypatch.setattr(ClosureTables, "classes", property(unread))
        for command, doc in want.items():
            calls = Counter()
            count_calls(monkeypatch, "factor_affine", calls)
            assert build_report(*parse_input(text), command) == doc
            assert not calls, command
        assert not want["ramification"]["ramification"]["components"]

    def test_fixed_loci_solved_lazily(self, monkeypatch):
        # the first nontrivial element of rot4-square is the Reid-Tai
        # witness, so reidtai needs one fixed locus of the three
        calls = Counter()
        count_calls(monkeypatch, "fixed_locus", calls)
        doc = build_report(*parse_input(load("rot4-square.json")), "reidtai")
        assert doc["reid_tai"]["holds"] is False
        assert calls["fixed_locus"] == 1

    @pytest.mark.parametrize("command", ["reidtai", "report"])
    def test_witness_age_computed_once(self, command, monkeypatch):
        # witness_age is the age reid_tai read off the one spectrum it took
        # to pick the witness
        calls = Counter()
        count_calls(monkeypatch, "age", calls)
        doc = build_report(*parse_input(load("rot4-square.json")), command)
        assert doc["reid_tai"]["witness_age"] == "1/2"
        assert calls["age"] == 1

    def test_split_prime_searched_once(self, monkeypatch):
        # a spectrum over the d-th roots is counted modulo the prime of
        # (lcm(12, d), 2n + 1); every holonomy order of the order-108 group
        # divides 12, so its 7 spectra take one search
        calls = Counter()
        count_calls(monkeypatch, "age", calls)
        split_prime.cache_clear()
        build_report(*parse_input(json.dumps(sl_diag_document("zeta6", True))), "reidtai")
        info = split_prime.cache_info()
        assert (calls["age"], info.misses, info.hits) == (7, 1, 6)

    def test_ages_eliminate_only_at_repeated_roots(self, monkeypatch):
        # the 19 class ages are read off 7 spectra, one per power walk root.
        # Each spectrum reads its characteristic polynomial, and at a root
        # its derivative, at each d-th root of unity it tries, d the root's
        # holonomy order: 51 readings in all, against 221 over every m-th
        # root per class.  It eliminates only at a repeated root: once
        calls = Counter()
        for func in ("spectrum_mod", "rank_mod", "_horner"):
            count_calls(monkeypatch, func, calls)
        build_report(*parse_input(json.dumps(sl_diag_document("zeta6", True))), "reidtai")
        assert calls == Counter({"spectrum_mod": 7, "rank_mod": 1, "_horner": 51})

    @pytest.mark.parametrize("command", ["classify", "reidtai"])
    def test_quasietale_loci_never_enumerated(self, command, monkeypatch):
        # kummer is quasietale with 16 fixed points.  Its involution has age
        # 1, so Reid-Tai needs no fixed locus, and rank(I - rho) = 4, so the
        # quasietale test needs none: no solve is made, let alone one that
        # lists components
        solves = []
        count_calls(monkeypatch, "fixed_locus", Counter(), solves)
        doc = build_report(*parse_input(load("kummer.json")), command)
        assert doc["reid_tai"]["holds"] if command == "reidtai" else \
            doc["classification"]["canonical"]
        assert solves == []

    def test_only_divisorial_loci_enumerated(self, monkeypatch):
        # Each element is solved at most once, and conjugate elements have
        # fixed loci of one dimension.  So a solve of dimension n - 1 is of
        # an element of a divisorial class, and every such element must be
        # solved and enumerated.  Any other solve is of a first element of
        # a class with rank(I - rho) <= 2, solved to test the class.
        for name in FIXTURES:
            variety, gens, options = parse_input(load(name))
            n = variety.n
            group = close_group(variety, gens)
            rep = group.class_rep
            firsts = [i for i in range(1, group.order) if rep[i] == i]
            divisorial = [i for i in firsts
                          if fixed_locus(group.elements[i], FixedPointSolver()).dim == n - 1]
            expected = sum(1 for i in range(1, group.order) if rep[i] in divisorial)
            probes = sum(1 for i in firsts if i not in divisorial
                         and fixed_rank(group.elements[i]) <= 2)
            solves = []
            # the class screen solves by ``element_fixed_solution``, the
            # listing by ``fixed_locus``
            for func in ("fixed_locus", "element_fixed_solution"):
                count_calls(monkeypatch, func, Counter(), solves)
            build_report(variety, gens, options, "ramification")
            monkeypatch.undo()
            # the solver keeps each solution, so an element asked for twice
            # returns the same object: count the distinct solves
            solves = list({id(sol): sol for sol in solves}.values())
            enumerated = [sol for sol in solves if sol.dim == n - 1]
            assert len(enumerated) == expected, name
            assert all("representatives" in vars(sol) for sol in enumerated), name
            others = [sol for sol in solves if sol.dim != n - 1]
            assert len(others) == probes, name
            assert all("representatives" not in vars(sol) for sol in others), name
            if name == "sign-rot4.json":
                # g^2 fixes a curve; g and g^3 fix points, and with
                # rank(I - rho) = 4 they are never solved
                assert [sol.dim for sol in solves] == [1]

    def test_each_generator_validated_once(self, tmp_path, capsys, monkeypatch):
        # close_group validates the blocks parse_input read, once per
        # generator of the document, repeated ones included
        docs = [json.loads(load(name)) for name in FIXTURES]
        docs += [sl_diag_document(cm, cycle) for cm, cycle in SL_DIAG.values()]
        docs += [RAMIFIED_72_DOC, {"factors": [{"cm": "zeta4"}],
                                   "generators": [{"holonomy": [[[0, 1]]]}] * 2}]
        from_rows = EndoBlockMatrix.from_rows.__func__
        calls = []

        def counting(cls, variety, rows):
            calls.append(rows)
            return from_rows(cls, variety, rows)

        monkeypatch.setattr(EndoBlockMatrix, "from_rows", classmethod(counting))
        p = tmp_path / "doc.json"
        for doc in docs:
            p.write_text(json.dumps(doc))
            calls.clear()
            assert main(["validate", str(p)]) == 0
            capsys.readouterr()
            assert len(calls) == len(doc["generators"]), doc

    def test_each_matrix_ranked_and_factored_once(self, monkeypatch):
        # the class path and every decomposition stage share one solver, so
        # a report ranks each distinct matrix and takes its Smith form at
        # most once.  It ranks no I - W: the solver decides rank(I - W) <= 2
        # off tr W and tr W^2, or else off the Smith form of I - W that the
        # caller then solves with
        texts = [load(name) for name in FIXTURES]
        texts.append(json.dumps(sl_diag_document("zeta6", cycle=True)))
        original_may_fix = FixedPointSolver.may_fix_divisor
        made = Counter()
        for text in texts:
            calls, asked = Counter(), set()

            def recording(solver, w):
                asked.add(w)
                return original_may_fix(solver, w)

            monkeypatch.setattr(FixedPointSolver, "may_fix_divisor", recording)
            for func in ("matrix_rank", "factor_affine"):
                count_calls(monkeypatch, func, calls,
                            key=lambda m, *_, func=func: (func, tuple(map(tuple, m))))
            build_report(*parse_input(text), "report")
            monkeypatch.undo()
            assert max(calls.values(), default=1) == 1, text
            assert not {("matrix_rank", tuple(map(tuple, identity_minus(w))))
                        for w in asked} & set(calls), text
            made.update(func for func, _ in calls)
            made["asked"] += len(asked)
        # kummer's report factors nothing: the trace of its one nontrivial
        # holonomy, -I, rules out rank(I - rho) <= 2
        assert made["asked"] and made["factor_affine"]

    def test_order_72_report_hermite_forms(self, monkeypatch):
        # one report on the order-72 group takes 44 Hermite forms on 27
        # distinct inputs, none of them a rank of an I - W
        calls = Counter()
        count_calls(monkeypatch, "hermite_basis", calls,
                    key=lambda m, width: (tuple(map(tuple, m)), width))
        build_report(*parse_input(json.dumps(RAMIFIED_72_DOC)), "report")
        assert (sum(calls.values()), len(calls)) == (44, 27)

    @pytest.mark.parametrize("name, report_asked, decompose_solved", [
        ("zeta4^3:C2+t", 13, 8), ("zeta6^3:mu6xmu3+t", 35, 18)])
    def test_split_asks_no_element_of_n_c(self, name, report_asked, decompose_solved,
                                          monkeypatch):
        # decompose asks may_fix_divisor once per nontrivial class of G: 13
        # of the 14 classes of the order-32 group, and all 35 nontrivial
        # elements of the abelian order-36 one.  It solves the first
        # element of each class that passes, and after a split, the Q-Fano
        # stage of N_C reads its divisors off the solves of the
        # restrictions of N's kept generators (4 and 3 here), asking no
        # element of N_C.  A report asks no more: its decomposition and
        # ramification read one screen
        doc, _ = RAMIFIED_CM_DOCS[name]
        variety, gens, _ = parse_input(json.dumps(doc))
        classes = len(set(union_find_class_rep(close_group(variety, gens))))
        original = FixedPointSolver.may_fix_divisor
        for command in ("decompose", "report"):
            asked, solved = [], Counter()

            def recording(solver, w):
                asked.append(w)
                return original(solver, w)

            monkeypatch.setattr(FixedPointSolver, "may_fix_divisor", recording)
            count_calls(monkeypatch, "element_fixed_solution", solved)
            build_report(*parse_input(json.dumps(doc)), command)
            monkeypatch.undo()
            if command == "decompose":
                assert (len(asked), solved["element_fixed_solution"]) == (
                    classes - 1, decompose_solved)
            else:
                assert len(asked) == report_asked

    @pytest.mark.parametrize("command", ["classify", "report"])
    def test_each_lattice_complemented_and_kernel_taken_once(self, command, monkeypatch):
        # the solver keeps one object per distinct lattice, which caches its
        # complement for ramification, kappa and every stage; and no two
        # readers take the integer kernel of one matrix
        texts = {name: (load(name), None) for name in FIXTURES}
        texts.update((name, (json.dumps(doc), order))
                     for name, (doc, order) in RAMIFIED_CM_DOCS.items())
        for name, (text, order) in texts.items():
            complements, kernels = Counter(), Counter()
            count_calls(monkeypatch, "orthogonal_complement_rows", complements,
                        key=lambda lat: lat)
            count_calls(monkeypatch, "integer_kernel", kernels,
                        key=lambda m, cols: (tuple(map(tuple, m)), cols))
            doc = build_report(*parse_input(text), command)
            monkeypatch.undo()
            assert max(complements.values(), default=1) == 1, name
            assert max(kernels.values(), default=1) == 1, name
            if order is not None:
                assert doc["classification"]["group_order"] == order, name
            if name == "zeta6^2:C2":
                assert (len(complements), len(kernels)) == (8, 10)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_report_sections_match_commands(self, name):
        variety, gens, options = parse_input(load(name))
        report = build_report(variety, gens, options, "report")
        for section, command in SECTIONS.items():
            alone = build_report(variety, gens, options, command)
            assert serialize(report[section]) == serialize(alone[section]), section
