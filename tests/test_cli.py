import json
import sys
from collections import Counter

import pytest

from fqav.action import FiniteGroupAction, close_group, fixed_locus
from fqav.cli import COMMANDS, MAX_DENOMINATOR_BITS, build_report, main, parse_input, serialize
from fqav.errors import InputError
from fqav.linalg import elementary_divisors, identity_matrix, mat_sub

from conftest import FIXTURE_DIR
from test_golden import sl_diag_document

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
    rho = g.holonomy.matrix
    return len(elementary_divisors(mat_sub(identity_matrix(len(rho)), rho)))


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
    ], ids=["generator-not-object", "label-not-string", "cm-not-string",
            "bool-holonomy", "bool-translation", "bool-group-cap", "bool-schema-version",
            "space-rational", "plus-rational", "underscore-rational", "arabic-indic-rational",
            "long-rational"])
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
        # an order-8 holonomy needs 8 | m: the conductor comes from the group,
        # lcm(12, 8) = 24, so no command finds its field too small, and only
        # the commands that print Reid-Tai find it
        fields = []
        count_calls(monkeypatch, "cyclo_field_for", Counter(), fields)
        p = tmp_path / "order8.json"
        p.write_text(json.dumps(ORDER8_DOC))
        assert main([command, str(p)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        reads_ages = command in ("classify", "reidtai", "report")
        assert [f.m for f in fields] == ([24] if reads_ages else [])
        if command == "report":
            doc = json.loads(captured.out)
            assert doc["classification"]["reid_tai_holds"] is False
            assert doc["classification"]["reid_tai_witness"] == doc["reid_tai"]["witness"]

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
        # conductor, which walks the holonomy powers
        import fqav.action

        path = str(FIXTURE_DIR / "sign-rot4.json")
        expected = {}
        for command in ("ramification", "decompose"):
            assert main([command, path]) == 0
            expected[command] = capsys.readouterr().out

        def no_exponent(group):
            raise RuntimeError("group_exponent called")

        monkeypatch.setattr(fqav.action, "group_exponent", no_exponent)
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


class TestCertificateWitness:
    """A failed certificate exits 2 and names its witness."""

    def test_non_normal_subgroup(self, tmp_path, capsys, monkeypatch):
        decompose_module = sys.modules["fqav.decompose"]
        p = tmp_path / "d4.json"
        p.write_text(json.dumps(D4_DOC))
        flip = ((-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

        def flip_only(elements, fixed):
            # <(-1) x 1> in place of the ramification subgroup: not normal
            flips = [e for e in elements if e.matrix == flip]
            return decompose_module.close_elements(flips)

        monkeypatch.setattr(decompose_module, "lattice_ramification_subgroup", flip_only)
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

    def test_n_tilde_not_closed(self, capsys, monkeypatch):
        decompose_module = sys.modules["fqav.decompose"]
        original = decompose_module._check_n_tilde_group

        def drop_last(n_tilde, generators):
            return original(n_tilde[:-1], generators)

        monkeypatch.setattr(decompose_module, "_check_n_tilde_group", drop_last)
        assert main(["decompose", str(FIXTURE_DIR / "sign-rot4.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # N = <(-1) x 1>, B the first factor: N-tilde is the identity and
        # the lift of (-1) x 1, and the identity times that is outside
        assert captured.err == (
            "certificate failure: N-tilde is not closed under composition: "
            "x -> [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]] x + [0, 0, 0, 0] "
            "times generator "
            "x -> [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]] x + [0, 0, 0, 0] "
            "is "
            "x -> [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]] x + [0, 0, 0, 0], "
            "outside it\n")


# report section -> the command that prints it alone
SECTIONS = {"input": "validate", "classification": "classify",
            "ramification": "ramification", "reid_tai": "reidtai",
            "decomposition": "decompose"}


class TestComputeOnce:
    @pytest.mark.parametrize("command, expected", [
        ("validate", {}),
        ("classify", {"decompose": 1, "ramification_data": 1, "reid_tai": 1}),
        ("ramification", {"ramification_data": 1}),
        ("reidtai", {"reid_tai": 1}),
        ("decompose", {"decompose": 1}),
        ("report", {"decompose": 1, "ramification_data": 1, "reid_tai": 1}),
    ])
    def test_each_analysis_runs_at_most_once(self, command, expected, monkeypatch):
        for name in FIXTURES:
            calls = Counter()
            for func in ("decompose", "ramification_data", "reid_tai"):
                count_calls(monkeypatch, func, calls)
            build_report(*parse_input(load(name)), command)
            assert calls == Counter(expected), name
            monkeypatch.undo()

    @pytest.mark.parametrize("command", ["classify", "report"])
    def test_each_fixed_locus_solved_once(self, command, monkeypatch):
        for name in FIXTURES:
            calls = Counter()
            count_calls(monkeypatch, "fixed_locus", calls)
            doc = build_report(*parse_input(load(name)), command)
            assert calls["fixed_locus"] <= doc["classification"]["group_order"] - 1, name
            monkeypatch.undo()

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
        # witness_age is the age reid_tai computed to pick the witness
        calls = Counter()
        count_calls(monkeypatch, "age", calls)
        doc = build_report(*parse_input(load("rot4-square.json")), command)
        assert doc["reid_tai"]["witness_age"] == "1/2"
        assert calls["age"] == 1

    @pytest.mark.parametrize("command", ["classify", "reidtai"])
    def test_quasietale_loci_never_enumerated(self, command, monkeypatch):
        # kummer is quasietale with 16 fixed points: the checks read only
        # emptiness and dimension, so no solve lists its components
        solves = []
        count_calls(monkeypatch, "fixed_locus", Counter(), solves)
        build_report(*parse_input(load("kummer.json")), command)
        assert any(sol.nonempty for sol in solves)
        assert all("representatives" not in vars(sol) for sol in solves)

    def test_only_divisorial_loci_enumerated(self, monkeypatch):
        # Each element is solved at most once, and conjugate elements have
        # fixed loci of one dimension.  So a solve of dimension n - 1 is of
        # an element of a divisorial class, and every such element must be
        # solved and enumerated.  Any other solve is of a first element of
        # a class with rank(I - rho) <= 2, solved to test the class.
        for name in FIXTURES:
            variety, gens, options = parse_input(load(name))
            n = variety.n
            group = close_group(gens)
            rep = group.class_rep
            firsts = [i for i in range(1, group.order) if rep[i] == i]
            divisorial = [i for i in firsts if fixed_locus(group.elements[i]).dim == n - 1]
            expected = sum(1 for i in range(1, group.order) if rep[i] in divisorial)
            probes = sum(1 for i in firsts if i not in divisorial
                         and fixed_rank(group.elements[i]) <= 2)
            solves = []
            count_calls(monkeypatch, "fixed_locus", Counter(), solves)
            build_report(variety, gens, options, "ramification")
            monkeypatch.undo()
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

    def test_each_matrix_ranked_and_factored_once(self, monkeypatch):
        # the class path and every decomposition stage share one solver, so
        # a report ranks each distinct matrix and takes its Smith form at
        # most once
        texts = [load(name) for name in FIXTURES]
        texts.append(json.dumps(sl_diag_document("zeta6", cycle=True)))
        for text in texts:
            calls = Counter()
            for func in ("matrix_rank", "factor_affine"):
                count_calls(monkeypatch, func, calls,
                            key=lambda m, *_, func=func: (func, tuple(map(tuple, m))))
            build_report(*parse_input(text), "report")
            monkeypatch.undo()
            assert calls and max(calls.values()) == 1, text

    @pytest.mark.parametrize("command", ["classify", "report"])
    def test_reid_tai_ranks_are_free(self, command, monkeypatch):
        # the classification reads Reid-Tai first, and the Smith form of
        # each fixed locus it solves gives the solver that holonomy's rank,
        # so no holonomy reid_tai solved is ranked by elimination
        classify_module = sys.modules["fqav.classify"]
        texts = [load(name) for name in FIXTURES]
        texts.append(json.dumps(sl_diag_document("zeta6", cycle=True)))
        original_reid_tai = classify_module.reid_tai
        original_locus = FiniteGroupAction.fixed_locus_of
        for text in texts:
            solved, ranked, inside = set(), Counter(), []

            def recording_reid_tai(*args):
                inside.append(True)
                try:
                    return original_reid_tai(*args)
                finally:
                    inside.pop()

            def recording_locus(group, g):
                if inside:
                    w = g.holonomy.matrix
                    solved.add(tuple(map(tuple, mat_sub(identity_matrix(len(w)), w))))
                return original_locus(group, g)

            monkeypatch.setattr(classify_module, "reid_tai", recording_reid_tai)
            monkeypatch.setattr(FiniteGroupAction, "fixed_locus_of", recording_locus)
            count_calls(monkeypatch, "matrix_rank", ranked,
                        key=lambda m: tuple(map(tuple, m)))
            build_report(*parse_input(text), command)
            monkeypatch.undo()
            assert solved, text
            assert not solved & set(ranked), (len(solved & set(ranked)), text)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_report_sections_match_commands(self, name):
        variety, gens, options = parse_input(load(name))
        report = build_report(variety, gens, options, "report")
        for section, command in SECTIONS.items():
            alone = build_report(variety, gens, options, command)
            assert serialize(report[section]) == serialize(alone[section]), section
