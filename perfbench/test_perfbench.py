"""The benchmark's own tests.

    python3 -m unittest discover perfbench
"""

from __future__ import annotations

import fractions
import io
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from fqav import cli  # noqa: E402

SEEDS = (0, 1, 7)


class GeneratorTests(unittest.TestCase):
    def test_deterministic_for_a_seed(self):
        for name, make in workloads.WORKLOADS.items():
            for seed in SEEDS:
                with self.subTest(workload=name, seed=seed):
                    self.assertEqual(make(seed), make(seed))

    def test_seed_varies_presentation_not_orders(self):
        for name, make in workloads.WORKLOADS.items():
            base = sorted((c.name, c.order, c.error) for c in make(0))
            texts = set()
            for seed in range(4):
                cases = make(seed)
                texts.add(tuple(c.text for c in cases))
                self.assertEqual(sorted((c.name, c.order, c.error) for c in cases), base)
            self.assertGreater(len(texts), 1, name)

    def test_small_mixed_corpus(self):
        for seed in SEEDS:
            cases = workloads.small_mixed(seed)
            valid = [c for c in cases if c.valid]
            self.assertEqual(len(valid), workloads.SMALL_VALID)
            self.assertLessEqual(max(c.order for c in valid), workloads.SMALL_MAX_ORDER)
            self.assertEqual(len(cases) - len(valid),
                             len(workloads.MALFORMED) * workloads.MALFORMED_EACH)


def validate(text):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), out, err
    try:
        code = cli.main(["validate", "-"])
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue()


class InputTests(unittest.TestCase):
    def cases(self):
        for name, make in workloads.WORKLOADS.items():
            for seed in SEEDS[:2]:
                for case in make(seed):
                    yield name, seed, case

    def test_valid_inputs_close_below_cap_with_stated_order(self):
        for name, seed, case in self.cases():
            if not case.valid:
                continue
            with self.subTest(workload=name, seed=seed, case=case.name):
                doc = json.loads(case.text)
                cap = doc.get("options", {}).get("group_cap", 10000)
                self.assertEqual(workloads.group_order(doc, cap), case.order)
                code, out, err = validate(case.text)
                self.assertEqual(code, 0, err)
                self.assertEqual(json.loads(out)["group_order"], case.order)
                self.assertLess(case.order, cap)

    def test_malformed_inputs_yield_their_code(self):
        seen = set()
        for name, seed, case in self.cases():
            if case.valid:
                continue
            with self.subTest(workload=name, seed=seed, case=case.name):
                code, out, err = validate(case.text)
                self.assertEqual(code, 1)
                self.assertEqual(out, "")
                self.assertTrue(err.startswith(f"error[{case.error}]"), err)
                seen.add(case.error)
        self.assertEqual(seen, set(workloads.MALFORMED))

    def test_smallest_input(self):
        code, out, _ = validate(run.SMALLEST_FIXTURE.read_text())
        self.assertEqual((code, json.loads(out)["group_order"]), (0, 2))


def fqav_bindings():
    """Every attribute of every fqav module and traced class, by identity."""
    out = {}
    for mod_name, module in sorted(sys.modules.items()):
        if mod_name == "fqav" or mod_name.startswith("fqav."):
            for attr, value in vars(module).items():
                out[(mod_name, attr)] = value
    for mod, qual in tracer.TRACED:
        if "." in qual:
            cls_name, _ = qual.split(".")
            cls = getattr(sys.modules[f"fqav.{mod}"], cls_name)
            for attr, value in vars(cls).items():
                out[(cls, attr)] = value
    out[(fractions.Fraction, "__new__")] = vars(fractions.Fraction)["__new__"]
    return out


class TracerTests(unittest.TestCase):
    def test_remove_restores_identical_objects(self):
        before = fqav_bindings()
        t = tracer.Tracer()
        t.install()
        try:
            patched = t.patched()
            # every traced name is replaced, in each module that binds it
            self.assertGreaterEqual(len(patched), len(tracer.TRACED) + 1)
            for owner, attr in patched:
                key = (owner.__name__ if owner.__class__ is type(sys) else owner, attr)
                self.assertIsNot(vars(owner)[attr], before[key])
        finally:
            t.remove()
        after = fqav_bindings()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)

    def test_traced_output_is_identical_and_spanned(self):
        case = workloads.ramified_cm(0)[0]
        plain = run.call(cli.main, "report", case.text)
        t = tracer.Tracer()
        t.install()
        try:
            t.cmd_id = 0
            traced = run.call(cli.main, "report", case.text)
        finally:
            t.remove()
        self.assertEqual((plain.code, plain.stdout), (traced.code, traced.stdout))
        calls, self_s, by_cmd = t.summary(["report"])
        self.assertEqual(by_cmd[("decompose.decompose", "report")], 2)
        self.assertEqual(calls["cli.parse_input"], 1)
        self.assertGreater(t.fraction_news, 0)
        self.assertTrue(all(v >= 0 for v in self_s.values()))

    def test_closure_yield_skips_calls_that_raise(self):
        capped = next(c for c in workloads.small_mixed(0) if c.error == "cap-exceeded")
        t = tracer.Tracer()
        t.install()
        try:
            t.cmd_id = 0
            self.assertEqual(run.call(cli.main, "validate", capped.text).code, 1)
            self.assertEqual(t.closure_yield(), (0, 0))
            case = workloads.ramified_cm(0)[0]
            run.call(cli.main, "validate", case.text)
        finally:
            t.remove()
        elements, tried = t.closure_yield()
        self.assertEqual(elements, case.order)
        self.assertGreaterEqual(tried, case.order - 1)


class MetricTests(unittest.TestCase):
    def test_tail_percentile_keeps_ten_samples_above(self):
        value, pct = run.tail_percentile(range(24))
        self.assertEqual(value, 13)
        self.assertAlmostEqual(pct, 100 * 14 / 24)
        with self.assertRaises(ValueError):
            run.tail_percentile(range(10))

    def test_scaled_drops_samples_inside_and_rescales(self):
        meter = speed.Speedometer()
        meter.at = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        meter.took = [0.009, 0.001, 0.002, 0.002, 0.003, 0.002, 0.009]
        # the span holds the sample at 3.0, with two on each side; the
        # samples at 0.0 and 6.0 are too far away
        self.assertAlmostEqual(meter.scaled(2.5, 3.5),
                               (1.0 - 0.002) * speed.REFERENCE_S / 0.002)

    def test_speedometer_samples_while_entered(self):
        with speed.Speedometer() as meter:
            t0 = speed.clock()
            while speed.clock() - t0 < 5 * speed.PERIOD_S:
                speed.calibrate()
        count = len(meter.took)
        self.assertGreaterEqual(count, 2)
        speed.time_calibrations(20)
        self.assertEqual(len(meter.took), count)

    def test_benchmark_json_names_every_metric(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertIn("setup_s", names)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
