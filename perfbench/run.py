"""fqav benchmark runner (stdlib only).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  One process, one caller, closed loop: each command is
a call to ``fqav.cli.main([command, "-"])`` with the generated JSON on
stdin, and the next call starts only after the previous one returns.
Module state kept across calls is not reset between commands.

A round runs all six commands on every input of the workload.  With
``--trace 0`` rounds repeat until ``--seconds`` have passed (the first
round always completes), a command shorter than ``REPEAT_BELOW_S`` runs
up to ``REPEAT_MAX`` times back to back, and the end-to-end metrics are
printed.  With ``--trace 1`` a warm-up round, one untraced round and one
traced round run, the outputs of the last two must be byte-identical, and
the per-layer metrics are printed.

End-to-end times are CPU seconds of this thread on a reference scale:
``speed.py`` samples how fast the machine runs Python while fqav runs, and
scales each command's CPU time by it.  The raw CPU and wall seconds are
printed on a comment line.

Every output is checked (see ``Checker``).  The last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 1 when any command failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import namedtuple
from pathlib import Path

import speed
from tracer import FRACTION_NEW, Tracer
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN_DIR = HERE / "golden"
SMALLEST_FIXTURE = ROOT / "fixtures" / "kummer.json"  # E^2 / -1, order 2

COMMANDS = ("validate", "classify", "ramification", "reidtai", "decompose", "report")
# report section -> the standalone command that prints the same section
SECTIONS = {"input": "validate", "classification": "classify",
            "ramification": "ramification", "reid_tai": "reidtai",
            "decomposition": "decompose"}
# a command shorter than this is run again at once, up to REPEAT_MAX runs in
# all, so that its latency does not rest on one or two short samples
REPEAT_BELOW_S = 0.15
REPEAT_MAX = 3
SETUP_REPS = 21
SETUP_CALIBRATIONS = 10
# a fresh interpreter's own CPU time to import fqav.cli and validate, then
# the calibration times that put it on the reference scale (on stderr)
SETUP_SNIPPET = f"""\
import json, sys, time
t0 = time.thread_time()
from fqav.cli import main
code = main(['validate', '-'])
t1 = time.thread_time()
sys.path.insert(0, {str(HERE)!r})
import speed
sys.stderr.write("\\n" + json.dumps([t1 - t0, speed.time_calibrations({SETUP_CALIBRATIONS})]))
sys.exit(code)
"""


# ---------------------------------------------------------------------------
# calling fqav

# start and end are thread CPU times, wall is wall seconds
Outcome = namedtuple("Outcome", "code stdout stderr start end wall")


def call(main, command, text):
    """One closed-loop call: the JSON on stdin, stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            w0, start = time.perf_counter(), speed.clock()
            try:
                code = main([command, "-"])
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a traceback is a failed command, not a crash
                code = "exception"
                err.write(traceback.format_exc())
            end = speed.clock()
            wall = time.perf_counter() - w0
    finally:
        sys.stdin = saved
    return Outcome(code, out.getvalue(), err.getvalue(), start, end, wall)


# ---------------------------------------------------------------------------
# correctness

def golden_path(workload):
    return GOLDEN_DIR / f"{workload}.json"


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _section(stdout, key):
    return json.dumps(json.loads(stdout)[key], indent=2)


class Checker:
    """A command fails if its exit code or error[code] is not the expected
    one, if a validate reports another group order than the generator's
    independent closure, if its stdout digest differs from the golden one
    (default seed only), or if a report section is not byte-identical to
    the standalone command's output of the same round."""

    def __init__(self, golden):
        self.golden = golden
        self.attempted = 0
        self.failures = []
        self._standalone = {}

    def check(self, case, command, outcome):
        self.attempted += 1
        problem = self._problem(case, command, outcome)
        if problem:
            self.failures.append(f"{case.name} {command}: {problem}")

    def _problem(self, case, command, outcome):
        if not case.valid:
            if outcome.code != 1 or not outcome.stderr.startswith(f"error[{case.error}]"):
                return f"expected error[{case.error}], got exit {outcome.code}: " \
                       f"{outcome.stderr.strip()[:200]}"
        elif outcome.code != 0:
            return f"exit {outcome.code}: {outcome.stderr.strip()[:200]}"
        if self.golden is not None:
            want = self.golden.get(f"{case.name}/{command}")
            if want != digest(outcome.stdout):
                return "stdout differs from the golden digest"
        if not case.valid:
            return None
        if command == "validate":
            order = json.loads(outcome.stdout)["group_order"]
            if order != case.order:
                return f"group order {order}, expected {case.order}"
        if command != "report":
            self._standalone[command] = (case.name, outcome.stdout)
            return None
        for key, cmd in SECTIONS.items():
            name, stdout = self._standalone.get(cmd, (None, None))
            if name != case.name or _section(outcome.stdout, key) != _section(stdout, key):
                return f"report section {key!r} differs from {cmd}"
        return None


# ---------------------------------------------------------------------------
# measurement

def measure_setup(reps=SETUP_REPS):
    """CPU seconds, on the reference scale, for a fresh interpreter to
    import fqav.cli and validate the smallest fixture; the median of
    ``reps`` interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    text = SMALLEST_FIXTURE.read_text()
    times = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], input=text,
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=120, check=False)
        if proc.returncode != 0 or json.loads(proc.stdout)["group_order"] != 2:
            raise RuntimeError(f"set-up validate failed: {proc.stderr.strip()[:300]}")
        seconds, calibrations = json.loads(proc.stderr.splitlines()[-1])
        times.append(seconds * speed.REFERENCE_S / statistics.median(calibrations))
    return statistics.median(times)


def run_round(main, cases, checker, deadline=None, before=None, outputs=None, wall=None,
              repeat=False):
    """One pass over the command list; returns {(case, command): [(start,
    end), ...]} in thread CPU time, one pair per run.  With a deadline,
    stops before the first run that would start late.  With ``repeat``, a
    short command runs again at once (``REPEAT_BELOW_S``).
    ``before(command)`` runs ahead of each call; ``outputs`` collects each
    call's (exit code, stdout, stderr); ``wall`` collects wall seconds."""
    spans = {}
    for case in cases:
        for command in COMMANDS:
            runs = spans[(case.name, command)] = []
            while not runs or (repeat and len(runs) < REPEAT_MAX
                               and sum(e - s for s, e in runs) < REPEAT_BELOW_S):
                if deadline is not None and time.perf_counter() >= deadline:
                    if not runs:
                        del spans[(case.name, command)]
                    return spans
                if before is not None:
                    before(command)
                outcome = call(main, command, case.text)
                checker.check(case, command, outcome)
                runs.append((outcome.start, outcome.end))
                if wall is not None:
                    wall.append(outcome.wall)
                if outputs is not None:
                    outputs[(case.name, command)] = (outcome.code, outcome.stdout,
                                                     outcome.stderr)
    return spans


def cpu_seconds(spans):
    return sum(end - start for runs in spans.values() for start, end in runs)


def tail_percentile(values):
    """The highest nearest-rank percentile with at least ten samples above
    it: (value, percentile)."""
    ordered = sorted(values)
    i = len(ordered) - 11
    if i < 0:
        raise ValueError("the tail needs at least 11 samples")
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def end_to_end(main, cases, checker, seconds):
    t0, wall = time.perf_counter(), []
    with speed.Speedometer() as meter:
        rounds = [run_round(main, cases, checker, wall=wall, repeat=True)]
        while time.perf_counter() - t0 < seconds:
            rounds.append(run_round(main, cases, checker, deadline=t0 + seconds, wall=wall,
                                    repeat=True))
    # one latency per command of the list: the median of all its runs
    latency = {key: statistics.median(meter.scaled(*span) for r in rounds
                                      for span in r.get(key, ()))
               for key in rounds[0]}
    per_command = {cmd: sum(v for (_, c), v in latency.items() if c == cmd)
                   for cmd in COMMANDS}
    tail, pct = tail_percentile(latency.values())
    metrics = {
        "cmds_per_s": (len(latency) / sum(latency.values()), "1/s"),
        **{f"{cmd}_s": (per_command[cmd], "s") for cmd in
           ("report", "classify", "decompose", "ramification", "reidtai", "validate")},
        "cmd_ms_p50": (1000 * statistics.median(latency.values()), "ms"),
        "cmd_ms_tail": (1000 * tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    cpu = sum(cpu_seconds(r) for r in rounds)
    runs = sum(len(v) for r in rounds for v in r.values())
    notes = [f"rounds: {len(rounds)} ({runs} runs of commands, "
             f"{cpu:.3f} CPU s in {sum(wall):.3f} wall s)",
             f"calibration: {len(meter.took)} samples, median "
             f"{1000 * statistics.median(meter.took):.4f} ms, reference "
             f"{1000 * speed.REFERENCE_S:g} ms",
             f"cmd_ms_tail: p{pct:.1f} over {len(latency)} per-command medians"]
    return metrics, notes


def per_layer(main, cases, checker):
    plain, traced = {}, {}
    run_round(main, cases, checker)  # warm-up, so both measured rounds are warm
    plain_s = cpu_seconds(run_round(main, cases, checker, outputs=plain))

    tracer = Tracer()
    command_names = []

    def tag(command):
        tracer.cmd_id = len(command_names)
        command_names.append(command)

    tracer.install()
    try:
        traced_s = cpu_seconds(run_round(main, cases, checker, before=tag, outputs=traced))
    finally:
        tracer.remove()
    for key, output in plain.items():
        if traced[key] != output:
            checker.failures.append(f"{key[0]} {key[1]}: traced output differs")

    calls, self_s, calls_by_cmd = tracer.summary(command_names)
    reports = sum(case.valid for case in cases)  # report commands that succeed
    metrics = {"trace.overhead_s": (traced_s - plain_s, "s"),
               FRACTION_NEW + ".calls": (tracer.fraction_news, "count")}
    for name in tracer.names:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (self_s[name], "s")
        metrics[f"{name}.calls_per_report"] = (
            calls_by_cmd.get((name, "report"), 0) / max(reports, 1), "calls/report")
    for name, seen in tracer.distinct.items():
        metrics[f"{name}.distinct_ratio"] = (len(seen) / max(calls[name], 1), "ratio")
    elements, tried = tracer.closure_yield()
    metrics["action.close_group.elements"] = (elements, "count")
    # new elements (all but the identity) per composition tried
    metrics["action.close_group.useful_ratio"] = (
        (elements - len(tracer.closed)) / max(tried, 1), "ratio")
    notes = [f"spans: {len(tracer.span_name)}; untraced round {plain_s:.3f} CPU s, "
             f"traced round {traced_s:.3f} CPU s"]
    return metrics, notes


# ---------------------------------------------------------------------------
# entry point

def select(metrics, wanted):
    """The metrics BENCHMARK.json names, in its order, with its units."""
    out = {}
    for entry in wanted:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise ValueError(f"{entry['name']}: unit {unit}, declared {entry['unit']}")
        out[entry["name"]] = (value, unit)
    return out


def machine_info():
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return f"python {platform.python_version()}; nproc {os.cpu_count()}; cpu {cpu}"


def parse_args(argv):
    parser = argparse.ArgumentParser(description="fqav benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="record the stdout digests of the default seed and exit")
    return parser.parse_args(argv)


def write_golden(main, workload, cases):
    digests = {}
    for case in cases:
        for command in COMMANDS:
            digests[f"{case.name}/{command}"] = digest(call(main, command, case.text).stdout)
    GOLDEN_DIR.mkdir(exist_ok=True)
    golden_path(workload).write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "fqav" / "cli.py").is_file():
        print(f"error: no fqav sources under {SRC}", file=sys.stderr)
        return 2
    cases = WORKLOADS[args.workload](args.seed)
    setup_s = None if args.trace or args.write_golden else measure_setup()
    sys.path.insert(0, str(SRC))
    from fqav.cli import main as fqav_main

    if args.write_golden:
        write_golden(fqav_main, args.workload, cases)
        return 0
    golden = None
    if args.seed == DEFAULT_SEED:
        golden = json.loads(golden_path(args.workload).read_text())
    checker = Checker(golden)
    if args.trace:
        metrics, notes = per_layer(fqav_main, cases, checker)
    else:
        metrics, notes = end_to_end(fqav_main, cases, checker, args.seconds)
        metrics["setup_s"] = (setup_s, "s")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = select(metrics, spec["per_layer" if args.trace else "end_to_end"])

    print(f"# {machine_info()}")
    print(f"# workload {args.workload}, seed {args.seed}, {len(cases)} inputs, "
          f"trace {args.trace}")
    for note in notes:
        print(f"# {note}")
    print(f"# fail_ratio: {len(checker.failures)}/{checker.attempted}")
    for failure in checker.failures[:20]:
        print(f"# FAIL {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if checker.failures else 0


if __name__ == "__main__":
    sys.exit(main())
