"""The benchmark's own output checks, run as tests: each workload runs once
traced, every command's stdout is checked against the recorded golden
digests, and the traced round must print what the untraced one printed."""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUNNER = ROOT / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ["ramified-cm", "quasietale-sl", "small-mixed"])
def test_workload_matches_goldens(workload):
    done = subprocess.run([sys.executable, str(RUNNER), "--workload", workload, "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last
