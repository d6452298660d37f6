"""Smoke test of the benchmark harness: each workload runs for one second,
untraced, and its run ends with a JSON result line that reports no failure.

The harness starts its own worker processes from the sources of this
checkout, so the test needs no installed package.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["symbolic", "suite", "materialize"])
def test_benchmark_run_ends_with_its_result(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] > 0
