"""Smoke test of the benchmark harness: each workload runs for one second,
untraced, and its run ends with a JSON result line that reports no failure;
and every package name the tracer wraps still exists.

The harness starts its own worker processes from the sources of this
checkout, so the test needs no installed package.
"""

import importlib.util
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


def test_every_tracer_target_exists():
    # a traced metric whose target is gone reads ABSENT, and the harness's
    # self-test then fails; load the tracer alone, by path
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = []
    for module, attr, _, _ in tracing.TARGETS:
        obj = importlib.import_module(f"wignerlab.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attr}")
    assert missing == []
