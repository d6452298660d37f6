"""Self-test of the benchmark; run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names the workloads, reasons and metrics the
benchmark prints, that the correctness gate catches a wrong result
(``full-suite --L 3 --inject-fault flip-boundary-sign`` must give a failed
operation and a non-zero exit), that a set ``WIGNERLAB_DENSE_CAP`` is
refused, and that a directory holding only the benchmark fails without
printing a result.  Takes about two minutes on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from tracing import OVERHEAD_METRIC, PER_LAYER
from worker import OUT_DIR, ROOT, WORKLOADS

RUN = Path(__file__).with_name("run.py")


def bench(workload: str, trace: int, *extra: str, env=None, root=ROOT,
          run=RUN) -> tuple[int, list[str]]:
    cmd = [sys.executable, str(run), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                          text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_metrics(lines: list[str], declared: list[dict], what: str) -> list[str]:
    """The result line and the printed lines name every declared metric
    with its declared unit, and nothing else."""
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{what}: result keys {sorted(result)}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        errors.append(f"{what}: metrics {got} differ from BENCHMARK.json {want}")
    printed = {ln.split(" = ")[0]: ln.rsplit(" ", 1)[-1]
               for ln in lines[:-1] if " = " in ln}
    for name, unit in want.items():
        if printed.get(name) != unit:
            errors.append(f"{what}: {name} not printed with unit {unit}")
    if not result["correct"] or result["failed"]:
        errors.append(f"{what}: operations failed")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []

    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if why != {name: w for name, (w, _) in WORKLOADS.items()}:
        errors.append("BENCHMARK.json workloads or their reasons differ "
                      "from worker.WORKLOADS")
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    want = {k: v[0] for k, v in PER_LAYER.items()}
    want[OVERHEAD_METRIC[0]] = OVERHEAD_METRIC[1]
    if per_layer != want:
        errors.append("BENCHMARK.json per_layer differs from tracing.PER_LAYER")

    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        code, lines = bench("symbolic", trace)
        if code != 0:
            errors.append(f"symbolic --trace {trace} exited {code}")
        else:
            errors += check_metrics(lines, declared, f"--trace {trace}")

    code, lines = bench("suite", 0, "--inject-fault", "flip-boundary-sign")
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    if code == 0 or not result.get("failed") or result.get("correct"):
        errors.append(f"injected fault not caught: exit {code}, {result}")

    code, lines = bench("symbolic", 0,
                        env=dict(os.environ, WIGNERLAB_DENSE_CAP="14"))
    if code == 0 or any(ln.startswith("{") for ln in lines):
        errors.append("a set WIGNERLAB_DENSE_CAP was not refused")

    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(Path(__file__).parent, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        code, lines = bench("symbolic", 0, root=bare,
                            run=bare / "perfbench" / "run.py")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or any(ln.startswith("{") for ln in lines):
        errors.append("a directory without the sources gave a result")

    for e in errors:
        print("SELFTEST FAIL", e)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
