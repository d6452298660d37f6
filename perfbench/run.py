"""wignerlab benchmark: one workload, one seed, closed loop, one client.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload symbolic|suite|materialize \\
        --seed N --seconds S --trace 0|1 [--inject-fault flip-boundary-sign]

Each measurement runs in a fresh process (``worker.py``) with BLAS threads
capped at the number of usable cores.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a separately traced run.
Every metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when no operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import OVERHEAD_METRIC, PER_LAYER
from worker import ROOT, WORKLOADS

DENSE_CAP_ENV = "WIGNERLAB_DENSE_CAP"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS")
# set-up is short and noisy: time it in this many extra processes and
# report the median together with the measuring process's own set-up
SETUP_REPEATS = 9
FAULTS = ("flip-boundary-sign",)


class WorkerError(RuntimeError):
    """A workload process ended without a result."""


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_worker(args: list[str], env: dict) -> tuple[float, dict | None]:
    """Start one workload process; return its set-up time (start to READY)
    and its result, or ``None`` in set-up mode."""
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py"))] + args
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True) as proc:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise WorkerError(f"workload process exited with code {code}")
    lines = rest.strip().splitlines()
    return setup, json.loads(lines[-1]) if lines else None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="wignerlab benchmark")
    ap.add_argument("--workload", choices=list(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--inject-fault", choices=FAULTS, default=None,
                    help="add a faulty full-suite --L 3 run (suite only); "
                         "the gate must then fail")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.inject_fault and args.workload != "suite":
        ap.error("--inject-fault applies to the suite workload only")
    if DENSE_CAP_ENV in os.environ:
        print(f"refusing to run: {DENSE_CAP_ENV} is set and changes which "
              "checks run", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "wignerlab" / "__init__.py").is_file():
        print(f"no wignerlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONHASHSEED="0",
               **{k: str(nproc) for k in BLAS_ENV})
    env.pop("PYTHONPATH", None)
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    if args.inject_fault:
        base += ["--inject-fault", args.inject_fault]

    try:
        setups = ([] if args.trace else
                  [run_worker(base + ["--mode", "setup"], env)[0]
                   for _ in range(SETUP_REPEATS)])
        setup, res = run_worker(
            base + ["--mode", "trace" if args.trace else "run"], env)
    except (WorkerError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)

    print(f"workload {args.workload}: {WORKLOADS[args.workload][0]}")
    print(f"closed loop, 1 client, seed {args.seed}, {args.seconds} s; "
          f"nproc {nproc}, BLAS threads {nproc}, python "
          f"{platform.python_version()}, numpy {res['numpy']}, wignerlab "
          f"{res['wignerlab']}, commit {git_commit(ROOT)}")
    wall = statistics.median(res["pass_s"])
    print(f"passes untraced: {len(res['pass_s'])} "
          f"({', '.join(f'{t:.3f}' for t in res['pass_s'])} s)")
    if args.trace:
        traced = statistics.median(res["traced_pass_s"])
        print(f"passes traced: {len(res['traced_pass_s'])}; spans in "
              f"{res['trace_file']}")
        metrics = {m: {"value": v, "unit": PER_LAYER[m][0]}
                   for m, v in res["per_layer"].items()}
        name, unit = OVERHEAD_METRIC
        metrics[name] = {"value": traced / wall, "unit": unit}
        for m in res["absent"]:
            print(f"ABSENT {m}: wrap target missing")
        for row in res["baseline"]:
            print(f"baseline {row['row']}: {row['traced_s']:.3f} s traced "
                  f"over {row['calls']} call(s); ROADMAP ad hoc "
                  f"{row['roadmap_ad_hoc']}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024, "unit": "MB"},
        }
        print(f"setup samples: {len(setups)}")
    for m, v in metrics.items():
        print(f"{m} = {v['value']} {v['unit']}")

    failed = res["failed"] + (0 if res.get("records_equal", True) else 1)
    print(f"fail_ratio = {failed}/{res['attempted']} = "
          f"{failed / res['attempted']} ratio")
    for name, status, detail in res["failures"]:
        print(f"FAIL {name}: {detail}")
    if not res.get("records_equal", True):
        print("FAIL traced check records differ from untraced ones")
    print(json.dumps({"correct": failed == 0, "attempted": res["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
