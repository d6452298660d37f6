"""The two command-line scripts: a good run exits 0, bad arguments exit 2
with a usage line and no traceback."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wignerlab.cli import L_LIMIT

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)


@pytest.mark.parametrize("name", ["run_full_suite.py", "spectrum_scan.py"])
def test_script_runs_at_L2(name):
    res = run_script(name, "2", "2")
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("L=2")


@pytest.mark.parametrize("name,args", [
    ("run_full_suite.py", ["x"]),
    ("run_full_suite.py", ["1"]),
    ("run_full_suite.py", ["5", "4"]),
    ("run_full_suite.py", ["2", "2", "2"]),
    ("spectrum_scan.py", ["2", "2", "x"]),
    ("spectrum_scan.py", ["1", "2"]),
    ("spectrum_scan.py", ["3", "2"]),
    ("spectrum_scan.py", ["2", "2", "-1"]),
    ("spectrum_scan.py", ["2", "2", "0"]),
    ("run_full_suite.py", ["2", str(L_LIMIT + 1)]),
    ("spectrum_scan.py", ["2", str(L_LIMIT + 1)]),
])
def test_bad_arguments_exit_two(name, args):
    res = run_script(name, *args)
    assert res.returncode == 2
    assert "usage:" in res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


def _load_scan():
    spec = importlib.util.spec_from_file_location(
        "spectrum_scan", ROOT / "scripts" / "spectrum_scan.py")
    scan = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scan)
    return scan


def test_spectrum_scan_skips_before_it_builds(monkeypatch, capsys):
    # every family past the eigensolve limit is skipped on its site count
    scan = _load_scan()

    def forbidden(*_):
        raise AssertionError("built past the eigensolve limit")

    monkeypatch.setattr(scan, "eigensolve_hamiltonian", forbidden)
    monkeypatch.setattr(scan, "materialize", forbidden)
    assert scan.main(["11", "300", "1"]) == 0
    assert capsys.readouterr().out == ""


def test_spectrum_scan_stops_at_the_first_size_where_nothing_fits(monkeypatch, capsys):
    # site counts grow with L, so past the first L with no family that fits
    # the scan lays out no more models; a limit of 4 sites keeps it small
    scan = _load_scan()
    sizes = []
    model_spec = scan.ModelSpec
    monkeypatch.setattr(scan, "ModelSpec", lambda fam, L: sizes.append(L)
                        or model_spec(fam, L))
    monkeypatch.setattr(scan, "over_limit", lambda sites, kind: sites > 4 or None)
    assert scan.main(["2", "300", "1"]) == 0
    printed = {line.split()[0] for line in capsys.readouterr().out.splitlines()}
    assert printed == {"L=2", "L=3", "L=4"}
    assert sorted(set(sizes)) == [2, 3, 4, 5]
