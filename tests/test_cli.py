"""Command-line contract: exit codes, report formats, determinism modulo the
timing header, dimension-cap skipping, and fault injection."""

import contextlib
import gc
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wignerlab.cli import _seeded_pairs, main
from wignerlab.dense import (EIGENSOLVE_SITE_LIMIT, ConvergenceError,
                             materialize, read_dense_binary, read_dense_csv)
from wignerlab.models import Family, ModelSpec, build_hamiltonian
from wignerlab.pauli import link_layout


SRC = Path(__file__).resolve().parent.parent / "src"


def run(*args):
    return CliRunner().invoke(main, args)


# -- exit codes -----------------------------------------------------------------

@pytest.mark.parametrize("args", [
    ("verify-automorphism", "--circuit", "u1", "--L", "3"),
    ("verify-automorphism", "--circuit", "u2", "--L", "5"),
    ("verify-automorphism", "--circuit", "u-gauged", "--L", "4"),
    ("commutators", "--L", "2"),
    ("transition-check", "--L", "3", "--pairs", "10"),
    ("transition-check", "--L", "3", "--sign", "-", "--pairs", "10"),
    ("polar", "--L", "3"),
    ("spectrum", "--model", "h2", "--L", "2"),
    ("gauge-equivalence", "--L", "2"),
    ("transition-check", "--L", "7"),
    ("transition-check", "--L", "7", "--sign", "-"),
])
def test_passing_commands_exit_zero(args):
    res = run(*args)
    assert res.exit_code == 0, res.output


def test_full_suite_exits_zero():
    res = run("full-suite", "--L", "2", "--pairs", "5")
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("args", [
    ("verify-automorphism", "--circuit", "u1", "--L", "1"),
    ("verify-automorphism", "--circuit", "nope", "--L", "3"),
    ("spectrum", "--model", "nope", "--L", "3"),
    ("spectrum", "--model", "h-full-gauged", "--L", "8"),  # over the dense cap
    ("transition-check", "--sign", "x"),
    ("commutators", "--L", "0"),
    ("unknown-command",),
    ("spectrum", "--model", "h2", "--L", "11"),  # over the eigensolve limit
    ("transition-check", "--pairs", "0"),
    ("polar", "--L", "2", "--tol-scale", "nan"),
    ("polar", "--L", "2", "--tol-scale", "inf"),
    ("polar", "--L", "2", "--tol-scale", "-1"),
    ("polar", "--L", "2", "--tol-scale", "0"),
    # an option the command does not read
    ("commutators", "--seed", "1"),
    ("spectrum", "--model", "h2", "--sign", "-"),
    ("gauge-equivalence", "--seed", "0"),
    ("verify-automorphism", "--circuit", "u1", "--tol-scale", "2"),
])
def test_usage_errors_exit_two(args):
    res = run(*args)
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert "Usage:" in res.output


@pytest.mark.parametrize("command", ["transition-check", "full-suite"])
def test_pairs_past_the_bound_are_a_usage_error(monkeypatch, command):
    from wignerlab import cli

    def forbidden(*_):
        raise AssertionError("state built")

    monkeypatch.setattr(cli, "_seeded_pairs", forbidden)
    res = run(command, "--L", "11", "--pairs", "4097")
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert "Usage:" in res.output and "--pairs" in res.output


def test_gauge_equivalence_at_L5():
    res = run("gauge-equivalence", "--L", "5")
    assert res.exit_code == 0, res.output
    checks = json.loads(res.output)["checks"]
    assert [c["status"] for c in checks] == ["pass"] * 6


def test_full_suite_honours_sign():
    common = ("--L", "3", "--sign", "-", "--seed", "1")
    suite = json.loads(run("full-suite", *common, "--pairs", "10").output)
    assert suite["config"]["sign"] == "-"
    got = [(c["name"], c["status"], c["measured"]) for c in suite["checks"]]
    for args in (("transition-check", *common, "--pairs", "10"), ("polar", *common)):
        want = [(c["name"], c["status"], c["measured"])
                for c in json.loads(run(*args).output)["checks"]]
        assert any(got[i:i + len(want)] == want for i in range(len(got))), args[0]


@pytest.mark.parametrize("fault", ["flip-boundary-sign", "nontrivial-projector"])
def test_fault_injection_is_detected(fault):
    res = run("full-suite", "--L", "3", "--pairs", "5", "--inject-fault", fault)
    assert res.exit_code == 1
    report = json.loads(res.output)
    assert any(c["status"] == "fail" for c in report["checks"])


# -- options and config -----------------------------------------------------------

def _options(command):
    return {p.name for p in main.commands[command].params}


# the smallest run of each command: required options and a small L
SMALLEST = {"verify-automorphism": ("--circuit", "u1", "--L", "2"),
            "commutators": ("--L", "2"),
            "transition-check": ("--L", "2", "--pairs", "2"),
            "polar": ("--L", "2"),
            "spectrum": ("--model", "h2", "--L", "2"),
            "gauge-equivalence": ("--L", "2"),
            "full-suite": ("--L", "2", "--pairs", "2")}


@pytest.mark.parametrize("command", sorted(SMALLEST))
def test_config_lists_exactly_the_command_options(command):
    assert set(SMALLEST) == set(main.commands)
    report = json.loads(run(command, *SMALLEST[command]).output)
    assert set(report["config"]) == _options(command) - {
        "fmt", "out_path", "matrix_out", "matrix_format"}


@pytest.mark.parametrize("args", [("verify-automorphism", "--circuit", "u1"),
                                  ("verify-automorphism", "--circuit", "u2"),
                                  ("verify-automorphism", "--circuit", "u-gauged"),
                                  ("commutators",), ("full-suite",)])
def test_L_past_the_bound_is_a_usage_error(monkeypatch, args):
    from wignerlab import cli

    def forbidden(*_):
        raise AssertionError("circuit built")

    for name in ("build_u1", "build_u2", "build_u_gauged"):
        monkeypatch.setattr(cli, name, forbidden)
    monkeypatch.setattr(cli, "_CIRCUITS", {
        name: (forbidden, table) for name, (_, table) in cli._CIRCUITS.items()})
    res = run(*args, "--L", str(cli.L_LIMIT + 1))
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert "Usage:" in res.output and "--L" in res.output


# -- report structure --------------------------------------------------------------

def test_json_report_shape():
    res = run("commutators", "--L", "2")
    report = json.loads(res.output)
    assert report["command"] == "commutators"
    assert report["config"]["L"] == 2
    assert "version" in report
    assert {"timestamp", "wall_s"} == set(report["timing"])
    for c in report["checks"]:
        assert c["status"] in ("pass", "fail", "skipped")


def test_text_and_csv_formats():
    txt = run("gauge-equivalence", "--L", "2", "--format", "text").output
    assert "PASS" in txt and "passed" in txt
    csv_out = run("gauge-equivalence", "--L", "2", "--format", "csv").output
    assert csv_out.splitlines()[0] == "name,status,measured,threshold,reason"
    assert csv_out.splitlines()[1].endswith(",")  # a record without a reason
    csv_out = run("polar", "--L", "10", "--format", "csv").output
    assert csv_out.splitlines()[2] == ("polar checks,skipped,,,11 sites exceeds "
                                       "the eigensolve limit of 10")


def test_out_flag_writes_file(tmp_path):
    path = tmp_path / "report.json"
    res = run("commutators", "--L", "2", "--out", str(path))
    assert res.exit_code == 0 and res.output == ""
    assert json.loads(path.read_text())["command"] == "commutators"


def test_reports_deterministic_modulo_timing():
    a = json.loads(run("transition-check", "--L", "3", "--pairs", "8").output)
    b = json.loads(run("transition-check", "--L", "3", "--pairs", "8").output)
    a.pop("timing"), b.pop("timing")
    assert a == b


def test_tol_scale_loosens_thresholds():
    base = json.loads(run("polar", "--L", "2").output)
    scaled = json.loads(run("polar", "--L", "2", "--tol-scale", "10").output)
    pairs = [(x, y) for x, y in zip(base["checks"], scaled["checks"])
             if x["threshold"] is not None]
    assert pairs
    assert all(y["threshold"] == pytest.approx(10 * x["threshold"])
               for x, y in pairs)


# -- dense cap handling ---------------------------------------------------------------

def test_large_L_skips_dense_checks():
    res = run("full-suite", "--L", "12")
    assert res.exit_code == 0
    report = json.loads(res.output)
    statuses = {c["status"] for c in report["checks"]}
    assert "skipped" in statuses and "fail" not in statuses
    # symbolic checks still run at this size, the nine commutator norms too
    assert any(c["status"] == "pass" for c in report["checks"])
    names = [c["name"] for c in report["checks"] if c["status"] == "pass"]
    assert "[H_G, U_gauged]" in names and "[H-, U2] nonzero" in names
    assert "polar reconstruction on random matrices" in names


def test_polar_beyond_eigensolve_limit_skips():
    res = run("polar", "--L", "10")
    assert res.exit_code == 0
    # the random matrices do not depend on L, so their record still runs
    random, check = json.loads(res.output)["checks"]
    assert random["name"] == "polar reconstruction on random matrices"
    assert random["status"] == "pass"
    assert check["status"] == "skipped"
    assert f"eigensolve limit of {EIGENSOLVE_SITE_LIMIT}" in check["reason"]


def test_automorphism_scales_symbolically():
    assert run("verify-automorphism", "--circuit", "u2", "--L", "64").exit_code == 0


@pytest.mark.parametrize("circuit", ["u1", "u2", "u-gauged"])
def test_automorphism_at_L1024(circuit):
    assert run("verify-automorphism", "--circuit", circuit,
               "--L", "1024").exit_code == 0


# -- spectrum extras --------------------------------------------------------------------

def test_spectrum_eigenvalues_and_matrix_dump(tmp_path):
    bin_path = tmp_path / "h.bin"
    res = run("spectrum", "--model", "h1", "--L", "2",
              "--matrix-out", str(bin_path))
    report = json.loads(res.output)
    s = 2 ** 0.5
    assert np.allclose(report["eigenvalues"], [-s, -s, s, s], atol=1e-12)
    m = read_dense_binary(bin_path)
    assert m.shape == (4, 4)
    assert np.allclose(np.linalg.eigvalsh(m), [-s, -s, s, s], atol=1e-12)

    csv_path = tmp_path / "h.csv"
    run("spectrum", "--model", "h1", "--L", "2",
        "--matrix-out", str(csv_path), "--matrix-format", "csv")
    assert np.allclose(read_dense_csv(csv_path), m)


def test_spectrum_full_gauged_is_solved_by_gauss_sector(tmp_path):
    path = tmp_path / "h.bin"
    res = run("spectrum", "--model", "h-full-gauged", "--L", "4",
              "--matrix-out", str(path))
    assert res.exit_code == 0, res.output
    # the dump stays the unrotated matrix; the spectrum is its spectrum
    m = read_dense_binary(path)
    want = materialize(build_hamiltonian(ModelSpec(Family.FULLY_GAUGED_HG, 4)))
    assert np.array_equal(m, want.matrix)
    report = json.loads(res.output)
    got = np.array(report["eigenvalues"])
    assert np.max(np.abs(got - np.linalg.eigvalsh(m))) < 1e-12
    # one block per joint sector of the 4 Gauss laws and the Wilson loop
    assert report["block_sizes"] == [8] * 32
    res = run("spectrum", "--model", "h-full-gauged", "--L", "5")
    assert res.exit_code == 0, res.output


def test_spectrum_checks_the_limit_before_it_builds(monkeypatch):
    from wignerlab import cli

    def forbidden(*_):
        raise AssertionError("built past the eigensolve limit")

    monkeypatch.setattr(cli, "eigensolve_hamiltonian", forbidden)
    res = run("spectrum", "--model", "h-full-gauged", "--L", str(cli.L_LIMIT))
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert "exceeds the eigensolve limit" in res.output


def test_spectrum_csv_format_lists_values():
    out = run("spectrum", "--model", "h1", "--L", "2", "--format", "csv").output
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert len(rows) == 4 and rows[0][0] == "0"


# -- seeded state pairs ---------------------------------------------------------

def _columns(block):
    return [block[:, k].tobytes() for k in range(block.shape[1])]


def test_seeded_pairs_do_not_collide():
    def states(seed, stream):
        alpha, beta = _seeded_pairs(8, seed, stream, 100)
        return set(_columns(alpha) + _columns(beta))

    matter = states(0, 0)
    assert len(matter) == 200
    assert not matter & states(500, 0)
    assert not matter & states(0, 1)


def test_seeded_pairs_are_prefix_stable():
    long, short = _seeded_pairs(8, 3, 1, 100), _seeded_pairs(8, 3, 1, 10)
    for x, y in zip(long, short):
        assert x.shape == (8, 100) and y.shape == (8, 10)
        assert _columns(x)[:10] == _columns(y)
        assert np.max(np.abs(np.linalg.norm(x, axis=0) - 1.0)) < 1e-14


def test_seeded_pairs_peak_at_their_own_bytes():
    # the largest request --pairs allows at L = 11: 256 MiB of states
    dim, count = 2048, 4096
    tracemalloc.start()
    try:
        alpha, beta = _seeded_pairs(dim, 0, 0, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert alpha.shape == beta.shape == (dim, count)
    assert peak <= 1.25 * 2 * count * dim * 16


def test_commutator_and_projector_checks_materialize_nothing(monkeypatch):
    from wignerlab import cli, dense, gauge
    built = []
    for module in (cli, dense, gauge):
        monkeypatch.setattr(module, "materialize",
                            lambda obj, *right, _m=materialize: built.append(
                                obj.layout) or _m(obj, *right))
    checks = cli.commutator_checks(3)
    assert len(checks) == 15 and all(c["status"] == "pass" for c in checks)
    assert built == []
    # the spectral check solves H_full; the projector checks leave the
    # fully gauged (link) layout to it
    monkeypatch.setattr(cli, "spectral_equivalence_check", lambda L: {
        "equivalent": True, "uniform_factor": 4, "predicted_factor": 4})
    checks = cli.gauge_checks(3)
    assert all(c["status"] == "pass" for c in checks)
    assert built and link_layout(3) not in built


# -- in-process runs hold no memory ----------------------------------------------

def test_in_process_runs_leave_no_stdout_buffer_alive():
    refs = []
    for _ in range(20):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                main.main(["verify-automorphism", "--circuit", "u1", "--L", "2"],
                          standalone_mode=False)
            except SystemExit as exc:
                assert exc.code == 0
        assert json.loads(buf.getvalue())["command"] == "verify-automorphism"
        refs.append(weakref.ref(buf))
        del buf
    gc.collect()
    assert sum(ref() is not None for ref in refs) == 0


def test_full_suite_does_not_import_numpy_ma():
    code = ("import sys\n"
            "from wignerlab.cli import full_suite_checks\n"
            "assert all(c['status'] == 'pass' for c in full_suite_checks(3))\n"
            "print('numpy.ma' in sys.modules)\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
                         timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"


# -- no input ends in a traceback ------------------------------------------------

@contextlib.contextmanager
def _broken_solver():
    def no_convergence(*args, **kwargs):
        raise ConvergenceError("no convergence after 0 sweeps")
    with mock.patch("wignerlab.cli.hermitian_eigensolve", no_convergence), \
            mock.patch("wignerlab.gauge.hermitian_eigensolve_all", no_convergence):
        yield


@pytest.mark.parametrize("args", [("spectrum", "--model", "h2", "--L", "2"),
                                  ("gauge-equivalence", "--L", "2")])
def test_convergence_error_is_a_failed_check(args):
    with _broken_solver():
        res = run(*args)
    assert res.exit_code == 1
    assert json.loads(res.output)["checks"][-1]["status"] == "fail"


def test_text_report_names_the_reason():
    txt = run("polar", "--L", "10", "--format", "text").output
    assert "SKIP  polar checks  reason=11 sites exceeds the eigensolve limit " \
        "of 10\n" in txt
    with _broken_solver():
        txt = run("gauge-equivalence", "--L", "2", "--format", "text").output
    assert "FAIL  eigensolver converged  reason=no convergence after 0 " \
        "sweeps\n" in txt


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["verify-automorphism", "commutators",
                                "transition-check", "polar", "spectrum",
                                "gauge-equivalence", "full-suite"]),
       L=st.integers(0, 2), sign=st.sampled_from(["+", "-", "x"]),
       fmt=st.sampled_from(["json", "csv", "text"]),
       pairs=st.integers(-1, 3), seed=st.integers(-2, 2),
       tol_scale=st.floats(allow_nan=True, allow_infinity=True),
       out=st.sampled_from([None, "report.txt", "missing/report.txt", "."]),
       matrix_out=st.sampled_from([None, "h.bin", "missing/h.bin"]),
       broken=st.booleans())
def test_cli_ends_in_exit_code_not_traceback(tmp_path, command, L, sign, fmt,
                                             pairs, seed, tol_scale, out,
                                             matrix_out, broken):
    # each command gets only the options it takes
    takes = _options(command)
    args = [command, "--L", str(L), "--format", fmt]
    for name, value in (("sign", sign), ("seed", str(seed)), ("pairs", str(pairs)),
                        ("tol_scale", repr(tol_scale)), ("circuit", "u1"),
                        ("model", "h-min-gauged")):
        if name in takes:
            args += [f"--{name.replace('_', '-')}", value]
    if matrix_out and "matrix_out" in takes:
        args += ["--matrix-out", str(tmp_path / matrix_out)]
    if out:
        args += ["--out", str(tmp_path / out)]
    with _broken_solver() if broken else contextlib.nullcontext():
        res = run(*args)
    assert res.exit_code in (0, 1, 2), res.output
    assert res.exception is None or isinstance(res.exception, SystemExit), \
        repr(res.exception)
    if "tol_scale" in takes and not (math.isfinite(tol_scale) and tol_scale > 0):
        assert res.exit_code == 2, res.output
    if "seed" in takes and seed < 0:
        assert res.exit_code == 2, res.output
