"""One workload process: set-up, timed passes, oracle checks, optional trace.

``run.py`` starts this file as a fresh process for every measurement, so
that peak memory belongs to one workload.  The process imports wignerlab
from the checkout's ``src``, builds its seeded work list, prints ``READY``
(the parent times set-up up to that line), runs closed-loop passes for the
requested seconds and prints one JSON line with the results.

Every workload goes through public entry points only: the ``wignerlab``
CLI for ``suite``, and the module functions for the other two.  Oracle
checks run outside the timed region and use their own arithmetic, not the
code path under test.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
EXPECTED_CHECKS = Path(__file__).resolve().parent / "expected_checks.json"

RANDOM_STRINGS = 100
RANDOM_PAIRS = 100
TRANSITION_L = 8


class Op(NamedTuple):
    """One sequential call: ``run`` is timed, ``prepare`` and ``check`` not."""
    span: str
    L: int
    run: Callable
    check: Callable
    prepare: Callable | None = None


def _ok(name: str, ok: bool, detail: str = "") -> tuple[str, str, str]:
    return (name, "pass" if ok else "fail", detail)


# ---------------------------------------------------------------------------
# symbolic: Pauli algebra and Clifford conjugation, no dense work
# ---------------------------------------------------------------------------

def _sym_form(p, q) -> int:
    """Symplectic form of two strings: 0 iff they commute."""
    return ((p.x_mask & q.z_mask).bit_count()
            + (p.z_mask & q.x_mask).bit_count()) & 1


def _random_full_weight(pauli, layout, rng: random.Random):
    """Hermitian string with X, Y or Z on every site and a random sign."""
    x = z = 0
    for bit in range(layout.total_sites):
        kind = rng.randrange(3)   # 0: X, 1: Z, 2: Y
        if kind != 1:
            x |= 1 << bit
        if kind != 0:
            z |= 1 << bit
    phase = (x & z).bit_count() % 2 + 2 * rng.randrange(2)
    return pauli.PauliString(layout, x, z, phase)


def _check_automorphism(circuit: str, L: int, n_entries: int, report) -> list:
    out = [_ok(f"{circuit} L={L}: {e['generator']} -> {e['expected']}",
               e["ok"], e["got"]) for e in report["entries"]]
    out.append(_ok(f"{circuit} L={L}: table has {n_entries} entries",
                   len(report["entries"]) == n_entries,
                   str(len(report["entries"]))))
    return out


def _check_conjugated(circuit: str, strings, images) -> list:
    out = []
    for k, q in enumerate(images):
        herm = (q.phase_exp - (q.x_mask & q.z_mask).bit_count()) % 2 == 0
        out.append(_ok(f"{circuit} L=64 random string {k} stays Hermitian",
                       herm, str(q)))
    kept = all(_sym_form(strings[i], strings[j]) == _sym_form(images[i], images[j])
               for i in range(len(strings)) for j in range(i + 1, len(strings)))
    out.append(_ok(f"{circuit} L=64 pairwise commutation preserved", kept))
    return out


def symbolic(seed: int, fault: str | None) -> list[Op]:
    from wignerlab import clifford, models, pauli
    # functions are looked up on the module at call time, so that the
    # tracer's wrappers see every call
    circuits = {
        "u1": ("build_u1", "phi1_table", lambda L: 2 * L - 1,
               pauli.matter_layout),
        "u2": ("build_u2", "phi2_table", lambda L: 2 * L + 1,
               pauli.matter_layout),
        "u-gauged": ("build_u_gauged", "phi_gauged_table", lambda L: 2 * L,
                     pauli.ancilla_layout),
    }
    ops = []
    for L in [*range(2, 65), 128]:
        for name, (build, table, n_entries, _) in circuits.items():
            ops.append(Op(
                "op.automorphism", L,
                lambda _, b=build, t=table, L=L: clifford.verify_automorphism(
                    getattr(clifford, b)(L), getattr(clifford, t)(L)),
                lambda rep, _, n=name, L=L, k=n_entries(L):
                    _check_automorphism(n, L, k, rep)))
    for L in range(2, 65):
        for sign in (1, -1):
            ops.append(Op(
                "op.projected_commutation", L,
                lambda _, L=L, s=sign: models.projected_commutation_check(L, s),
                lambda rep, _, L=L, s=sign: [_ok(
                    f"(U2 H U2^dag) P = H P, L={L}, sign {s:+d}", rep["passed"],
                    str(rep["symbolic_residual_terms"]))]))
        ops.append(Op(
            "op.eta_conservation", L,
            lambda _, L=L: models.eta_conservation(L),
            lambda rep, _, L=L: [
                _ok(f"[{fam}, eta] = 0, L={L}", rep.get(fam) is True)
                for fam in ("h1", "h2", "h-periodic", "h-antiperiodic")]))
    rng = random.Random(seed)
    for name, (build, _, _, layout_of) in circuits.items():
        layout = layout_of(64)
        strings = [_random_full_weight(pauli, layout, rng)
                   for _ in range(RANDOM_STRINGS)]
        ops.append(Op(
            "op.conjugate_random", 64,
            lambda _, b=build, ps=strings:
                [clifford.conjugate_circuit(c, p)
                 for c in [getattr(clifford, b)(64)] for p in ps],
            lambda images, _, n=name, ps=strings:
                _check_conjugated(n, ps, images)))
    return ops


# ---------------------------------------------------------------------------
# suite: the wignerlab CLI, in-process
# ---------------------------------------------------------------------------

def _run_cli(cli, args: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            cli.main.main(args=args, prog_name="wignerlab",
                          standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, buf.getvalue()


def _check_named(key: str, checks: list[dict], expected: list[str]) -> list:
    """Records for a list of check dicts against the names passing at the seed.

    A check fails when its status is ``fail``, when a seed check is missing,
    or when a seed check is no longer ``pass``; checks added later count as
    attempted only.
    """
    seen = {c["name"] for c in checks}
    out = []
    for c in checks:
        ok = c["status"] == "pass" or (c["status"] != "fail"
                                       and c["name"] not in expected)
        out.append((f"{key}: {c['name']}", "pass" if ok else "fail",
                    repr(c.get("measured"))))
    out += [(f"{key}: {name}", "fail", "missing")
            for name in expected if name not in seen]
    return out


def _check_cli(key: str, expected: list[str], result) -> list:
    code, text = result
    try:
        checks = json.loads(text)["checks"]
    except (ValueError, KeyError) as exc:
        return [(f"{key}: report", "fail", f"unreadable report: {exc}")]
    return ([_ok(f"{key}: exit code 0", code == 0, str(code))]
            + _check_named(key, checks, expected))


def suite(seed: int, fault: str | None) -> list[Op]:
    from wignerlab import cli
    expected = json.loads(EXPECTED_CHECKS.read_text())
    commands = [["full-suite", "--L", "3"], ["full-suite", "--L", "4"]]
    # full-suite ignores --sign, so the - sector is run by its own commands
    for L in ("3", "4"):
        commands += [["transition-check", "--L", L, "--sign", "-"],
                     ["polar", "--L", L, "--sign", "-"]]
    if fault:
        commands.append(["full-suite", "--L", "3", "--inject-fault", fault])
    ops = []
    for cmd in commands:
        key = " ".join(cmd[:3] if "--inject-fault" in cmd else cmd)
        args = cmd + ["--seed", str(seed)]
        ops.append(Op(f"cli.{cmd[0]}", int(cmd[2]),
                      lambda _, a=args: _run_cli(cli, a),
                      lambda res, _, k=key: _check_cli(k, expected[k], res)))
    return ops


# ---------------------------------------------------------------------------
# materialize: dense matrices in and out of memory, no eigensolving
# ---------------------------------------------------------------------------

def _check_sum(label: str, result) -> list:
    h, op = result
    flat = op.matrix.reshape(-1)
    frob2 = float(np.vdot(flat, flat).real)
    # distinct Pauli strings are orthogonal: ||sum c_k P_k||_F^2 = dim sum |c_k|^2
    want = op.dim * sum(abs(c) ** 2 for c, _ in h)
    return [_ok(f"{label}: ||M||_F^2 = dim * sum |c_k|^2",
                abs(frob2 - want) <= 1e-12 * want, f"{frob2!r} vs {want!r}")]


def _check_string(label: str, op) -> list:
    m = op.matrix
    flat = m.reshape(-1)
    # a Hermitian Pauli string is a Hermitian signed permutation matrix
    frob2 = float(np.vdot(flat, flat).real)
    ok = frob2 == op.dim and np.array_equal(m, m.conj().T)
    return [_ok(f"{label}: Hermitian with ||M||_F^2 = dim", ok, repr(frob2))]


def _check_unitary(label: str, op) -> list:
    u = op.matrix
    err = float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])))
    return [_ok(f"{label}: ||U^dag U - I|| < 1e-10", err < 1e-10, repr(err))]


def _check_round_trip(label: str, path: Path, got, original) -> list:
    path.unlink(missing_ok=True)
    exact = (got.shape == original.shape and got.dtype == original.dtype
             and np.array_equal(got.view(np.uint64), original.view(np.uint64)))
    return [_ok(f"{label}: round trip is bit-exact", exact)]


def materialize(seed: int, fault: str | None) -> list[Op]:
    from wignerlab import clifford, dense, gauge, models, pauli
    F = models.Family
    ops = []
    for fam, L in ((F.SELF_DUAL_CLOSED_H2, 12), (F.OPEN_H1, 11),
                   (F.PERIODIC_H_PLUS, 11), (F.ANTIPERIODIC_H_MINUS, 11),
                   (F.MINIMAL_GAUGED_HG, 10), (F.FULLY_GAUGED_HG, 5)):
        def run(_, fam=fam, L=L):
            h = models.build_hamiltonian(models.ModelSpec(fam, L))
            return h, dense.materialize(h)
        ops.append(Op("op.materialize_sum", L, run,
                      lambda res, _, label=f"{fam.value} L={L}":
                          _check_sum(label, res)))
    for build, L in (("build_u2", 10), ("build_u1", 9),
                     ("build_u_gauged", 8)):
        ops.append(Op("op.materialize_circuit", L,
                      lambda _, b=build, L=L:
                          dense.materialize(getattr(clifford, b)(L)),
                      lambda op, _, label=f"{build} L={L}":
                          _check_unitary(label, op)))
    ops.append(Op("op.materialize_string", 12,
                  lambda _: dense.materialize(pauli.eta_string(
                      pauli.matter_layout(12))),
                  lambda op, _: _check_string("eta L=12", op)))
    h2 = lambda L: dense.materialize(models.build_hamiltonian(
        models.ModelSpec(F.SELF_DUAL_CLOSED_H2, L))).matrix
    for fmt, L, write, read in (
            ("bin", 11, "write_dense_binary", "read_dense_binary"),
            ("csv", 8, "write_dense_csv", "read_dense_csv")):
        path = OUT_DIR / f"io-{os.getpid()}.{fmt}"

        def run(m, path=path, write=write, read=read):
            getattr(dense, write)(str(path), m)
            return getattr(dense, read)(str(path))
        ops.append(Op(f"op.io_{fmt}", L, run,
                      lambda got, m, p=path, label=f"{fmt} h2 L={L}":
                          _check_round_trip(label, p, got, m),
                      prepare=partial(h2, L)))
    pairs = _random_pairs(np.random.default_rng(seed), 1 << TRANSITION_L,
                          RANDOM_PAIRS, dense.StateVector)
    for sign in (1, -1):
        ops.append(Op("op.transition", TRANSITION_L,
                      lambda _, s=sign: _transition_run(dense, gauge, pairs, s),
                      lambda res, _, s=sign: _check_transition(s, pairs, res)))
    return ops


def _random_pairs(rng, dim: int, count: int, state) -> list:
    def vec():
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return state(v / np.linalg.norm(v))
    return [(vec(), vec()) for _ in range(count)]


def _transition_run(dense, gauge, pairs, sign: int) -> dict:
    """D± on the matter space and D̂± on its embedded sector, applied to the
    basis state |0..0> and to the seeded pairs."""
    L = TRANSITION_L
    d = gauge.build_d_noninvertible(L, sign)
    d_hat = gauge.build_d_hat(L, sign)
    d_anti = gauge.build_d_hat(L, sign, antilinear=True)
    emb = gauge.ancilla_sector_embedding(L, sign)
    basis0 = dense.StateVector(np.eye(1 << L)[:, 0])
    epairs = [(gauge.embed_state(a, emb), gauge.embed_state(b, emb))
              for a, b in pairs]
    return {
        "basis": (d, [(basis0, basis0)],
                  dense.transition_experiment(d, [(basis0, basis0)])),
        "matter": (d, pairs, dense.transition_experiment(d, pairs)),
        "linear": (d_hat, epairs, dense.transition_experiment(d_hat, epairs)),
        "antilinear": (d_anti, epairs,
                       dense.transition_experiment(d_anti, epairs)),
    }


def _probabilities(op, pairs) -> list[tuple[float, float]]:
    """(transformed, reference) transition probability per pair, from the
    matrix directly."""
    out = []
    for a, b in pairs:
        va, vb = a.amplitudes, b.amplitudes
        if op.antilinear:
            va, vb = va.conj(), vb.conj()
        ta, tb = op.matrix @ va, op.matrix @ vb
        out.append((abs(np.vdot(tb, ta)) ** 2,
                    abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2))
    return out


def _check_transition(sign: int, pairs, result: dict) -> list:
    tag = f"transition L={TRANSITION_L} sign {sign:+d}"
    out = []
    own = {}
    for name, (op, used, rep) in result.items():
        own[name] = _probabilities(op, used)
        err = max(abs(r["p_transformed"] - pt) + abs(r["p_reference"] - pr)
                  for r, (pt, pr) in zip(rep["pairs"], own[name]))
        out.append(_ok(f"{tag}: {name} experiment matches direct computation",
                       len(rep["pairs"]) == len(used) and err < 1e-12, repr(err)))
    pt, pr = own["basis"][0]
    out.append(_ok(f"{tag}: D breaks |<0..0|0..0>|^2 = 1 down to 0.25",
                   abs(pt - 0.25) < 1e-12 and abs(pr - 1.0) < 1e-12, repr(pt)))
    for name in ("linear", "antilinear"):
        dev = max(abs(pt - pr) for pt, pr in own[name])
        out.append(_ok(f"{tag}: D_hat preserves embedded probabilities ({name})",
                       dev < 1e-11, repr(dev)))
    return out


# name -> (why it was chosen, work-list builder); BENCHMARK.json repeats the why
WORKLOADS = {
    "symbolic": (
        "verify_automorphism to L=128, conservation checks and random-string "
        "conjugation: time is in pauli and clifford with dense idle, so a "
        "stabilizer tableau shows here only",
        symbolic),
    "suite": (
        "CLI full-suite at L=3,4 plus the - sector: the named end-to-end run, "
        "dominated by Jacobi in gauge_checks at L=4, so eigensolver and block "
        "work shows here",
        suite),
    "materialize": (
        "large dense sums, circuits, binary/CSV dumps and transition "
        "experiments with no eigensolving, so scatter materialization shows "
        "in time and memory and Jacobi does not",
        materialize),
}


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def run_pass(ops: list[Op], tracer=None, pass_id: int = 0) -> tuple[float, list]:
    """One closed-loop pass: returns the summed time of the timed calls and
    the check records."""
    busy = 0.0
    records = []
    for op in ops:
        label = f"{op.span} L={op.L}"
        try:
            prep = op.prepare() if op.prepare else None
            ctx = (tracer.attributed(pass_id, op.span, op.L) if tracer
                   else contextlib.nullcontext())
            t0 = time.perf_counter()
            try:
                with ctx:
                    value = op.run(prep)
            finally:
                busy += time.perf_counter() - t0
            records += op.check(value, prep)
        except Exception as exc:  # a raising operation is a failed one
            records.append((label, "fail", f"raised {type(exc).__name__}: {exc}"))
        value = prep = None
    return busy, records


class Passes:
    """Passes until ``seconds`` have gone by, at least one.  Keeps the pass
    times, the operation counts and the first few failures; keeps the check
    records of the first pass only if asked, so that memory does not grow
    with the pass count."""

    def __init__(self, ops: list[Op], seconds: float, tracer=None,
                 first_id: int = 0, reference: list | None = None,
                 keep_first: bool = False) -> None:
        self.times: list[float] = []
        self.attempted = self.failed = self.mismatched = 0
        self.failures: list = []
        self.first: list | None = None
        start = time.perf_counter()
        while not self.times or time.perf_counter() - start < seconds:
            busy, records = run_pass(ops, tracer, first_id + len(self.times))
            self.times.append(busy)
            self.attempted += len(records)
            failures = [r for r in records if r[1] != "pass"]
            self.failed += len(failures)
            self.failures += failures[:10 - len(self.failures)]
            if keep_first and self.first is None:
                self.first = records
            if reference is not None and records != reference:
                self.mismatched += 1
            del records, failures


def _baseline_rows(tracer, pass_id: int) -> list[dict]:
    """ROADMAP baseline-table rows found in one traced pass."""
    acceptance = [d for L in range(2, 65)
                  for d in tracer.durations("op.automorphism", pass_id, L=L)]
    jacobi = tracer.durations("dense.hermitian_eigensolve", pass_id, dim=64)
    rows = [
        ("acceptance 1, symbolic part (3 circuits, L=2..64)", acceptance,
         sum, "6.9 s for the whole criterion"),
        ("gauge_checks at L=4", tracer.durations("cli.gauge_checks", pass_id, L=4),
         sum, "25 s"),
        ("materialize(h2 sum) at L=12",
         tracer.durations("dense.materialize.sum", pass_id, L=12), sum, "3.7 s"),
        ("materialize(u2) at L=10",
         tracer.durations("dense.materialize.circuit", pass_id, L=10), sum,
         "2.0 s"),
        ("Jacobi at dim 64 (median call)", jacobi, statistics.median, "0.66 s"),
    ]
    return [{"row": name, "traced_s": reduce(ds), "calls": len(ds),
             "roadmap_ad_hoc": fig} for name, ds, reduce, fig in rows if ds]


def _import_wignerlab():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import wignerlab
    if Path(wignerlab.__file__).resolve().parent != src / "wignerlab":
        raise ImportError(f"wignerlab imported from {wignerlab.__file__}, "
                          f"not from {src}")
    return wignerlab


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    ap.add_argument("--inject-fault", default=None)
    args = ap.parse_args(argv)

    wignerlab = _import_wignerlab()
    ops = WORKLOADS[args.workload][1](args.seed, args.inject_fault)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    untraced = Passes(ops, args.seconds, keep_first=args.mode == "trace")
    result = {"pass_s": untraced.times, "numpy": np.__version__,
              "wignerlab": wignerlab.__version__}
    runs = [untraced]
    if args.mode == "trace":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            traced = Passes(ops, args.seconds, tracer, first_id=1,
                            reference=untraced.first)
        finally:
            tracer.uninstall()
        ids = list(range(1, len(traced.times) + 1))
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(str(trace_path))
        result.update({
            "traced_pass_s": traced.times,
            "per_layer": tracer.metrics(ids),
            "absent": sorted(tracer.absent_metrics()),
            "records_equal": traced.mismatched == 0,
            "baseline": _baseline_rows(tracer, 1),
            "trace_file": str(trace_path.relative_to(ROOT)),
        })
        runs.append(traced)
    result.update({
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "failures": [f for r in runs for f in r.failures][:10],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
