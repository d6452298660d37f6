"""Command-line front end: runs the verification suites and emits reports.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage error.
Reports are deterministic for a fixed config and seed except for the
``timing`` header, which golden-file consumers should mask.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import click
import numpy as np

from . import __version__
from .clifford import (build_u1, build_u2, build_u_gauged, conjugate_sum,
                       phi1_table, phi2_table, phi_gauged_table,
                       verify_automorphism)
from .dense import (DENSE_SITE_LIMIT, TAU_EIG_PER_DIM, ConvergenceError,
                    DenseOperator, DimensionCapError, check_limit,
                    hermitian_eigensolve, materialize, over_limit,
                    transition_probabilities, write_dense_binary,
                    write_dense_csv)
from .gauge import (SectorEmbedding, ancilla_sector_embedding, build_d_hat,
                    build_d_noninvertible, gauss_sector_projector,
                    sector_blocks, spectral_equivalence_check)
from .models import (BOUNDARY_FAMILY, Family, ModelSpec, build_hamiltonian,
                     eigensolve_hamiltonian, eta_conservation,
                     projected_commutation_check)
from .pauli import (PauliString, PauliSum, ancilla_layout, sum_commutator,
                    symmetry_projector)
from .polar import corollary_check, polar_decompose_all, verify_theorem_structure


def _frob(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def _check(name: str, measured: float, threshold: float,
           above: bool = False) -> dict:
    ok = measured > threshold if above else measured < threshold
    return {"name": name, "status": "pass" if ok else "fail",
            "measured": measured, "threshold": threshold}


def _skip(name: str, reason: str) -> dict:
    return {"name": name, "status": "skipped", "measured": None,
            "threshold": None, "reason": reason}


def _bool_check(name: str, ok: bool, measured=None) -> dict:
    return {"name": name, "status": "pass" if ok else "fail",
            "measured": measured, "threshold": None}


# ---------------------------------------------------------------------------
# check batteries (shared between individual commands and full-suite)
# ---------------------------------------------------------------------------

_CIRCUITS = {"u1": (build_u1, phi1_table), "u2": (build_u2, phi2_table),
             "u-gauged": (build_u_gauged, phi_gauged_table)}

_MODELS = {f.value: f for f in Family}


def automorphism_checks(circuit: str, L: int) -> list[dict]:
    build, table = _CIRCUITS[circuit]
    report = verify_automorphism(build(L), table(L))
    out = []
    for e in report["entries"]:
        out.append(_bool_check(f"{circuit}: {e['generator']} -> {e['expected']}",
                               e["ok"]))
    return out


def _commutator_norm(h: PauliSum, h_image: PauliSum, q: PauliSum) -> float:
    """``‖[H, U P]‖_F`` on Pauli sums from ``h_image = U H U†`` and
    ``q = U P U†``: U P = Q U, so [H, U P] = (H Q - Q U H U†) U, whose
    Frobenius norm does not see U."""
    return (h * q - q * h_image).frobenius_norm()


def commutator_checks(L: int, tol_scale: float = 1.0,
                      flip_boundary: bool = False) -> list[dict]:
    """The symbolic conservation laws, then nine commutator norms taken on
    Pauli sums at any L; one skip replaces the nine past the float range.

    The thresholds are known before any norm: when one of them is infinite
    the norms are not taken."""
    out = []
    for fam, ok in eta_conservation(L).items():
        out.append(_bool_check(f"symbolic [{fam}, eta] = 0", ok))
    for sign in (1, -1):
        out.append(_bool_check(
            f"symbolic (U2 H U2_dag) P = H P for sign {sign:+d}",
            projected_commutation_check(L, sign)["passed"]))
    u2, ug = build_u2(L), build_u_gauged(L)
    hg = build_hamiltonian(ModelSpec(Family.MINIMAL_GAUGED_HG, L))
    # (name, H, U, P or None for P = 1, None for the conservation threshold
    # or the bound ‖[H, U P]‖_F must exceed)
    rows = [("[H1, U1]", build_hamiltonian(ModelSpec(Family.OPEN_H1, L)),
             build_u1(L), None, None),
            ("[H2, U2]", build_hamiltonian(
                ModelSpec(Family.SELF_DUAL_CLOSED_H2, L)), u2, None, None),
            ("[H_G, U_gauged]", hg, ug, None, None)]
    for sign, s in zip((1, -1), "+-"):
        # injected fault: the + sector gets the - sector's chain
        h = build_hamiltonian(ModelSpec(
            BOUNDARY_FAMILY[-1 if flip_boundary else sign], L))
        # the factors of D± and D̂± in gauge.py
        rows += [(f"[H{s}, D{s}]", h, u2, symmetry_projector(sign, h.layout), None),
                 (f"[H_G, D_hat{s}]", hg, ug,
                  symmetry_projector(sign, hg.layout, on_ancilla=True), None),
                 (f"[H{s}, U2] nonzero", h, u2, None, 0.1)]
    thresholds = []  # conserved: below 1e-10 max(‖H‖_F ‖P‖_F, 1)
    for _, h, _, p, bound in rows:
        norm_p = (PauliSum.identity(h.layout) if p is None else p).frobenius_norm()
        thresholds.append(bound if bound is not None else
                          1e-10 * max(h.frobenius_norm() * norm_p, 1.0) * tol_scale)
    if all(map(math.isfinite, thresholds)):
        images: dict[int, PauliSum] = {}  # U H U† by Hamiltonian object
        checks = []
        for (name, h, u, p, bound), tol in zip(rows, thresholds):
            if id(h) not in images:
                images[id(h)] = conjugate_sum(u, h)
            # a circuit alone: P = 1 is its own image
            q = PauliSum.identity(h.layout) if p is None else conjugate_sum(u, p)
            checks.append(_check(name, _commutator_norm(h, images[id(h)], q),
                                 tol, above=bound is not None))
        if all(math.isfinite(c["measured"]) for c in checks):
            return out + checks
    return out + [_skip("commutator norms", f"{L + 1} sites puts a norm or "
                        "threshold past the float range")]


def _seeded_pairs(dim: int, seed: int, stream: int,
                  count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` state pairs from one generator seeded by ``(seed, stream)``,
    as the ``(dim, count)`` column blocks ``alpha`` and ``beta``: stream 0
    for the matter pairs, 1 for the embedded pairs.  State ``j`` of pair
    ``k`` is row ``2k + j`` of one ``normal`` draw of ``2 * dim`` floats per
    row, read as ``dim`` interleaved re/im parts and normalized in place, so
    pair k is the same for any count past k.  Both blocks are views of that
    draw."""
    rng = np.random.default_rng((seed, stream))
    flat = rng.normal(size=(2 * count, 2 * dim))
    flat /= np.sqrt(np.einsum("ij,ij->i", flat, flat))[:, None]
    states = flat.view(complex)
    return states[::2].T, states[1::2].T


def transition_checks(L: int, sign: int, seed: int, pairs: int = 100,
                      tol_scale: float = 1.0,
                      nontrivial_projector: bool = False) -> list[dict]:
    why = over_limit(L + 1, "dense")
    if why:
        return [_skip("transition checks", why)]
    out = []
    d = build_d_noninvertible(L, sign)
    basis0 = np.eye(1 << L, 1)
    (measured,), (reference,) = transition_probabilities(d, basis0, basis0)
    out.append(_check("counterexample |<0..0|P|0..0>|^2 = 0.25",
                      abs(float(measured) - 0.25), 1e-12 * tol_scale))
    out.append(_check("counterexample reference = 1",
                      abs(float(reference) - 1.0), 1e-12))
    p_t, p_ref = transition_probabilities(d, *_seeded_pairs(1 << L, seed, 0, pairs))
    # relative L1 deviation: the largest single deviation falls like 1/dim
    out.append(_check("D on matter space violates probabilities",
                      float(np.abs(p_t - p_ref).sum() / p_ref.sum()), 0.05,
                      above=True))

    emb = ancilla_sector_embedding(L, sign)
    if nontrivial_projector:
        # injected fault: replace the ancilla projector by the matter-space
        # eta projector, which acts nontrivially inside the embedded space
        d_hat = materialize(build_u_gauged(L), symmetry_projector(sign, ancilla_layout(L)))
    else:
        d_hat = build_d_hat(L, sign)
    d_hat_anti = DenseOperator(d_hat.matrix, antilinear=True)
    alpha, beta = np.zeros((2, emb.target_dim, pairs), dtype=complex)
    alpha[emb.rows], beta[emb.rows] = _seeded_pairs(1 << L, seed, 1, pairs)
    for op, kind in ((d_hat, "linear"), (d_hat_anti, "antilinear")):
        p_t, p_ref = transition_probabilities(op, alpha, beta)
        out.append(_check(f"D_hat preserves embedded probabilities ({kind})",
                          float(np.abs(p_t - p_ref).max()), 1e-11 * tol_scale))
    return out


def polar_checks(L: int, sign: int, seed: int, tol_scale: float = 1.0) -> list[dict]:
    out = []
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(20):
        n = int(rng.integers(2, 17))
        mats.append(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    worst = max(_frob(f.unitary_part.matrix @ f.psd_part.matrix - m)
                for f, m in zip(polar_decompose_all(mats), mats))
    out.append(_check("polar reconstruction on random matrices", worst,
                      1e-9 * tol_scale))
    # the random matrices do not depend on L; the operator records do
    why = over_limit(L + 1, "eigensolve")
    if why:
        return out + [_skip("polar checks", why)]

    d_hat = build_d_hat(L, sign)
    emb = ancilla_sector_embedding(L, sign)
    rep = verify_theorem_structure(d_hat, emb)
    out.append(_bool_check(f"D_hat rank = {1 << L}", rep["rank"] == 1 << L,
                           rep["rank"]))
    out.append(_bool_check("D_hat non-invertible", not rep["invertible"]))
    out.append(_check("PSD factor acts as identity on embedded space",
                      rep["block_identity_error"], 1e-9 * tol_scale))
    out.append(_check("PSD^2 block off-diagonals vanish",
                      rep["offdiag_error"], 1e-9 * tol_scale))
    out.append(_check("P_H P_hat = P_hat P_H = P_H",
                      rep["projector_identity_error"], 1e-9 * tol_scale))

    d = build_d_noninvertible(L, sign)
    neg = verify_theorem_structure(d, SectorEmbedding(d.dim, d.dim, 0))
    out.append(_bool_check("D on matter space fails the identity-block check",
                           neg["block_identity_error"] > 1e-3,
                           neg["block_identity_error"]))

    hg = materialize(build_hamiltonian(ModelSpec(Family.MINIMAL_GAUGED_HG, L)))
    cor = corollary_check(hg, rep["factors"], emb, tol=1e-9 * tol_scale)
    if cor["status"] == "skipped":
        out.append(_skip("corollary P_H [H_G, U_hat] P_H", cor["reason"]))
    else:
        out.append(_check("corollary P_H [H_G, U_hat] P_H", cor["measured"],
                          cor["threshold"]))
    return out


def gauge_checks(L: int, tol_scale: float = 1.0) -> list[dict]:
    why = over_limit(2 * L, "eigensolve")
    if why:
        return [_skip("gauge-equivalence", why)]
    out = []
    res = spectral_equivalence_check(L)
    out.append(_bool_check(
        f"spectral equivalence with uniform factor {res['predicted_factor']}",
        res["equivalent"] and res["uniform_factor"] == res["predicted_factor"],
        res["uniform_factor"]))
    # the projector is a Pauli sum: only the identity string has a trace
    proj = gauss_sector_projector(L)
    trace = proj.layout.dim * proj.coefficient_of(PauliString.identity(proj.layout))
    out.append(_check("gauss projector trace = 2^L",
                      abs(trace.real - (1 << L)), 1e-9 * tol_scale))
    out.append(_check("gauss projector idempotent",
                      (proj * proj - proj).frobenius_norm(),
                      1e-12 * (1 << L) * tol_scale))
    h_full = build_hamiltonian(ModelSpec(Family.FULLY_GAUGED_HG, L))
    out.append(_check("[H_full_gauged, gauss projector]",
                      sum_commutator(h_full, proj).frobenius_norm(),
                      1e-10 * max(h_full.frobenius_norm(), 1.0) * tol_scale))
    hg = materialize(build_hamiltonian(ModelSpec(Family.MINIMAL_GAUGED_HG, L)))
    for blk, sign, s in zip(sector_blocks(hg, L), (1, -1), "+-"):
        h = materialize(build_hamiltonian(ModelSpec(BOUNDARY_FAMILY[sign], L)))
        out.append(_check(f"H_G ({s}) block equals H{s}",
                          float(np.abs(blk - h.matrix).max()), 1e-12))
    return out


def full_suite_checks(L: int, sign: int = 1, seed: int = 0, pairs: int = 100,
                      tol_scale: float = 1.0,
                      inject_fault: str | None = None) -> list[dict]:
    """Every battery in one list: the checks of ``full-suite``."""
    checks = []
    for circuit in _CIRCUITS:
        sub = automorphism_checks(circuit, L)
        checks.append(_bool_check(f"automorphism table {circuit} (L={L})",
                                  all(c["status"] == "pass" for c in sub)))
    checks += commutator_checks(L, tol_scale,
                                flip_boundary=inject_fault == "flip-boundary-sign")
    checks += transition_checks(
        L, sign, seed, pairs, tol_scale,
        nontrivial_projector=inject_fault == "nontrivial-projector")
    checks += polar_checks(L, sign, seed, tol_scale)
    checks += gauge_checks(L, tol_scale)
    return checks


# ---------------------------------------------------------------------------
# report assembly and output
# ---------------------------------------------------------------------------

def _write(path: str, write) -> None:
    """Every file the CLI writes goes through here; an unwritable path is a
    usage error."""
    try:
        write(path)
    except OSError as exc:
        raise click.UsageError(f"cannot write {path}: {exc.strerror or exc}")


def _emit(command: str, config: dict, checks: list[dict],
          fmt: str, out_path: str | None, started: float, extra: dict) -> int:
    report = {
        "command": command,
        "config": config,
        "version": __version__,
        "checks": checks,
        "timing": {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "wall_s": time.monotonic() - started,
        },
    }
    report.update(extra)
    if fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv" and "eigenvalues" in extra:
        text = "".join(f"{i},{v!r}\n" for i, v in enumerate(extra["eigenvalues"]))
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["name", "status", "measured", "threshold", "reason"])
        for c in checks:
            writer.writerow([c["name"], c["status"], c["measured"], c["threshold"],
                             c.get("reason", "")])
        text = buf.getvalue()
    else:
        lines = []
        for c in checks:
            mark = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[c["status"]]
            detail = "" if c["measured"] is None else \
                f"  measured={c['measured']!r} threshold={c['threshold']!r}"
            if c.get("reason"):
                detail += f"  reason={c['reason']}"
            lines.append(f"{mark}  {c['name']}{detail}")
        lines.append(f"{sum(c['status'] == 'pass' for c in checks)} passed, "
                     f"{sum(c['status'] == 'fail' for c in checks)} failed, "
                     f"{sum(c['status'] == 'skipped' for c in checks)} skipped")
        text = "\n".join(lines) + "\n"
    if out_path:
        _write(out_path, lambda p: Path(p).write_text(text))
    else:
        # the stream in use now: click's default stdout lookup caches each
        # stream it sees, and so would keep every redirected buffer alive
        click.echo(text, nl=False, file=sys.stdout)
    return 1 if any(c["status"] == "fail" for c in checks) else 0


#: options that say only where output goes, left out of a report's config
_OUTPUT_PARAMS = ("fmt", "out_path", "matrix_out", "matrix_format")


def _run(battery, extra: dict | None = None) -> None:
    """Time ``battery()``, emit the current command's report with its own
    options, minus those in ``_OUTPUT_PARAMS``, as the config, and exit with
    the report's code.

    A request over a dense site limit is a usage error; a Jacobi solve that
    does not converge is a failed check.
    """
    ctx = click.get_current_context()
    started = time.monotonic()
    try:
        checks = battery()
    except DimensionCapError as exc:
        raise click.UsageError(str(exc))
    except ConvergenceError as exc:
        checks = [dict(_bool_check("eigensolver converged", False),
                       reason=str(exc))]
    config = {k: v for k, v in ctx.params.items() if k not in _OUTPUT_PARAMS}
    sys.exit(_emit(ctx.info_name, config, checks, ctx.params["fmt"],
                   ctx.params["out_path"], started, extra or {}))


def _finite_positive(ctx, param, value: float) -> float:
    if not 0 < value < float("inf"):  # also rejects nan
        raise click.BadParameter("must be finite and positive")
    return value


_SIGNS = {"+": 1, "-": -1}
#: the largest --L: full-suite takes about 20 s and 150 MB there on 2 cores,
#: about five times as long per doubling; the symbolic commands take less
L_LIMIT = 8192
# a state pair holds about half a MB at L = 11: bound the count, and so memory
_pairs_option = click.option("--pairs", type=click.IntRange(1, 1 << DENSE_SITE_LIMIT),
                             default=100, show_default=True)
_sign_option = click.option("--sign", type=click.Choice(["+", "-"]), default="+",
                            show_default=True)
_seed_option = click.option("--seed", type=click.IntRange(min=0), default=0,
                            show_default=True)
_tol_scale_option = click.option("--tol-scale", type=float, default=1.0,
                                 show_default=True, callback=_finite_positive)


def _common(f):
    f = click.option("--out", "out_path", type=click.Path(), default=None)(f)
    f = click.option("--format", "fmt", type=click.Choice(["json", "csv", "text"]),
                     default="json", show_default=True)(f)
    return click.option("--L", "L", type=click.IntRange(2, L_LIMIT), default=3,
                        show_default=True)(f)


@click.group()
@click.version_option(__version__)
def main() -> None:
    """Verification suites for duality circuits and non-invertible symmetries."""


@main.command("verify-automorphism")
@click.option("--circuit", type=click.Choice(sorted(_CIRCUITS)), required=True)
@_common
def cmd_verify_automorphism(circuit, L, fmt, out_path):
    """Check a duality circuit against its generator table, symbolically."""
    _run(lambda: automorphism_checks(circuit, L))


@main.command("commutators")
@_common
@_tol_scale_option
def cmd_commutators(L, tol_scale, fmt, out_path):
    """Conservation and non-conservation commutator battery."""
    _run(lambda: commutator_checks(L, tol_scale))


@main.command("transition-check")
@_common
@_sign_option
@_seed_option
@_pairs_option
@_tol_scale_option
def cmd_transition_check(L, sign, seed, pairs, tol_scale, fmt, out_path):
    """Probability violation on the matter space vs preservation when gauged."""
    _run(lambda: transition_checks(L, _SIGNS[sign], seed, pairs, tol_scale))


@main.command("polar")
@_common
@_sign_option
@_seed_option
@_tol_scale_option
def cmd_polar(L, sign, seed, tol_scale, fmt, out_path):
    """Polar-decomposition structure checks for the gauged symmetry operator."""
    _run(lambda: polar_checks(L, _SIGNS[sign], seed, tol_scale))


@main.command("spectrum")
@click.option("--model", type=click.Choice(sorted(_MODELS)), required=True)
@_common
@_tol_scale_option
@click.option("--matrix-out", type=click.Path(), default=None,
              help="Also dump the dense Hamiltonian matrix.")
@click.option("--matrix-format", type=click.Choice(["bin", "csv"]),
              default="bin", show_default=True)
def cmd_spectrum(model, L, tol_scale, matrix_out, matrix_format, fmt, out_path):
    """Sorted eigenvalues of a model Hamiltonian."""
    extra = {}

    def battery():
        spec = ModelSpec(_MODELS[model], L)
        check_limit(spec.layout.total_sites, "eigensolve")
        op = materialize(eigensolve_hamiltonian(spec))
        result = hermitian_eigensolve(op)
        if matrix_out:
            dump = write_dense_binary if matrix_format == "bin" else write_dense_csv
            m = materialize(build_hamiltonian(spec)).matrix
            _write(matrix_out, lambda p: dump(p, m))
        extra["eigenvalues"] = [float(v) for v in result.eigenvalues]
        extra["block_sizes"] = list(result.block_sizes)
        return [_check("eigensolver residual", result.residual,
                       TAU_EIG_PER_DIM * op.dim * tol_scale)]

    _run(battery, extra)


@main.command("gauge-equivalence")
@_common
@_tol_scale_option
def cmd_gauge_equivalence(L, tol_scale, fmt, out_path):
    """Fully gauged vs minimally gauged spectral comparison."""
    _run(lambda: gauge_checks(L, tol_scale))


@main.command("full-suite")
@_common
@_sign_option
@_seed_option
@_pairs_option
@_tol_scale_option
@click.option("--inject-fault",
              type=click.Choice(["flip-boundary-sign", "nontrivial-projector"]),
              default=None)
def cmd_full_suite(L, sign, seed, pairs, tol_scale, inject_fault, fmt, out_path):
    """Every check in one run: automorphisms, commutators, counterexample,
    preservation, polar structure, corollary, spectral equivalence."""
    _run(lambda: full_suite_checks(L, _SIGNS[sign], seed, pairs, tol_scale,
                                   inject_fault))


if __name__ == "__main__":
    main()
