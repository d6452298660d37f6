"""Acceptance gate: the nine end-to-end criteria, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py -s`` to see the per-criterion
lines; each test enforces its stated tolerance and runtime budget.
"""

import time

import numpy as np
import pytest

from wignerlab.clifford import (build_u1, build_u2, build_u_gauged,
                                conjugate_circuit, phi1_table, phi2_table,
                                phi_gauged_table, verify_automorphism)
from wignerlab.dense import (StateVector, materialize, random_state,
                             transition_experiment)
from wignerlab.gauge import (ancilla_sector_embedding, build_d_hat,
                             build_d_noninvertible, embed_state,
                             spectral_equivalence_check)
from wignerlab.models import Family, ModelSpec, build_hamiltonian
from wignerlab.polar import (corollary_check, polar_decompose,
                             verify_theorem_structure)


_CAPTURE = None


@pytest.fixture(autouse=True)
def _passthrough_capture(capfd):
    # let the per-criterion verdict lines reach the terminal without -s
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _report(num: int, name: str, ok: bool, t0: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num} {name}: {verdict} ({time.monotonic() - t0:.2f}s)"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print("\n" + line, flush=True)
    else:
        print(line, flush=True)
    assert ok, f"acceptance criterion {num} ({name}) failed"


def _fnorm(m):
    return float(np.linalg.norm(m))


def test_criterion_1_duality_automorphisms():
    t0 = time.monotonic()
    ok = True
    for build, table in ((build_u1, phi1_table), (build_u2, phi2_table),
                         (build_u_gauged, phi_gauged_table)):
        for L in range(2, 65):
            ok = ok and verify_automorphism(build(L), table(L))["passed"]
    # symbolic conjugation matches dense conjugation entrywise for L <= 4
    rng = np.random.default_rng(0)
    for build in (build_u1, build_u2, build_u_gauged):
        for L in (2, 3, 4):
            c = build(L)
            u = materialize(c).matrix
            full = c.layout.dim - 1
            for _ in range(10):
                from wignerlab.pauli import PauliString
                p = PauliString(c.layout, int(rng.integers(0, full + 1)),
                                int(rng.integers(0, full + 1)),
                                int(rng.integers(0, 4)))
                got = materialize(conjugate_circuit(c, p)).matrix
                want = u @ materialize(p).matrix @ u.conj().T
                ok = ok and np.abs(got - want).max() < 1e-12
    elapsed = time.monotonic() - t0
    _report(1, "duality automorphisms", ok and elapsed < 10.0, t0)


def test_criterion_2_conservation():
    t0 = time.monotonic()
    ok = True
    for L in (3, 4):
        u1 = materialize(build_u1(L))
        u2 = materialize(build_u2(L))
        ug = materialize(build_u_gauged(L))
        h1 = materialize(build_hamiltonian(ModelSpec(Family.OPEN_H1, L)))
        h2 = materialize(build_hamiltonian(ModelSpec(Family.SELF_DUAL_CLOSED_H2, L)))
        hg = materialize(build_hamiltonian(ModelSpec(Family.MINIMAL_GAUGED_HG, L)))
        pairs = [(h1, u1), (h2, u2), (hg, ug)]
        for sign, fam in ((1, Family.PERIODIC_H_PLUS),
                          (-1, Family.ANTIPERIODIC_H_MINUS)):
            h = materialize(build_hamiltonian(ModelSpec(fam, L)))
            pairs.append((h, build_d_noninvertible(L, sign)))
            pairs.append((hg, build_d_hat(L, sign)))
        for a, b in pairs:
            scale = max(_fnorm(a.matrix) * _fnorm(b.matrix), 1.0)
            ok = ok and _fnorm(a.matrix @ b.matrix - b.matrix @ a.matrix) \
                < 1e-10 * scale
    # non-conservation at L = 3
    u2 = materialize(build_u2(3))
    for fam in (Family.PERIODIC_H_PLUS, Family.ANTIPERIODIC_H_MINUS):
        h = materialize(build_hamiltonian(ModelSpec(fam, 3)))
        ok = ok and _fnorm(h.matrix @ u2.matrix - u2.matrix @ h.matrix) > 0.1
    elapsed = time.monotonic() - t0
    _report(2, "conservation and non-conservation", ok and elapsed < 30.0, t0)


def test_criterion_3_probability_counterexample():
    t0 = time.monotonic()
    d = build_d_noninvertible(3, 1)
    zero = StateVector(np.eye(8)[:, 0])
    rep = transition_experiment(d, [(zero, zero)])
    ok = abs(rep["pairs"][0]["p_transformed"] - 0.25) < 1e-12
    ok = ok and abs(rep["pairs"][0]["p_reference"] - 1.0) < 1e-12
    pairs = [(random_state(8, 2 * k), random_state(8, 2 * k + 1))
             for k in range(100)]
    ok = ok and transition_experiment(d, pairs)["max_deviation"] > 0.05
    _report(3, "matter-space probability counterexample", ok, t0)


def test_criterion_4_gauged_probability_preservation():
    t0 = time.monotonic()
    ok = True
    for L in (3, 4):
        dim = 1 << L
        for sign in (1, -1):
            e = ancilla_sector_embedding(L, sign)
            pairs = [(embed_state(random_state(dim, 2 * k), e),
                      embed_state(random_state(dim, 2 * k + 1), e))
                     for k in range(100)]
            for antilinear in (False, True):
                d = build_d_hat(L, sign, antilinear=antilinear)
                ok = ok and transition_experiment(d, pairs)["max_deviation"] \
                    < 1e-11
    _report(4, "gauged probability preservation", ok, t0)


def test_criterion_5_polar_decomposition():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    ok = True
    for k in range(200):
        n = int(rng.integers(2, 33))
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if k % 3 == 0:  # rank-deficient
            r = int(rng.integers(1, n + 1))
            m = m[:, :r] @ (rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n)))
        f = polar_decompose(m)
        ok = ok and _fnorm(f.unitary_part.matrix @ f.psd_part.matrix - m) < 1e-9
    for k in range(40):
        n = int(rng.integers(2, 9))
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if k % 2 == 0:
            r = int(rng.integers(1, n + 1))
            m = m[:, :r] @ (rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n)))
        ok = ok and polar_decompose(m).invertible \
            == (np.linalg.matrix_rank(m) == n)
    d = build_d_hat(3, 1)
    rep = verify_theorem_structure(d, ancilla_sector_embedding(3, 1))
    ok = ok and rep["rank"] == 8 and d.dim == 16 \
        and rep["block_identity_error"] < 1e-9
    _report(5, "polar decomposition structure", ok, t0)


def test_criterion_6_corollary_commutation():
    t0 = time.monotonic()
    ok = True
    for L in (3, 4):
        hg = materialize(build_hamiltonian(ModelSpec(Family.MINIMAL_GAUGED_HG, L)))
        rep = corollary_check(hg, build_d_hat(L, 1),
                              ancilla_sector_embedding(L, 1), tol=1e-9)
        ok = ok and rep["status"] == "pass"
    _report(6, "projected commutation corollary", ok, t0)


def test_criterion_7_spectral_equivalence():
    t0 = time.monotonic()
    ok = True
    for L in (2, 3, 4):
        res = spectral_equivalence_check(L)
        ok = ok and res["equivalent"] \
            and res["uniform_factor"] == 1 << (L - 1)
    elapsed = time.monotonic() - t0
    _report(7, "gauged-chain spectral equivalence", ok and elapsed < 120.0, t0)


def test_criterion_8_sector_blocks():
    t0 = time.monotonic()
    from wignerlab.gauge import sector_blocks
    L = 3
    hg = materialize(build_hamiltonian(ModelSpec(Family.MINIMAL_GAUGED_HG, L)))
    blk_p, blk_m = sector_blocks(hg, L)
    hp = materialize(build_hamiltonian(ModelSpec(Family.PERIODIC_H_PLUS, L)))
    hm = materialize(build_hamiltonian(ModelSpec(Family.ANTIPERIODIC_H_MINUS, L)))
    ok = float(np.abs(blk_p - hp.matrix).max()) < 1e-12 \
        and float(np.abs(blk_m - hm.matrix).max()) < 1e-12
    _report(8, "gauge sector blocks", ok, t0)


def test_criterion_9_fault_injection():
    t0 = time.monotonic()
    from wignerlab.cli import commutator_checks, transition_checks
    healthy = commutator_checks(3) + transition_checks(3, 1, seed=0, pairs=20)
    ok = all(c["status"] == "pass" for c in healthy)
    flipped = commutator_checks(3, flip_boundary=True)
    ok = ok and any(c["status"] == "fail" for c in flipped)
    broken = transition_checks(3, 1, seed=0, pairs=20,
                               nontrivial_projector=True)
    ok = ok and any(c["status"] == "fail" for c in broken)
    _report(9, "fault injection detected", ok, t0)
