"""SVD and polar decomposition by one-sided Jacobi, checked against LAPACK
oracles, plus the structure theorem for candidate symmetry operators of the
form (anti)unitary times projector."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerlab import dense
from wignerlab.dense import (ConvergenceError, DenseOperator, materialize,
                             random_state)
from wignerlab.gauge import (SectorEmbedding, ancilla_sector_embedding,
                             build_d_hat, build_d_noninvertible)
from wignerlab.models import Family, ModelSpec, build_hamiltonian
from wignerlab.pauli import (PauliString, PauliSum, ancilla_layout,
                             matter_layout, symmetry_projector)
from wignerlab.polar import (_column_groups, _svd_all, corollary_check,
                             polar_decompose, svd, verify_theorem_structure)
from wignerlab.polar import polar_decompose_all


def random_matrix(rng, n, rank=None):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if rank is not None and rank < n:
        b = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
        c = rng.normal(size=(rank, n)) + 1j * rng.normal(size=(rank, n))
        m = b @ c
    return m


# -- SVD -------------------------------------------------------------------------

def test_svd_diagonal_example():
    res = svd(np.diag([3.0, 0.0, -2.0]).astype(complex))
    assert np.allclose(res.sigma, [3.0, 2.0, 0.0], atol=1e-12)
    assert res.rank == 2
    assert np.allclose((res.w * res.sigma) @ res.v.conj().T, np.diag([3.0, 0.0, -2.0]),
                       atol=1e-12)


def test_svd_matches_lapack_singular_values():
    rng = np.random.default_rng(21)
    for _ in range(40):
        n = int(rng.integers(2, 33))
        m = random_matrix(rng, n)
        res = svd(m)
        assert np.allclose(res.sigma, np.linalg.svd(m, compute_uv=False),
                           atol=1e-9)
        assert np.linalg.norm(res.w.conj().T @ res.w - np.eye(n)) < 1e-9
        assert np.linalg.norm(res.v.conj().T @ res.v - np.eye(n)) < 1e-9


def test_svd_rejects_non_square():
    with pytest.raises(ValueError):
        svd(np.zeros((2, 3)))


def _sigma_matches_lapack(op):
    m = op.matrix if isinstance(op, DenseOperator) else op
    want = np.linalg.svd(m, compute_uv=False)
    got = polar_decompose(op).sigma
    return np.max(np.abs(got - want)) <= 1e-12 * max(want[0], 1.0)


def test_svd_matches_lapack_on_rank_deficient_zero_and_antilinear_input():
    rng = np.random.default_rng(31)
    for n in (2, 5, 12, 16, 33):
        for rank in (1, n // 2, n - 1):
            assert _sigma_matches_lapack(random_matrix(rng, n, rank))
        assert _sigma_matches_lapack(DenseOperator(random_matrix(rng, n),
                                                   antilinear=True))
        zero = polar_decompose(np.zeros((n, n), dtype=complex))
        assert not zero.sigma.any() and zero.rank == 0
        u = zero.unitary_part.matrix
        assert np.array_equal(u.conj().T @ u, np.eye(n))
    # a zero column and a duplicated column
    m = random_matrix(rng, 6)
    m[:, 2] = 0
    m[:, 4] = 1j * m[:, 1]
    assert _sigma_matches_lapack(m) and svd(m).rank == 4


@pytest.mark.parametrize("L", range(3, 10))
@pytest.mark.parametrize("sign", [1, -1])
def test_column_groups_of_d_are_eta_pairs_and_of_d_hat_singletons(L, sign):
    # D± couples column c only to c ^ (2^L - 1), its image under eta;
    # D̂±'s columns are orthogonal or zero, each a group of its own
    full = (1 << L) - 1
    groups = _column_groups(build_d_noninvertible(L, sign).matrix)
    assert [g.tolist() for g in groups] == [[c, c ^ full] for c in range(1 << (L - 1))]
    groups = _column_groups(build_d_hat(L, sign).matrix)
    assert [g.tolist() for g in groups] == [[c] for c in range(2 << L)]


@pytest.mark.parametrize("L", range(2, 7))
@pytest.mark.parametrize("sign", [1, -1])
def test_lone_columns_take_no_stack(monkeypatch, L, sign):
    # a one-column group takes no rotation, so it is never stacked
    shapes = []
    kernel = dense._one_sided_jacobi
    monkeypatch.setattr(dense, "_one_sided_jacobi", lambda stack, *rest:
                        shapes.append(stack.shape) or kernel(stack, *rest))
    d_hat = build_d_hat(L, sign).matrix
    res = _svd_all([d_hat])[0]
    assert all(n > 1 for _, n, _ in shapes)
    assert np.allclose((res.w * res.sigma) @ res.v.conj().T, d_hat, atol=1e-12)


def test_column_groups_do_not_depend_on_scale():
    rng = np.random.default_rng(17)
    a, b = random_matrix(rng, 5), random_matrix(rng, 4)
    m = np.zeros((9, 9), dtype=complex)
    m[:5, :5], m[5:, 5:] = 1e6 * a, 1e-6 * b
    assert [g.tolist() for g in _column_groups(m)] == [list(range(5)), list(range(5, 9))]
    sigma = svd(m).sigma
    want = np.linalg.svd(b, compute_uv=False)
    assert np.max(np.abs(sigma[5:] / 1e-6 - want) / want) < 1e-12
    want = np.linalg.svd(a, compute_uv=False)
    assert np.max(np.abs(sigma[:5] / 1e6 - want) / want) < 1e-12


def test_svd_raises_past_the_sweep_cap(monkeypatch):
    m = random_matrix(np.random.default_rng(3), 5)
    monkeypatch.setattr(dense, "JACOBI_SWEEP_CAP", 0)
    with pytest.raises(ConvergenceError, match=r"^no convergence after 0 sweeps: "
                       r"1 of 1 blocks of size 5 missed the target; worst "
                       r"off-diagonal norm \d\.\d{3}e[+-]\d+$"):
        _svd_all([m])
    monkeypatch.undo()
    assert _svd_all([m])[0].rank == 5


@pytest.mark.parametrize("L", range(2, 8))
@pytest.mark.parametrize("sign", [1, -1])
def test_psd_factor_is_the_projector_of_the_right_factor(L, sign):
    # D = U P with U unitary and P a projector: D†D = P, so P_hat = P
    for d, p in ((build_d_noninvertible(L, sign),
                  symmetry_projector(sign, matter_layout(L))),
                 (build_d_hat(L, sign),
                  symmetry_projector(sign, ancilla_layout(L), on_ancilla=True))):
        want = materialize(p).matrix
        assert np.max(np.abs(polar_decompose(d).psd_part.matrix - want)) < 1e-12


def _loop_complete_kernel(w, n_range):
    """Column-by-column Gram-Schmidt kernel completion: the oracle."""
    n = w.shape[0]
    cols = [w[:, i] for i in range(n_range)]
    for idx in range(n):
        if len(cols) == n:
            break
        cand = np.zeros(n, dtype=complex)
        cand[idx] = 1.0
        for _ in range(2):  # re-orthogonalize once
            for c in cols:
                cand = cand - np.vdot(c, cand) * c
        nrm = np.linalg.norm(cand)
        if nrm > 1e-8:
            cols.append(cand / nrm)
    assert len(cols) == n
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("L", range(2, 7))
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("build", [build_d_hat, build_d_noninvertible])
def test_kernel_completion_matches_column_loop(build, sign, L):
    a = build(L, sign).matrix
    res = svd(a)
    w, r = res.w, res.rank
    assert 0 < r < w.shape[0]
    assert np.linalg.norm(w.conj().T @ w - np.eye(w.shape[0])) < 1e-12
    assert np.max(np.abs(w[:, :r].conj().T @ w[:, r:])) < 1e-12
    assert np.max(np.abs(w[:, :r] * res.sigma[:r] - a @ res.v[:, :r])) < 1e-12
    # the kernel's span is unique, its basis is not: compare projectors
    k, oracle = w[:, r:], _loop_complete_kernel(w[:, :r], r)[:, r:]
    assert np.max(np.abs(k @ k.conj().T - oracle @ oracle.conj().T)) < 1e-12


def _haar_unitary(rng, n):
    """Haar-random unitary: QR of a complex Ginibre matrix with R's diagonal
    phases moved into Q (Mezzadri, Notices AMS 54, 592 (2007))."""
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    d = r.diagonal()
    return q * (d / np.abs(d))


@pytest.mark.parametrize("L", range(2, 6))
@pytest.mark.parametrize("sign", [1, -1])
def test_polar_records_do_not_see_the_kernel_basis(monkeypatch, L, sign):
    # the polar factor is fixed only on the range: rotating W's kernel
    # columns by any unitary leaves every record of the battery as it was
    from wignerlab import cli, polar
    want = cli.polar_checks(L, sign, 0)
    rng = np.random.default_rng(L)
    rotated = []
    solve = polar._svd_all

    def rotate_kernels(mats):
        out = []
        for res in solve(mats):
            w, r = res.w.copy(), res.rank
            w[:, r:] = w[:, r:] @ _haar_unitary(rng, w.shape[0] - r)
            rotated.append(w.shape[0] - r)
            out.append(dataclasses.replace(res, w=w))
        return out

    monkeypatch.setattr(polar, "_svd_all", rotate_kernels)
    assert cli.polar_checks(L, sign, 0) == want
    assert max(rotated) > 1


# -- polar decomposition ------------------------------------------------------------

def test_polar_reconstruction_on_200_random_matrices():
    rng = np.random.default_rng(42)
    worst = 0.0
    for k in range(200):
        n = int(rng.integers(2, 33))
        rank = int(rng.integers(1, n + 1)) if k % 3 == 0 else None
        m = random_matrix(rng, n, rank)
        f = polar_decompose(m)
        worst = max(worst, float(np.linalg.norm(
            f.unitary_part.matrix @ f.psd_part.matrix - m)))
        u = f.unitary_part.matrix
        assert np.linalg.norm(u.conj().T @ u - np.eye(n)) < 1e-9
        evs = np.linalg.eigvalsh(f.psd_part.matrix)
        assert evs.min() > -1e-10
        if rank is not None:
            assert f.rank == rank
    assert worst < 1e-9


def test_polar_of_unitary_is_trivial():
    from wignerlab.clifford import build_u2
    u = materialize(build_u2(3))
    f = polar_decompose(u)
    assert f.invertible and f.rank == 8
    assert np.allclose(f.psd_part.matrix, np.eye(8), atol=1e-10)
    assert np.allclose(f.unitary_part.matrix, u.matrix, atol=1e-10)


def test_invertibility_flag_matches_determinant_oracle():
    rng = np.random.default_rng(5)
    for k in range(60):
        n = int(rng.integers(2, 9))
        rank = int(rng.integers(1, n + 1)) if k % 2 == 0 else None
        m = random_matrix(rng, n, rank)
        f = polar_decompose(m)
        assert f.invertible == (np.linalg.matrix_rank(m) == n)
        if f.invertible:
            assert abs(np.linalg.det(m)) > 0.0


def test_polar_of_antilinear_keeps_flag():
    rng = np.random.default_rng(9)
    m = random_matrix(rng, 6)
    f = polar_decompose(DenseOperator(m, antilinear=True))
    assert f.unitary_part.antilinear and not f.psd_part.antilinear


def test_batched_polar_matches_one_at_a_time():
    # sizes 9, 12 and 16 share one padded stack; 3 and 5 have their own
    rng = np.random.default_rng(13)
    ops = [random_matrix(rng, n) for n in (9, 12, 3, 16, 5)]
    ops += [DenseOperator(random_matrix(rng, 6), antilinear=True),
            build_d_hat(2, 1), build_d_hat(2, -1, antilinear=True)]
    for op, got in zip(ops, polar_decompose_all(ops)):
        want = polar_decompose(op)
        assert got.rank == want.rank and got.invertible == want.invertible
        assert np.max(np.abs(got.sigma - want.sigma)) < 1e-12
        for part in ("unitary_part", "psd_part"):
            g, w = getattr(got, part), getattr(want, part)
            assert g.antilinear == w.antilinear
            assert np.max(np.abs(g.matrix - w.matrix)) < 1e-12
    assert polar_decompose_all([]) == []


def test_polar_checks_stack_random_matrices_by_size_class(monkeypatch):
    from wignerlab import cli, polar
    batches = []
    batch = polar.polar_decompose_all
    counted = lambda ops: batches.append((len(ops), [])) or batch(ops)
    # cli imports the batch by name; polar's own calls open batches too
    monkeypatch.setattr(cli, "polar_decompose_all", counted)
    monkeypatch.setattr(polar, "polar_decompose_all", counted)
    kernel = dense._one_sided_jacobi
    monkeypatch.setattr(dense, "_one_sided_jacobi", lambda stack, *rest:
                        batches[-1][1].append(stack.shape)
                        or kernel(stack, *rest))
    checks = cli.polar_checks(3, 1, 0)
    assert checks[0]["name"] == "polar reconstruction on random matrices"
    assert checks[0]["status"] == "pass"
    count, shapes = batches[0]
    # a random matrix's columns form one group
    assert count == 20 and sum(k for k, _, _ in shapes) == 20
    classes = [(n - 1).bit_length() for _, n, _ in shapes]
    assert len(classes) == len(set(classes)) <= 4


def test_full_rank_batch_makes_no_qr_call(monkeypatch):
    # a full-rank W has no kernel to complete
    from wignerlab import cli, polar
    batches = []
    batch = polar.polar_decompose_all
    monkeypatch.setattr(cli, "polar_decompose_all",
                        lambda ops: batches.append(ops) or batch(ops))
    cli.polar_checks(3, 1, 0)
    mats = batches[0]
    calls = []
    qr = polar.np.linalg.qr
    monkeypatch.setattr(polar.np.linalg, "qr",
                        lambda *args, **kw: calls.append(args) or qr(*args, **kw))
    assert len(mats) == 20
    assert all(f.invertible for f in batch(mats))
    assert calls == []
    # a rank-deficient input completes its kernel by one QR
    batch([build_d_hat(2, 1)])
    assert len(calls) == 1


@settings(max_examples=30)
@given(st.integers(0, 10_000))
def test_unitary_factor_preserves_probabilities(seed):
    # forward direction: whatever the input, the unitary polar factor is a
    # probability-preserving map on the full space
    rng = np.random.default_rng(seed)
    m = random_matrix(rng, 8, rank=int(rng.integers(1, 9)))
    u = polar_decompose(m).unitary_part
    a, b = random_state(8, seed + 1), random_state(8, seed + 2)
    p = abs(np.vdot(u.apply(b.amplitudes), u.apply(a.amplitudes))) ** 2
    q = abs(np.vdot(b.amplitudes, a.amplitudes)) ** 2
    assert abs(p - q) < 1e-10


# -- structure of the gauged symmetry operator ---------------------------------------

@pytest.mark.parametrize("sign", [1, -1])
def test_theorem_structure_on_gauged_operator(sign):
    L = 3
    d = build_d_hat(L, sign)
    emb = ancilla_sector_embedding(L, sign)
    rep = verify_theorem_structure(d, emb)
    assert rep["passed"]
    assert rep["rank"] == 8 and not rep["invertible"]
    f = rep["factors"]
    assert np.linalg.norm(f.unitary_part.matrix @ f.psd_part.matrix - d.matrix) < 1e-10
    # singular values are 8 ones and 8 zeros: a partial isometry
    assert np.allclose(sorted(f.sigma, reverse=True),
                       [1.0] * 8 + [0.0] * 8, atol=1e-10)


def test_theorem_structure_fails_on_matter_operator():
    # the rank-deficient matter operator is not an isometry on the full space
    d = build_d_noninvertible(3, 1)
    rep = verify_theorem_structure(d, SectorEmbedding(8, 8, 0))
    assert not rep["passed"]
    assert rep["block_identity_error"] > 1e-3


@pytest.mark.parametrize("L", [2, 3])
def test_corollary_commutation(L):
    hg = materialize(build_hamiltonian(ModelSpec(Family.MINIMAL_GAUGED_HG, L)))
    d = build_d_hat(L, 1)
    emb = ancilla_sector_embedding(L, 1)
    rep = corollary_check(hg, d, emb)
    assert rep["status"] == "pass"
    assert rep["measured"] < 1e-9


def _hg_with_ancilla_field(L):
    # adding an ancilla field makes the Hamiltonian leave the embedded space
    h = build_hamiltonian(ModelSpec(Family.MINIMAL_GAUGED_HG, L)) \
        - PauliSum.from_string(PauliString.single(ancilla_layout(L), "X", "L+1"))
    return materialize(h)


def test_corollary_skips_when_precondition_broken():
    L = 3
    hg = _hg_with_ancilla_field(L)
    emb = ancilla_sector_embedding(L, 1)
    rep = corollary_check(hg, build_d_hat(L, 1), emb)
    assert rep["status"] == "skipped"
    assert rep["precondition_norm"] > 1.0


def test_checks_reject_a_sector_of_another_dimension():
    d = build_d_hat(2, 1)  # dim 8
    hg = materialize(build_hamiltonian(ModelSpec(Family.MINIMAL_GAUGED_HG, 2)))
    wrong = ancilla_sector_embedding(3, 1)  # a sector of a dim-16 space
    with pytest.raises(ValueError, match="dimensions differ"):
        verify_theorem_structure(d, wrong)
    with pytest.raises(ValueError, match="dimensions differ"):
        corollary_check(hg, d, wrong)


# -- the sector reads against the inclusion-matrix formulas ---------------------

def _inclusion(e):
    """iota: the target_dim x source_dim matrix taking a to offset + a."""
    iota = np.zeros((e.target_dim, e.source_dim), dtype=complex)
    iota[e.offset:e.offset + e.source_dim] = np.eye(e.source_dim)
    return iota


def _reference_structure(p_hat, e):
    """The three block errors through iota, P_H = iota iota† and I - P_H."""
    iota = _inclusion(e)
    p_h = iota @ iota.conj().T
    perp = np.eye(e.target_dim) - p_h
    return {
        "block_identity_error": float(np.linalg.norm(
            iota.conj().T @ p_hat @ iota - np.eye(e.source_dim))),
        "offdiag_error": float(np.linalg.norm(perp @ (p_hat @ p_hat) @ p_h)),
        "projector_identity_error": float(np.linalg.norm(p_h @ p_hat - p_h)),
    }


def _reference_corollary(hg, u_hat, e):
    """(|[H_G, P_H]|, |P_H [H_G, U_hat] P_H|) with P_H = iota iota†."""
    iota = _inclusion(e)
    p_h = iota @ iota.conj().T
    comm = hg @ u_hat - u_hat @ hg
    return (float(np.linalg.norm(hg @ p_h - p_h @ hg)),
            float(np.linalg.norm(p_h @ comm @ p_h)))


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("sign", [1, -1])
def test_sector_reads_equal_the_inclusion_matrix_formulas(L, sign):
    hg = materialize(build_hamiltonian(ModelSpec(Family.MINIMAL_GAUGED_HG, L)))
    fam = Family.PERIODIC_H_PLUS if sign > 0 else Family.ANTIPERIODIC_H_MINUS
    h = materialize(build_hamiltonian(ModelSpec(fam, L)))
    cases = [(build_d_hat(L, sign), ancilla_sector_embedding(L, sign), hg),
             (build_d_noninvertible(L, sign), SectorEmbedding(1 << L, 1 << L, 0), h)]
    for d, e, ham in cases:
        rep = verify_theorem_structure(d, e)
        factors = rep["factors"]
        want = _reference_structure(factors.psd_part.matrix, e)
        assert {k: rep[k] for k in want} == want
        # P_hat is Hermitian: the column half adds nothing to the row half
        p_hat, p_h = factors.psd_part.matrix, _inclusion(e) @ _inclusion(e).conj().T
        assert np.array_equal(p_hat, p_hat.conj().T)
        assert abs(np.linalg.norm(p_hat @ p_h - p_h)
                   - rep["projector_identity_error"]) <= 1e-15
        pre, measured = _reference_corollary(ham.matrix,
                                             factors.unitary_part.matrix, e)
        cor = corollary_check(ham, factors, e)
        assert cor["measured"] == measured
        assert cor["precondition_norm"] == pytest.approx(pre, rel=1e-14, abs=0)


def test_precondition_equals_the_inclusion_matrix_formula_when_broken():
    L = 3
    hg = _hg_with_ancilla_field(L)
    d, e = build_d_hat(L, 1), ancilla_sector_embedding(L, 1)
    cor = corollary_check(hg, d, e)
    pre, _ = _reference_corollary(hg.matrix, polar_decompose(d).unitary_part.matrix, e)
    assert cor["status"] == "skipped"
    assert cor["precondition_norm"] == pytest.approx(pre, rel=1e-14, abs=0)
