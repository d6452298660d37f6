"""Gauge sectors: embeddings, the non-invertible operators, Gauss-law
projection, block decomposition, and the spectral equivalence of the two
gauged chains."""

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from conftest import (I2, X2, Z2, kron_chain, oracle_circuit_matrix,
                      oracle_string_matrix)
from wignerlab import gauge
from wignerlab.clifford import build_u2, build_u_gauged
from wignerlab.dense import (DenseOperator, hermitian_eigensolve, materialize,
                             random_state, transition_experiment)
from wignerlab.gauge import (SectorEmbedding, ancilla_sector_embedding,
                             build_d_hat, build_d_noninvertible, embed_state,
                             gauss_sector_projector, sector_blocks,
                             spectral_multiset_factor,
                             spectral_equivalence_check)
from wignerlab.models import (Family, ModelSpec, build_hamiltonian,
                              gauss_law_operators)
from wignerlab.pauli import PauliString, ancilla_layout, symmetry_projector


# -- embeddings ---------------------------------------------------------------

@pytest.mark.parametrize("sign", [1, -1])
def test_embedding_is_isometric(sign):
    e = ancilla_sector_embedding(3, sign)
    iota = np.eye(e.target_dim)[:, e.rows]
    assert e.source_dim == 8 and iota.shape == (16, 8)
    assert np.allclose(iota.conj().T @ iota, np.eye(8))


def test_embedding_lands_in_ancilla_eigenspace():
    lay = ancilla_layout(3)
    z_anc = materialize(PauliString.single(lay, "Z", "L+1")).matrix
    for sign in (1, -1):
        e = ancilla_sector_embedding(3, sign)
        psi = embed_state(random_state(8, 0), e).amplitudes
        assert np.allclose(z_anc @ psi, sign * psi)


def test_sector_projector_fixes_embedded_states():
    lay = ancilla_layout(3)
    for sign in (1, -1):
        p = materialize(symmetry_projector(sign, lay, on_ancilla=True))
        e = ancilla_sector_embedding(3, sign)
        psi = embed_state(random_state(8, 1), e).amplitudes
        assert np.allclose(p.matrix @ psi, psi)


@pytest.mark.parametrize("L", [2, 5])
@pytest.mark.parametrize("sign", [1, -1])
def test_embed_state_is_isometry_times_state(L, sign):
    e = ancilla_sector_embedding(L, sign)
    iota = np.eye(e.target_dim, dtype=complex)[:, e.rows]
    for seed in range(3):
        alpha = random_state(1 << L, seed)
        got = embed_state(alpha, e).amplitudes
        assert got.tobytes() == (iota @ alpha.amplitudes).tobytes()


def test_embed_state_dimension_check():
    with pytest.raises(ValueError):
        embed_state(random_state(4, 0), ancilla_sector_embedding(3, 1))


@pytest.mark.parametrize("source_dim, target_dim, offset", [
    (8, 16, 12),  # runs past the end of the target space
    (8, 16, -4),  # a negative offset would make ``rows`` a wrapped slice
    (0, 16, 0),   # an empty sector
    (17, 16, 0),  # larger than the target space
])
def test_sector_must_fit_in_the_target_space(source_dim, target_dim, offset):
    with pytest.raises(ValueError, match="does not fit"):
        SectorEmbedding(source_dim, target_dim, offset)


def test_sector_at_either_end_fits():
    assert SectorEmbedding(8, 16, 8).rows == slice(8, 16)
    assert SectorEmbedding(16, 16, 0).rows == slice(0, 16)


# -- the non-invertible operators ----------------------------------------------

@pytest.mark.parametrize("L", [2, 3])
@pytest.mark.parametrize("sign", [1, -1])
def test_operators_match_oracle_circuit_times_projector(L, sign):
    eta = kron_chain([X2] * L)
    z_ancilla = kron_chain([I2] * L + [Z2])  # the ancilla is the top bit
    for got, u, s in ((build_d_noninvertible(L, sign), build_u2(L), eta),
                      (build_d_hat(L, sign), build_u_gauged(L), z_ancilla)):
        want = oracle_circuit_matrix(u) @ (np.eye(len(s)) + sign * s) / 2
        assert np.allclose(got.matrix, want, atol=1e-12)


@pytest.mark.parametrize("sign", [1, -1])
def test_matter_operator_square_and_rank(sign):
    L = 3
    d = build_d_noninvertible(L, sign)
    # D^2 = U^2 P: the projector is absorbed on the second pass
    from wignerlab.clifford import build_u2
    u = materialize(build_u2(L))
    from wignerlab.pauli import matter_layout
    p = materialize(symmetry_projector(sign, matter_layout(L)))
    assert np.allclose(d.matrix @ d.matrix, u.matrix @ u.matrix @ p.matrix,
                       atol=1e-12)
    assert np.linalg.matrix_rank(d.matrix) == 4  # 2^(L-1)


@pytest.mark.parametrize("sign", [1, -1])
def test_gauged_operator_is_partial_isometry(sign):
    d = build_d_hat(3, sign)
    gram = d.matrix.conj().T @ d.matrix
    ev = hermitian_eigensolve(DenseOperator(gram)).eigenvalues
    assert np.allclose(ev, [0.0] * 8 + [1.0] * 8, atol=1e-12)


@pytest.mark.parametrize("sign", [1, -1])
def test_gauged_operator_commutes_with_hamiltonian(sign):
    hg = materialize(build_hamiltonian(ModelSpec(Family.MINIMAL_GAUGED_HG, 3)))
    d = build_d_hat(3, sign)
    assert np.linalg.norm(hg.matrix @ d.matrix - d.matrix @ hg.matrix) < 1e-12


def test_gauged_operator_antilinear_variant_preserves_probabilities():
    L, sign = 3, 1
    e = ancilla_sector_embedding(L, sign)
    d = build_d_hat(L, sign, antilinear=True)
    assert d.antilinear
    pairs = [(embed_state(random_state(8, s), e),
              embed_state(random_state(8, s + 40), e)) for s in range(30)]
    assert transition_experiment(d, pairs)["max_deviation"] < 1e-11


def test_matter_operator_statistics_of_violation():
    d = build_d_noninvertible(3, 1)
    pairs = [(random_state(8, s), random_state(8, s + 40)) for s in range(100)]
    rep = transition_experiment(d, pairs)
    assert rep["max_deviation"] > 0.05


def test_restricted_operator_commutes_with_sector_hamiltonian():
    # on its sector, D+ acts as a genuine unitary symmetry of H+
    L = 3
    hp = materialize(build_hamiltonian(ModelSpec(Family.PERIODIC_H_PLUS, L)))
    d = build_d_noninvertible(L, 1).matrix
    comm = hp.matrix @ d - d @ hp.matrix
    assert np.linalg.norm(comm) < 1e-12


# -- Gauss projector and sector blocks --------------------------------------------

def test_gauss_projector_properties():
    L = 3
    p = materialize(gauss_sector_projector(L)).matrix
    assert abs(np.trace(p).real - 8) < 1e-10
    assert np.linalg.norm(p @ p - p) < 1e-10
    assert np.linalg.norm(p - p.conj().T) < 1e-12
    h = materialize(build_hamiltonian(ModelSpec(Family.FULLY_GAUGED_HG, L)))
    assert np.linalg.norm(h.matrix @ p - p @ h.matrix) < 1e-10


@pytest.mark.parametrize("L", [2, 3])
def test_gauss_projector_matches_oracle_product(L):
    want = np.eye(1 << (2 * L), dtype=complex)
    for g in gauss_law_operators(L):
        ((c, p),) = g
        want = want @ (np.eye(len(want)) + c * oracle_string_matrix(p)) / 2
    assert np.allclose(materialize(gauss_sector_projector(L)).matrix, want,
                       atol=1e-12)


def test_sector_blocks_reproduce_boundary_families():
    L = 3
    hg = materialize(build_hamiltonian(ModelSpec(Family.MINIMAL_GAUGED_HG, L)))
    blk_p, blk_m = sector_blocks(hg, L)
    hp = materialize(build_hamiltonian(ModelSpec(Family.PERIODIC_H_PLUS, L)))
    hm = materialize(build_hamiltonian(ModelSpec(Family.ANTIPERIODIC_H_MINUS, L)))
    assert np.abs(blk_p - hp.matrix).max() < 1e-12
    assert np.abs(blk_m - hm.matrix).max() < 1e-12


def test_sector_resolution_of_identity():
    lay = ancilla_layout(3)
    p_plus = materialize(symmetry_projector(1, lay, on_ancilla=True)).matrix
    p_minus = materialize(symmetry_projector(-1, lay, on_ancilla=True)).matrix
    assert np.allclose(p_plus + p_minus, np.eye(16))


# -- spectral equivalence ------------------------------------------------------------

def test_multiset_factor_self_comparison():
    ev = np.array([-2.0, -1.0, -1.0, 3.0])
    res = spectral_multiset_factor(ev, ev)
    assert res["equivalent"] and res["uniform_factor"] == 1


def test_multiset_factor_detects_mismatch():
    a = np.array([-1.0, -1.0, 1.0, 1.0])
    b = np.array([-1.0, 2.0])
    res = spectral_multiset_factor(a, b)
    assert not res["equivalent"] and res["mismatches"]


@pytest.mark.parametrize("a, b", [([], []), ([1.0], []), ([], [1.0])])
def test_multiset_factor_rejects_empty_inputs(a, b):
    res = spectral_multiset_factor(np.array(a), np.array(b))
    assert not res["equivalent"] and res["mismatches"]


def test_multiset_factor_detects_nonuniform_degeneracy():
    a = np.array([0.0, 1.0, 1.0])
    b = np.array([0.0, 1.0])
    res = spectral_multiset_factor(a, b)
    assert not res["equivalent"]


@pytest.mark.parametrize("L", [2, 3])
def test_spectral_equivalence_of_gauged_chains(L):
    res = spectral_equivalence_check(L)
    assert res["equivalent"]
    assert res["uniform_factor"] == res["predicted_factor"] == 1 << (L - 1)


@pytest.mark.parametrize("L", [2, 3])
def test_rotated_full_gauged_spectrum_matches_unrotated(L, monkeypatch):
    solved = []
    solve_all = gauge.hermitian_eigensolve_all
    monkeypatch.setattr(gauge, "hermitian_eigensolve_all",
                        lambda ops: solved.extend(ops) or solve_all(ops))
    gauge.spectral_equivalence_check(L)
    rotated = solved[0].matrix
    h = materialize(build_hamiltonian(ModelSpec(Family.FULLY_GAUGED_HG, L)))
    assert np.max(np.abs(hermitian_eigensolve(rotated).eigenvalues
                         - np.linalg.eigvalsh(h.matrix))) < 1e-12
    # one block per joint sector of the Gauss law and the Wilson loop; at
    # L = 2 both bonds join sites 1 and 2, so their link terms share an X
    # mask and cancel where the Wilson loop is -1, leaving 1x1 blocks there
    want = 12 if L == 2 else 1 << (L + 1)
    assert connected_components(rotated != 0, directed=False)[0] == want


@pytest.mark.parametrize("L", [2, 3, 4, 5])
def test_one_eigensolve_for_both_chains_equals_two(L, monkeypatch):
    # both chains in one call share stacks of equal-size blocks, and each
    # block is solved as it would be alone
    calls = []
    solve_all = gauge.hermitian_eigensolve_all

    def spy(ops):
        calls.append((ops, solve_all(ops)))
        return calls[-1][1]
    monkeypatch.setattr(gauge, "hermitian_eigensolve_all", spy)
    assert spectral_equivalence_check(L)["equivalent"]
    [(ops, results)] = calls
    assert len(ops) == 2
    for op, res in zip(ops, results):
        assert np.array_equal(res.eigenvalues, hermitian_eigensolve(op).eigenvalues)


def test_spectral_equivalence_rejects_large_L():
    with pytest.raises(ValueError):
        spectral_equivalence_check(6)
