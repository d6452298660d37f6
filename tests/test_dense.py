"""Dense backend: materialization against kron oracles, the Jacobi
eigensolver against LAPACK, antilinear composition, seeded states, transition
experiments, and the matrix dump formats."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag, expm
from scipy.sparse.csgraph import connected_components

from conftest import (fold_conjugate, oracle_circuit_matrix, oracle_gate_matrix,
                      oracle_string_matrix)
from wignerlab import dense
from wignerlab.clifford import (CliffordCircuit, ControlledX, ControlledZ,
                                Hadamard, QuarterRotation, Swap, build_u1,
                                build_u2, build_u_gauged)
from wignerlab.dense import (DENSE_SITE_LIMIT, EIGENSOLVE_SITE_LIMIT,
                             ConvergenceError, DenseOperator,
                             DimensionCapError, hermitian_eigensolve,
                             materialize, random_state, read_dense_binary,
                             read_dense_csv, transition_experiment,
                             write_dense_binary, write_dense_csv)
from wignerlab.dense import hermitian_eigensolve_all
from wignerlab.gauge import build_d_hat, build_d_noninvertible
from wignerlab.models import (Family, ModelSpec, build_hamiltonian,
                              eigensolve_hamiltonian)
from wignerlab.pauli import (PauliString, PauliSum, ancilla_layout, commutes,
                             eta_string, link_layout, matter_layout,
                             symmetry_projector)

LAYOUT3 = matter_layout(3)


def strings(layout=LAYOUT3):
    full = layout.dim - 1
    return st.builds(PauliString, st.just(layout),
                     st.integers(0, full), st.integers(0, full),
                     st.integers(0, 3))


# -- materialization -----------------------------------------------------------

@settings(max_examples=150)
@given(strings())
def test_string_matrix_matches_kron_oracle(p):
    assert np.allclose(materialize(p).matrix, oracle_string_matrix(p), atol=1e-14)


def test_eta_dense_is_all_x():
    lay = matter_layout(2)
    got = materialize(eta_string(lay)).matrix
    want = oracle_string_matrix(PauliString(lay, x_mask=0b11))
    assert np.allclose(got, want)
    assert np.allclose(got, np.fliplr(np.eye(4)))


def test_sum_materialization_is_linear():
    p = PauliString.single(LAYOUT3, "X", 1)
    q = PauliString(LAYOUT3, 0, 0b110)  # Z2 Z3
    s = PauliSum.from_string(p, 2.0) + PauliSum.from_string(q, -0.5j)
    want = 2.0 * oracle_string_matrix(p) - 0.5j * oracle_string_matrix(q)
    assert np.allclose(materialize(s).matrix, want, atol=1e-14)


def test_hadamard_matches_exponential_form():
    # the gate both equals (X+Z)/sqrt(2) and i exp(-i pi (X+Z) / (2 sqrt 2))
    lay = matter_layout(1)
    h = materialize(CliffordCircuit(lay, (Hadamard(1),))).matrix
    x = oracle_string_matrix(PauliString.single(lay, "X", 1))
    z = oracle_string_matrix(PauliString.single(lay, "Z", 1))
    assert np.allclose(h, (x + z) / math.sqrt(2))
    assert np.allclose(h, 1j * expm(-1j * math.pi / (2 * math.sqrt(2)) * (x + z)))


def test_rotation_matches_expm_oracle():
    axis = PauliString(LAYOUT3, 0, 0b011)  # Z1 Z2
    for sign in (1, -1):
        got = materialize(CliffordCircuit(LAYOUT3,
                                          (QuarterRotation(axis, sign),))).matrix
        want = expm(1j * sign * math.pi / 4 * oracle_string_matrix(axis))
        assert np.allclose(got, want, atol=1e-12)
        assert np.allclose(oracle_gate_matrix(LAYOUT3, QuarterRotation(axis, sign)),
                           want, atol=1e-12)


def test_controlled_and_swap_gates_dense():
    lay = matter_layout(2)
    cx = materialize(CliffordCircuit(lay, (ControlledX(1, 2),))).matrix
    # control is site 1 = bit 0; basis order |q2 q1>
    want_cx = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]],
                       dtype=complex)
    assert np.allclose(cx, want_cx, atol=1e-12)
    cz = materialize(CliffordCircuit(lay, (ControlledZ(1, 2),))).matrix
    assert np.allclose(cz, np.diag([1, 1, 1, -1]), atol=1e-12)
    sw = materialize(CliffordCircuit(lay, (Swap(1, 2),))).matrix
    want_sw = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                       dtype=complex)
    assert np.allclose(sw, want_sw, atol=1e-12)


@pytest.mark.parametrize("build,L", [(build_u1, 3), (build_u2, 3),
                                     (build_u_gauged, 3)])
def test_circuits_materialize_unitary(build, L):
    u = materialize(build(L)).matrix
    assert np.linalg.norm(u.conj().T @ u - np.eye(len(u))) < 1e-10


def oracle_sum_matrix(s: PauliSum) -> np.ndarray:
    dim = s.layout.dim
    return sum((c * oracle_string_matrix(p) for c, p in s),
               np.zeros((dim, dim), dtype=complex))


def rotations(layout):
    """Quarter rotations about signed Hermitian axes whose X masks are
    often multi-bit, non-adjacent and hold the top site."""
    full, top = layout.dim - 1, layout.dim >> 1

    def axis(x, with_top, z, neg):
        x |= top if with_top else 0
        return PauliString(layout, x, z, (x & z).bit_count() % 2 + 2 * neg)
    axes = st.builds(axis, st.integers(0, full), st.booleans(),
                     st.integers(0, full), st.integers(0, 1))
    return st.builds(QuarterRotation, axes, st.sampled_from([1, -1]))


@settings(max_examples=80, deadline=None)
@given(data=st.data(),
       layout=st.sampled_from([matter_layout(6), matter_layout(4),
                               ancilla_layout(5), ancilla_layout(2),
                               link_layout(3), link_layout(2)]))
def test_random_rotation_circuits_match_oracle(data, layout):
    # every flip pattern, diagonal runs and the global phase, against the
    # product of (1 + i t A)/sqrt(2) built from kron chains
    gates = data.draw(st.lists(rotations(layout), max_size=10))
    c = CliffordCircuit(layout, tuple(gates))
    got = materialize(c).matrix
    assert np.max(np.abs(got - oracle_circuit_matrix(c)), initial=0) < 1e-12


@pytest.mark.parametrize("layout", [matter_layout(5), ancilla_layout(4),
                                    link_layout(3)], ids=str)
def test_right_factors_with_shared_x_masks_match_oracle(layout):
    # several terms per X mask, with and without diagonal terms, on one
    # off-diagonal mask, listed before or after the diagonal terms
    n, rng = layout.total_sites, np.random.default_rng(7)
    top = 1 << (n - 1)
    u = CliffordCircuit(layout, (Hadamard(1), ControlledX(2, 1), Swap(1, 3)))
    for masks in ([top | 1], [0], [0, top | 1], [top | 1, 0]):
        terms = [(complex(*rng.normal(size=2)),
                  PauliString(layout, x, int(rng.integers(layout.dim)),
                              int(rng.integers(4))))
                 for x in masks for _ in range(3)]
        s = PauliSum.from_strings(layout, terms)
        assert sorted({p.x_mask for _, p in s}) == sorted(masks)
        want_s = oracle_sum_matrix(s)
        got = materialize(u, s, s).matrix
        assert np.allclose(got, oracle_circuit_matrix(u) @ want_s @ want_s,
                           atol=1e-12)


def _span(masks) -> set[int]:
    """Every XOR of a subset of ``masks``: the X masks a product can reach."""
    span = {0}
    for m in masks:
        span |= {s ^ m for s in span}
    return span


def low_rotations(layout, bits: int):
    """Quarter rotations whose X masks stay on the lowest ``bits`` sites."""
    def axis(x, z, neg):
        return PauliString(layout, x, z, (x & z).bit_count() % 2 + 2 * neg)
    axes = st.builds(axis, st.integers(0, (1 << bits) - 1),
                     st.integers(0, layout.dim - 1), st.integers(0, 1))
    return st.builds(QuarterRotation, axes, st.sampled_from([1, -1]))


def factor_sums(layout, masks):
    """Sums of one or two terms on each X mask in ``masks``."""
    coeff = st.floats(-2, 2, allow_nan=False)

    def on(x):
        return st.builds(lambda z, phase, re, im: (complex(re, im),
                                                   PauliString(layout, x, z, phase)),
                         st.integers(0, layout.dim - 1), st.integers(0, 3),
                         coeff, coeff)
    return st.tuples(*(st.lists(on(x), min_size=1, max_size=2) for x in masks)).map(
        lambda groups: PauliSum.from_strings(layout, [t for g in groups for t in g]))


@settings(max_examples=80, deadline=None)
@given(data=st.data(),
       layout=st.sampled_from([matter_layout(5), ancilla_layout(3), link_layout(2)]),
       where=st.sampled_from(["inside", "outside"]))
def test_circuit_times_factors_in_and_out_of_its_masks_match_oracle(data, layout, where):
    # the circuit's X masks span a strict subspace; each right factor's one
    # mask lies inside it (its column update adds onto nonzero entries) or
    # outside it (onto zeros)
    n = layout.total_sites
    c = CliffordCircuit(layout, tuple(data.draw(
        st.lists(low_rotations(layout, n - 2), max_size=6))))
    span = _span(x for x, _, _ in c.factors)
    inside = sorted(span)
    outside = [m for m in range(layout.dim) if m not in span]
    pick = {"inside": inside, "outside": outside}[where]
    factors = [data.draw(factor_sums(layout, [data.draw(st.sampled_from(pick))]))
               for _ in range(data.draw(st.integers(1, 2)))]
    want = oracle_circuit_matrix(c)
    for f in factors:
        want = want @ oracle_sum_matrix(f)
    got = materialize(c, *factors).matrix
    assert np.max(np.abs(got - want), initial=0) < 1e-12


def _chunked_operators():
    """Operators that take every chunked path (column doubling and the column
    update of a right factor) and the scatter of a sum."""
    return [materialize(build_u1(4)), materialize(build_u_gauged(3)),
            build_d_noninvertible(4, 1), build_d_hat(3, -1),
            materialize(build_hamiltonian(ModelSpec(Family.OPEN_H1, 4))),
            # the fault-injection operator U_gauged (1 + eta) / 2
            materialize(build_u_gauged(3), symmetry_projector(1, ancilla_layout(3)))]


@pytest.mark.parametrize("chunk", [16, 64, 512, 1024])
def test_chunk_size_does_not_change_the_bytes(monkeypatch, chunk):
    # small chunks split matrices of 16 rows into chunks of 1 to 4 rows, and
    # the narrow column blocks of the first doublings into a few chunks, the
    # way chunks split large matrices
    want = [op.matrix.tobytes() for op in _chunked_operators()]
    monkeypatch.setattr(dense, "_CHUNK_BYTES", chunk)
    assert [op.matrix.tobytes() for op in _chunked_operators()] == want


@pytest.mark.parametrize("L", range(2, 7))
@pytest.mark.parametrize("sign", [1, -1])
def test_d_operators_equal_circuit_times_projector(L, sign):
    p = symmetry_projector(sign, matter_layout(L))
    d = build_d_noninvertible(L, sign)
    assert not d.antilinear
    for want in (oracle_circuit_matrix(build_u2(L)) @ oracle_sum_matrix(p),
                 materialize(build_u2(L)).matrix @ materialize(p).matrix):
        assert np.allclose(d.matrix, want, atol=1e-13)
    q = symmetry_projector(sign, ancilla_layout(L), on_ancilla=True)
    u = build_u_gauged(L)
    for antilinear in (False, True):
        d_hat = build_d_hat(L, sign, antilinear)
        assert d_hat.antilinear == antilinear
        for want in (oracle_circuit_matrix(u) @ oracle_sum_matrix(q),
                     materialize(u).matrix @ materialize(q).matrix):
            assert np.allclose(d_hat.matrix, want, atol=1e-13)


@pytest.mark.parametrize("make", [
    lambda: materialize(build_u1(9)),
    lambda: build_d_noninvertible(9, 1), lambda: build_d_noninvertible(9, -1),
    lambda: build_d_hat(8, 1), lambda: build_d_hat(8, -1),
    lambda: materialize(build_u2(10)),
    lambda: materialize(build_hamiltonian(ModelSpec(Family.SELF_DUAL_CLOSED_H2, 9))),
    lambda: materialize(build_hamiltonian(ModelSpec(Family.MINIMAL_GAUGED_HG, 8))),
    lambda: materialize(build_hamiltonian(ModelSpec(Family.FULLY_GAUGED_HG, 4)))],
    ids=["u1-9", "d+9", "d-9", "d_hat+8", "d_hat-8", "u2-10",
         "h2-9", "h_g-8", "h_full-4"])
def test_materialize_peak_is_result_and_one_scratch(make):
    # the result, plus one chunk of rows and vectors of dim entries: one
    # per X mask for a sum
    tracemalloc.start()
    try:
        op = make()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * op.matrix.nbytes


def _column_0(c: CliffordCircuit, psi: np.ndarray) -> np.ndarray:
    """``U psi`` with the oracle gate matrices applied one by one, the last
    gate first."""
    for g in reversed(c.gates):
        psi = oracle_gate_matrix(c.layout, g) @ psi
    return psi


def _check_intertwines(c: CliffordCircuit, ops: dict, sym: PauliString | None):
    """``ops[s] = U (1 + s sym)/2``, or ``{1: U}`` with ``sym`` None: for
    every ``X_j`` and ``Z_j`` ``p``, ``ops[s] p = q ops[s chi]`` on seeded
    random vectors, with ``q = U p U†`` folded by the conftest oracle and
    materialized as a string, and ``chi = -1`` where ``p`` anticommutes with
    ``sym``; and column 0 from the oracle gates applied one by one."""
    layout = c.layout
    rng = np.random.default_rng(layout.total_sites)
    v = rng.normal(size=(layout.dim, 2)) + 1j * rng.normal(size=(layout.dim, 2))
    images = {s: m @ v for s, m in ops.items()}
    n = layout.total_sites
    for p in ([PauliString(layout, 1 << j) for j in range(n)]
              + [PauliString(layout, 0, 1 << j) for j in range(n)]):
        chi = 1 if sym is None or commutes(p, sym) else -1
        pv = materialize(p).matrix @ v
        q = materialize(fold_conjugate(c, p)).matrix
        for s, m in ops.items():
            assert np.max(np.abs(m @ pv - q @ images[s * chi])) < 1e-10, (p, s)
    e0 = np.zeros((layout.dim, len(ops)), dtype=complex)
    e0[0] = 1
    if sym is not None:
        e0 = (e0 + oracle_string_matrix(sym) @ e0 * list(ops)) / 2
    want = _column_0(c, e0)
    for k, m in enumerate(ops.values()):
        assert np.max(np.abs(m[:, 0] - want[:, k])) < 1e-12


def _random_gates(L: int) -> CliffordCircuit:
    """Seeded gates of every kind on ``L`` matter sites.  Unlike the duality
    circuits', the images of its ``X_j`` carry phases and ``Y`` factors."""
    layout, rng = matter_layout(L), np.random.default_rng(L)
    gates = []
    for kind in rng.integers(5, size=4 * L):
        i, j = (int(b) + 1 for b in rng.choice(L, 2, replace=False))
        if kind == 4:
            x, z = (int(m) for m in rng.integers(layout.dim, size=2))
            axis = PauliString(layout, x, z, (x & z).bit_count() % 2)
            gates.append(QuarterRotation(axis, int(rng.choice([1, -1]))))
        else:
            gates.append([Hadamard(i), ControlledX(i, j), ControlledZ(i, j),
                          Swap(i, j)][kind])
    return CliffordCircuit(layout, tuple(gates))


@pytest.mark.parametrize("build,L", [
    (build_u1, 9), (build_u2, 9), (build_u_gauged, 9), (_random_gates, 9),
    (build_u1, 10), (build_u2, 10), (build_u_gauged, 10)],
    ids=["u1-9", "u2-9", "u-gauged-9", "random-9", "u1-10", "u2-10",
         "u-gauged-10"])
def test_large_circuits_intertwine_every_generator(build, L):
    # past the sizes of the kron oracle: U p = (U p U†) U for every X_j, Z_j
    c = build(L)
    _check_intertwines(c, {1: materialize(c).matrix}, None)


@pytest.mark.parametrize("L", [8, 9])
def test_large_d_operators_intertwine_every_generator(L):
    # D± = U2 (1 ± eta)/2 and D̂± = U_gauged (1 ± Z_{L+1})/2: a generator
    # that anticommutes with the symmetry swaps the sign
    _check_intertwines(build_u2(L), {s: build_d_noninvertible(L, s).matrix
                                     for s in (1, -1)},
                       eta_string(matter_layout(L)))
    layout = ancilla_layout(L)
    _check_intertwines(build_u_gauged(L), {s: build_d_hat(L, s).matrix
                                           for s in (1, -1)},
                       PauliString.single(layout, "Z", "L+1"))


def test_right_factor_on_another_layout_rejected():
    # same dimension, so only the layout check can catch it
    other = symmetry_projector(1, ancilla_layout(2), on_ancilla=True)
    with pytest.raises(ValueError, match="different layout"):
        materialize(build_u2(3), other)


def test_right_factor_on_a_string_or_sum_rejected():
    p = symmetry_projector(1, LAYOUT3)
    for left in (eta_string(LAYOUT3), p):
        with pytest.raises(ValueError, match="circuit only"):
            materialize(left, p)


def test_right_factor_with_two_off_diagonal_masks_rejected():
    s = PauliSum.from_strings(LAYOUT3, [(1.0, PauliString(LAYOUT3, 0b001)),
                                        (0.5, PauliString(LAYOUT3, 0b110)),
                                        (2.0, PauliString(LAYOUT3))])
    with pytest.raises(ValueError, match="more than one nonzero X mask"):
        materialize(build_u2(3), symmetry_projector(1, LAYOUT3), s)


# -- dimension caps -------------------------------------------------------------

def test_string_cap_enforced():
    lay = matter_layout(DENSE_SITE_LIMIT + 1)
    with pytest.raises(DimensionCapError):
        materialize(PauliString.single(lay, "X", 1))


def test_circuit_cap_enforced():
    with pytest.raises(DimensionCapError):
        materialize(build_u1(DENSE_SITE_LIMIT + 1))


def test_sum_cap_enforced_before_allocation():
    h = build_hamiltonian(ModelSpec(Family.SELF_DUAL_CLOSED_H2,
                                    DENSE_SITE_LIMIT + 1))
    tracemalloc.start()
    try:
        with pytest.raises(DimensionCapError, match="dense limit"):
            materialize(h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # one matrix at this size is 1 GiB


def test_eigensolve_limit_enforced_before_any_sweep():
    with pytest.raises(DimensionCapError, match="eigensolve limit"):
        hermitian_eigensolve(np.eye(2 << EIGENSOLVE_SITE_LIMIT))


# -- eigensolver ----------------------------------------------------------------

SQRT2 = math.sqrt(2.0)


def test_open_chain_spectrum_L2():
    op = materialize(build_hamiltonian(ModelSpec(Family.OPEN_H1, 2)))
    res = hermitian_eigensolve(op)
    assert np.allclose(res.eigenvalues, [-SQRT2, -SQRT2, SQRT2, SQRT2], atol=1e-12)


def test_self_dual_closed_spectrum_L2():
    op = materialize(build_hamiltonian(ModelSpec(Family.SELF_DUAL_CLOSED_H2, 2)))
    res = hermitian_eigensolve(op)
    assert np.allclose(res.eigenvalues, [-2 * SQRT2, 0.0, 0.0, 2 * SQRT2],
                       atol=1e-12)
    assert res.residual < 1e-12 * op.dim


def test_eigensolver_on_random_hermitian_vs_lapack():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 33))
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m = (m + m.conj().T) / 2
        res = hermitian_eigensolve(DenseOperator(m))
        worst = max(worst, float(np.max(np.abs(
            res.eigenvalues - np.linalg.eigvalsh(m)))))
        recon = (res.eigenvectors * res.eigenvalues) @ res.eigenvectors.conj().T
        assert np.linalg.norm(recon - m) < 1e-9
        assert np.linalg.norm(res.eigenvectors.conj().T @ res.eigenvectors
                              - np.eye(n)) < 1e-10
    assert worst < 1e-8


def test_eigensolver_exact_on_degenerate_diagonal():
    m = np.diag([2.0, -1.0, 2.0, -1.0, 2.0]).astype(complex)
    res = hermitian_eigensolve(DenseOperator(m))
    assert np.array_equal(res.eigenvalues, [-1.0, -1.0, 2.0, 2.0, 2.0])
    assert res.residual == 0.0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0]), min_size=1,
                max_size=24), st.integers(0, 2**32 - 1))
def test_eigensolver_on_rotated_degenerate_spectra(lam, seed):
    # repeated and sign-symmetric eigenvalues, like the chains' spectra, in a
    # dense basis, so the pairs take rotations
    rng = np.random.default_rng(seed)
    n = len(lam)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    a = (q * lam) @ q.conj().T
    res = hermitian_eigensolve(a)
    v = res.eigenvectors
    # a block stops at an off-diagonal norm relative to the trace of its
    # form, which the rebuild carries, so both bounds scale with |A|
    tol = 1e-12 * max(1.0, np.linalg.norm(a))
    assert np.max(np.abs(res.eigenvalues - np.sort(lam))) < tol
    assert np.linalg.norm(v.conj().T @ v - np.eye(n)) < 1e-12
    assert np.linalg.norm((v * res.eigenvalues) @ v.conj().T - a) < tol


def _random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


def test_eigensolver_on_permuted_blocks_vs_lapack():
    rng = np.random.default_rng(5)
    m = block_diag(*(_random_hermitian(rng, n) for n in (5, 9, 3)))
    perm = rng.permutation(m.shape[0])
    m = m[np.ix_(perm, perm)]
    res = hermitian_eigensolve(m)
    assert np.max(np.abs(res.eigenvalues - np.linalg.eigvalsh(m))) < 1e-12
    # _blocks order: by smallest index after the permutation
    first = {np.flatnonzero((perm >= lo) & (perm < lo + n))[0]: n
             for lo, n in ((0, 5), (5, 9), (14, 3))}
    assert res.block_sizes == tuple(first[k] for k in sorted(first))
    v = res.eigenvectors
    assert np.linalg.norm(v.conj().T @ v - np.eye(17)) < 1e-12
    assert np.linalg.norm((v * res.eigenvalues) @ v.conj().T - m) < 1e-12
    assert res.residual < 1e-12


def test_blocks_follow_symmetrized_pattern(monkeypatch):
    # blocks {0, 2} and {1, 3} are joined only by a[1, 2], whose mirror a[2, 1]
    # is zero: Hermitian within is_hermitian's tolerance, pattern asymmetric
    a = np.array([[1.0, 0, 0.5, 0], [0, -2.0, 1e-12, 0.25],
                  [0.5, 0, 3.0, 0], [0, 0.25, 0, 4.0]], dtype=complex)
    seen = []
    blocks = dense._blocks
    monkeypatch.setattr(dense, "_blocks",
                        lambda pattern: seen.append(blocks(pattern)) or seen[-1])
    res = hermitian_eigensolve(a)
    got = seen[0]
    assert sorted(np.concatenate(got).tolist()) == list(range(4))
    count, labels = connected_components(a != 0, directed=True,
                                         connection="weak")
    assert sorted(sorted(b.tolist()) for b in got) == sorted(
        np.flatnonzero(labels == k).tolist() for k in range(count))
    herm = (a + a.conj().T) / 2
    assert np.max(np.abs(res.eigenvalues - np.linalg.eigvalsh(herm))) < 1e-11


def test_blocks_of_an_empty_pattern_are_none():
    assert dense._blocks(np.zeros((0, 0), dtype=bool)) == []


@settings(max_examples=50)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_blocks_are_components_in_order_of_their_smallest_index(n, seed):
    a = np.random.default_rng(seed).random((n, n)) < 0.15
    pattern = a | a.T
    count, labels = connected_components(pattern, directed=False)
    want = sorted((np.flatnonzero(labels == k).tolist() for k in range(count)),
                  key=lambda b: b[0])
    assert [b.tolist() for b in dense._blocks(pattern)] == want


def test_sweep_cap_applies_to_each_block(monkeypatch):
    monkeypatch.setattr(dense, "JACOBI_SWEEP_CAP", 0)
    m = block_diag(np.diag([1.0, 2.0]), [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ConvergenceError):
        hermitian_eigensolve(m)
    assert hermitian_eigensolve(np.diag([1.0, 2.0])).sweeps == 0


def test_convergence_error_names_block_size_misses_and_worst_norm(monkeypatch):
    monkeypatch.setattr(dense, "JACOBI_SWEEP_CAP", 0)
    # a stack of three 2x2 blocks, one already below its target
    m = block_diag([[0.0, 1.0], [1.0, 0.0]], [[1.0, 1e-20], [1e-20, 2.0]],
                   [[0.0, 3.0], [3.0, 0.0]])
    # the worst block is H + |H|_F I for H = [[0, 3], [3, 0]]: its form B^2
    # has off-diagonal norm 36 and trace |B|_F^2 = 54, its target 2e-15 of that
    with pytest.raises(ConvergenceError,
                       match=r"2 of 3 blocks of size 2 .* norm 3\.600e\+01 "
                             r"against a target of 1\.080e-13$"):
        hermitian_eigensolve(m)


@pytest.mark.parametrize("n", range(1, 21))
def test_round_robin_schedule_covers_each_pair_once(n):
    turn = dense._turn(n)
    m = n + (n & 1)
    assert sorted(turn.tolist()) == list(range(m))
    order, pairs = np.arange(m), []
    for _ in range(m - 1):  # a round pairs positions i and m/2 + i
        p, q = order[:m // 2], order[m // 2:]
        assert len(set(p.tolist()) | set(q.tolist())) == m  # disjoint
        pairs += [(min(a, b), max(a, b)) for a, b in zip(p.tolist(), q.tolist())
                  if max(a, b) < n]  # drops the bye's pair
        order = order[turn]
    assert np.array_equal(order, np.arange(m))  # one sweep of turns
    assert sorted(pairs) == [(i, j) for i in range(n) for j in range(i + 1, n)]


@pytest.mark.parametrize("n", range(1, 34))
def test_eigensolver_every_size_vs_lapack(n):
    m = _random_hermitian(np.random.default_rng(100 + n), n)
    res = hermitian_eigensolve(m)
    v = res.eigenvectors
    assert np.max(np.abs(res.eigenvalues - np.linalg.eigvalsh(m))) < 1e-12
    assert np.linalg.norm(v.conj().T @ v - np.eye(n)) < 1e-12
    assert np.linalg.norm((v * res.eigenvalues) @ v.conj().T - m) < 1e-12
    assert res.block_sizes == (n,)


def _jacobi(stack):
    """Eigenvalues ``Re <v_p, A v_p>`` in diagonal order, eigenvector
    columns and sweeps of each block of a stack of Hermitian blocks, solved
    together by ``dense._solve_blocks`` as the eigensolve does: on
    ``H + |H|_F I`` for each Hermitian part ``H``."""
    herm = [0.5 * (a + a.conj().T) for a in stack]
    solved = dense._solve_blocks([h + np.linalg.norm(h) * np.eye(len(h))
                                  for h in herm])
    return (np.stack([np.vecdot(v, a @ v, axis=0).real
                      for a, (_, v, _) in zip(stack, solved)]),
            np.stack([v for _, v, _ in solved]),
            np.array([took for _, _, took in solved]))


def test_stack_solve_equals_block_by_block():
    rng = np.random.default_rng(17)
    stack = np.stack([_random_hermitian(rng, 9) for _ in range(6)])
    stack[2] *= 1e-3  # converges in another number of sweeps
    vals, vecs, sweeps = _jacobi(stack)
    alone = [_jacobi(block[None]) for block in stack]
    for k, (val, vec, _) in enumerate(alone):
        assert np.max(np.abs(vals[k] - val[0])) < 1e-12
        assert np.max(np.abs(vecs[k] - vec[0])) < 1e-12
    assert sweeps.max() == max(s.max() for _, _, s in alone)


def test_converged_block_leaves_the_stack(monkeypatch):
    rng = np.random.default_rng(23)
    near_diag = np.diag(np.arange(6.0)).astype(complex)
    near_diag[0, 1] = near_diag[1, 0] = 1e-9  # one sweep reaches the target
    stack = np.stack([near_diag, _random_hermitian(rng, 6)])
    sizes = []
    angles = dense._angles  # called once per round, on the live blocks
    monkeypatch.setattr(dense, "_angles", lambda c, *rest:
                        sizes.append(c.shape[1]) or angles(c, *rest))
    sweeps = int(_jacobi(stack)[2].max())
    rounds = len(dense._turn(6)) - 1
    assert sweeps > 2 and sizes == [2] * rounds + [1] * (sweeps - 1) * rounds


def test_diagonal_block_in_stack_is_exact():
    rng = np.random.default_rng(3)
    diag = np.diag([2.0, -1.0, 2.0, 0.5, -3.0]).astype(complex)
    # only the pair (3, 4) is coupled: every other pair takes the skip path
    sparse = np.diag([1.0, -2.0, 4.0, 0.0, 0.0]).astype(complex)
    sparse[3:, 3:] = _random_hermitian(rng, 2)
    stack = np.stack([diag, _random_hermitian(rng, 5), sparse])
    vals, vecs, _ = _jacobi(stack)
    assert np.array_equal(vals[0], np.diag(diag).real)
    assert np.array_equal(vecs[0], np.eye(5))
    assert np.array_equal(vals[2, :3], [1.0, -2.0, 4.0])
    assert np.array_equal(vecs[2][:, :3], np.eye(5)[:, :3])


def test_blocks_far_apart_in_scale_meet_their_own_targets():
    rng = np.random.default_rng(29)
    stack = np.stack([1e6 * _random_hermitian(rng, 8),
                      1e-6 * _random_hermitian(rng, 8)])
    vals, vecs, _ = _jacobi(stack)
    for block, val, vec in zip(stack, vals, vecs):
        scale = np.linalg.norm(block)
        assert np.max(np.abs(np.sort(val) - np.linalg.eigvalsh(block))) < 1e-13 * scale
        assert np.linalg.norm((vec * val) @ vec.conj().T - block) < 1e-13 * scale


def test_rotated_h_full_is_one_stack(monkeypatch):
    calls = _record_jacobi(monkeypatch)
    h = eigensolve_hamiltonian(ModelSpec(Family.FULLY_GAUGED_HG, 4))
    res = hermitian_eigensolve(materialize(h))
    assert [stack.shape for stack, _ in calls] == [(32, 8, 8)]
    assert res.block_sizes == (8,) * 32
    m = materialize(h).matrix
    assert np.max(np.abs(res.eigenvalues - np.linalg.eigvalsh(m))) < 1e-12


def _record_jacobi(monkeypatch):
    """Patch the kernel to record each eigensolve stack it solves: the
    blocks ``B`` of its rows ``[B e_p | e_p]``, and the eigenvector columns
    and sweeps it leaves."""
    calls = []
    kernel = dense._one_sided_jacobi

    def record(stack, rows):
        blocks = stack[:, :, :rows].transpose(0, 2, 1).copy()
        took = kernel(stack, rows)
        calls.append((blocks, (stack[:, :, rows:].transpose(0, 2, 1), took)))
        return took
    monkeypatch.setattr(dense, "_one_sided_jacobi", record)
    return calls


def test_padded_class_matches_each_block_alone(monkeypatch):
    rng = np.random.default_rng(31)
    ops = [_random_hermitian(rng, n) for n in (9, 12, 16)]
    alone = [hermitian_eigensolve(a) for a in ops]
    calls = _record_jacobi(monkeypatch)
    batch = hermitian_eigensolve_all(ops)
    (stack, (vecs, _)), = calls
    assert stack.shape == (3, 16, 16)
    for a, got, want, block, vec in zip(ops, batch, alone, stack, vecs):
        n = len(a)
        # each block is solved as the SVD of the PSD A + |A|_F I
        assert np.array_equal(block[:n, :n], a + np.linalg.norm(a) * np.eye(n))
        assert not block[n:].any() and not block[:, n:].any()
        assert not vec[n:, :n].any()  # the pad entries are exactly 0
        assert np.max(np.abs(got.eigenvalues - want.eigenvalues)) < 1e-12
        assert np.max(np.abs(got.eigenvalues - np.linalg.eigvalsh(a))) < 1e-12
        v = got.eigenvectors
        assert np.linalg.norm(v.conj().T @ v - np.eye(n)) < 1e-12
        assert np.linalg.norm((v * got.eigenvalues) @ v.conj().T - a) < 1e-12
        assert got.residual < 1e-12 and got.block_sizes == (n,)


@pytest.mark.parametrize("hermitian", [True, False])
def test_size_class_solves_each_block_as_alone(monkeypatch, hermitian):
    # sizes 9, 12 and 16 share one class padded to 16; each block, one far
    # smaller, comes out as from a stack of its own at that size
    rng = np.random.default_rng(47)
    blocks = [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
              for n in (9, 12, 16)]
    if hermitian:
        blocks = [0.5 * (a + a.conj().T) for a in blocks]
    blocks[1] = 1e-3 * blocks[1]
    padded = [np.pad(a, (0, 16 - len(a))) for a in blocks]
    alone = [dense._solve_blocks([a])[0] for a in padded]
    stacks = []
    kernel = dense._one_sided_jacobi
    monkeypatch.setattr(dense, "_one_sided_jacobi", lambda stack, *rest:
                        stacks.append(stack) or kernel(stack, *rest))
    solved = dense._solve_blocks(blocks)
    stack, = stacks
    assert stack.shape == (3, 16, 32)
    for a, (av, v, took), (av1, v1, took1), block in zip(blocks, solved,
                                                         alone, stack):
        n = len(a)
        assert np.max(np.abs(av - av1[:n, :n])) < 1e-12
        assert np.max(np.abs(v - v1[:n, :n])) < 1e-12
        assert took == took1
        pad_v = block[:, 16:].T  # V, pad rows and columns included
        assert not pad_v[n:, :n].any() and not pad_v[:n, n:].any()


def test_equal_size_class_is_the_unpadded_stack():
    rng = np.random.default_rng(37)
    ops = [_random_hermitian(rng, 9) for _ in range(3)]
    ops[1] = block_diag(ops[1], _random_hermitian(rng, 9))  # two blocks
    vals, vecs, _ = _jacobi(np.stack([ops[0], ops[1][:9, :9],
                                      ops[1][9:, 9:], ops[2]]))
    got = hermitian_eigensolve_all(ops)
    for res, k in zip((got[0], got[2]), (0, 3)):
        order = np.argsort(vals[k], kind="stable")
        assert np.array_equal(res.eigenvalues, vals[k][order])
        assert np.array_equal(res.eigenvectors, vecs[k][:, order])
    both = np.concatenate([vals[1], vals[2]])
    order = np.argsort(both, kind="stable")
    assert np.array_equal(got[1].eigenvalues, both[order])
    assert np.array_equal(got[1].eigenvectors,
                          block_diag(vecs[1], vecs[2])[:, order])


def test_size_classes_keep_singletons_and_lone_blocks_unpadded(monkeypatch):
    rng = np.random.default_rng(41)
    calls = _record_jacobi(monkeypatch)
    res = hermitian_eigensolve(block_diag(np.diag([3.0, -1.0, 2.0]),
                                          _random_hermitian(rng, 64)))
    assert sorted(stack.shape for stack, _ in calls) == [(1, 64, 64)]
    assert res.block_sizes == (1, 1, 1, 64)
    calls.clear()
    hermitian_eigensolve_all([_random_hermitian(rng, 33),
                              _random_hermitian(rng, 20)])
    assert sorted(stack.shape for stack, _ in calls) == [(1, 20, 20),
                                                         (1, 33, 33)]


def test_eigensolve_never_stacks_a_lone_block(monkeypatch):
    # a block of one column takes no rotation: its eigenpair is the input's
    # diagonal entry and unit vector, and only the block of 64 is stacked
    rng = np.random.default_rng(53)
    a = block_diag(np.diag([3.0, -1.0, 2.0]), _random_hermitian(rng, 64))
    shapes = []
    kernel = dense._one_sided_jacobi
    monkeypatch.setattr(dense, "_one_sided_jacobi", lambda stack, *rest:
                        shapes.append(stack.shape) or kernel(stack, *rest))
    res = hermitian_eigensolve(a)
    assert [shape[:2] for shape in shapes] == [(1, 64)]
    for p in range(3):
        col, = np.flatnonzero(res.eigenvectors[p])
        assert np.array_equal(res.eigenvectors[:, col], np.eye(67)[:, p])
        assert np.array_equal(res.eigenvalues[col], a[p, p])
    assert res.block_sizes == (1, 1, 1, 64)


def test_eigensolve_hands_the_kernel_psd_blocks(monkeypatch):
    # every block is solved as the SVD of a positive semi-definite one, whose
    # right singular vectors are the eigenvectors; the inputs are indefinite
    rng = np.random.default_rng(59)
    ops = [_random_hermitian(rng, n) for n in (2, 7, 16)]
    ops.append(block_diag(_random_hermitian(rng, 5), np.diag([-3.0, 2.0])))
    ops += [materialize(eigensolve_hamiltonian(ModelSpec(family, 3)))
            for family in Family]
    seen = []
    solve = dense._solve_blocks
    monkeypatch.setattr(dense, "_solve_blocks", lambda blocks:
                        seen.extend(blocks) or solve(blocks))
    results = hermitian_eigensolve_all(ops)
    assert len(seen) == sum(len(res.block_sizes) for res in results)
    for block in seen:
        assert np.array_equal(block, block.conj().T)
        assert np.linalg.eigvalsh(block).min() >= -1e-12 * np.linalg.norm(block)


def test_sweeps_count_only_the_operators_own_blocks(monkeypatch):
    rng = np.random.default_rng(43)
    # one block of 12, joined by couplings far below its target
    near_diag = np.diag(np.arange(12.0)) + 1e-20 * (np.eye(12, k=1)
                                                    + np.eye(12, k=-1))
    dense_op = _random_hermitian(rng, 12)
    calls = _record_jacobi(monkeypatch)
    diag, near, full = hermitian_eigensolve_all(
        [np.diag([2.0, 1.0, 5.0]), near_diag, dense_op])
    assert [stack.shape for stack, _ in calls] == [(2, 12, 12)]
    took = calls[0][1][1]
    assert took.tolist() == [0, took.max()] and took.max() > 2
    assert diag.sweeps == 0 and near.sweeps == 0
    assert full.sweeps == took.max() == hermitian_eigensolve(dense_op).sweeps
    assert np.array_equal(diag.eigenvalues, [1.0, 2.0, 5.0])


def test_residual_is_the_whole_matrix_residual():
    # taken per block, it is the largest |A v - lambda v| over the whole input
    rng = np.random.default_rng(47)
    m = block_diag(*(_random_hermitian(rng, n) for n in (5, 9, 3, 9)))
    perm = rng.permutation(len(m))
    for a in (m[np.ix_(perm, perm)], np.diag([3.0, -1.0, 2.0]),
              materialize(eigensolve_hamiltonian(
                  ModelSpec(Family.FULLY_GAUGED_HG, 4))).matrix):
        res = hermitian_eigensolve(a)
        v, w = res.eigenvectors, res.eigenvalues
        want = float(np.max(np.linalg.norm(a @ v - v * w, axis=0)))
        assert abs(res.residual - want) <= 1e-15 * max(1.0, np.linalg.norm(a))


def test_eigensolver_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eigensolve(np.array([[0.0, 1.0], [0.0, 0.0]]))


# -- antilinear operators -------------------------------------------------------

def test_antilinear_apply_conjugates_first():
    k = DenseOperator(np.eye(2), antilinear=True)
    psi = np.array([1.0, 1.0j])
    assert np.allclose(k.apply(psi), [1.0, -1.0j])


# -- random states and transition experiments ---------------------------------------

def test_random_state_deterministic_and_normalized():
    a, b = random_state(16, 7), random_state(16, 7)
    c = random_state(16, 8)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert abs(a.norm - 1.0) < 1e-14
    assert np.linalg.norm(a.amplitudes - c.amplitudes) > 0.1


def test_unitary_preserves_transition_probabilities():
    u = materialize(build_u2(3))
    pairs = [(random_state(8, s), random_state(8, s + 100)) for s in range(20)]
    assert transition_experiment(u, pairs)["max_deviation"] < 1e-12


def test_antiunitary_preserves_transition_probabilities():
    u = DenseOperator(materialize(build_u2(3)).matrix, antilinear=True)
    pairs = [(random_state(8, s), random_state(8, s + 100)) for s in range(20)]
    assert transition_experiment(u, pairs)["max_deviation"] < 1e-12


def _transitions_pair_by_pair(d, pairs):
    """The transition experiment one pair at a time, each vector applied
    alone: the oracle for the batched products."""
    rows = []
    for alpha, beta in pairs:
        a, b = alpha.amplitudes, beta.amplitudes
        ta, tb = d.apply(a), d.apply(b)
        p_ref = abs(np.vdot(a, b) if d.antilinear else np.vdot(b, a)) ** 2
        rows.append((abs(np.vdot(tb, ta)) ** 2, p_ref))
    return rows


@pytest.mark.parametrize("antilinear", [False, True])
def test_batched_transitions_match_pair_by_pair(antilinear):
    rng = np.random.default_rng(19)
    m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    d = DenseOperator(m / np.linalg.norm(m, 2), antilinear)  # a contraction
    pairs = [(random_state(16, s), random_state(16, s + 100)) for s in range(12)]
    rep = transition_experiment(d, pairs)
    want = _transitions_pair_by_pair(d, pairs)
    assert len(rep["pairs"]) == len(want)
    for row, (p_t, p_ref) in zip(rep["pairs"], want):
        # probabilities at most 1: a few roundings of a double apart
        assert abs(row["p_transformed"] - p_t) < 1e-15
        assert abs(row["p_reference"] - p_ref) < 1e-15
        assert row["deviation"] == abs(row["p_transformed"] - row["p_reference"])
    assert rep["max_deviation"] == max(r["deviation"] for r in rep["pairs"])


def test_transitions_without_pairs_and_on_a_wrong_dimension():
    d = DenseOperator(np.eye(4))
    assert transition_experiment(d, []) == {"pairs": [], "max_deviation": 0.0}
    with pytest.raises(ValueError, match="dimension mismatch"):
        transition_experiment(d, [(random_state(4, 0), random_state(4, 1)),
                                  (random_state(4, 2), random_state(8, 3))])


def test_projector_violates_transition_probabilities():
    p = np.zeros((4, 4))
    p[0, 0] = 1.0
    pairs = [(random_state(4, s), random_state(4, s + 50)) for s in range(20)]
    assert transition_experiment(DenseOperator(p), pairs)["max_deviation"] > 0.05


# -- dumps -------------------------------------------------------------------------

def test_binary_dump_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    path = tmp_path / "m.bin"
    write_dense_binary(path, m)
    assert np.array_equal(read_dense_binary(path), m)
    assert path.read_bytes()[:8] == b"WLDENSE1"


def test_binary_dump_roundtrip_is_bit_exact(tmp_path):
    bits = np.array([0x8000000000000000, 0x3FF0000000000000,   # -0.0, 1.0
                     0x0000000000000000, 0x7FF0000000000000,   # 0.0, inf
                     0xFFF0000000000000, 0x7FF8000000000001,   # -inf, quiet nan
                     0xFFF8000000000abc, 0x7FF0000000000001,   # payloads, signalling
                     0x0000000000000001, 0x8000000000000000],  # denormal, -0.0
                    dtype=np.uint64)
    m = bits.view(np.complex128).reshape(5, 1)
    path = tmp_path / "m.bin"
    for shape in ((5, 1), (1, 5)):
        write_dense_binary(path, m.reshape(shape))
        got = read_dense_binary(path)
        assert got.shape == shape and got.flags.writeable
        assert np.array_equal(got.view(np.uint64), m.reshape(shape).view(np.uint64))
    write_dense_binary(path, m.reshape(-1))  # a vector is one column
    assert read_dense_binary(path).shape == (5, 1)


def test_binary_dump_golden_bytes(tmp_path):
    m = np.array([[1 + 2j, complex(-0.0, -1.0)], [0.5, complex(0, np.inf)]])
    golden = bytes.fromhex(
        "574c44454e534531" "02000000" "02000000"      # WLDENSE1, rows, cols
        "000000000000f03f" "0000000000000040"         # 1 + 2j
        "0000000000000080" "000000000000f0bf"         # -0 - 1j
        "000000000000e03f" "0000000000000000"         # 0.5 + 0j
        "0000000000000000" "000000000000f07f")        # 0 + inf j
    path = tmp_path / "m.bin"
    write_dense_binary(path, m)
    assert path.read_bytes() == golden
    got = read_dense_binary(path)
    assert np.array_equal(got.view(np.uint64), m.view(np.uint64))


def test_csv_dump_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    path = tmp_path / "m.csv"
    write_dense_csv(path, m)
    assert np.array_equal(read_dense_csv(path), m)


def _csv_text_cell_by_cell(m) -> str:
    """The CSV text written one cell at a time: the reference for the
    vectorized writer."""
    return "".join(",".join(f"{float(v.real)!r};{float(v.imag)!r}" for v in row)
                   + "\n" for row in np.atleast_2d(np.asarray(m, dtype=complex)))


@pytest.mark.parametrize("shape", [(10, 1), (1, 10), (2, 5), (5, 2)])
def test_csv_dump_roundtrip_is_bit_exact(tmp_path, shape):
    bits = np.array([0x8000000000000000, 0x0000000000000000,   # -0.0, 0.0
                     0x0000000000000001, 0x8000000000000001,   # smallest subnormals
                     0x000FFFFFFFFFFFFF, 0x0010000000000000,   # largest subnormal, smallest normal
                     0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF,   # +-largest finite
                     0x7FF0000000000000, 0xFFF0000000000000,   # +-inf
                     0x3FB999999999999A, 0x3FD5555555555555,   # 0.1, 1/3
                     0x44B52D02C7E14AF6, 0x0031FA182C40C60D,   # 1e23, 1e-307
                     0xC34FFFFFFFFFFFFF, 0x4340000000000001,   # near 2^53
                     0x1, 0x7FE0000000000000, 0xBFF0000000000000, 0x3FF0000000000000],
                    dtype=np.uint64)
    m = bits.view(np.complex128).reshape(shape)
    path = tmp_path / "m.csv"
    write_dense_csv(path, m)
    assert path.read_text() == _csv_text_cell_by_cell(m)
    got = read_dense_csv(path)
    assert got.shape == shape
    assert np.array_equal(got.view(np.uint64), m.view(np.uint64))


def test_csv_dump_vector_and_empty_shapes(tmp_path):
    path = tmp_path / "m.csv"
    for m in (np.arange(3) + 0.5j, np.zeros((2, 0)), np.zeros((0, 3))):
        write_dense_csv(path, m)
        assert path.read_text() == _csv_text_cell_by_cell(m)
    write_dense_csv(path, np.arange(3) + 0.5j)  # a vector is one row
    assert read_dense_csv(path).shape == (1, 3)


@pytest.mark.parametrize("text", ["1.0;2.0,3.0;4.0\n5.0;6.0\n", "1.0;2.0;3.0\n",
                                  "1.0,2.0\n", "1.0;x\n",
                                  "1.0;2.0,3.0;4.0\n1;2;3,4\n"],
                         ids=["ragged", "three-parts", "no-imaginary", "not-a-float",
                              "separators-right-per-line-wrong-per-cell"])
def test_csv_read_rejects_malformed_cells(tmp_path, text):
    path = tmp_path / "m.csv"
    path.write_text(text)
    with pytest.raises(ValueError):
        read_dense_csv(path)


def test_binary_dump_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 8)
    with pytest.raises(ValueError):
        read_dense_binary(path)


@pytest.mark.parametrize("edit", [lambda b: b[:-16], lambda b: b + bytes(16),
                                  lambda b: b[:12]],
                         ids=["truncated", "trailing", "short-header"])
def test_binary_dump_rejects_length_not_matching_header(tmp_path, edit):
    path = tmp_path / "m.bin"
    write_dense_binary(path, np.eye(3, dtype=complex))
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ValueError, match="header"):
        read_dense_binary(path)
