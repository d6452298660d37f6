"""Symbolic Clifford conjugation checked gate-by-gate against dense unitary
conjugation and the compiled tableau against the per-string rotation fold,
plus the three duality-circuit generator tables."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (fold_conjugate, oracle_circuit_matrix,
                      oracle_gate_matrix, oracle_string_matrix)
from wignerlab import clifford
from wignerlab.clifford import (CliffordCircuit, ControlledX, ControlledZ,
                                DualityMap, Hadamard, QuarterRotation, Swap,
                                build_u1, build_u2, build_u_gauged,
                                conjugate_circuit, conjugate_gate,
                                conjugate_sum, phi1_table, phi2_table,
                                phi_gauged_table, verify_automorphism)
from wignerlab.dense import materialize
from wignerlab.models import Family, ModelSpec, build_hamiltonian
from wignerlab.pauli import (HilbertLayout, PauliString, PauliSum,
                             ancilla_layout, link_layout, matter_layout, mul)

LAYOUT3 = matter_layout(3)


def strings(layout=LAYOUT3):
    full = layout.dim - 1
    return st.builds(PauliString, st.just(layout),
                     st.integers(0, full), st.integers(0, full),
                     st.integers(0, 3))


def hermitian_axes(layout=LAYOUT3):
    full = layout.dim - 1
    return st.builds(
        lambda x, z: PauliString(layout, x, z, (x & z).bit_count() % 2),
        st.integers(0, full), st.integers(0, full))


GATES3 = [
    Hadamard(2),
    ControlledX(2, 1), ControlledX(1, 3),
    ControlledZ(1, 2), ControlledZ(3, 1),
    Swap(1, 3),
]


@pytest.mark.parametrize("gate", GATES3, ids=str)
@settings(max_examples=60)
@given(p=strings())
def test_gate_conjugation_matches_dense(gate, p):
    u = oracle_gate_matrix(LAYOUT3, gate)
    got = oracle_string_matrix(conjugate_gate(gate, p))
    want = u @ oracle_string_matrix(p) @ u.conj().T
    assert np.allclose(got, want, atol=1e-12)


@settings(max_examples=60)
@given(axis=hermitian_axes(), sign=st.sampled_from([1, -1]), p=strings())
def test_rotation_conjugation_matches_dense(axis, sign, p):
    gate = QuarterRotation(axis, sign)
    u = oracle_gate_matrix(LAYOUT3, gate)
    got = oracle_string_matrix(conjugate_gate(gate, p))
    want = u @ oracle_string_matrix(p) @ u.conj().T
    assert np.allclose(got, want, atol=1e-12)


def test_rotation_rejects_non_hermitian_axis():
    bad = mul(PauliString.single(LAYOUT3, "X", 1), PauliString.single(LAYOUT3, "Z", 1))
    with pytest.raises(ValueError):
        QuarterRotation(PauliString(LAYOUT3, bad.x_mask, bad.z_mask, 0), 1)


@settings(max_examples=60)
@given(p=strings())
def test_hadamard_and_swap_are_involutions(p):
    for g in (Hadamard(1), Swap(2, 3)):
        assert conjugate_gate(g, conjugate_gate(g, p)) == p


@settings(max_examples=60)
@given(axis=hermitian_axes(), p=strings())
def test_rotation_signs_are_mutually_inverse(p, axis):
    plus, minus = QuarterRotation(axis, 1), QuarterRotation(axis, -1)
    assert conjugate_gate(minus, conjugate_gate(plus, p)) == p


# -- circuits ---------------------------------------------------------------

def all_gates3(L):
    """Every gate of GATES3 and a quarter rotation, in one circuit."""
    layout = matter_layout(L)
    axis = mul(PauliString.single(layout, "X", 1), PauliString.single(layout, "Y", 3))
    return CliffordCircuit(layout, (*GATES3, QuarterRotation(axis, -1)))


@pytest.mark.parametrize("build,L", [(build_u1, 4), (build_u2, 3),
                                     (build_u_gauged, 3), (all_gates3, 3)])
def test_circuit_conjugation_matches_dense(build, L):
    c = build(L)
    layout = c.layout
    u = oracle_circuit_matrix(c)
    # the dense circuit is the oracle product, global phase included
    assert np.allclose(materialize(c).matrix, u, atol=1e-12)
    rng = np.random.default_rng(5)
    full = layout.dim - 1
    for _ in range(25):
        p = PauliString(layout, int(rng.integers(0, full + 1)),
                        int(rng.integers(0, full + 1)), int(rng.integers(0, 4)))
        got = oracle_string_matrix(conjugate_circuit(c, p))
        want = u @ oracle_string_matrix(p) @ u.conj().T
        assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("build,table", [(build_u1, phi1_table),
                                         (build_u2, phi2_table),
                                         (build_u_gauged, phi_gauged_table)])
@pytest.mark.parametrize("L", [2, 3, 5, 16])
def test_duality_tables_pass(build, table, L):
    assert verify_automorphism(build(L), table(L))["passed"]


def test_wrong_table_fails():
    # negative control: the first duality circuit is not the bond-set
    # automorphism implemented by the second table
    c, table = build_u1(3), phi2_table(3)
    report = verify_automorphism(c, table)
    assert not report["passed"]
    assert any(not e["ok"] for e in report["entries"])
    assert any(e["ok"] for e in report["entries"])
    for (gen, _), e in zip(table.entries, report["entries"]):
        # "got" is the conjugated string whether or not it matches
        assert e["got"] == str(conjugate_circuit(c, gen))
        assert (e["got"] == e["expected"]) == e["ok"]


def test_table_on_an_equal_layout_object_passes():
    # the circuit, the generators and the images each on their own layout
    # object, all equal
    c, table = build_u2(6), phi2_table(6)
    layout = HilbertLayout(6)
    moved = DualityMap(table.name, tuple(
        (gen, PauliString(layout, image.x_mask, image.z_mask, image.phase_exp))
        for gen, image in table.entries))
    gen, image = moved.entries[0]
    assert len({id(c.layout), id(gen.layout), id(image.layout)}) == 3
    report = verify_automorphism(c, moved)
    assert report["passed"]
    assert report == verify_automorphism(c, table)


@pytest.mark.parametrize("other", [matter_layout(4), ancilla_layout(4)],
                         ids=["smaller", "same-size"])
def test_table_on_another_layout_raises_before_any_entry(other, monkeypatch):
    # only the last image is on another layout; no entry is folded
    c, table = build_u2(5), phi2_table(5)
    folded = []
    fold = clifford._fold
    monkeypatch.setattr(clifford, "_fold",
                        lambda *args: folded.append(args) or fold(*args))
    gen, _ = table.entries[-1]
    bad = DualityMap(table.name, (*table.entries[:-1],
                                  (gen, PauliString.identity(other))))
    with pytest.raises(ValueError):
        verify_automorphism(c, bad)
    with pytest.raises(ValueError):
        verify_automorphism(c, phi_gauged_table(4))
    assert folded == []
    assert verify_automorphism(c, table)["passed"] and folded


@pytest.mark.parametrize("k", [0, 3])
def test_corrupted_image_reports_the_conjugated_string(k):
    c, table = build_u_gauged(4), phi_gauged_table(4)
    entries = list(table.entries)
    gen, image = entries[k]
    negated = PauliString(image.layout, image.x_mask, image.z_mask,
                          image.phase_exp + 2)
    moved = PauliString(image.layout, image.x_mask ^ 1, image.z_mask,
                        image.phase_exp)
    for wrong in (negated, moved):
        entries[k] = (gen, wrong)
        report = verify_automorphism(c, DualityMap(table.name, tuple(entries)))
        assert not report["passed"]
        assert [e["ok"] for e in report["entries"]] == [
            i != k for i in range(len(entries))]
        e = report["entries"][k]
        assert e["got"] == str(conjugate_circuit(c, gen)) == str(image)
        assert e["expected"] == str(wrong) != e["got"]


def test_table_entry_coefficients_are_plus_one():
    for table in (phi1_table, phi2_table, phi_gauged_table):
        for src, dst in table(4).entries:
            assert src.phase_exp == 0 and dst.phase_exp == 0


def test_second_duality_squares_into_bond_set():
    # conjugating twice keeps every generator inside the signed bond set
    L = 4
    c = build_u2(L)
    for src, _ in phi2_table(L).entries:
        twice = conjugate_circuit(c, conjugate_circuit(c, src))
        assert (twice.x_mask, twice.z_mask) in [(s.x_mask, s.z_mask)
                                                for s, _ in phi2_table(L).entries]
        assert twice.phase_exp in (0, 2)


# -- compiled tableau ---------------------------------------------------------

def random_strings(layout, seed, count=30):
    rng = random.Random(seed)
    n = layout.total_sites
    return [PauliString(layout, rng.getrandbits(n), rng.getrandbits(n),
                        rng.randrange(4)) for _ in range(count)]


@pytest.mark.parametrize("build", [build_u1, build_u2, build_u_gauged])
@pytest.mark.parametrize("L", [2, 3, 5, 17, 64])
def test_tableau_matches_fold(build, L):
    c = build(L)
    for p in random_strings(c.layout, seed=L):
        assert conjugate_circuit(c, p) == fold_conjugate(c, p)


def signed_hermitian_axes(layout):
    full = layout.dim - 1
    return st.builds(
        lambda x, z, neg: PauliString(layout, x, z,
                                      (x & z).bit_count() % 2 + 2 * neg),
        st.integers(0, full), st.integers(0, full), st.integers(0, 1))


@settings(max_examples=100)
@given(data=st.data(),
       layout=st.sampled_from([ancilla_layout(3), link_layout(3)]))
def test_random_rotation_circuits_match_fold(data, layout):
    rotations = data.draw(st.lists(
        st.builds(QuarterRotation, signed_hermitian_axes(layout),
                  st.sampled_from([1, -1])), max_size=12))
    c = CliffordCircuit(layout, tuple(rotations))
    for p in data.draw(st.lists(strings(layout), min_size=1, max_size=5)):
        assert conjugate_circuit(c, p) == fold_conjugate(c, p)


def bit_matrix(masks, n):
    """Row r holds the low ``n`` bits of ``masks[r]``, bit 0 first."""
    nbytes = (n + 7) // 8
    raw = np.frombuffer(b"".join(m.to_bytes(nbytes, "little") for m in masks),
                        dtype=np.uint8).reshape(len(masks), nbytes)
    return np.unpackbits(raw, axis=1, count=n, bitorder="little").astype(float)


@pytest.mark.parametrize("build", [build_u1, build_u2, build_u_gauged])
def test_compiled_images_are_symplectic(build):
    # the images keep the commutation relations of X_0..X_{n-1}, Z_0..Z_{n-1}
    # and stay Hermitian, so the table is an automorphism on its own terms
    c = build(512)
    n = c.layout.total_sites
    x_rows, z_rows, _ = c.rows
    x = bit_matrix(x_rows, n)
    z = bit_matrix(z_rows, n)
    gram = (x @ z.T + z @ x.T) % 2
    zero, one = np.zeros((n, n)), np.eye(n)
    assert np.array_equal(gram, np.block([[zero, one], [one, zero]]))
    assert all(PauliString(c.layout, *row).is_hermitian() for row in zip(*c.rows))


def test_conjugate_sum_matches_termwise_fold():
    c = build_u2(6)
    h = build_hamiltonian(ModelSpec(Family.SELF_DUAL_CLOSED_H2, 6))
    want = PauliSum.zero(h.layout)
    for coeff, p in h:
        want = want + PauliSum.from_string(fold_conjugate(c, p), coeff)
    assert conjugate_sum(c, h).terms == want.terms


def test_materialize_leaves_tableau_uncompiled():
    c = build_u2(3)
    materialize(c)
    assert "rows" not in vars(c) and "images" not in vars(c)


def test_circuit_layout_mismatch_rejected():
    g = Hadamard(1)
    with pytest.raises(ValueError):
        CliffordCircuit(matter_layout(2),
                        (QuarterRotation(PauliString.single(matter_layout(3),
                                                            "X", 1), 1), g))
