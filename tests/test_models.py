"""Hamiltonian term lists, symmetry content, Gauss laws, and the eigensolve
frame of every chain."""

import numpy as np
import pytest

from wignerlab.clifford import conjugate_circuit
from wignerlab.dense import hermitian_eigensolve, materialize
from wignerlab.models import (Family, ModelSpec, build_hamiltonian,
                              eigensolve_frame, eigensolve_hamiltonian,
                              emergent_boundary_z, eta_conservation,
                              gauss_law_operators, projected_commutation_check)
from wignerlab.pauli import (PauliString, PauliSum, commutes, eta_string,
                             link_layout, matter_layout, mul, sum_commutator,
                             symmetry_projector)

ALL_FAMILIES = list(Family)


def zz(layout, i, j):
    return mul(PauliString.single(layout, "Z", i), PauliString.single(layout, "Z", j))


# -- exact term content -------------------------------------------------------

def test_open_chain_terms_L3():
    lay = matter_layout(3)
    h = build_hamiltonian(ModelSpec(Family.OPEN_H1, 3))
    assert len(h) == 4  # 2L - 2
    for p in (zz(lay, 1, 2), zz(lay, 2, 3),
              PauliString.single(lay, "X", 1), PauliString.single(lay, "X", 2)):
        assert h.coefficient_of(p) == -1.0
    assert h.coefficient_of(PauliString.single(lay, "X", 3)) == 0.0


@pytest.mark.parametrize("L", [2, 3, 5, 8])
def test_term_counts(L):
    assert len(build_hamiltonian(ModelSpec(Family.OPEN_H1, L))) == 2 * L - 2
    # the eta-dressed boundary bond merges into one string: 2L terms total
    assert len(build_hamiltonian(ModelSpec(Family.SELF_DUAL_CLOSED_H2, L))) == 2 * L
    assert len(build_hamiltonian(ModelSpec(Family.MINIMAL_GAUGED_HG, L))) == 2 * L
    assert len(build_hamiltonian(ModelSpec(Family.FULLY_GAUGED_HG, L))) == 2 * L
    if L == 2:
        # the boundary bond coincides with the bulk bond: terms merge/cancel
        assert len(build_hamiltonian(ModelSpec(Family.PERIODIC_H_PLUS, 2))) == 3
        assert len(build_hamiltonian(ModelSpec(Family.ANTIPERIODIC_H_MINUS, 2))) == 2
    else:
        assert len(build_hamiltonian(ModelSpec(Family.PERIODIC_H_PLUS, L))) == 2 * L
        assert len(build_hamiltonian(ModelSpec(Family.ANTIPERIODIC_H_MINUS, L))) == 2 * L


def test_closed_chain_boundary_strings_L3():
    lay = matter_layout(3)
    hp = build_hamiltonian(ModelSpec(Family.PERIODIC_H_PLUS, 3))
    hm = build_hamiltonian(ModelSpec(Family.ANTIPERIODIC_H_MINUS, 3))
    h2 = build_hamiltonian(ModelSpec(Family.SELF_DUAL_CLOSED_H2, 3))
    b = zz(lay, 3, 1)
    assert hp.coefficient_of(b) == -1.0
    assert hm.coefficient_of(b) == +1.0
    dressed = mul(eta_string(lay), b)  # X2 remains after the X's at 1,3 cancel
    assert h2.coefficient_of(dressed) == -1.0
    assert hp - hm == (-2.0) * PauliSum.from_string(b)


def test_self_dual_closed_equals_projector_split():
    # H2 = H+ P+ + H- P-
    L = 3
    lay = matter_layout(L)
    h2 = build_hamiltonian(ModelSpec(Family.SELF_DUAL_CLOSED_H2, L))
    hp = build_hamiltonian(ModelSpec(Family.PERIODIC_H_PLUS, L))
    hm = build_hamiltonian(ModelSpec(Family.ANTIPERIODIC_H_MINUS, L))
    split = hp * symmetry_projector(1, lay) + hm * symmetry_projector(-1, lay)
    assert h2 == split


def test_minimal_gauged_boundary_uses_ancilla():
    lay = ModelSpec(Family.MINIMAL_GAUGED_HG, 3).layout
    h = build_hamiltonian(ModelSpec(Family.MINIMAL_GAUGED_HG, 3))
    bond = mul(zz(lay, 3, 1), PauliString.single(lay, "Z", "L+1"))
    assert h.coefficient_of(bond) == -1.0


def test_fully_gauged_bonds_carry_links():
    L = 3
    lay = link_layout(L)
    h = build_hamiltonian(ModelSpec(Family.FULLY_GAUGED_HG, L))
    bond12 = mul(zz(lay, 1, 2), PauliString.single(lay, "X", "3/2"))
    boundary = mul(zz(lay, 3, 1), PauliString.single(lay, "X", "1/2"))
    assert h.coefficient_of(bond12) == -1.0
    assert h.coefficient_of(boundary) == -1.0


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f.value)
def test_hamiltonians_hermitian(fam):
    assert build_hamiltonian(ModelSpec(fam, 3)).is_hermitian()


def test_model_spec_rejects_small_L():
    with pytest.raises(ValueError):
        ModelSpec(Family.OPEN_H1, 1)


# -- symmetries ---------------------------------------------------------------

@pytest.mark.parametrize("L", [2, 3, 6])
def test_eta_is_conserved_by_matter_families(L):
    assert all(eta_conservation(L).values())


def test_field_term_alone_breaks_nothing_but_bond_does():
    # a single Z is a nonzero-commutator control for the conservation check
    lay = matter_layout(3)
    h = build_hamiltonian(ModelSpec(Family.OPEN_H1, 3)) \
        + PauliSum.from_string(PauliString.single(lay, "Z", 2))
    comm = sum_commutator(h, PauliSum.from_string(eta_string(lay)))
    assert not comm.is_zero()


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("L", [2, 3, 4])
def test_projected_commutation_holds(L, sign):
    assert projected_commutation_check(L, sign)["passed"]


def test_projected_commutation_wrong_sector_fails():
    # the circuit image of H+ agrees with H+ only after projecting onto the
    # even sector; against the odd projector the residual must survive
    from wignerlab.clifford import build_u2, conjugate_circuit
    L = 3
    h = build_hamiltonian(ModelSpec(Family.PERIODIC_H_PLUS, L))
    circuit = build_u2(L)
    conj = PauliSum.zero(h.layout)
    for c, p in h:
        conj = conj + PauliSum.from_string(conjugate_circuit(circuit, p), c)
    proj = symmetry_projector(-1, h.layout)
    assert not (conj * proj - h * proj).is_zero()


@pytest.mark.parametrize("L", [2, 3, 5, 8])
def test_projected_residual_factors_exactly(L):
    # the check takes (U H U† - H) P; with exact coefficients it equals
    # U H U† P - H P term for term, in either sector, passing or not
    from wignerlab.clifford import build_u2, conjugate_sum
    for fam in (Family.PERIODIC_H_PLUS, Family.ANTIPERIODIC_H_MINUS):
        h = build_hamiltonian(ModelSpec(fam, L))
        image = conjugate_sum(build_u2(L), h)
        for sign in (1, -1):
            proj = symmetry_projector(sign, h.layout)
            assert ((image - h) * proj).terms == (image * proj - h * proj).terms


# -- Gauss laws and dual variables ---------------------------------------------

@pytest.mark.parametrize("L", [2, 3, 4])
def test_gauss_laws_commute_with_fully_gauged(L):
    h = build_hamiltonian(ModelSpec(Family.FULLY_GAUGED_HG, L))
    for g in gauss_law_operators(L):
        assert sum_commutator(h, g).is_zero()
        assert (g * g) == PauliSum.identity(g.layout)


@pytest.mark.parametrize("L", [2, 3, 4])
def test_gauss_law_product_is_eta(L):
    lay = link_layout(L)
    prod = PauliSum.identity(lay)
    for g in gauss_law_operators(L):
        prod = prod * g
    want = PauliString(lay, (1 << L) - 1)  # X on every matter site
    assert prod == PauliSum.from_string(want)


@pytest.mark.parametrize("L", [2, 3, 4])
def test_gauge_invariant_combinations_commute_with_gauss_laws(L):
    # the matter X's and the dressed bonds Z_j X_link Z_{j+1}, every term of
    # the fully gauged chain, are gauge invariant
    gauss = [next(iter(g))[1] for g in gauss_law_operators(L)]
    for j in range(1, L + 1):
        xj = PauliString.single(link_layout(L), "X", j)
        assert all(commutes(xj, g) for g in gauss)
    h = build_hamiltonian(ModelSpec(Family.FULLY_GAUGED_HG, L))
    assert len(h) == 2 * L
    for _, term in h:
        assert all(commutes(term, g) for g in gauss)


@pytest.mark.parametrize("L", [2, 3, 4])
def test_emergent_boundary_z(L):
    s = emergent_boundary_z(L)
    assert mul(s, s) == PauliString.identity(s.layout)
    # commutes with the fully gauged Hamiltonian and every Gauss law
    h = build_hamiltonian(ModelSpec(Family.FULLY_GAUGED_HG, L))
    assert sum_commutator(h, PauliSum.from_string(s)).is_zero()
    for g in gauss_law_operators(L):
        assert sum_commutator(g, PauliSum.from_string(s)).is_zero()


# -- the eigensolve frame -------------------------------------------------------

def _symmetries(spec):
    """eta, and the ancilla Z of H_min or the Gauss laws and the Wilson loop
    of H_full, on the layout of ``spec``."""
    out = [eta_string(spec.layout)]
    if spec.family is Family.MINIMAL_GAUGED_HG:
        out.append(PauliString.single(spec.layout, "Z", "L+1"))
    if spec.family is Family.FULLY_GAUGED_HG:
        out += [p for g in gauss_law_operators(spec.L) for _, p in g]
        out.append(emergent_boundary_z(spec.L))
    return out


@pytest.mark.parametrize("L", [2, 3, 4, 7])
@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f.value)
def test_frame_makes_every_symmetry_a_z_string(fam, L):
    spec = ModelSpec(fam, L)
    frame = eigensolve_frame(spec)
    images = [conjugate_circuit(frame, p) for p in _symmetries(spec)]
    assert all(p.x_mask == 0 for p in images)
    if fam is Family.FULLY_GAUGED_HG:
        assert images[-1] == PauliString.single(spec.layout, "Z", "1/2")


@pytest.mark.parametrize("fam, L", [
    (fam, L) for fam in ALL_FAMILIES for L in range(2, 7)
    if fam is not Family.FULLY_GAUGED_HG or L <= 5  # 2L sites: eigensolve limit
], ids=lambda v: getattr(v, "value", v))
def test_framed_spectrum_matches_the_built_matrix(fam, L):
    spec = ModelSpec(fam, L)
    res = hermitian_eigensolve(materialize(eigensolve_hamiltonian(spec)))
    want = np.linalg.eigvalsh(materialize(build_hamiltonian(spec)).matrix)
    assert np.max(np.abs(res.eigenvalues - want)) < 1e-12
    if L >= 3:  # one block per joint sector, 2^(L-1) states each: 2 for
        # h1, h2 and h+-, 4 for H_min, 2^(L+1) for H_full
        n = 1 << (L - 1)
        assert res.block_sizes == (n,) * (len(want) // n)
