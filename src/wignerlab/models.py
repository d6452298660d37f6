"""Model Hamiltonians, Gauss-law operators and their symmetries.

All couplings sit at the self-dual point (every coefficient is -1).  Layouts:
matter-only for the open/closed/(anti)periodic chains, one boundary ancilla
``L+1`` for the minimally gauged chain, and one link per bond (labels
``1/2, 3/2, ..., L-1/2``, with ``1/2`` the boundary ``(L,1)`` link) for the
fully gauged chain.  Every operator is written straight from its bit masks:
matter site ``j`` is bit ``j - 1`` and gauge slots follow, and a product of
Z's on several sites is the XOR of their bits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .clifford import (CliffordCircuit, ControlledX, Hadamard, build_u2,
                       conjugate_sum)
from .pauli import (HilbertLayout, PauliString, PauliSum, _string,
                    ancilla_layout, eta_string, link_layout, matter_layout,
                    sum_commutator, symmetry_projector)


class Family(enum.Enum):
    OPEN_H1 = "h1"
    SELF_DUAL_CLOSED_H2 = "h2"
    PERIODIC_H_PLUS = "h-periodic"
    ANTIPERIODIC_H_MINUS = "h-antiperiodic"
    MINIMAL_GAUGED_HG = "h-min-gauged"
    FULLY_GAUGED_HG = "h-full-gauged"


#: the boundary-sector chain of each sign: H+ periodic, H- antiperiodic
BOUNDARY_FAMILY = {1: Family.PERIODIC_H_PLUS, -1: Family.ANTIPERIODIC_H_MINUS}


@dataclass(frozen=True)
class ModelSpec:
    family: Family
    L: int

    def __post_init__(self) -> None:
        if self.L < 2:
            raise ValueError("L must be >= 2")

    @property
    def layout(self) -> HilbertLayout:
        if self.family is Family.MINIMAL_GAUGED_HG:
            return ancilla_layout(self.L)
        if self.family is Family.FULLY_GAUGED_HG:
            return link_layout(self.L)
        return matter_layout(self.L)


def _link_bit(j: int, L: int) -> int:
    """Bit of the link carrying the (j, j+1) bond in ``link_layout(L)``:
    label ``(2k+1)/2`` is slot ``k``, so it is slot ``j mod L`` and the
    (L, 1) bond wraps to 1/2."""
    return L + j % L


def build_hamiltonian(spec: ModelSpec) -> PauliSum:
    """Exact term list for the requested model family."""
    L = spec.L
    layout = spec.layout
    terms: dict[tuple[int, int], complex] = {}

    def add(x: int, z: int, c: int = -1) -> None:
        terms[x, z] = terms.get((x, z), 0j) + c

    if spec.family is Family.FULLY_GAUGED_HG:
        for b in range(L):  # bit b is site b + 1
            add(1 << b, 0)
            # Z_j X_link Z_{j+1}
            add(1 << _link_bit(b + 1, L), (1 << b) ^ (1 << (b + 1) % L))
        return PauliSum(layout, terms)

    for b in range(L - 1):
        add(0, 3 << b)
        add(1 << b, 0)
    if spec.family is Family.OPEN_H1:
        return PauliSum(layout, terms)
    add(1 << (L - 1), 0)
    zz = (1 << (L - 1)) ^ 1  # Z_L Z_1
    if spec.family is Family.SELF_DUAL_CLOSED_H2:
        # the eta-dressed boundary bond is itself a single Pauli string
        add(eta_string(layout).x_mask, zz)
    elif spec.family is Family.PERIODIC_H_PLUS:
        add(0, zz)
    elif spec.family is Family.ANTIPERIODIC_H_MINUS:
        add(0, zz, 1)
    elif spec.family is Family.MINIMAL_GAUGED_HG:
        add(0, zz ^ (1 << layout.index_of("L+1")))
    else:
        raise ValueError(f"unknown family {spec.family}")
    return PauliSum(layout, terms)


def eigensolve_frame(spec: ModelSpec) -> CliffordCircuit:
    """The Clifford frame ``U`` in which ``spec``'s Pauli symmetries are Z
    strings: a Hadamard on every matter site, which makes eta and each Gauss
    operator Z X_j Z diagonal, and for H_full in front of those
    ``H_{1/2} prod_{l != 1/2} CX(1/2 -> l)``, which maps the Wilson loop
    ``emergent_boundary_z`` to Z on link 1/2 (the Gauss operators stay Z
    strings: each CX adds Z_{1/2} to a Z on its target, and each Gauss
    operator's two links pick it up twice or cancel the one on 1/2)."""
    gates = tuple(Hadamard(j) for j in range(1, spec.L + 1))
    if spec.family is Family.FULLY_GAUGED_HG:
        first, *rest = spec.layout.gauge_slots  # "1/2", then 3/2 .. L-1/2
        gates = (Hadamard(first), *(ControlledX(first, l) for l in rest), *gates)
    return CliffordCircuit(spec.layout, gates)


def eigensolve_hamiltonian(spec: ModelSpec) -> PauliSum:
    """The Hamiltonian of ``spec`` in the basis its eigensolve uses:
    ``U H U†`` for ``U = eigensolve_frame(spec)``, an exact similarity.  Its
    matrix falls apart into the joint sectors of the symmetries, for L >= 3
    into 2 blocks of 2^(L-1) for h1, h2 and h+-, 4 (eta and the ancilla Z)
    for H_min and 2^(L+1) (the Gauss law and the Wilson loop) for H_full."""
    return conjugate_sum(eigensolve_frame(spec), build_hamiltonian(spec))


def gauss_law_operators(L: int) -> list[PauliSum]:
    """Per-site constraints Z-link * X-matter * Z-link of the fully gauged chain."""
    layout = link_layout(L)
    out = []
    for j in range(1, L + 1):
        left, right = _link_bit(j - 1, L), _link_bit(j, L)
        g = _string(layout, 1 << (j - 1), (1 << left) ^ (1 << right), 0)
        out.append(PauliSum.from_string(g))
    return out


def emergent_boundary_z(L: int) -> PauliString:
    """Product of all link X operators: the emergent ancilla Z of the
    minimally gauged model, expressed in the fully gauged layout."""
    layout = link_layout(L)
    return _string(layout, ((1 << L) - 1) << L, 0, 0)


def projected_commutation_check(L: int, sign: int) -> dict:
    """Verify [H^±, D±] = 0 symbolically (and report the identity used).

    Computes the circuit image of H^± under the self-dual circuit and checks
    (U H U†) P± = H P± as a PauliSum identity; the eta-dressed boundary image
    collapses onto the sector by eta P± = ± P±.  The residual is taken as
    (U H U† - H) P±, where the difference has only the boundary terms; the
    coefficients are exact, so it equals (U H U†) P± - H P± term for term.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    h = build_hamiltonian(ModelSpec(BOUNDARY_FAMILY[sign], L))
    proj = symmetry_projector(sign, h.layout)
    residual = (conjugate_sum(build_u2(L), h) - h) * proj
    return {
        "L": L,
        "sign": sign,
        "symbolic_residual_terms": len(residual),
        "passed": residual.is_zero(),
    }


def eta_conservation(L: int) -> dict:
    """[H, eta] for every matter-only family; all must vanish exactly."""
    out = {}
    for fam in (Family.OPEN_H1, Family.SELF_DUAL_CLOSED_H2,
                Family.PERIODIC_H_PLUS, Family.ANTIPERIODIC_H_MINUS):
        h = build_hamiltonian(ModelSpec(fam, L))
        comm = sum_commutator(h, PauliSum.from_string(eta_string(h.layout)))
        out[fam.value] = comm.is_zero()
    return out
