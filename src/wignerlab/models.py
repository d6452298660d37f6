"""Model Hamiltonians, Gauss-law operators, and dual-variable rewriting.

All couplings sit at the self-dual point (every coefficient is -1).  Layouts:
matter-only for the open/closed/(anti)periodic chains, one boundary ancilla
``L+1`` for the minimally gauged chain, and one link per bond (labels
``1/2, 3/2, ..., L-1/2``, with ``1/2`` the boundary ``(L,1)`` link) for the
fully gauged chain.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .clifford import (CliffordCircuit, DualityMap, Hadamard, build_u2,
                       conjugate_sum)
from .pauli import (HilbertLayout, PauliString, PauliSum, ancilla_layout,
                    eta_string, link_layout, matter_layout, mul,
                    sum_commutator, symmetry_projector)


class Family(enum.Enum):
    OPEN_H1 = "h1"
    SELF_DUAL_CLOSED_H2 = "h2"
    PERIODIC_H_PLUS = "h-periodic"
    ANTIPERIODIC_H_MINUS = "h-antiperiodic"
    MINIMAL_GAUGED_HG = "h-min-gauged"
    FULLY_GAUGED_HG = "h-full-gauged"


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


def _link_label(j: int, L: int) -> str:
    """Label of the link carrying the (j, j+1) bond; (L,1) wraps to 1/2."""
    j = (j - 1) % L + 1
    return f"{2 * j + 1}/2" if j < L else "1/2"


def build_hamiltonian(spec: ModelSpec) -> PauliSum:
    """Exact term list for the requested model family."""
    L = spec.L
    layout = spec.layout
    z = lambda j: PauliString.single(layout, "Z", j)
    x = lambda j: PauliString.single(layout, "X", j)

    terms = []
    if spec.family is Family.FULLY_GAUGED_HG:
        for j in range(1, L + 1):
            bond = mul(mul(z(j), PauliString.single(layout, "X", _link_label(j, L))),
                       z(j % L + 1))
            terms += [(-1, x(j)), (-1, bond)]
        return PauliSum.from_strings(layout, terms)

    for j in range(1, L):
        terms += [(-1, mul(z(j), z(j + 1))), (-1, x(j))]
    if spec.family is Family.OPEN_H1:
        return PauliSum.from_strings(layout, terms)
    terms.append((-1, x(L)))
    zz = mul(z(L), z(1))
    if spec.family is Family.SELF_DUAL_CLOSED_H2:
        # the eta-dressed boundary bond is itself a single Pauli string
        terms.append((-1, mul(eta_string(layout), zz)))
    elif spec.family is Family.PERIODIC_H_PLUS:
        terms.append((-1, zz))
    elif spec.family is Family.ANTIPERIODIC_H_MINUS:
        terms.append((1, zz))
    elif spec.family is Family.MINIMAL_GAUGED_HG:
        terms.append((-1, mul(mul(z(L), PauliString.single(layout, "Z", "L+1")),
                              z(1))))
    else:
        raise ValueError(f"unknown family {spec.family}")
    return PauliSum.from_strings(layout, terms)


def eigensolve_hamiltonian(spec: ModelSpec) -> PauliSum:
    """The Hamiltonian of ``spec`` in the basis its eigensolve uses: H_full
    after a Hadamard on every matter site, an exact similarity that makes each
    Gauss operator Z X_j Z diagonal (Z Z_j Z) so the matrix falls apart into
    the 2^L Gauss sectors; every other family as built."""
    h = build_hamiltonian(spec)
    if spec.family is not Family.FULLY_GAUGED_HG:
        return h
    return conjugate_sum(CliffordCircuit(
        h.layout, tuple(Hadamard(j) for j in range(1, spec.L + 1))), h)


def gauss_law_operators(L: int) -> list[PauliSum]:
    """Per-site constraints Z-link * X-matter * Z-link of the fully gauged chain."""
    layout = link_layout(L)
    out = []
    for j in range(1, L + 1):
        left = PauliString.single(layout, "Z", f"{2 * j - 1}/2")
        right = PauliString.single(layout, "Z", _link_label(j, L))
        g = mul(mul(left, PauliString.single(layout, "X", j)), right)
        out.append(PauliSum.from_string(g))
    return out


def dual_string_z(L: int, j: int) -> PauliString:
    """Disorder-dressed Z: the X-string over links 3/2..j-1/2 times Z_j."""
    layout = link_layout(L)
    s = PauliString.single(layout, "Z", j)
    for k in range(2, j + 1):
        s = mul(PauliString.single(layout, "X", f"{2 * k - 1}/2"), s)
    return s


def dual_variable_map(L: int) -> DualityMap:
    """Table of dual matter variables on the fully gauged layout."""
    layout = link_layout(L)
    entries = []
    for j in range(1, L + 1):
        entries.append((PauliString.single(layout, "Z", j), dual_string_z(L, j)))
        entries.append((PauliString.single(layout, "X", j),
                        PauliString.single(layout, "X", j)))
    return DualityMap("dual_variables", tuple(entries))


def emergent_boundary_z(L: int) -> PauliString:
    """Product of all link X operators: the emergent ancilla Z of the
    minimally gauged model, expressed in the fully gauged layout."""
    layout = link_layout(L)
    s = PauliString.identity(layout)
    for j in range(1, L + 1):
        s = mul(s, PauliString.single(layout, "X", f"{2 * j - 1}/2"))
    return s


def projected_commutation_check(L: int, sign: int) -> dict:
    """Verify [H^±, D±] = 0 symbolically (and report the identity used).

    Computes the circuit image of H^± under the self-dual circuit and checks
    (U H U†) P± = H P± as a PauliSum identity; the eta-dressed boundary image
    collapses onto the sector by eta P± = ± P±.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    fam = Family.PERIODIC_H_PLUS if sign > 0 else Family.ANTIPERIODIC_H_MINUS
    h = build_hamiltonian(ModelSpec(fam, L))
    proj = symmetry_projector(sign, h.layout)
    residual = conjugate_sum(build_u2(L), h) * proj - h * proj
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
