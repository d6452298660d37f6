"""Sector embeddings, the non-invertible operators D± and D̂±, the Gauss-law
projector of the fully gauged chain, and the spectral-equivalence report."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import build_u2, build_u_gauged
from .dense import (DenseOperator, StateVector, check_limit,
                    hermitian_eigensolve_all, materialize)
from .models import (Family, ModelSpec, eigensolve_hamiltonian,
                     gauss_law_operators)
from .pauli import PauliSum, ancilla_layout, matter_layout, symmetry_projector


@dataclass(frozen=True)
class SectorEmbedding:
    """Isometric inclusion of the physical space into one gauge sector:
    basis state ``a`` goes to ``offset + a`` of a ``target_dim`` space."""
    source_dim: int
    target_dim: int
    offset: int

    def __post_init__(self):
        if not (self.source_dim >= 1 and self.offset >= 0
                and self.offset + self.source_dim <= self.target_dim):
            raise ValueError("sector does not fit in the target space")

    @property
    def rows(self) -> slice:
        """The sector's basis indices in the target space."""
        return slice(self.offset, self.offset + self.source_dim)


def ancilla_sector_embedding(L: int, sign: int) -> SectorEmbedding:
    """|g±> ⊗ |alpha> with the ancilla ordered so |g+> is the first basis
    vector (ancilla bit 0 carries Z-eigenvalue +1)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    d = 1 << L
    return SectorEmbedding(d, 2 * d, 0 if sign > 0 else d)


def embed_state(alpha: StateVector, e: SectorEmbedding) -> StateVector:
    """``alpha`` copied into the sector's slice of a zero vector."""
    if alpha.dim != e.source_dim:
        raise ValueError("state dimension does not match embedding source")
    psi = np.zeros(e.target_dim, dtype=complex)
    psi[e.rows] = alpha.amplitudes
    return StateVector(psi)


def build_d_noninvertible(L: int, sign: int) -> DenseOperator:
    """D± = U2 * (1 ± eta)/2 on the matter space; rank 2^(L-1)."""
    return materialize(build_u2(L), symmetry_projector(sign, matter_layout(L)))


def build_d_hat(L: int, sign: int, antilinear: bool = False) -> DenseOperator:
    """D̂± = U_gauged * (1 ± Z_{L+1})/2 on the enlarged space; optionally the
    antilinear variant U_gauged * P̃± * K."""
    p = symmetry_projector(sign, ancilla_layout(L), on_ancilla=True)
    return DenseOperator(materialize(build_u_gauged(L), p).matrix, antilinear=antilinear)


def gauss_sector_projector(L: int) -> PauliSum:
    """prod_j (1 + G_j)/2 on the fully gauged space, multiplied out
    symbolically into 2^L terms; trace 2^L."""
    ops = gauss_law_operators(L)
    proj = one = PauliSum.identity(ops[0].layout)
    for g in ops:
        proj = proj * (0.5 * (one + g))
    return proj


def spectral_multiset_factor(ev_a: np.ndarray, ev_b: np.ndarray) -> dict:
    """Uniform multiplicity factor ``k`` between two eigenvalue multisets, if
    any: sorted ``ev_a`` matches sorted ``ev_b`` with each value repeated
    ``k`` times, entry by entry within 1e-8.  Sizes that are not a whole
    multiple, empty inputs included, are a mismatch."""
    a, b = np.sort(ev_a), np.sort(ev_b)
    k = len(a) // len(b) if len(b) else 0
    if not k or len(a) != k * len(b):
        mismatches = [{"reason": "sizes differ by no whole factor",
                       "a": len(a), "b": len(b)}]
    else:
        b = np.repeat(b, k)
        mismatches = [{"a_value": float(a[i]), "b_value": float(b[i])}
                      for i in np.flatnonzero(np.abs(a - b) > 1e-8)]
    factor = None if mismatches else k
    return {"uniform_factor": factor, "mismatches": mismatches,
            "equivalent": factor is not None}


def spectral_equivalence_check(L: int) -> dict:
    """Fully gauged vs minimally gauged spectra, up to a uniform degeneracy.

    The observed factor is reported, not assumed; dimension counting predicts
    2^(L-1).  Both chains are solved in the frame of
    ``models.eigensolve_hamiltonian``, where for L >= 3 H_full falls apart
    into 2^(L+1) blocks of 2^(L-1), one per joint sector of its Gauss laws
    and Wilson loop, and H_min into 4 (eta and the ancilla Z), and in one
    ``hermitian_eigensolve_all`` call, so blocks of one size from both
    chains share a stack.
    """
    check_limit(2 * L, "eigensolve")
    ev_full, ev_min = (res.eigenvalues for res in hermitian_eigensolve_all(
        [materialize(eigensolve_hamiltonian(ModelSpec(fam, L)))
         for fam in (Family.FULLY_GAUGED_HG, Family.MINIMAL_GAUGED_HG)]))
    res = spectral_multiset_factor(ev_full, ev_min)
    res.update({"model_a": "h-full-gauged", "model_b": "h-min-gauged", "L": L,
                "predicted_factor": 1 << (L - 1)})
    return res


def sector_blocks(op: DenseOperator, L: int) -> tuple[np.ndarray, np.ndarray]:
    """(+, -) ancilla blocks of an operator on the minimally gauged space."""
    if op.dim != 2 << L:
        raise ValueError("operator is not on the ancilla layout")
    plus, minus = (ancilla_sector_embedding(L, sign).rows for sign in (1, -1))
    return op.matrix[plus, plus], op.matrix[minus, minus]
