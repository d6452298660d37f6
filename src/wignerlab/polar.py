"""Singular value and polar decomposition by one-sided Jacobi, plus the
block-structure and commutation checks for candidate non-invertible
symmetry operators.  Each matrix's columns are split into the groups its
Gram matrix couples beyond rounding, and the groups of every matrix
decomposed at once are solved together by ``dense._solve_blocks``."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dense import DenseOperator, _blocks, _solve_blocks
from .gauge import SectorEmbedding

TAU_RANK_REL = 1e-10


@dataclass(frozen=True)
class SVDResult:
    w: np.ndarray       # left unitary
    sigma: np.ndarray   # non-negative, descending
    v: np.ndarray       # right unitary
    rank: int


@dataclass(frozen=True)
class PolarFactors:
    unitary_part: DenseOperator   # antilinear iff the input was (the K factor)
    psd_part: DenseOperator       # Hermitian positive semi-definite, linear
    sigma: np.ndarray             # singular values, descending
    rank: int
    invertible: bool


def _column_groups(a: np.ndarray) -> list[np.ndarray]:
    """Connected groups of the columns of ``a`` (``dense._blocks`` order):
    columns ``i`` and ``j`` of an ``n``-row matrix are coupled when
    ``|<a_i, a_j>| > n eps |a_i| |a_j|``.  Below that bound a computed inner
    product is rounding, and one-sided Jacobi counts the pair as
    orthogonal; the bound scales with each column's own norm."""
    g = a.conj().T @ a
    norms = np.sqrt(g.diagonal().real)
    return _blocks(np.abs(g) > len(a) * np.finfo(float).eps * np.outer(norms, norms))


def _svd_all(mats: list[np.ndarray]) -> list[SVDResult]:
    """SVD of square matrices by one-sided Jacobi on their columns (Hestenes;
    Demmel & Veselić, SIAM J. Matrix Anal. Appl. 13, 1204 (1992)).

    Each of ``_column_groups`` is rotated on its own, and the groups of all
    matrices are solved together by ``dense._solve_blocks``.
    ``sigma_i = |A v_i|``, descending; range columns of W are
    ``A v_i / sigma_i``.  When the rank is below n, the kernel columns are
    the last n - rank columns of one complete Householder QR of the range
    columns (Golub & Van Loan, §5.2): the polar factor is fixed only on the
    range, so any orthonormal basis of the kernel serves.
    ``dense.JACOBI_SWEEP_CAP`` applies to each group.
    """
    if any(a.ndim != 2 or a.shape[0] != a.shape[1] for a in mats):
        raise ValueError("svd requires a square matrix")
    groups = [(i, idx) for i, a in enumerate(mats) for idx in _column_groups(a)]
    avs = [np.empty_like(a) for a in mats]
    vs = [np.zeros_like(a) for a in mats]
    # a run of columns, such as a lone one, is passed as a view (copies of
    # D̂'s 2^(L+1) lone columns would stay on the heap, 16 MB at L = 9); the
    # solved blocks go with the loop, before the factors are read
    blocks = [mats[i][:, idx[0]:idx[-1] + 1] if idx[-1] - idx[0] < len(idx)
              else mats[i][:, idx] for i, idx in groups]
    for (i, idx), (av, v, _) in zip(groups, _solve_blocks(blocks)):
        avs[i][:, idx] = av
        vs[i][np.ix_(idx, idx)] = v
    out = []
    for i, a in enumerate(mats):
        # drop the unsorted factors before the sorted copies: a lower peak
        av, v, avs[i], vs[i] = avs[i], vs[i], None, None
        sigma_all = np.linalg.norm(av, axis=0)
        order = np.argsort(sigma_all, kind="stable")[::-1]
        sigma, v, av = sigma_all[order], v[:, order], av[:, order]
        rank = int(np.sum(sigma > TAU_RANK_REL * sigma.max(initial=0.0)))
        w = av[:, :rank] / sigma[:rank]
        if rank < len(a):
            q = np.linalg.qr(w, mode="complete")[0]
            q[:, :rank] = w
            w = q
        out.append(SVDResult(w, sigma, v, rank))
    return out


def svd(a: DenseOperator | np.ndarray) -> SVDResult:
    """SVD of one square linear operator by one-sided Jacobi (``_svd_all``
    on a list of one)."""
    if isinstance(a, DenseOperator):
        if a.antilinear:
            raise ValueError("svd expects the linear matrix part")
        a = a.matrix
    return _svd_all([np.asarray(a, dtype=complex)])[0]


def polar_decompose_all(ops: Sequence[DenseOperator | np.ndarray]
                        ) -> list[PolarFactors]:
    """A = U_hat P_hat with U_hat = W V† unitary and P_hat = V Sigma V† PSD,
    for every operator, from one batched SVD.  Antilinear input M∘K is
    decomposed through its linear matrix M; the unitary factor is then
    reported as the antiunitary U_hat∘K, composing as unitary * PSD * K.
    """
    mats = [a.matrix if isinstance(a, DenseOperator) else np.asarray(a, dtype=complex)
            for a in ops]
    out = []
    for a, res in zip(ops, _svd_all(mats)):
        u_hat = res.w @ res.v.conj().T
        p_hat = (res.v * res.sigma) @ res.v.conj().T
        p_hat = 0.5 * (p_hat + p_hat.conj().T)
        antilinear = isinstance(a, DenseOperator) and a.antilinear
        out.append(PolarFactors(DenseOperator(u_hat, antilinear=antilinear),
                                DenseOperator(p_hat), res.sigma, res.rank,
                                invertible=res.rank == len(res.sigma)))
    return out


def polar_decompose(a: DenseOperator | np.ndarray) -> PolarFactors:
    """``polar_decompose_all`` on one operator."""
    return polar_decompose_all([a])[0]


def verify_theorem_structure(d: DenseOperator, sector: SectorEmbedding) -> dict:
    """Block-structure checks on the PSD polar factor of a candidate symmetry.

    With P_H the projector on the embedded sector, checks that (i) the
    sector's block of P_hat is the identity, (ii) P_hat^2 has no matrix
    elements between the sector and its complement, and (iii) P_H P_hat =
    P_hat P_H = P_H.  Each is read from the sector's rows and columns.  For
    (iii) the rows suffice: ``polar_decompose_all`` makes P_hat exactly
    Hermitian, so P_hat P_H - P_H is the conjugate transpose of
    P_H P_hat - P_H and has the same norm up to rounding.  ``passed`` holds
    when all three are below 1e-9.  The report
    carries the polar ``factors``, singular values included, so that a
    later check on the same operator reuses them.
    """
    if sector.target_dim != d.dim:
        raise ValueError("sector and operator dimensions differ")
    factors = polar_decompose(d)
    p_hat = factors.psd_part.matrix
    sec = sector.rows
    rest = np.r_[:sec.start, sec.stop:d.dim]
    eye = np.eye(d.dim)

    block_identity_error = float(np.linalg.norm(p_hat[sec, sec] - eye[sec, sec]))
    offdiag_error = float(np.linalg.norm(p_hat[rest] @ p_hat[:, sec]))
    proj_error = float(np.linalg.norm(p_hat[sec] - eye[sec]))
    return {
        "rank": factors.rank,
        "invertible": factors.invertible,
        "block_identity_error": block_identity_error,
        "offdiag_error": offdiag_error,
        "projector_identity_error": proj_error,
        "passed": (block_identity_error < 1e-9 and offdiag_error < 1e-9
                   and proj_error < 1e-9),
        "factors": factors,
    }


def corollary_check(h_g: DenseOperator, d: DenseOperator | PolarFactors,
                    sector: SectorEmbedding, tol: float = 1e-9) -> dict:
    """P_H [H_G, U_hat] P_H must vanish when [H_G, P_H] = 0, with P_H the
    projector on the embedded sector.

    ``d`` is the operator or, when already computed, its polar factors.  The
    precondition, H_G's blocks between the sector and its complement
    vanishing, is verified first; on violation the check is reported as
    skipped.
    """
    if sector.target_dim != h_g.dim:
        raise ValueError("sector and operator dimensions differ")
    sec = sector.rows
    rest = np.r_[:sec.start, sec.stop:h_g.dim]
    hg = h_g.matrix
    scale = max(float(np.linalg.norm(hg)), 1.0)
    pre = float(np.hypot(np.linalg.norm(hg[rest, sec]),
                         np.linalg.norm(hg[sec, rest])))
    if pre > 1e-10 * scale:
        return {"status": "skipped", "precondition_norm": pre,
                "reason": "[H_G, P_H] != 0"}
    factors = d if isinstance(d, PolarFactors) else polar_decompose(d)
    u_hat = factors.unitary_part.matrix
    measured = float(np.linalg.norm(hg[sec] @ u_hat[:, sec] - u_hat[sec] @ hg[:, sec]))
    return {"status": "pass" if measured < tol else "fail",
            "precondition_norm": pre, "measured": measured, "threshold": tol}
