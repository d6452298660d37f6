"""Dense complex-matrix materialization, eigensolving, and state experiments.

A Pauli string or sum is grouped by X mask: mask ``x`` holds the vector
``v[c] = <c ^ x| O |c>``, its terms added in sorted order, and each ``v``
is scattered onto the entries ``(c ^ x, c)`` of the one dim x dim matrix.
A Clifford circuit ``U`` is built from its stabilizer images (Aaronson &
Gottesman, quant-ph/0406196): ``U|c> = (U X^c U†) U|0>``, so column 0 is one
vector pass over its quarter rotations, and columns ``[2^j, 2^(j+1))`` are
columns ``[0, 2^j)`` under ``U X_j U†``, a row gather and an exact ``±1`` or
``±i`` per row.  A circuit times strings or sums of one nonzero X mask each,
such as ``U2 (1 + eta) / 2``, is that matrix updated in place by each
factor's ``diag + v X^x``, grouped the same way.
The Hermitian eigensolver splits matrices into the connected components of
their exact nonzero patterns, so a matrix in a basis that diagonalizes its
symmetries is solved sector by sector.  ``_solve_blocks`` solves the
blocks of both the eigensolve and the SVD (``polar``): a block of one column
is left as it is, the others share one zero-padded stack per size class, as
rows ``[A v_p | v_p]``, and one round-robin one-sided Jacobi kernel rotates
disjoint pairs of columns of ``A V`` and ``V`` in every block at once; only
the form whose 2x2 blocks set the angles differs, ``V^H A V`` or
``V^H A^H A V``.  The kernel holds the stack position-major, row by row
across its blocks, so a round's two halves are contiguous and one gather
turns every row to its place for the next round.
An ``antilinear`` operator acts as ``M . K`` (conjugation first).  The
binary dump writes and reads the matrix's own bytes, without a copy; the CSV
dump formats and writes one row at a time by one template.
"""

from __future__ import annotations

import math
import os
import re
import struct
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .clifford import CliffordCircuit, conjugate_factors
from .pauli import POWERS_OF_I, PauliString, PauliSum

TAU_EIG_PER_DIM = 1e-9
JACOBI_SWEEP_CAP = 100

# The only limits on dense work, in total sites; every caller asks over_limit.
DENSE_SITE_LIMIT = 12       # memory: one complex128 matrix is 256 MiB
# Jacobi time, not memory: up to the fully gauged chain at L = 5, which its
# frame (models.eigensolve_frame) splits into 64 blocks of 16
EIGENSOLVE_SITE_LIMIT = 10
SITE_LIMITS = {"dense": DENSE_SITE_LIMIT, "eigensolve": EIGENSOLVE_SITE_LIMIT}


class DimensionCapError(ValueError):
    """Raised when dense work would exceed one of the site limits."""


class ConvergenceError(RuntimeError):
    """Jacobi sweeps exhausted before the off-diagonal norm target."""


def over_limit(sites: int, kind: str) -> str | None:
    """Why work of this kind on ``sites`` total sites does not fit, or None."""
    if sites > SITE_LIMITS[kind]:
        return f"{sites} sites exceeds the {kind} limit of {SITE_LIMITS[kind]}"
    return None


def check_limit(sites: int, kind: str) -> None:
    why = over_limit(sites, kind)
    if why:
        raise DimensionCapError(why)


@dataclass(frozen=True)
class DenseOperator:
    matrix: np.ndarray
    antilinear: bool = False

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("operator matrix must be square")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, psi: np.ndarray) -> np.ndarray:
        psi = np.asarray(psi, dtype=complex)
        if psi.shape[0] != self.dim:
            raise ValueError("dimension mismatch")
        return self.matrix @ (np.conj(psi) if self.antilinear else psi)

    def is_hermitian(self) -> bool:
        if self.antilinear:
            return False
        scale = max(1.0, float(np.linalg.norm(self.matrix)))
        return float(np.linalg.norm(self.matrix - self.matrix.conj().T)) < 1e-10 * scale


@dataclass(frozen=True)
class StateVector:
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        object.__setattr__(self, "amplitudes", v)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: np.ndarray   # ascending
    eigenvectors: np.ndarray  # unitary, column i pairs with eigenvalue i
    residual: float
    sweeps: int               # the most any block took
    block_sizes: tuple[int, ...] = ()  # sizes of the blocks solved, in _blocks order


# ---------------------------------------------------------------------------
# materialization
# ---------------------------------------------------------------------------

_SIGNS = np.array([1, -1])


def _values(z: int, d: int, cols: np.ndarray) -> np.ndarray:
    """``values`` with ``i^d X^x Z^z |c> = values[c] |c ^ x>``, for any ``x``."""
    # Z acts first in the per-site X·Z order: the sign is the parity of c & z
    return (POWERS_OF_I[d] * _SIGNS)[np.bitwise_count(cols & z) & 1]


def _terms(obj: PauliString | PauliSum) -> list[tuple[tuple[int, int], complex]]:
    """The ``((x, z), c)`` terms of a string or sum, in sorted order."""
    if isinstance(obj, PauliString):
        obj = PauliSum.from_string(obj)
    return sorted(obj.terms.items())


# bytes of one chunk of rows, small enough to stay in cache
_CHUNK_BYTES = 1 << 18


def _chunk_rows(width: int) -> int:
    """Rows of ``width`` entries in one chunk, at least one."""
    return max(1, _CHUNK_BYTES // (16 * width))


def _by_mask(terms: list[tuple[tuple[int, int], complex]],
             cols: np.ndarray) -> dict[int, np.ndarray]:
    """``{x: v}`` with ``v[c] = <c ^ x| O |c>`` from the sorted
    ``((x, z), c)`` terms of ``O``: each mask's terms added in term order,
    starting from ``0``, so no ``-0.0`` survives."""
    groups: dict[int, np.ndarray] = {}
    for (x, z), c in terms:
        groups[x] = groups.get(x, 0) + c * _values(z, 0, cols)
    return groups


def _circuit_matrix(c: CliffordCircuit) -> np.ndarray:
    """The matrix of a circuit ``U``, column 0 first and then by doubling.

    Column 0 is ``U|0>``: the global phase times ``2^(-k/2)`` for the ``k``
    quarter rotations, multiplied by each rotation ``I + B``, the rightmost
    first, one vector update each.  Then ``U|c + 2^j> = R_j U|c>`` for
    ``c < 2^j``, with ``R_j = U X_j U† = i^p X^a Z^b`` folded from the
    rotations by ``conjugate_factors``: columns ``[2^j, 2^(j+1))`` are
    columns ``[0, 2^j)`` with row ``r`` read from row ``r ^ a`` and
    multiplied by the exact ``±1`` or ``±i`` of ``R_j`` at that row, a chunk
    of rows at a time.
    """
    dim = c.layout.dim
    cols = np.arange(dim)
    psi = np.zeros(dim, dtype=complex)
    psi[0] = np.exp(c.phase * 1j * math.pi / 4) * 2.0 ** (-len(c.factors) / 2)
    for x, z, d in reversed(c.factors):  # B|s> = values[s] |s ^ x>
        psi += (_values(z, d, cols) * psi)[cols ^ x]
    m = np.empty((dim, dim), dtype=complex)
    m[:, 0] = psi
    for j in range(c.layout.total_sites):
        w = 1 << j
        a, b, p = conjugate_factors(c.factors, w, 0, 0)
        src = cols ^ a
        sign = _values(b, p, src)
        per = _chunk_rows(w)
        for r in range(0, dim, per):
            np.multiply(m[src[r:r + per], :w], sign[r:r + per, None],
                        out=m[r:r + per, w:2 * w])
    return m


def materialize(obj: PauliString | PauliSum | CliffordCircuit,
                *right: PauliString | PauliSum) -> DenseOperator:
    """Explicit complex matrix of a string, sum or circuit; a circuit may be
    multiplied on the right by strings or sums of one nonzero X mask each,
    left to right, such as ``U (1 + eta) / 2``.

    A string or sum is grouped by X mask (``_by_mask``) and each mask's
    ``v`` is scattered onto ``m[c ^ x, c]``; a circuit is built column 0
    first and then by doubling through the images of its X_j
    (``_circuit_matrix``).  Each right factor, grouped the same way into
    ``diag + v X^x``, multiplies the circuit's matrix in place, a chunk of
    rows at a time.  Raises ``ValueError`` for right factors on another
    layout, on a string or sum, or with two or more nonzero X masks.
    """
    layout = obj.layout
    if any(factor.layout != layout for factor in right):
        raise ValueError("right factor is on a different layout")
    if right and not isinstance(obj, CliffordCircuit):
        raise ValueError("right factors multiply a circuit only")
    factors = [_terms(factor) for factor in right]
    if any(len({x for (x, _), _ in f} - {0}) > 1 for f in factors):
        raise ValueError("a right factor holds more than one nonzero X mask")
    check_limit(layout.total_sites, "dense")
    dim = layout.dim
    cols = np.arange(dim)
    if not isinstance(obj, CliffordCircuit):
        m = np.zeros((dim, dim), dtype=complex)
        for x, v in _by_mask(_terms(obj), cols).items():
            m[cols ^ x, cols] = v
        return DenseOperator(m)
    m = _circuit_matrix(obj)
    per = _chunk_rows(dim)
    for factor in factors:
        groups = _by_mask(factor, cols)
        diag = groups.pop(0, np.zeros(dim))
        if not groups:
            m *= diag
            continue
        # m <- m (diag + v X^x): column c becomes
        # diag[c] m[:, c] + v[c] m[:, c ^ x]
        x, v = groups.popitem()
        src = cols ^ x
        for r in range(0, dim, per):
            rows = m[r:r + per]
            shifted = rows.take(src, axis=1, mode="clip")
            shifted *= v
            rows *= diag
            rows += shifted
    return DenseOperator(m)


# ---------------------------------------------------------------------------
# Hermitian eigensolver and SVD: one round-robin one-sided Jacobi kernel on
# stacks of equal-size blocks
# ---------------------------------------------------------------------------

def _turn(n: int) -> np.ndarray:
    """The circle method's turn on ``n`` rows rounded up to even, ``m``:
    position 0 stays and the others move one place along the ring
    ``1, .., m/2 - 1, m - 1, .., m/2``, the row at position ``turn[j]`` to
    position ``j``.  A round pairs positions ``i`` and ``m/2 + i``; over
    ``m - 1`` rounds every two rows meet once, and the order is back where
    it began.
    """
    m = n + (n & 1)
    h = m // 2
    ring = np.concatenate([np.arange(1, h), np.arange(m - 1, h - 1, -1)])
    turn = np.arange(m)
    turn[np.roll(ring, -1)] = ring
    return turn


def _offdiag_norms(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each block's off-diagonal part, summed directly:
    ``|A|^2 - |diag A|^2`` cancels below about 1e-8 relative."""
    off = a.copy()
    diag = np.arange(a.shape[1])
    off[:, diag, diag] = 0
    return np.linalg.norm(off, axis=(1, 2))


def _angles(c: np.ndarray, dp: np.ndarray, dq: np.ndarray, thresh: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """``(ct, s)`` for every Hermitian 2x2 ``[[dp, c], [conj(c), dq]]`` at
    once: ``R^H = [[ct, s], [-conj(s), ct]]`` makes ``R^H [..] R`` diagonal
    by the minimal angle, or is the identity where ``|c| <= thresh``."""
    ac = np.abs(c)
    skip = ac <= thresh
    ac[skip] = 1.0
    # tan(2θ) = 2|c| / (dp - dq), |θ| <= π/4; the phase is c / |c|
    tau = (dp - dq) / (2.0 * ac)
    t = 1.0 / (tau + np.copysign(np.hypot(tau, 1.0), tau))
    t[skip] = 0.0
    ct = 1.0 / np.hypot(1.0, t)
    return ct, (t * ct) * (c / ac)


def _live(off: np.ndarray, target: np.ndarray, sweeps: np.ndarray,
          n: int) -> np.ndarray:
    """The blocks of size ``n`` whose off-diagonal norm is above their
    target; raises when some still are after ``JACOBI_SWEEP_CAP`` sweeps,
    read at call time."""
    live = np.flatnonzero(off > target)
    if len(live) and sweeps.max() >= JACOBI_SWEEP_CAP:
        raise ConvergenceError(
            f"no convergence after {JACOBI_SWEEP_CAP} sweeps: {len(live)} of "
            f"{len(off)} blocks of size {n} missed the target; worst "
            f"off-diagonal norm {off[live].max():.3e}")
    return live


def _form(x: np.ndarray, rows: int, bra: slice) -> np.ndarray:
    """``m[b, p, q] = <bra_p, x_q>`` for each block ``b`` of a position-major
    ``(m, k, width)`` stack, ``x_q`` the first ``rows`` entries of row ``q``
    and ``bra_p`` the ``bra`` entries of row ``p``."""
    return (x[..., bra].conj().transpose(1, 0, 2)
            @ x[..., :rows].transpose(1, 2, 0))


def _one_sided_jacobi(stack: np.ndarray, rows: int, bra: slice) -> np.ndarray:
    """Round-robin one-sided Jacobi in place on a ``(k, n, rows + n)``
    stack: row ``p`` of a block is ``x_p = A v_p`` (``rows`` entries)
    followed by ``v_p``, column ``p`` of ``V``.  Returns the sweeps each
    block took.

    Each pair ``(p, q)`` of a round is rotated by the minimal angle that
    diagonalizes its Hermitian 2x2 block of ``M = <bra, x>``, applied to the
    columns of ``A V`` and ``V``.  With ``bra = [:rows]``, ``M = V^H A^H A
    V`` and the two columns come out orthogonal (Hestenes; Demmel &
    Veselić, SIAM J. Matrix Anal. Appl. 13, 1204 (1992)): the SVD.  With
    ``bra = [rows:]``, ``M = V^H A V`` and the rotation is the two-sided
    Jacobi one on a Hermitian ``A``: the eigensolve.

    The solve runs on a position-major ``(m, k, width)`` copy, ``m`` the
    ``n`` rows rounded up to even; for odd ``n`` the extra row is a zero
    bye.  A round pairs positions ``i`` and ``m/2 + i``, so the ``p`` and
    ``q`` halves of every block are the contiguous ``x[:m/2]`` and
    ``x[m/2:]``; it rotates them into a second buffer, and one ``take`` of
    ``_turn(n)`` moves every row to its place for the next round.  A sweep
    is ``m - 1`` rounds and leaves the rows in their first order.  A
    block's scale is the norm of its initial ``M`` and its target 1e-13 of
    that on ``M``'s off-diagonal norm; a block that meets it is written
    back and gets no more rotations, so it is solved as it would be alone.
    A zero pad or bye couples to nothing, so every rotation touching it is
    skipped, an exact identity.
    """
    k, n, width = stack.shape
    m = n + (n & 1)
    h = m // 2
    x = np.zeros((m, k, width), dtype=complex)
    x[:n] = stack.transpose(1, 0, 2)
    y = np.empty_like(x)
    g = _form(x, rows, bra)
    off = _offdiag_norms(g)
    scale = np.maximum(np.linalg.norm(g, axis=(1, 2)), 1e-300)
    target = 1e-13 * scale
    turn = _turn(n)
    sweeps = np.zeros(k, dtype=int)
    held = np.arange(k)  # x[:, i] is block held[i] of the stack
    while len(_live(off, target, sweeps, n)):
        done = off[held] <= target[held]
        if done.any():
            stack[held[done]] = x[:n, done].transpose(1, 0, 2)
            held, x = held[~done], x[:, ~done]
            y = np.empty_like(x)
        thresh = 1e-16 * scale[held]
        for _ in range(m - 1):
            ket, b = x[..., :rows], x[..., bra]
            d = np.vecdot(b, ket).real
            ct, s = _angles(np.vecdot(b[:h], ket[h:]), d[:h], d[h:], thresh)
            ct, s = ct[..., None], s[..., None]
            # [x_p, x_q] <- [x_p, x_q] R, on the rows: R^T [row_p; row_q]
            np.multiply(x[:h], ct, out=y[:h])
            np.multiply(x[h:], ct, out=y[h:])
            np.multiply(x[h:], s.conj(), out=x[h:])
            y[:h] += x[h:]
            np.multiply(x[:h], s, out=x[:h])
            y[h:] -= x[:h]
            # mode "raise" would gather into a hidden buffer, not into x
            np.take(y, turn, axis=0, out=x, mode="clip")
        off[held] = _offdiag_norms(_form(x, rows, bra))
        sweeps[held] += 1
    stack[held] = x[:n].transpose(1, 0, 2)
    return sweeps


def _solve_blocks(blocks: list[np.ndarray], hermitian: bool
                  ) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """``(A V, V, sweeps)`` for each ``(r, n)`` block ``A`` from ``V = I``,
    on the angles of ``V^H A V`` with ``hermitian`` (the eigensolve), else
    of ``V^H A^H A V`` (the SVD).  A block of one column comes back as
    ``(A, 1, 0)``; the others share one stack per size class
    ``(n - 1).bit_length()``, zero-padded to the largest in it (at most
    doubled), its pads exact identities in ``_one_sided_jacobi``."""
    out = [(a, np.ones((1, 1), dtype=complex), 0) for a in blocks]
    classes: dict[int, list[int]] = {}
    for j, a in enumerate(blocks):
        if a.shape[1] > 1:
            classes.setdefault((a.shape[1] - 1).bit_length(), []).append(j)
    for members in classes.values():
        m = max(blocks[j].shape[1] for j in members)
        rows = max(len(blocks[j]) for j in members)
        stack = np.zeros((len(members), m, rows + m), dtype=complex)
        stack[:, np.arange(m), rows + np.arange(m)] = 1.0
        for block, j in zip(stack, members):
            r, n = blocks[j].shape
            block[:n, :r] = blocks[j].T
        took = _one_sided_jacobi(stack, rows,
                                 np.s_[rows:] if hermitian else np.s_[:rows])
        for block, j, s in zip(stack, members, took):
            r, n = blocks[j].shape
            out[j] = block[:n, :r].T, block[:n, rows:rows + n].T, int(s)
    return out


def _blocks(pattern: np.ndarray) -> list[np.ndarray]:
    """Connected components of a symmetric boolean pattern as ascending index
    arrays, in the order of their smallest index.

    Each component is labelled by its root, its smallest index, so one
    stable sort of the labels lists the components in root order, each
    ascending, and they are split where the label changes (``np.unique``
    would import ``numpy.ma``)."""
    label = np.full(pattern.shape[0], -1)
    for root in range(pattern.shape[0]):
        frontier = [root] if label[root] < 0 else []
        while len(frontier):
            label[frontier] = root
            frontier = np.flatnonzero(pattern[frontier].any(axis=0) & (label < 0))
    order = np.argsort(label, kind="stable")
    if not len(order):
        return []
    return np.split(order, np.flatnonzero(np.diff(label[order])) + 1)


def hermitian_eigensolve_all(ops: Sequence[DenseOperator | np.ndarray]
                             ) -> list[SpectrumResult]:
    """Diagonalize Hermitian operators by ``_solve_blocks`` on the Hermitian
    part of each connected component of their symmetrized nonzero patterns;
    the eigenpairs are ``(Re <v_p, A v_p>, v_p)``.

    Eigenvalues ascend with their eigenvector columns; the residual is the
    largest ``|A v - lambda v|`` over the operator's eigenpairs, each taken
    against its own block of the input.  ``JACOBI_SWEEP_CAP`` applies to
    each block; ``sweeps`` is the most any of the operator's own blocks
    took.  Raises before any sweep past the eigensolve site limit or on
    non-Hermitian input, and if a block does not converge.
    """
    mats, blocks = [], []
    for op in ops:
        op = DenseOperator(op) if isinstance(op, np.ndarray) else op
        check_limit((op.dim - 1).bit_length(), "eigensolve")
        if op.antilinear or not op.is_hermitian():
            raise ValueError("eigensolver requires a Hermitian linear operator")
        nonzero = op.matrix != 0
        mats.append(op.matrix)
        blocks.append(_blocks(nonzero | nonzero.T))
    vals, vecs = [np.zeros(len(a)) for a in mats], [np.zeros_like(a) for a in mats]
    sweeps, residuals = [0] * len(mats), [0.0] * len(mats)
    members = [(i, idx) for i, comps in enumerate(blocks) for idx in comps]
    parts = (mats[i][np.ix_(idx, idx)] for i, idx in members)
    solved = _solve_blocks([0.5 * (a + a.conj().T) for a in parts],
                           hermitian=True)
    for (i, idx), (av, v, took) in zip(members, solved):
        w = np.vecdot(v, av, axis=0).real
        # the input is zero between blocks, so each column's residual is its
        # block's; the block is gathered again, not held through the solve
        res = np.linalg.norm(mats[i][np.ix_(idx, idx)] @ v - v * w, axis=0)
        vals[i][idx] = w
        vecs[i][np.ix_(idx, idx)] = v
        sweeps[i] = max(sweeps[i], took)
        residuals[i] = max(residuals[i], float(res.max()))
    out = []
    for val, vec, s, r, comps in zip(vals, vecs, sweeps, residuals, blocks):
        order = np.argsort(val, kind="stable")
        out.append(SpectrumResult(val[order], vec[:, order], r, s,
                                  tuple(map(len, comps))))
    return out


def hermitian_eigensolve(op: DenseOperator | np.ndarray) -> SpectrumResult:
    """``hermitian_eigensolve_all`` on one operator."""
    return hermitian_eigensolve_all([op])[0]


# ---------------------------------------------------------------------------
# states and experiments
# ---------------------------------------------------------------------------

def random_state(dim: int, seed: int | Sequence[int]) -> StateVector:
    """Normalized state with Gaussian real/imag parts from PCG64(seed); a
    sequence of non-negative integers seeds one independent stream."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(v / np.linalg.norm(v))


def transition_probabilities(d: DenseOperator, alpha: np.ndarray,
                             beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(p_t, p_ref)`` for the state pairs in the columns of ``alpha`` and
    ``beta``: ``p_t = |<d beta|d alpha>|^2``, and the reference is
    ``|<beta|alpha>|^2`` for a linear operator, ``|<alpha|beta>|^2`` (equal
    in modulus) for an antilinear one.  ``d`` acts on every alpha in one
    product and on every beta in another."""
    ta, tb = d.apply(alpha), d.apply(beta)
    p_t = np.abs(np.einsum("ij,ij->j", tb.conj(), ta)) ** 2
    if d.antilinear:
        p_ref = np.abs(np.einsum("ij,ij->j", alpha.conj(), beta)) ** 2
    else:
        p_ref = np.abs(np.einsum("ij,ij->j", beta.conj(), alpha)) ** 2
    return p_t, p_ref


def transition_experiment(d: DenseOperator,
                          pairs: list[tuple[StateVector, StateVector]]) -> dict:
    """Transformed vs reference transition probabilities per state pair, by
    ``transition_probabilities`` on the pairs stacked as columns."""
    if any(a.dim != d.dim or b.dim != d.dim for a, b in pairs):
        raise ValueError("state/operator dimension mismatch")
    if not pairs:
        return {"pairs": [], "max_deviation": 0.0}
    p_t, p_ref = transition_probabilities(
        d, np.stack([a.amplitudes for a, _ in pairs], axis=1),
        np.stack([b.amplitudes for _, b in pairs], axis=1))
    rows = [{"p_transformed": float(t), "p_reference": float(r),
             "deviation": float(abs(t - r))} for t, r in zip(p_t, p_ref)]
    return {"pairs": rows, "max_deviation": max(r["deviation"] for r in rows)}


# ---------------------------------------------------------------------------
# matrix/state dumps
# ---------------------------------------------------------------------------

_MAGIC = b"WLDENSE1"


def write_dense_binary(path: str, m: np.ndarray) -> None:
    """Little-endian interleaved re/im doubles after a 16-byte header: the
    bytes of a C-ordered ``<c16`` array, written without a copy when ``m``
    already is one."""
    m = np.ascontiguousarray(m, "<c16")
    with open(path, "wb") as fh:
        fh.write(_MAGIC + struct.pack("<II", m.shape[0], m.shape[1] if m.ndim == 2 else 1))
        fh.write(memoryview(m))


def read_dense_binary(path: str) -> np.ndarray:
    """Read a ``write_dense_binary`` dump bit for bit into a new writeable
    array; the file length must match its header exactly."""
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) < 16 or header[:8] != _MAGIC:
            raise ValueError("bad magic or truncated header")
        rows, cols = struct.unpack("<II", header[8:])
        size = os.fstat(fh.fileno()).st_size
        if size != 16 + rows * cols * 16:
            raise ValueError(f"file length {size} does not match the "
                             f"{rows}x{cols} header ({16 + rows * cols * 16})")
        m = np.empty((rows, cols), dtype="<c16")
        if fh.readinto(m) != m.nbytes or fh.read(1):
            raise ValueError(f"file length changed while reading the "
                             f"{rows}x{cols} header's payload")
    return m


# one CSV cell: real and imaginary part, each free of separators
_CELL = "[^,;]*;[^,;]*"


def write_dense_csv(path: str, m: np.ndarray) -> None:
    """One text line per row of ``m`` (a vector is one row), one ``re;im``
    cell per entry, each float written as its ``repr`` by one row template;
    the text is written a row at a time, never held whole."""
    m = np.ascontiguousarray(np.atleast_2d(np.asarray(m, dtype=complex)))
    row = ",".join(["%r;%r"] * m.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.writelines(row % tuple(r.tolist()) for r in m.view(np.float64))


def read_dense_csv(path: str) -> np.ndarray:
    """Read a ``write_dense_csv`` dump, blank lines skipped, every float of
    every cell converted in one call.  Each line must match one regular
    expression: as many ``re;im`` cells as the first line holds."""
    with open(path) as fh:
        lines = [line for line in map(str.strip, fh) if line]
    if not lines:
        return np.array([], dtype=complex)
    width = lines[0].count(",") + 1
    row = re.compile(f"{_CELL}(?:,{_CELL}){{{width - 1}}}")
    if not all(map(row.fullmatch, lines)):
        raise ValueError("every row must hold the same number of re;im cells")
    text = ";".join(lines).replace(",", ";").split(";")
    return np.array(text, dtype=np.float64).view(complex).reshape(len(lines), width)
