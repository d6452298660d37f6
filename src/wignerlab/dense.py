"""Dense complex-matrix materialization, eigensolving, and state experiments.

A Pauli string is a signed permutation of basis states: a string or sum is
scattered into one matrix.  A circuit is built in place from a scaled
identity: each quarter rotation ``I + i t A`` adds ``A``'s values times a
strided, flipped view of the matrix (no gather), using one scratch matrix
for the whole circuit, and a run of diagonal rotations is fused into one
column scaling.  A string or sum multiplied on the right is applied the same
way, its terms grouped by X mask.  The Hermitian eigensolver splits matrices
into the connected components of their exact nonzero patterns, so a matrix
in a basis that diagonalizes its symmetries is solved sector by sector, and
solves each size class of components as one zero-padded stack by round-robin
Jacobi, each round rotating disjoint pairs in every block at once.  An
``antilinear`` operator acts as ``M . K`` (conjugation first).  The binary
dump writes and reads the matrix's own bytes, without a copy.
"""

from __future__ import annotations

import math
import os
import struct
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .clifford import CliffordCircuit
from .pauli import PauliString, PauliSum, set_bits

TAU_EIG_PER_DIM = 1e-9
JACOBI_SWEEP_CAP = 100

# The only limits on dense work, in total sites; every caller asks over_limit.
DENSE_SITE_LIMIT = 12       # memory: one complex128 matrix is 256 MiB
EIGENSOLVE_SITE_LIMIT = 10  # Jacobi time, not memory: fully gauged chain at L = 5
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

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        if self.antilinear:
            return False
        scale = max(1.0, float(np.linalg.norm(self.matrix)))
        return float(np.linalg.norm(self.matrix - self.matrix.conj().T)) < tol * scale


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

def _values(p: PauliString, cols: np.ndarray) -> np.ndarray:
    """``values`` with ``p|c> = values[c] |c ^ x_mask>``."""
    # Z acts first in the per-site X·Z order
    signs = 1 - 2 * (np.bitwise_count(cols & p.z_mask) & 1).astype(np.int64)
    return (1j ** p.phase_exp) * signs


def _terms(obj: PauliString | PauliSum) -> PauliSum:
    return PauliSum.from_string(obj) if isinstance(obj, PauliString) else obj


def _flipped(m: np.ndarray, x_mask: int) -> np.ndarray:
    """Strided view of ``m``, its columns split into one size-2 axis per
    bit (most significant first, as in C order), whose column ``c`` is
    column ``c ^ x_mask``.

    Reversing the axes of ``x_mask``'s set bits XORs the index without a
    gather; numpy's iterator merges each run of the other axes into one.
    """
    n = (m.shape[1] - 1).bit_length()
    return np.flip(m.reshape(m.shape[0], *(2,) * n),
                   axis=[n - b for b in set_bits(x_mask)])


def _times_sum(m: np.ndarray, scratch: np.ndarray | None,
               diag: np.ndarray | None, off: dict[int, np.ndarray]
               ) -> np.ndarray | None:
    """``m <- m (diag + sum_x off[x] X^x)`` in place, where ``diag`` scales
    columns (None is the identity) and ``X^x`` maps column ``c`` to
    ``c ^ x``: column ``c`` of the product is ``diag[c] m[:, c] +
    sum_x off[x][c] m[:, c ^ x]``.  Returns the scratch buffer, ``m``'s
    shape, allocated on first need and reused by the caller."""
    if off:
        if scratch is None:
            scratch = np.empty_like(m)
        (x, v), *rest = off.items()
        f = _flipped(m, x)
        np.multiply(f, v.reshape(f.shape[1:]), out=scratch.reshape(f.shape))
        for x, v in rest:  # row by row, so no dim x dim temporary
            f = _flipped(m, x)
            v = v.reshape(f.shape[1:])
            for out, row in zip(scratch.reshape(f.shape), f):
                out += row * v
    if diag is not None:
        np.multiply(m, diag, out=m)
    if off:
        m += scratch
    return scratch


def materialize(obj: PauliString | PauliSum | CliffordCircuit | DenseOperator,
                *right: PauliString | PauliSum) -> DenseOperator:
    """Explicit complex matrix of a string, sum, circuit or linear dense
    operator (copied), times each string or sum in ``right``, left to right.

    A string or sum is scattered into a zero matrix.  A circuit starts from
    its global phase and ``2^(-k/2)`` for its ``k`` quarter rotations times
    the identity and is multiplied on the right, in place, by each rotation
    ``I + i t A``; a run of diagonal rotations is fused into one column
    scaling.  Each right factor is grouped by X mask and applied in place
    the same way.  A dense operator takes its layout from ``right``.
    """
    dense_left = isinstance(obj, DenseOperator)
    if dense_left and (obj.antilinear or not right or right[0].layout.dim != obj.dim):
        raise ValueError("left operand must be linear with right factors of its dimension")
    layout = right[0].layout if dense_left else obj.layout
    if any(factor.layout != layout for factor in right):
        raise ValueError("right factor is on a different layout")
    check_limit(layout.total_sites, "dense")
    dim = layout.dim
    cols = np.arange(dim)
    m = obj.matrix.copy() if dense_left else np.zeros((dim, dim), dtype=complex)
    scratch = None
    if isinstance(obj, CliffordCircuit):
        np.fill_diagonal(m, np.exp(obj.phase * 1j * math.pi / 4)
                         * 2.0 ** (-len(obj.factors) / 2))
        diag = None  # product of the pending run of diagonal rotations
        for axis, sign in obj.factors:  # leftmost factor first in the product
            v = (1j * sign) * _values(axis, cols)
            if not axis.x_mask:
                diag = 1 + v if diag is None else diag * (1 + v)
                continue
            if diag is not None:  # m D (I + v X^x) = m (D + (v D[c ^ x]) X^x)
                v *= diag[cols ^ axis.x_mask]
            scratch = _times_sum(m, scratch, diag, {axis.x_mask: v})
            diag = None
        _times_sum(m, scratch, diag, {})
    elif not dense_left:
        for c, p in _terms(obj):
            m[cols ^ p.x_mask, cols] += c * _values(p, cols)
    for factor in right:
        groups: dict[int, np.ndarray] = {}
        for c, p in _terms(factor):
            groups[p.x_mask] = groups.get(p.x_mask, 0) + c * _values(p, cols)
        scratch = _times_sum(m, scratch, groups.pop(0, np.zeros(dim)), groups)
    return DenseOperator(m)


# ---------------------------------------------------------------------------
# Hermitian eigensolver (round-robin Jacobi on stacks of equal-size blocks)
# ---------------------------------------------------------------------------

def _rounds(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Round-robin pair schedule of one Jacobi sweep over ``0..n-1``.

    Circle method over ``n`` rounded up to even: index 0 stays, the others
    turn one place per round, and position ``i`` meets position ``-1 - i``.
    For odd ``n`` the extra index is a bye, so one index sits out each
    round.  Returns ``(p, q)``, each of shape ``(rounds, n // 2)`` with
    ``p < q``: the pairs of a round are disjoint and every pair appears once.
    """
    m = n + (n & 1)
    turn = np.arange(m - 1)
    ring = np.zeros((m - 1, m), dtype=np.intp)
    ring[:, 1:] = (turn[:, None] + turn) % (m - 1) + 1
    left, right = ring[:, :m // 2], ring[:, :m // 2 - 1:-1]
    p, q = np.minimum(left, right), np.maximum(left, right)
    real = q < n  # drops the bye's pair
    shape = (m - 1, n // 2)
    return p[real].reshape(shape), q[real].reshape(shape)


def _offdiag_norms(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each block's off-diagonal part, summed directly:
    ``|A|^2 - |diag A|^2`` cancels below about 1e-8 relative."""
    off = a.copy()
    diag = np.arange(a.shape[1])
    off[:, diag, diag] = 0
    return np.linalg.norm(off, axis=(1, 2))


def _rotate_rows(m: np.ndarray, pq: np.ndarray, ct: np.ndarray,
                 s: np.ndarray, scratch: np.ndarray) -> None:
    """``[m_p; m_q] <- [[ct, s], [-conj(s), ct]] [m_p; m_q]`` in place for
    every pair of ``pq = (p..., q...)`` in every block, through two
    contiguous row stacks carved from the flat ``scratch``; ``ct`` is
    repeated for both halves, ``s`` is not."""
    h = len(pq) // 2
    shape = (m.shape[0], len(pq), m.shape[2])
    x, y = scratch[:2 * math.prod(shape)].reshape(2, *shape)
    np.take(m, pq, axis=1, out=x, mode="clip")  # "raise" would buffer out
    np.multiply(x, ct, out=y)
    np.multiply(x[:, h:], s, out=x[:, h:])
    y[:, :h] += x[:, h:]
    np.multiply(x[:, :h], s.conj(), out=x[:, :h])
    y[:, h:] -= x[:, :h]
    m[:, pq] = y


def _rotate(av: np.ndarray, out: np.ndarray, pq: np.ndarray,
            both: np.ndarray, qp: np.ndarray, thresh: np.ndarray,
            scratch: np.ndarray) -> None:
    """One round on ``av``, each block's matrix ``a`` stacked on ``vh``, its
    eigenvectors as conjugated rows: ``a <- R^H a R`` and ``vh <- R^H vh``,
    where ``R`` rotates every pair ``(p, q)`` of ``pq = (p..., q...)`` in
    every block by the minimal angle that zeroes ``a[p, q]``, or is the
    identity where ``|a[p, q]| <= thresh``.  ``both`` holds the same pairs
    in ``a`` and in ``vh``, and ``qp`` swaps the halves of ``pq``.

    Only rows are touched, so every gather is contiguous: ``a`` is
    Hermitian, so ``a R`` is the conjugate transpose of ``R^H a``, which is
    built in ``out``.  No matrix-sized temporary is allocated.
    """
    n = av.shape[2]
    h = len(pq) // 2
    p, q = pq[:h], pq[h:]
    a = av[:, :n]
    c = a[:, p, q]
    ac = np.abs(c)
    skip = ac <= thresh
    ac[skip] = 1.0
    d = a[:, pq, pq].real
    # tan(2θ) = 2|c| / (a_pp - a_qq), |θ| <= π/4; the phase is c / |c|
    tau = (d[:, :h] - d[:, h:]) / (2.0 * ac)
    t = 1.0 / (tau + np.copysign(np.hypot(tau, 1.0), tau))
    t[skip] = 0.0
    ct = 1.0 / np.hypot(1.0, t)
    s = (t * ct) * (c / ac)
    ct = np.concatenate([ct] * 4, axis=1)[..., None]
    s = np.concatenate([s, s], axis=1)[..., None]
    _rotate_rows(av, both, ct, s, scratch)
    np.conjugate(a.transpose(0, 2, 1), out=out)
    _rotate_rows(out, pq, ct[:, :2 * h], s[:, :h], scratch)
    out[:, pq, qp] *= np.concatenate([skip, skip], axis=1)
    out.reshape(-1, n * n)[:, ::n + 1].imag = 0.0
    a[...] = out


def _jacobi(stack: np.ndarray, sweep_cap: int
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Round-robin Jacobi on a ``(k, n, n)`` stack of Hermitian blocks:
    eigenvalues in diagonal order ``(k, n)``, eigenvector columns
    ``(k, n, n)`` and the sweeps each block took.

    A sweep is the rounds of ``_rounds(n)``; each round rotates all its
    disjoint pairs in every block at once, and each rotation exactly
    diagonalizes one Hermitian 2x2 sub-block.  Scale, target and skip
    threshold belong to each block, and a block that meets its target gets
    no more rotations, so it is solved as it would be alone.  Each block is
    solved as its Hermitian part.
    """
    k, n, _ = stack.shape
    av = np.zeros((k, 2 * n, n), dtype=complex)
    av[:, :n] = 0.5 * (stack + stack.conj().transpose(0, 2, 1))
    av[:, n + np.arange(n), np.arange(n)] = 1.0
    scale = np.maximum(np.linalg.norm(stack, axis=(1, 2)), 1e-300)
    target = 1e-13 * scale
    rounds = [(np.concatenate([p, q]), np.concatenate([p, n + p, q, n + q]),
               np.concatenate([q, p])) for p, q in zip(*_rounds(n))]
    sweeps = np.zeros(k, dtype=int)
    while True:
        off = _offdiag_norms(av[:, :n])
        live = np.flatnonzero(off > target)
        if not len(live):
            break
        if sweeps.max() >= sweep_cap:
            raise ConvergenceError(
                f"no convergence after {sweep_cap} sweeps: {len(live)} of "
                f"{k} blocks of size {n} missed the target; worst "
                f"off-diagonal norm {off[live].max():.3e}")
        work = av if len(live) == k else av[live]
        out = np.empty((len(live), n, n), dtype=complex)
        scratch = np.empty(2 * len(live) * (n // 2 * 4) * n, dtype=complex)
        thresh = 1e-16 * scale[live, None]
        for pq, both, qp in rounds:
            _rotate(work, out, pq, both, qp, thresh, scratch)
        if work is not av:
            av[live] = work
        sweeps[live] += 1
    return (av[:, np.arange(n), np.arange(n)].real,
            av[:, n:].conj().transpose(0, 2, 1), sweeps)


def _blocks(pattern: np.ndarray) -> list[np.ndarray]:
    """Connected components of a symmetric boolean pattern as ascending index
    arrays, in the order of their smallest index."""
    label = np.full(pattern.shape[0], -1)
    for root in range(pattern.shape[0]):
        frontier = [root] if label[root] < 0 else []
        while len(frontier):
            label[frontier] = root
            frontier = np.flatnonzero(pattern[frontier].any(axis=0) & (label < 0))
    return [np.flatnonzero(label == root) for root in np.unique(label)]


def hermitian_eigensolve_all(ops: Sequence[DenseOperator | np.ndarray],
                             sweep_cap: int = JACOBI_SWEEP_CAP
                             ) -> list[SpectrumResult]:
    """Diagonalize Hermitian operators by round-robin Jacobi on the connected
    components of their symmetrized nonzero patterns, one stack per size
    class ``(n - 1).bit_length()``, each block zero-padded to the largest in
    its class (at most doubled; a class of one size is not padded).  A pad
    couples to nothing, so every rotation touching it is skipped, an exact
    identity, and a block's eigenpairs are its first ``n`` positions.

    Eigenvalues ascend with their eigenvector columns; each residual is
    against the operator's whole input.  ``sweep_cap`` applies to each block;
    ``sweeps`` is the most any of the operator's own blocks took.  Raises
    before any sweep past the eigensolve site limit or on non-Hermitian
    input, and if a block does not converge.
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
    classes: dict[int, list[tuple[int, np.ndarray]]] = {}
    for i, comps in enumerate(blocks):
        for idx in comps:
            classes.setdefault((len(idx) - 1).bit_length(), []).append((i, idx))
    vals, vecs = [np.zeros(len(a)) for a in mats], [np.zeros_like(a) for a in mats]
    sweeps = [0] * len(mats)
    for members in classes.values():
        m = max(len(idx) for _, idx in members)
        stack = np.zeros((len(members), m, m), dtype=complex)
        for block, (i, idx) in zip(stack, members):
            block[:len(idx), :len(idx)] = mats[i][np.ix_(idx, idx)]
        w, v, took = _jacobi(stack, sweep_cap)
        for j, (i, idx) in enumerate(members):
            vals[i][idx] = w[j, :len(idx)]
            vecs[i][np.ix_(idx, idx)] = v[j, :len(idx), :len(idx)]
            sweeps[i] = max(sweeps[i], int(took[j]))
    out = []
    for a, val, vec, s, comps in zip(mats, vals, vecs, sweeps, blocks):
        order = np.argsort(val, kind="stable")
        val, vec = val[order], vec[:, order]
        residual = float(np.max(np.linalg.norm(a @ vec - vec * val, axis=0))) if len(a) else 0.0
        out.append(SpectrumResult(val, vec, residual, s, tuple(map(len, comps))))
    return out


def hermitian_eigensolve(op: DenseOperator | np.ndarray,
                         sweep_cap: int = JACOBI_SWEEP_CAP) -> SpectrumResult:
    """``hermitian_eigensolve_all`` on one operator."""
    return hermitian_eigensolve_all([op], sweep_cap)[0]


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


def transition_experiment(d: DenseOperator,
                          pairs: list[tuple[StateVector, StateVector]]) -> dict:
    """Transformed vs reference transition probabilities per state pair.

    The reference for a linear operator is |<beta|alpha>|^2; for an
    antilinear one it is |<alpha|beta>|^2 (equal in modulus).
    """
    rows = []
    for alpha, beta in pairs:
        if alpha.dim != d.dim or beta.dim != d.dim:
            raise ValueError("state/operator dimension mismatch")
        ta = d.apply(alpha.amplitudes)
        tb = d.apply(beta.amplitudes)
        p_t = abs(np.vdot(tb, ta)) ** 2
        if d.antilinear:
            p_ref = abs(np.vdot(alpha.amplitudes, beta.amplitudes)) ** 2
        else:
            p_ref = abs(np.vdot(beta.amplitudes, alpha.amplitudes)) ** 2
        rows.append({"p_transformed": float(p_t), "p_reference": float(p_ref),
                     "deviation": float(abs(p_t - p_ref))})
    return {"pairs": rows,
            "max_deviation": max((r["deviation"] for r in rows), default=0.0)}


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


def write_dense_csv(path: str, m: np.ndarray) -> None:
    m = np.asarray(m, dtype=complex)
    with open(path, "w") as fh:
        for row in np.atleast_2d(m):
            fh.write(",".join(f"{float(v.real)!r};{float(v.imag)!r}"
                              for v in row) + "\n")


def read_dense_csv(path: str) -> np.ndarray:
    rows = []
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rows.append([complex(float(re), float(im))
                         for re, im in (cell.split(";") for cell in line.strip().split(","))])
    return np.array(rows, dtype=complex)
