"""Dense complex-matrix materialization, eigensolving, and state experiments.

A Pauli string is a signed permutation of basis states: a string or sum is
scattered into one matrix, a circuit is built from the identity by one
O(dim^2) column update per quarter rotation, and a string or sum multiplied on
the right is one O(dim^2) column gather per term.  The Hermitian eigensolver
is cyclic Jacobi on each connected component of the exact nonzero pattern, so
a matrix in a basis that diagonalizes its symmetries is solved sector by
sector.  An ``antilinear`` operator acts as ``M . K`` (conjugation first).
"""

from __future__ import annotations

import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .clifford import CliffordCircuit
from .pauli import PauliString, PauliSum

TAU_UNIT = 1e-10
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

    def compose(self, other: "DenseOperator") -> "DenseOperator":
        """``self`` after ``other``; two antilinear factors compose to linear."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        right = np.conj(other.matrix) if self.antilinear else other.matrix
        return DenseOperator(self.matrix @ right,
                             antilinear=self.antilinear != other.antilinear)

    def is_unitary(self, tol: float = TAU_UNIT) -> bool:
        d = self.matrix.conj().T @ self.matrix - np.eye(self.dim)
        return float(np.linalg.norm(d)) < tol

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
    sweeps: int


# ---------------------------------------------------------------------------
# materialization
# ---------------------------------------------------------------------------

def _signed_permutation(p: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, values)`` with ``p|c> = values[c] |rows[c]>``."""
    cols = np.arange(p.layout.dim)
    # Z acts first in the per-site X·Z order
    signs = 1 - 2 * (np.bitwise_count(cols & p.z_mask) & 1).astype(np.int64)
    return cols ^ p.x_mask, (1j ** p.phase_exp) * signs


def _terms(obj: PauliString | PauliSum) -> PauliSum:
    return PauliSum.from_string(obj) if isinstance(obj, PauliString) else obj


def materialize(obj: PauliString | PauliSum | CliffordCircuit,
                *right: PauliString | PauliSum) -> DenseOperator:
    """Explicit complex matrix of a string, sum, or circuit, times each string
    or sum in ``right``, taken left to right.

    Column ``c`` of ``m A`` is ``values[c]`` times column ``rows[c]`` of
    ``m``: a circuit right-multiplies the identity by each quarter rotation
    ``(I + i t A)/sqrt(2)``, and each term of a right factor is one gather.
    """
    if any(factor.layout != obj.layout for factor in right):
        raise ValueError("right factor is on a different layout")
    check_limit(obj.layout.total_sites, "dense")
    dim = obj.layout.dim
    if isinstance(obj, CliffordCircuit):
        m = np.eye(dim, dtype=complex)
        for axis, sign in obj.factors:  # leftmost factor first in the product
            rows, values = _signed_permutation(axis)
            m = (m + (1j * sign) * values * m[:, rows]) / math.sqrt(2.0)
        m = np.exp(obj.phase * 1j * math.pi / 4) * m
    else:
        cols = np.arange(dim)
        m = np.zeros((dim, dim), dtype=complex)
        for c, p in _terms(obj):
            rows, values = _signed_permutation(p)
            m[rows, cols] += c * values
    for factor in right:
        out = np.zeros_like(m)
        for c, p in _terms(factor):
            rows, values = _signed_permutation(p)
            out += (c * values) * m[:, rows]
        m = out
    return DenseOperator(m)


# ---------------------------------------------------------------------------
# Hermitian eigensolver (cyclic Jacobi)
# ---------------------------------------------------------------------------

def _offdiag_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def _jacobi(block: np.ndarray, sweep_cap: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Cyclic Jacobi on one Hermitian block: eigenvalues in diagonal order,
    eigenvector columns and sweeps.  Each rotation exactly diagonalizes one
    Hermitian 2x2 sub-block."""
    n = block.shape[0]
    a = block.copy()
    v = np.eye(n, dtype=complex)
    scale = max(float(np.linalg.norm(a)), 1e-300)
    target = 1e-13 * scale
    sweeps = 0
    while _offdiag_norm(a) > target:
        if sweeps >= sweep_cap:
            raise ConvergenceError(
                f"no convergence after {sweep_cap} sweeps; "
                f"off-diagonal norm {_offdiag_norm(a):.3e}")
        thresh = 1e-16 * scale
        for p in range(n - 1):
            for q in range(p + 1, n):
                c = a[p, q]
                if abs(c) <= thresh:
                    continue
                app = a[p, p].real
                aqq = a[q, q].real
                ac = abs(c)
                phase = c / ac
                # minimal-angle rotation zeroing a[p,q]: tan(2θ) = 2|c|/(app-aqq)
                tau = (app - aqq) / (2.0 * ac)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(tau, 1.0))
                ct = 1.0 / math.sqrt(1.0 + t * t)
                st = t * ct
                rot = np.array([[ct, -st * phase],
                                [st * np.conj(phase), ct]], dtype=complex)
                a[:, [p, q]] = a[:, [p, q]] @ rot
                a[[p, q], :] = rot.conj().T @ a[[p, q], :]
                v[:, [p, q]] = v[:, [p, q]] @ rot
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
        sweeps += 1
    return np.diag(a).real, v, sweeps


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


def hermitian_eigensolve(op: DenseOperator | np.ndarray,
                         sweep_cap: int = JACOBI_SWEEP_CAP) -> SpectrumResult:
    """Diagonalize a Hermitian operator by cyclic Jacobi rotations on each
    connected component of its symmetrized nonzero pattern.

    Eigenvalues are returned ascending with the matching eigenvector
    columns; the residual is measured against the whole input.
    ``sweep_cap`` applies to each block and ``sweeps`` is the most any block
    took.  Raises past the eigensolve site limit, on non-Hermitian input, or
    if a block does not converge.
    """
    if isinstance(op, np.ndarray):
        op = DenseOperator(op)
    check_limit((op.dim - 1).bit_length(), "eigensolve")
    if op.antilinear or not op.is_hermitian():
        raise ValueError("eigensolver requires a Hermitian linear operator")
    a0 = op.matrix
    n = op.dim
    nonzero = a0 != 0
    vals = np.zeros(n)
    v = np.zeros((n, n), dtype=complex)
    sweeps = 0
    for idx in _blocks(nonzero | nonzero.T):
        block = np.ix_(idx, idx)
        vals[idx], v[block], block_sweeps = _jacobi(a0[block], sweep_cap)
        sweeps = max(sweeps, block_sweeps)
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    vecs = v[:, order]
    residual = float(np.max(np.linalg.norm(a0 @ vecs - vecs * vals, axis=0))) if n else 0.0
    return SpectrumResult(vals, vecs, residual, sweeps)


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
    """Little-endian interleaved re/im doubles after a 16-byte header."""
    m = np.asarray(m, dtype=complex)
    dim = m.shape[0]
    inter = np.empty(m.size * 2, dtype="<f8")
    flat = m.reshape(-1)
    inter[0::2] = flat.real
    inter[1::2] = flat.imag
    with open(path, "wb") as fh:
        fh.write(_MAGIC + struct.pack("<II", dim, m.shape[1] if m.ndim == 2 else 1))
        fh.write(inter.tobytes())


def read_dense_binary(path: str) -> np.ndarray:
    """Read a ``write_dense_binary`` dump; the file length must match its
    header exactly."""
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) < 16 or header[:8] != _MAGIC:
            raise ValueError("bad magic or truncated header")
        rows, cols = struct.unpack("<II", header[8:])
        body = fh.read()
    if len(body) != rows * cols * 16:
        raise ValueError(f"file length {16 + len(body)} does not match the "
                         f"{rows}x{cols} header ({16 + rows * cols * 16})")
    inter = np.frombuffer(body, dtype="<f8")
    flat = inter[0::2] + 1j * inter[1::2]
    return flat.reshape(rows, cols)


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
