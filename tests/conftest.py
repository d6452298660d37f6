"""Shared independent oracles for the test suite.

These helpers deliberately avoid the package's own dense backend: string
matrices are assembled from literal 2x2 Paulis with np.kron and gate matrices
from literal 4x4 gates or, for a quarter rotation about a string ``A`` with
``A^2 = 1``, from ``exp(i t pi/4 A) = (1 + i t A)/sqrt(2)`` on the kron-built
``A``, so that the bit-action implementation in wignerlab.dense is tested
against a second, structurally different construction.
"""

import numpy as np

from wignerlab.clifford import (CliffordCircuit, ControlledX, ControlledZ,
                                Hadamard, QuarterRotation, Swap)
from wignerlab.pauli import PauliString, commutes, mul

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI_2X2 = {"I": I2, "X": X2, "Y": Y2, "Z": Z2}


def kron_chain(factors_low_to_high: list[np.ndarray]) -> np.ndarray:
    """Tensor product with list index = bit index (bit 0 least significant)."""
    out = np.eye(1, dtype=complex)
    for f in factors_low_to_high:
        out = np.kron(f, out)
    return out


def oracle_string_matrix(p: PauliString) -> np.ndarray:
    """i^phase * prod_bit X^x Z^z, built per bit from literal 2x2 matrices."""
    n = p.layout.total_sites
    factors = []
    for b in range(n):
        f = I2
        if (p.x_mask >> b) & 1:
            f = f @ X2
        if (p.z_mask >> b) & 1:
            f = f @ Z2
        factors.append(f)
    return (1j ** p.phase_exp) * kron_chain(factors)


def embed_two_site(gate: np.ndarray, n: int, hi: int, lo: int) -> np.ndarray:
    """Embed a 4x4 gate acting on bits (hi, lo) into an n-bit space.

    The 4x4 gate is indexed as 2*hi_bit + lo_bit.
    """
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=complex)
    rest = [b for b in range(n) if b not in (hi, lo)]
    for col in range(dim):
        chi, clo = (col >> hi) & 1, (col >> lo) & 1
        for r in range(4):
            amp = gate[r, 2 * chi + clo]
            if amp == 0:
                continue
            row = col & ~(1 << hi) & ~(1 << lo)
            row |= ((r >> 1) & 1) << hi
            row |= (r & 1) << lo
            out[row, col] += amp
    return out


CX4 = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
               dtype=complex)  # basis index 2*control + target
CZ4 = np.diag([1, 1, 1, -1]).astype(complex)
SWAP4 = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                 dtype=complex)
H2X2 = (X2 + Z2) / np.sqrt(2)


def oracle_gate_matrix(layout, g) -> np.ndarray:
    n = layout.total_sites
    if isinstance(g, Hadamard):
        return kron_chain([H2X2 if b == layout.index_of(g.site) else I2
                           for b in range(n)])
    if isinstance(g, ControlledX):
        return embed_two_site(CX4, n, layout.index_of(g.control),
                              layout.index_of(g.target))
    if isinstance(g, ControlledZ):
        return embed_two_site(CZ4, n, layout.index_of(g.i), layout.index_of(g.j))
    if isinstance(g, Swap):
        return embed_two_site(SWAP4, n, layout.index_of(g.i), layout.index_of(g.j))
    if isinstance(g, QuarterRotation):
        a = oracle_string_matrix(g.axis)
        return (np.eye(len(a)) + 1j * g.sign * a) / np.sqrt(2)
    raise TypeError(g)


def oracle_circuit_matrix(c: CliffordCircuit) -> np.ndarray:
    """Product of the oracle gate matrices, first gate leftmost."""
    u = np.eye(c.layout.dim, dtype=complex)
    for g in c.gates:
        u = u @ oracle_gate_matrix(c.layout, g)
    return u


def fold_conjugate(c: CliffordCircuit, p: PauliString) -> PauliString:
    """``U p U†`` folded over the circuit's quarter rotations, the rightmost
    (innermost) first: the factor ``(1 + B)/sqrt(2)`` of the triple
    ``(x, z, d)``, ``B = i^d X^x Z^z``, maps ``p`` to ``p`` if ``[B, p] = 0``
    and to ``B p`` otherwise."""
    for x, z, d in reversed(c.factors):
        b = PauliString(c.layout, x, z, d)
        if not commutes(b, p):
            p = mul(b, p)
    return p
