"""Clifford gates, duality circuits, and automorphism verification.

Every gate is defined once, in ``rotation_factors``, as a global phase times
quarter rotations ``exp(±i pi/4 A)`` about Hermitian Pauli strings.  A
circuit stores its gates left to right as the operator product is written
(the leftmost applied last) and flattens them once into one phase and one
tuple of factors.  On first use it compiles the factors into a stabilizer
tableau, the images ``U g U†`` of every ``X_j`` and ``Z_j`` (Aaronson &
Gottesman, quant-ph/0406196), and ``U p U†`` is then the product of the
tableau rows that ``p``'s bits name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

import numpy as np

from .pauli import (HilbertLayout, PauliString, PauliSum, SiteRef, _string,
                    ancilla_layout, eta_string, matter_layout, mul, set_bits)


@dataclass(frozen=True)
class ControlledX:
    control: SiteRef
    target: SiteRef


@dataclass(frozen=True)
class ControlledZ:
    i: SiteRef
    j: SiteRef


@dataclass(frozen=True)
class Swap:
    i: SiteRef
    j: SiteRef


@dataclass(frozen=True)
class Hadamard:
    site: SiteRef


@dataclass(frozen=True)
class QuarterRotation:
    """``exp(i * sign * pi/4 * axis)`` for a Hermitian Pauli-string axis."""
    axis: PauliString
    sign: int

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if not self.axis.is_hermitian():
            raise ValueError("rotation axis must be Hermitian")


CliffordGate = Union[ControlledX, ControlledZ, Swap, Hadamard, QuarterRotation]


def rotation_factors(layout: HilbertLayout, g: CliffordGate):
    """``(s, ((A1, t1), (A2, t2), ...))`` with
    ``g = e^{i s pi/4} R(A1, t1) R(A2, t2) ...``, ``R(A, t) = exp(i t pi/4 A)``.

    This is the one definition of every gate: the tableau folds the factors
    and drops the global phase, the dense backend multiplies them and keeps
    it.  Conjugation by ``R(A, t)`` maps ``p`` to ``p`` if ``A`` and ``p``
    commute and to ``(i t) A p`` if they anticommute.
    """
    single = lambda kind, site: PauliString.single(layout, kind, site)
    if isinstance(g, QuarterRotation):
        if g.axis.layout is not layout and g.axis.layout != layout:
            raise ValueError("rotation axis layout differs from the operand's")
        return 0, ((g.axis, g.sign),)
    if isinstance(g, Hadamard):
        z, x = single("Z", g.site), single("X", g.site)
        return -2, ((z, 1), (x, 1), (z, 1))
    if isinstance(g, Swap):
        pair = lambda kind: mul(single(kind, g.i), single(kind, g.j))
        return -1, ((pair("X"), 1), (pair("Y"), 1), (pair("Z"), 1))
    if isinstance(g, ControlledX):
        zc, xt = single("Z", g.control), single("X", g.target)
        return 1, ((mul(zc, xt), 1), (zc, -1), (xt, -1))
    if isinstance(g, ControlledZ):
        zi, zj = single("Z", g.i), single("Z", g.j)
        return -1, ((mul(zi, zj), -1), (zi, 1), (zj, 1))
    raise TypeError(f"unknown gate {g!r}")


@dataclass(frozen=True)
class CliffordCircuit:
    """The ordered product of ``gates``, also held as one global phase
    ``e^{i phase pi/4}`` times the flat tuple of quarter-rotation ``factors``."""
    layout: HilbertLayout
    gates: tuple[CliffordGate, ...]
    phase: int = field(init=False, repr=False, compare=False)
    factors: tuple[tuple[PauliString, int], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        parts = [rotation_factors(self.layout, g) for g in self.gates]
        object.__setattr__(self, "phase", sum(s for s, _ in parts) % 8)
        object.__setattr__(self, "factors",
                           tuple(f for _, fs in parts for f in fs))

    def __len__(self) -> int:
        return len(self.gates)

    @cached_property
    def images(self) -> tuple[PauliString, ...]:
        """The tableau: ``U g U†`` for ``g = X_0 .. X_{n-1}, Z_0 .. Z_{n-1}``
        (bit order), compiled on first use."""
        n = self.layout.total_sites
        # bit-sliced: bit r of xs[j] / zs[j] is the X / Z bit at site j of
        # row r, and row r carries the phase i^(p0_r + 2 p1_r)
        xs = [1 << j for j in range(n)]
        zs = [1 << (n + j) for j in range(n)]
        p0 = p1 = 0
        # U = R_1 R_2 ... R_k, so each row is conjugated by R_k first
        for axis, sign in reversed(self.factors):
            ax, az = set_bits(axis.x_mask), set_bits(axis.z_mask)
            # t: parity of |A.z & row.x|, the sign of moving A's Z past the
            # row's X in the product A row
            t = 0
            for j in az:
                t ^= xs[j]
            anti = t
            for j in ax:
                anti ^= zs[j]
            if not anti:
                continue
            # anticommuting rows become (i sign) A row
            for j in ax:
                xs[j] ^= anti
            for j in az:
                zs[j] ^= anti
            d = (axis.phase_exp + (1 if sign > 0 else 3)) % 4
            if d & 1:
                p1 ^= p0 & anti
                p0 ^= anti
            if d & 2:
                p1 ^= anti
            p1 ^= t & anti
        xrows, zrows = _transpose(xs, 2 * n), _transpose(zs, 2 * n)
        return tuple(_string(self.layout, x, z, (p0 >> r & 1) + 2 * (p1 >> r & 1))
                     for r, (x, z) in enumerate(zip(xrows, zrows)))


def _transpose(columns: list[int], n_rows: int) -> list[int]:
    """Bit ``r`` of ``columns[j]`` is bit ``j`` of row ``r``; return the rows."""
    nbytes = (n_rows + 7) // 8
    packed = np.frombuffer(b"".join(c.to_bytes(nbytes, "little") for c in columns),
                           dtype=np.uint8).reshape(len(columns), nbytes)
    bits = np.unpackbits(packed, axis=1, count=n_rows, bitorder="little")
    rows = np.packbits(bits.T, axis=1, bitorder="little")
    return [int.from_bytes(r.tobytes(), "little") for r in rows]


def conjugate_circuit(c: CliffordCircuit, p: PauliString) -> PauliString:
    """``U p U†`` for the full ordered product, as a product of tableau rows."""
    layout = c.layout
    if layout is not p.layout and layout != p.layout:
        raise ValueError("circuit/operand layout mismatch")
    # p = i^phase prod_j X_j^x_j prod_j Z_j^z_j, and conjugation is a
    # homomorphism: multiply the rows in that order, as in pauli.mul
    rows, n = c.images, layout.total_sites
    x = z = 0
    phase = p.phase_exp
    for mask, offset in ((p.x_mask, 0), (p.z_mask, n)):
        while mask:
            low = mask & -mask
            row = rows[offset + low.bit_length() - 1]
            rx = row.x_mask
            phase += row.phase_exp + 2 * (z & rx).bit_count()
            x ^= rx
            z ^= row.z_mask
            mask ^= low
    return _string(layout, x, z, phase & 3)


def conjugate_gate(g: CliffordGate, p: PauliString) -> PauliString:
    """Exact ``g p g†`` for a single gate."""
    return conjugate_circuit(CliffordCircuit(p.layout, (g,)), p)


def conjugate_sum(c: CliffordCircuit, h: PauliSum) -> PauliSum:
    """``U h U†`` for a sum, term by term."""
    return PauliSum.from_strings(
        h.layout, ((coeff, conjugate_circuit(c, p)) for coeff, p in h))


# ---------------------------------------------------------------------------
# circuit builders
# ---------------------------------------------------------------------------

def build_u1(L: int) -> CliffordCircuit:
    """Swap-reversal duality circuit for the open chain.

    Product order: swaps over j=1..floor(L/2) (the middle site of an odd
    chain is untouched), then CX(j+1, j) over j=1..L-1, then a Hadamard on
    every site.
    """
    if L < 2:
        raise ValueError("L must be >= 2")
    layout = matter_layout(L)
    gates: list[CliffordGate] = []
    for j in range(1, L // 2 + 1):
        gates.append(Swap(j, L - j + 1))
    for j in range(1, L):
        gates.append(ControlledX(j + 1, j))
    for j in range(1, L + 1):
        gates.append(Hadamard(j))
    return CliffordCircuit(layout, tuple(gates))


def build_u2(L: int) -> CliffordCircuit:
    """Quarter-rotation duality circuit for the self-dual closed chain."""
    if L < 2:
        raise ValueError("L must be >= 2")
    layout = matter_layout(L)
    gates: list[CliffordGate] = []
    for j in range(1, L):
        gates.append(QuarterRotation(PauliString.single(layout, "X", j), -1))
        gates.append(QuarterRotation(
            mul(PauliString.single(layout, "Z", j),
                PauliString.single(layout, "Z", j + 1)), -1))
    gates.append(QuarterRotation(PauliString.single(layout, "X", L), -1))
    return CliffordCircuit(layout, tuple(gates))


def build_u_gauged(L: int) -> CliffordCircuit:
    """Genuinely unitary duality on the minimally gauged chain.

    CX(1, L+1) * prod_{j=1..L} [H_j CZ(j+1, j)] * H_{L+1}, where at j = L the
    "j+1" wire is the boundary-link ancilla L+1 (operators on that slot are
    the gauge-field X/Z); this wiring is the one that makes the gauged
    duality table verify exactly.
    """
    if L < 2:
        raise ValueError("L must be >= 2")
    layout = ancilla_layout(L)
    gates: list[CliffordGate] = [ControlledX(1, "L+1")]
    for j in range(1, L + 1):
        gates.append(Hadamard(j))
        hi: SiteRef = j + 1 if j < L else "L+1"
        gates.append(ControlledZ(hi, j))
    gates.append(Hadamard("L+1"))
    return CliffordCircuit(layout, tuple(gates))


# ---------------------------------------------------------------------------
# duality maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DualityMap:
    """Ordered generator -> image table, each an exact phase-tracked string."""
    name: str
    entries: tuple[tuple[PauliString, PauliString], ...]


def _zz(layout: HilbertLayout, i: SiteRef, j: SiteRef) -> PauliString:
    return mul(PauliString.single(layout, "Z", i),
               PauliString.single(layout, "Z", j))


def phi1_table(L: int) -> DualityMap:
    layout = matter_layout(L)
    x = lambda j: PauliString.single(layout, "X", j)
    entries = []
    for j in range(1, L):
        r = L - j
        entries.append((x(j), _zz(layout, r, r + 1)))
        entries.append((_zz(layout, j, j + 1), x(r)))
    entries.append((eta_string(layout), PauliString.single(layout, "Z", L)))
    return DualityMap("phi1", tuple(entries))


def phi2_table(L: int) -> DualityMap:
    layout = matter_layout(L)
    x = lambda j: PauliString.single(layout, "X", j)
    eta = eta_string(layout)
    entries = []
    for j in range(1, L):
        entries.append((x(j), _zz(layout, j, j + 1)))
        entries.append((_zz(layout, j, j + 1), x(j + 1)))
    boundary = mul(eta, _zz(layout, L, 1))
    entries.append((x(L), boundary))
    entries.append((boundary, x(1)))
    entries.append((eta, eta))
    return DualityMap("phi2", tuple(entries))


def phi_gauged_table(L: int) -> DualityMap:
    layout = ancilla_layout(L)
    x = lambda j: PauliString.single(layout, "X", j)
    entries = []
    for j in range(1, L):
        entries.append((_zz(layout, j, j + 1), x(j + 1)))
        entries.append((x(j), _zz(layout, j, j + 1)))
    boundary = mul(mul(PauliString.single(layout, "Z", L),
                       PauliString.single(layout, "Z", "L+1")),
                   PauliString.single(layout, "Z", 1))
    entries.append((boundary, x(1)))
    entries.append((x(L), boundary))
    return DualityMap("phi_gauged", tuple(entries))


def verify_automorphism(c: CliffordCircuit, m: DualityMap) -> dict:
    """Check every table entry by exact string-with-phase equality.

    Runs purely symbolically, so very long chains are cheap.
    """
    records = []
    for gen, image in m.entries:
        got = conjugate_circuit(c, gen)
        ok = got == image
        expected = str(image)
        records.append({
            "generator": str(gen),
            "expected": expected,
            "got": expected if ok else str(got),  # equal: format once
            "ok": ok,
        })
    return {"map": m.name, "entries": records,
            "passed": all(r["ok"] for r in records)}

