"""Clifford gates, duality circuits, and automorphism verification.

Every gate is defined once, in ``rotation_factors``, as a global phase times
quarter rotations ``(1 + B)/sqrt(2)``, ``B = i^d X^x Z^z``, each an integer
triple ``(x, z, d)`` written straight from the gate's bit positions.  A
circuit stores its gates left to right as the operator product is written
(the leftmost applied last) and flattens them once into one phase and one
tuple of triples, read as they are by the tableau, ``conjugate_gate`` and the
dense backend.  On first use it compiles them into a stabilizer tableau, the
images ``U g U†`` of every ``X_j`` and ``Z_j`` (Aaronson & Gottesman,
quant-ph/0406196): three lists of plain integers, X rows, Z rows and row
phases.  ``U p U†`` is the product of the rows that ``p``'s bits name, folded
on those integers; a sum is conjugated and a duality table checked on them
with no string per term or entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

import numpy as np

from .pauli import (POWERS_OF_I, HilbertLayout, PauliString, PauliSum,
                    SiteRef, _string, ancilla_layout, eta_string,
                    matter_layout, set_bits)


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
    """``(s, ((x1, z1, d1), (x2, z2, d2), ...))`` with
    ``g = e^{i s pi/4} R_1 R_2 ...``, ``R_k = (1 + B_k)/sqrt(2)`` and
    ``B_k = i^d_k X^x_k Z^z_k``.

    This is the one definition of every gate: the tableau folds the factors
    and drops the global phase; the dense backend multiplies them into
    column 0, keeping the phase, and folds them into the images of X_j.
    ``R(A, t) = exp(i t pi/4 A)`` is ``B = i t A``, so ``d`` is ``A``'s
    phase plus ``2 - t``.  Conjugation by ``R`` maps ``p`` to ``p`` if ``B``
    and ``p`` commute and to ``B p`` if they anticommute.  A two-site gate
    on one site twice gets the product of its one-site factors, as ``mul``
    would give: ``X_i X_i = 1``, ``Z_c X_c = -X_c Z_c``.
    """
    if isinstance(g, QuarterRotation):
        a = g.axis
        if a.layout is not layout and a.layout != layout:
            raise ValueError("rotation axis layout differs from the operand's")
        return 0, ((a.x_mask, a.z_mask, (a.phase_exp + 2 - g.sign) % 4),)
    bit = lambda site: 1 << layout.index_of(site)
    if isinstance(g, Hadamard):
        b = bit(g.site)
        return -2, ((0, b, 1), (b, 0, 1), (0, b, 1))
    if isinstance(g, Swap):
        p = bit(g.i) ^ bit(g.j)  # Y_i Y_j = -X_i Z_i X_j Z_j, or 1
        return -1, ((p, 0, 1), (p, p, 3 if p else 1), (0, p, 1))
    if isinstance(g, ControlledX):
        bc, bt = bit(g.control), bit(g.target)
        return 1, ((bt, bc, 3 if bc == bt else 1), (0, bc, 3), (bt, 0, 3))
    if isinstance(g, ControlledZ):
        bi, bj = bit(g.i), bit(g.j)
        return -1, ((0, bi ^ bj, 3), (0, bi, 1), (0, bj, 1))
    raise TypeError(f"unknown gate {g!r}")


@dataclass(frozen=True)
class CliffordCircuit:
    """The ordered product of ``gates``, also held as one global phase
    ``e^{i phase pi/4}`` times the flat tuple of quarter-rotation ``factors``,
    each an ``(x, z, d)`` triple of ``rotation_factors``."""
    layout: HilbertLayout
    gates: tuple[CliffordGate, ...]
    phase: int = field(init=False, repr=False, compare=False)
    factors: tuple[tuple[int, int, int], ...] = field(
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
    def rows(self) -> tuple[list[int], list[int], list[int]]:
        """The tableau as plain integers ``(x_rows, z_rows, phases)``: row ``r``
        is ``U g_r U† = i^phases[r] X^x_rows[r] Z^z_rows[r]`` for
        ``g = X_0 .. X_{n-1}, Z_0 .. Z_{n-1}`` (bit order), compiled on
        first use, a block of rows at a time."""
        n = self.layout.total_sites
        # U = R_1 R_2 ... R_k, so each row is conjugated by R_k first
        steps = [(set_bits(x), set_bits(z), d) for x, z, d in reversed(self.factors)]
        x_rows, z_rows, phases = [], [], []
        block = max(8, _CHUNK_BYTES // max(n, 1))
        for start in range(0, 2 * n, block):
            xs, zs, ps = _compile_rows(steps, n, start, min(block, 2 * n - start))
            x_rows += xs
            z_rows += zs
            phases += ps
        return x_rows, z_rows, phases


# bytes of bits of one block of tableau rows: a block of rows is compiled
# and transposed at a time, so the tableau's columns never exist whole
_CHUNK_BYTES = 1 << 20


def _compile_rows(steps, n: int, start: int,
                  width: int) -> tuple[list[int], list[int], list[int]]:
    """Rows ``start .. start + width - 1`` of the tableau, each generator
    folded through ``steps``, ``(x bits, z bits, d)`` for a quarter rotation
    that maps an anticommuting row to ``B row``, ``B = i^d X^x Z^z``."""
    # bit-sliced: bit r of xs[j] / zs[j] is the X / Z bit at site j of row
    # start + r, and that row carries the phase i^(p0_r + 2 p1_r)
    xs, zs = [0] * n, [0] * n
    for r in range(start, start + width):
        if r < n:
            xs[r] = 1 << (r - start)
        else:
            zs[r - n] = 1 << (r - start)
    p0 = p1 = 0
    for ax, az, d in steps:
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
        for j in ax:
            xs[j] ^= anti
        for j in az:
            zs[j] ^= anti
        if d & 1:
            p1 ^= p0 & anti
            p0 ^= anti
        if d & 2:
            p1 ^= anti
        p1 ^= t & anti
    return (_transpose(xs, width), _transpose(zs, width),
            [(p0 >> r & 1) | (p1 >> r & 1) << 1 for r in range(width)])


def _transpose(columns: list[int], n_rows: int) -> list[int]:
    """Bit ``r`` of ``columns[j]`` is bit ``j`` of row ``r``; return the rows."""
    nbytes = (n_rows + 7) // 8
    packed = np.frombuffer(b"".join([c.to_bytes(nbytes, "little") for c in columns]),
                           dtype=np.uint8).reshape(len(columns), nbytes)
    bits = np.unpackbits(packed, axis=1, count=n_rows, bitorder="little")
    data = np.packbits(bits.T, axis=1, bitorder="little").tobytes()
    width = (len(columns) + 7) // 8  # bytes per row
    return [int.from_bytes(data[i:i + width], "little")
            for i in range(0, n_rows * width, width)]


def _fold(rows: tuple[list[int], list[int], list[int]], n: int,
          x_mask: int, z_mask: int, phase: int) -> tuple[int, int, int]:
    """``(x, z, phase)`` of ``U p U†`` for ``p = i^phase X^x_mask Z^z_mask``.

    ``p = i^phase prod_j X_j^x_j prod_j Z_j^z_j`` and conjugation is a
    homomorphism: multiply the rows in that order, as in ``pauli.mul``.
    """
    x_rows, z_rows, phases = rows
    x = z = 0
    for mask, offset in ((x_mask, 0), (z_mask, n)):
        while mask:
            low = mask & -mask
            r = offset + low.bit_length() - 1
            rx = x_rows[r]
            phase += phases[r] + 2 * (z & rx).bit_count()
            x ^= rx
            z ^= z_rows[r]
            mask ^= low
    return x, z, phase & 3


def conjugate_circuit(c: CliffordCircuit, p: PauliString) -> PauliString:
    """``U p U†`` for the full ordered product, as a product of tableau rows."""
    layout = c.layout
    if layout is not p.layout and layout != p.layout:
        raise ValueError("circuit/operand layout mismatch")
    x, z, phase = _fold(c.rows, layout.total_sites, p.x_mask, p.z_mask,
                        p.phase_exp)
    return _string(layout, x, z, phase)


def conjugate_factors(factors, x: int, z: int,
                      phase: int) -> tuple[int, int, int]:
    """``(x, z, phase)`` of ``R p R†`` for ``p = i^phase X^x Z^z`` and ``R``
    the product of the quarter-rotation triples ``factors``, folded on ``p``
    the rightmost (innermost) first: each maps an anticommuting ``p`` to
    ``B p`` and leaves a commuting one."""
    for bx, bz, d in reversed(factors):
        swaps = bz & x
        if ((bx & z) ^ swaps).bit_count() & 1:  # anticommuting: B p
            phase += d + 2 * swaps.bit_count()
            x ^= bx
            z ^= bz
    return x, z, phase & 3


def conjugate_gate(g: CliffordGate, p: PauliString) -> PauliString:
    """Exact ``g p g†`` for a single gate: its quarter rotations folded on
    ``p`` by ``conjugate_factors``."""
    layout = p.layout
    return _string(layout, *conjugate_factors(
        rotation_factors(layout, g)[1], p.x_mask, p.z_mask, p.phase_exp))


def conjugate_sum(c: CliffordCircuit, h: PauliSum) -> PauliSum:
    """``U h U†`` for a sum, term by term in sorted term order, so that the
    coefficients that land on one term add up in an order that does not
    depend on the dict order of ``h``."""
    if c.layout is not h.layout and c.layout != h.layout:
        raise ValueError("circuit/operand layout mismatch")
    rows, n = c.rows, c.layout.total_sites
    acc: dict[tuple[int, int], complex] = {}
    for (x, z), coeff in sorted(h.terms.items()):
        gx, gz, phase = _fold(rows, n, x, z, 0)
        key = (gx, gz)
        acc[key] = acc.get(key, 0j) + coeff * POWERS_OF_I[phase]
    return PauliSum(h.layout, acc)


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
    """Quarter-rotation duality circuit for the self-dual closed chain:
    ``exp(-i pi/4 X_j)`` and ``exp(-i pi/4 Z_j Z_{j+1})`` over j=1..L-1, then
    ``exp(-i pi/4 X_L)``."""
    if L < 2:
        raise ValueError("L must be >= 2")
    layout = matter_layout(L)
    gates: list[CliffordGate] = []
    for b in range(L - 1):  # bit b is site b + 1
        gates.append(QuarterRotation(_string(layout, 1 << b, 0, 0), -1))
        gates.append(QuarterRotation(_string(layout, 0, 3 << b, 0), -1))
    gates.append(QuarterRotation(_string(layout, 1 << (L - 1), 0, 0), -1))
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


# Table strings are written from bit masks: matter site j is bit j - 1, and
# a two-site mask is the XOR of its bits, so a repeated site cancels as in
# ``mul``.  Every table string has phase 0.

def _x(layout: HilbertLayout, b: int) -> PauliString:
    return _string(layout, 1 << b, 0, 0)


def _z(layout: HilbertLayout, mask: int) -> PauliString:
    return _string(layout, 0, mask, 0)


def phi1_table(L: int) -> DualityMap:
    layout = matter_layout(L)
    entries = []
    for j in range(1, L):
        r = L - j
        entries.append((_x(layout, j - 1), _z(layout, 3 << (r - 1))))
        entries.append((_z(layout, 3 << (j - 1)), _x(layout, r - 1)))
    entries.append((eta_string(layout), _z(layout, 1 << (L - 1))))
    return DualityMap("phi1", tuple(entries))


def phi2_table(L: int) -> DualityMap:
    layout = matter_layout(L)
    eta = eta_string(layout)
    entries = []
    for j in range(1, L):
        entries.append((_x(layout, j - 1), _z(layout, 3 << (j - 1))))
        entries.append((_z(layout, 3 << (j - 1)), _x(layout, j)))
    # eta Z_L Z_1
    boundary = _string(layout, eta.x_mask, (1 << (L - 1)) ^ 1, 0)
    entries.append((_x(layout, L - 1), boundary))
    entries.append((boundary, _x(layout, 0)))
    entries.append((eta, eta))
    return DualityMap("phi2", tuple(entries))


def phi_gauged_table(L: int) -> DualityMap:
    layout = ancilla_layout(L)
    entries = []
    for j in range(1, L):
        entries.append((_z(layout, 3 << (j - 1)), _x(layout, j)))
        entries.append((_x(layout, j - 1), _z(layout, 3 << (j - 1))))
    # Z_L Z_{L+1} Z_1, the ancilla L+1 on bit L
    boundary = _z(layout, (1 << (L - 1)) ^ (1 << layout.index_of("L+1")) ^ 1)
    entries.append((boundary, _x(layout, 0)))
    entries.append((_x(layout, L - 1), boundary))
    return DualityMap("phi_gauged", tuple(entries))


def verify_automorphism(c: CliffordCircuit, m: DualityMap) -> dict:
    """Check every table entry by exact string-with-phase equality.

    Runs purely symbolically on the tableau's integers, so very long chains
    are cheap; a string is built only for a ``got`` that differs.  Raises
    ``ValueError`` for a table on another layout, before any entry.
    """
    layout = c.layout
    layouts = {id(p.layout): p.layout for entry in m.entries for p in entry}
    if any(lay is not layout and lay != layout for lay in layouts.values()):
        raise ValueError("circuit/table layout mismatch")
    rows, n = c.rows, layout.total_sites
    # most table strings are the generator of one entry and the image of
    # another: format each once per call
    text: dict[tuple[int, int, int], str] = {}

    def fmt(p: PauliString) -> str:
        key = (p.x_mask, p.z_mask, p.phase_exp)
        if key not in text:
            text[key] = str(p)
        return text[key]

    records = []
    for gen, image in m.entries:
        got = _fold(rows, n, gen.x_mask, gen.z_mask, gen.phase_exp)
        ok = got == (image.x_mask, image.z_mask, image.phase_exp)
        expected = fmt(image)
        records.append({
            "generator": fmt(gen),
            "expected": expected,
            "got": expected if ok else str(_string(layout, *got)),
            "ok": ok,
        })
    return {"map": m.name, "entries": records,
            "passed": all(r["ok"] for r in records)}
