"""Clifford gates, duality circuits, and automorphism verification.

Every gate is defined once, in ``rotation_factors``, as a global phase times
quarter rotations ``exp(±i pi/4 A)`` about Hermitian Pauli strings, each of
which conjugates a Pauli string by an exact rule.  A circuit stores its gates
left to right as the operator product is written (the leftmost applied last)
and flattens them once into one phase and one tuple of factors; ``g p g†``
folds over the factors from the rightmost (innermost) outward.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Union

from .pauli import (HilbertLayout, PauliString, PauliSum, SiteRef,
                    ancilla_layout, commutes, eta_string, format_layout,
                    format_string, matter_layout, mul, parse_layout,
                    parse_string)


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


def _rot_conjugate(axis: PauliString, sign: int, p: PauliString) -> PauliString:
    # exp(i s pi/4 A) p exp(-i s pi/4 A) = p if [A,p]=0 else (i s) A p
    if commutes(axis, p):
        return p
    out = mul(axis, p)
    return PauliString(out.layout, out.x_mask, out.z_mask,
                       out.phase_exp + (1 if sign > 0 else 3))


def rotation_factors(layout: HilbertLayout, g: CliffordGate):
    """``(s, ((A1, t1), (A2, t2), ...))`` with
    ``g = e^{i s pi/4} R(A1, t1) R(A2, t2) ...``, ``R(A, t) = exp(i t pi/4 A)``.

    This is the one definition of every gate: symbolic conjugation folds the
    factors and drops the global phase, the dense backend multiplies them and
    keeps it.
    """
    single = lambda kind, site: PauliString.single(layout, kind, site)
    if isinstance(g, QuarterRotation):
        if g.axis.layout != layout:
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


def conjugate_circuit(c: CliffordCircuit, p: PauliString) -> PauliString:
    """``U p U†`` for the full ordered product."""
    if c.layout != p.layout:
        raise ValueError("circuit/operand layout mismatch")
    # U p U† = R1 (R2 (... p ...) R2†) R1†: the rightmost factor acts first
    for axis, sign in reversed(c.factors):
        p = _rot_conjugate(axis, sign, p)
    return p


def conjugate_gate(g: CliffordGate, p: PauliString) -> PauliString:
    """Exact ``g p g†`` for a single gate."""
    return conjugate_circuit(CliffordCircuit(p.layout, (g,)), p)


def conjugate_sum(c: CliffordCircuit, h: PauliSum) -> PauliSum:
    """``U h U†`` for a sum, term by term."""
    out = PauliSum.zero(h.layout)
    for coeff, p in h:
        out = out + PauliSum.from_string(conjugate_circuit(c, p), coeff)
    return out


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
        records.append({
            "generator": str(gen),
            "expected": str(image),
            "got": str(got),
            "ok": got == image,
        })
    return {"map": m.name, "entries": records,
            "passed": all(r["ok"] for r in records)}


# ---------------------------------------------------------------------------
# circuit text format
# ---------------------------------------------------------------------------

_GATE_NAMES = {ControlledX: "CX", ControlledZ: "CZ", Swap: "SWAP", Hadamard: "H"}
_GATE_KINDS = {name: cls for cls, name in _GATE_NAMES.items()}


def _parse_site(layout: HilbertLayout, tok: str) -> SiteRef:
    site = int(tok) if tok.isdigit() else tok
    layout.index_of(site)  # validates
    return site


def format_circuit(c: CliffordCircuit) -> str:
    """One gate per line: ``ROT - X3``, ``CX 2 1``, ``CZ 4 3``, ``SWAP 1 4``, ``H 4``."""
    lines = [format_layout(c.layout)]
    for g in c.gates:
        if isinstance(g, QuarterRotation):
            body = format_string(g.axis).split(" | ")[0].removeprefix("(+1i^0) ")
            lines.append(f"ROT {'+' if g.sign > 0 else '-'} {body}")
        else:
            lines.append(" ".join([_GATE_NAMES[type(g)],
                                   *(str(getattr(g, f.name)) for f in fields(g))]))
    return "\n".join(lines)


def parse_circuit(text: str) -> CliffordCircuit:
    header, *lines = [ln for ln in text.splitlines() if ln.strip()] or [""]
    layout = parse_layout(header)
    gates: list[CliffordGate] = []
    for ln in lines:
        kind, *args = ln.split()
        cls = _GATE_KINDS.get(kind)
        if cls is not None and len(args) == len(fields(cls)):
            gates.append(cls(*(_parse_site(layout, a) for a in args)))
        elif kind == "ROT" and len(args) > 1 and args[0] in ("+", "-"):
            body = " ".join(args[1:])
            if not body.startswith("("):
                body = f"(+1i^0) {body}"
            axis = parse_string(f"{body} | {format_layout(layout)}")
            gates.append(QuarterRotation(axis, 1 if args[0] == "+" else -1))
        else:
            raise ValueError(f"bad gate line {ln!r}")
    return CliffordCircuit(layout, tuple(gates))
