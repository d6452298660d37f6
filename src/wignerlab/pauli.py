"""Exact symbolic algebra of phase-tracked Pauli strings.

A string is stored as a pair of bit masks over the sites of a
:class:`HilbertLayout` together with an integer power of ``i``:

    operator = i**phase_exp * prod_j X_j**x_j * Z_j**z_j   (X left of Z per site)

so ``Y_j = i * X_j Z_j`` is the string with both bits set at ``j`` and
``phase_exp = 1``.  All group operations are exact integer arithmetic; no
floating phases ever enter the symbolic kernel.  The package's builders
write each string straight from its masks, and a ``PauliSum`` is a dict
keyed by ``(x_mask, z_mask)``, so sums are built and combined without a
string object per term; ``PauliString.single`` and ``mul`` are the
per-site API for callers.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Union

SiteRef = Union[int, str]  # matter sites are 1-based ints, gauge slots are labels

#: coefficient magnitude below which PauliSum terms are dropped after
#: floating-coefficient arithmetic
COEF_TOL = 1e-12

#: ``1j ** k`` for ``k = 0..3``, the coefficient of a string's phase
POWERS_OF_I = tuple(1j ** k for k in range(4))


class LayoutMismatchError(ValueError):
    """Raised when two operands live on different site layouts."""


@dataclass(frozen=True)
class HilbertLayout:
    """Site layout: ``n_matter`` spins followed by optional gauge slots.

    Matter site ``j`` (1-based) occupies bit ``j - 1``; gauge slots follow in
    declared label order, so the Hilbert-space dimension is
    ``2 ** total_sites`` with basis index ``sum_b bit_b * 2**b``.
    """

    n_matter: int
    gauge_slots: tuple[str, ...] = ()
    total_sites: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_matter < 0:
            raise ValueError("n_matter must be non-negative")
        if len(set(self.gauge_slots)) != len(self.gauge_slots):
            raise ValueError("duplicate gauge slot labels")
        object.__setattr__(self, "gauge_slots", tuple(self.gauge_slots))
        object.__setattr__(self, "total_sites",
                           self.n_matter + len(self.gauge_slots))

    @property
    def dim(self) -> int:
        return 1 << self.total_sites

    def index_of(self, site: SiteRef) -> int:
        """Bit position of a matter site (int, 1-based) or gauge label (str)."""
        if isinstance(site, int):
            if not 1 <= site <= self.n_matter:
                raise ValueError(f"matter site {site} outside 1..{self.n_matter}")
            return site - 1
        try:
            return self.n_matter + self.gauge_slots.index(site)
        except ValueError:
            raise ValueError(f"unknown gauge slot {site!r}") from None

    @cached_property
    def site_labels(self) -> tuple[str, ...]:
        """Text label of each bit: the matter site number, or the gauge
        slot's label in brackets."""
        return (*map(str, range(1, self.n_matter + 1)),
                *(f"[{label}]" for label in self.gauge_slots))

    @cached_property
    def header(self) -> str:
        """``L=<n>, gauge=[<labels>]``, the header of every text form."""
        return f"L={self.n_matter}, gauge=[{','.join(self.gauge_slots)}]"


def matter_layout(L: int) -> HilbertLayout:
    return HilbertLayout(L)


def ancilla_layout(L: int) -> HilbertLayout:
    """L matter sites plus the single boundary-link ancilla ``L+1``."""
    return HilbertLayout(L, ("L+1",))


def link_layout(L: int) -> HilbertLayout:
    """L matter sites plus one gauge link per bond, labels ``1/2 .. L-1/2``."""
    return HilbertLayout(L, tuple(f"{2 * j - 1}/2" for j in range(1, L + 1)))


def set_bits(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, ascending."""
    if not mask & (mask - 1):  # zero or one bit, as most gate masks are
        return [mask.bit_length() - 1] if mask else []
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _check_layout(a: "PauliString | PauliSum", b: "PauliString | PauliSum") -> None:
    if a.layout is not b.layout and a.layout != b.layout:
        raise LayoutMismatchError(f"layout mismatch: {a.layout} vs {b.layout}")


class PauliString:
    """Immutable value ``i**phase_exp * prod_j X_j**x_j Z_j**z_j`` on ``layout``.

    The constructor checks that the masks fit the layout; products,
    single-site strings, builder strings and tableau rows, which fit
    whenever their inputs do, are built by the unchecked ``_string``.
    """

    __slots__ = ("layout", "x_mask", "z_mask", "phase_exp")

    layout: HilbertLayout
    x_mask: int
    z_mask: int
    phase_exp: int  # overall factor i**phase_exp, mod 4

    def __init__(self, layout: HilbertLayout, x_mask: int = 0, z_mask: int = 0,
                 phase_exp: int = 0) -> None:
        if (x_mask | z_mask) >> layout.total_sites:
            raise ValueError("mask extends past the layout")
        _set_layout(self, layout)
        _set_x(self, x_mask)
        _set_z(self, z_mask)
        _set_phase(self, phase_exp % 4)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return PauliString, (self.layout, self.x_mask, self.z_mask,
                             self.phase_exp)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not PauliString:
            return NotImplemented
        return (self.x_mask == other.x_mask and self.z_mask == other.z_mask
                and self.phase_exp == other.phase_exp
                and (self.layout is other.layout or self.layout == other.layout))

    def __hash__(self) -> int:
        return hash((self.layout, self.x_mask, self.z_mask, self.phase_exp))

    def __repr__(self) -> str:
        return (f"PauliString(layout={self.layout!r}, x_mask={self.x_mask!r}, "
                f"z_mask={self.z_mask!r}, phase_exp={self.phase_exp!r})")

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, layout: HilbertLayout) -> "PauliString":
        return cls(layout)

    @classmethod
    def single(cls, layout: HilbertLayout, kind: str, site: SiteRef) -> "PauliString":
        """Single-site X/Y/Z operator."""
        b = 1 << layout.index_of(site)
        if kind == "X":
            return _string(layout, b, 0, 0)
        if kind == "Z":
            return _string(layout, 0, b, 0)
        if kind == "Y":
            return _string(layout, b, b, 1)  # Y = i X Z
        raise ValueError(f"unknown Pauli kind {kind!r}")

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other: "PauliString") -> "PauliString":
        return mul(self, other)

    def is_hermitian(self) -> bool:
        # i**p * B with B† = (-1)**|x&z| B is Hermitian iff p = |x&z| mod 2
        return (self.phase_exp - (self.x_mask & self.z_mask).bit_count()) % 2 == 0

    @property
    def coefficient(self) -> complex:
        return POWERS_OF_I[self.phase_exp]

    # -- text form ---------------------------------------------------------

    def __str__(self) -> str:
        return format_string(self)


# slot setters that bypass the frozen ``__setattr__``
_set_layout = PauliString.layout.__set__
_set_x = PauliString.x_mask.__set__
_set_z = PauliString.z_mask.__set__
_set_phase = PauliString.phase_exp.__set__
_new = object.__new__


def _string(layout: HilbertLayout, x_mask: int, z_mask: int,
            phase_exp: int) -> PauliString:
    """Unchecked constructor: the masks must fit ``layout`` and
    ``0 <= phase_exp < 4``."""
    s = _new(PauliString)
    _set_layout(s, layout)
    _set_x(s, x_mask)
    _set_z(s, z_mask)
    _set_phase(s, phase_exp)
    return s


def mul(p: PauliString, q: PauliString) -> PauliString:
    """Group product ``p * q`` with exact phase tracking."""
    layout = p.layout
    if layout is not q.layout and layout != q.layout:
        raise LayoutMismatchError(f"layout mismatch: {layout} vs {q.layout}")
    # per site: (X^a Z^b)(X^c Z^d) = (-1)^{b c} X^{a^c} Z^{b^d}
    swaps = (p.z_mask & q.x_mask).bit_count()
    return _string(layout, p.x_mask ^ q.x_mask, p.z_mask ^ q.z_mask,
                   (p.phase_exp + q.phase_exp + 2 * swaps) & 3)


def commutes(p: PauliString, q: PauliString) -> bool:
    """True iff ``pq = qp`` (symplectic-form parity)."""
    _check_layout(p, q)
    sym = (p.x_mask & q.z_mask).bit_count() + (p.z_mask & q.x_mask).bit_count()
    return sym % 2 == 0


def eta_string(layout: HilbertLayout) -> PauliString:
    """The global spin-flip ``prod_j sigma^x_j`` over the matter sites."""
    if layout.n_matter < 1:
        raise ValueError("layout has no matter sites")
    return PauliString(layout, (1 << layout.n_matter) - 1, 0, 0)


class PauliSum:
    """Complex linear combination of Pauli strings in canonical form.

    Term keys are phase-free strings; string phases are folded into the
    coefficients.  Zero coefficients are dropped on construction.
    """

    __slots__ = ("layout", "terms")

    def __init__(self, layout: HilbertLayout,
                 terms: dict[tuple[int, int], complex] | None = None):
        self.layout = layout
        self.terms: dict[tuple[int, int], complex] = (
            {key: c for key, c in terms.items() if c != 0 and abs(c) > COEF_TOL}
            if terms else {})

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, layout: HilbertLayout) -> "PauliSum":
        return cls(layout)

    @classmethod
    def identity(cls, layout: HilbertLayout) -> "PauliSum":
        return cls(layout, {(0, 0): 1.0 + 0j})

    @classmethod
    def from_string(cls, p: PauliString, coeff: complex = 1.0) -> "PauliSum":
        return cls(p.layout, {(p.x_mask, p.z_mask): coeff * p.coefficient})

    @classmethod
    def from_strings(cls, layout: HilbertLayout,
                     terms: Iterable[tuple[complex, PauliString]]) -> "PauliSum":
        """``sum c p`` over ``(c, p)`` in ``terms``, collected in one dict."""
        acc: dict[tuple[int, int], complex] = {}
        for c, p in terms:
            if p.layout is not layout and p.layout != layout:
                raise LayoutMismatchError(
                    f"layout mismatch: {layout} vs {p.layout}")
            key = (p.x_mask, p.z_mask)
            acc[key] = acc.get(key, 0j) + c * p.coefficient
        return cls(layout, acc)

    # -- inspection --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __iter__(self) -> Iterator[tuple[complex, PauliString]]:
        for (x, z), c in sorted(self.terms.items()):
            yield c, PauliString(self.layout, x, z, 0)

    def coefficient_of(self, p: PauliString) -> complex:
        c = self.terms.get((p.x_mask, p.z_mask), 0j)
        return c / p.coefficient

    def is_hermitian(self) -> bool:
        for (x, z), c in self.terms.items():
            w = (x & z).bit_count()
            if abs(c.conjugate() * (-1) ** w - c) > COEF_TOL:
                return False
        return True

    def frobenius_norm(self) -> float:
        """``sqrt(tr S†S) = sqrt(dim * sum |c|^2)``, since distinct strings are
        Hilbert-Schmidt orthogonal and each has ``tr p†p = dim``; ``inf``
        when that lies past the float range."""
        total = math.fsum(c.real * c.real + c.imag * c.imag
                          for c in self.terms.values())
        sites = self.layout.total_sites
        try:  # the power of two is exact, so only the square root rounds
            return math.ldexp(math.sqrt(math.ldexp(total, sites & 1)), sites >> 1)
        except OverflowError:
            return math.inf

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliSum):
            return NotImplemented
        return ((self.layout is other.layout or self.layout == other.layout)
                and (self - other).is_zero())

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "PauliSum") -> "PauliSum":
        _check_layout(self, other)
        acc = dict(self.terms)
        for key, c in other.terms.items():
            acc[key] = acc.get(key, 0j) + c
        return PauliSum(self.layout, acc)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-1) * other

    def __rmul__(self, scalar: complex) -> "PauliSum":
        return PauliSum(self.layout, {k: scalar * c for k, c in self.terms.items()})

    def __neg__(self) -> "PauliSum":
        return (-1) * self

    def __mul__(self, other: "PauliSum") -> "PauliSum":
        _check_layout(self, other)
        acc: dict[tuple[int, int], complex] = {}
        for (x1, z1), c1 in self.terms.items():
            for (x2, z2), c2 in other.terms.items():
                c = c1 * c2  # times (-1)^swaps
                if (z1 & x2).bit_count() & 1:
                    c = -c
                key = (x1 ^ x2, z1 ^ z2)
                acc[key] = acc.get(key, 0j) + c
        return PauliSum(self.layout, acc)

    def __str__(self) -> str:
        return format_sum(self)


def sum_commutator(a: PauliSum, b: PauliSum) -> PauliSum:
    """``ab - ba`` in canonical form; the empty sum encodes exact commutation.

    One pass over the term pairs: commuting pairs cancel, and an
    anticommuting pair has ``pq - qp = 2pq``.
    """
    _check_layout(a, b)
    acc: dict[tuple[int, int], complex] = {}
    for (x1, z1), c1 in a.terms.items():
        for (x2, z2), c2 in b.terms.items():
            swaps = z1 & x2
            if not ((x1 & z2) ^ swaps).bit_count() & 1:
                continue
            c = 2 * (c1 * c2)  # times (-1)^swaps, as in PauliSum.__mul__
            if swaps.bit_count() & 1:
                c = -c
            key = (x1 ^ x2, z1 ^ z2)
            acc[key] = acc.get(key, 0j) + c
    return PauliSum(a.layout, acc)


def symmetry_projector(sign: int, layout: HilbertLayout,
                       on_ancilla: bool = False) -> PauliSum:
    """``(1 +- s)/2`` with ``s`` either the eta string or the ancilla Z.

    With ``on_ancilla`` the designated symmetry is ``Z_{L+1}`` on the single
    gauge slot (the minimally gauged projector), which acts trivially on the
    matter sites.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if on_ancilla:
        if "L+1" not in layout.gauge_slots:
            raise ValueError("layout has no ancilla slot L+1")
        key = (0, 1 << layout.index_of("L+1"))
    else:
        eta = eta_string(layout)
        key = (eta.x_mask, eta.z_mask)
    return PauliSum(layout, {(0, 0): 0.5, key: 0.5 * sign})


# ---------------------------------------------------------------------------
# text form
# ---------------------------------------------------------------------------

def _format_body(layout: HilbertLayout, xm: int, zm: int) -> str:
    labels = layout.site_labels
    y = xm & zm
    toks = []
    rest = xm | zm
    while rest:
        low = rest & -rest
        kind = "Y" if y & low else "X" if xm & low else "Z"
        toks.append(kind + labels[low.bit_length() - 1])
        rest ^= low
    return " ".join(toks) if toks else "I"


def format_string(p: PauliString) -> str:
    """Render e.g. ``(+1i^0) X1 Z3 | L=4, gauge=[]`` (Y-folded exponent)."""
    xm, zm = p.x_mask, p.z_mask
    exp = (p.phase_exp - (xm & zm).bit_count()) % 4  # i^p X Z = i^(p-1) Y per Y site
    return f"(+1i^{exp}) {_format_body(p.layout, xm, zm)} | {p.layout.header}"


def format_sum(s: PauliSum) -> str:
    lines = [s.layout.header]
    for (x, z), c in sorted(s.terms.items()):
        exp = -(x & z).bit_count() % 4  # the key is the phase-free string
        lines.append(f"{c!r}  (+1i^{exp}) {_format_body(s.layout, x, z)}")
    return "\n".join(lines)

