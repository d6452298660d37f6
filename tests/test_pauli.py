"""Phase-tracked Pauli algebra: group law, commutation, sums, projectors,
and text form, all checked against kron-built dense oracles."""

import copy
import math
import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_string_matrix
from wignerlab.clifford import build_u_gauged, conjugate_circuit
from wignerlab.pauli import (LayoutMismatchError, PauliString, PauliSum,
                             _string, ancilla_layout, commutes, eta_string,
                             format_string, format_sum, link_layout,
                             matter_layout, mul, sum_commutator,
                             symmetry_projector)

LAYOUT3 = matter_layout(3)


def strings(layout=LAYOUT3):
    full = layout.dim - 1
    return st.builds(PauliString, st.just(layout),
                     st.integers(0, full), st.integers(0, full),
                     st.integers(0, 3))


def dense_sum(s: PauliSum) -> np.ndarray:
    out = np.zeros((s.layout.dim, s.layout.dim), dtype=complex)
    for c, p in s:
        out = out + c * oracle_string_matrix(p)
    return out


# -- layouts ---------------------------------------------------------------

def test_layout_indexing_roundtrip():
    lay = link_layout(3)
    assert lay.total_sites == 6
    sites = (1, 2, 3, "1/2", "3/2", "5/2")
    assert [lay.index_of(s) for s in sites] == list(range(lay.total_sites))
    assert lay.index_of(1) == 0
    assert lay.index_of(3) == 2


def test_ancilla_layout_slot():
    lay = ancilla_layout(4)
    assert lay.gauge_slots == ("L+1",)
    assert lay.index_of("L+1") == 4
    assert lay.dim == 32


def test_layout_mismatch_raises():
    p = PauliString.single(matter_layout(2), "X", 1)
    q = PauliString.single(matter_layout(3), "X", 1)
    assert p != q
    for op in (mul, commutes,
               lambda p, q: PauliSum.from_string(p) * PauliSum.from_string(q),
               lambda p, q: PauliSum.from_string(p) + PauliSum.from_string(q),
               lambda p, q: PauliSum.from_strings(p.layout, [(1, q)])):
        with pytest.raises(LayoutMismatchError):
            op(p, q)


def test_mask_outside_layout_rejected():
    with pytest.raises(ValueError):
        PauliString(matter_layout(2), x_mask=4)
    for lay in (matter_layout(2), ancilla_layout(3), matter_layout(130)):
        top = 1 << (lay.total_sites - 1)
        PauliString(lay, top | 1, top)  # the highest site is inside
        for x, z in ((top << 1, 0), (0, top << 1), (-1, 0), (0, -1), (-top, top)):
            with pytest.raises(ValueError, match="past the layout"):
                PauliString(lay, x, z)


# -- single strings ----------------------------------------------------------

def test_single_site_matrices_match_oracle():
    # trivial: X, Y, Z on one site of a 2-site chain
    lay = matter_layout(2)
    x = oracle_string_matrix(PauliString.single(lay, "X", 1))
    y = oracle_string_matrix(PauliString.single(lay, "Y", 1))
    z = oracle_string_matrix(PauliString.single(lay, "Z", 1))
    assert np.allclose(x @ x, np.eye(4))
    assert np.allclose(1j * x @ z, y)
    assert np.allclose(x @ z + z @ x, 0)


@settings(max_examples=200)
@given(strings(), strings())
def test_group_law_matches_dense(p, q):
    lhs = oracle_string_matrix(mul(p, q))
    rhs = oracle_string_matrix(p) @ oracle_string_matrix(q)
    assert np.allclose(lhs, rhs, atol=1e-14)


@settings(max_examples=200)
@given(strings(), strings())
def test_commutes_matches_dense(p, q):
    a, b = oracle_string_matrix(p), oracle_string_matrix(q)
    dense_commutes = np.allclose(a @ b, b @ a, atol=1e-14)
    assert commutes(p, q) == dense_commutes


@settings(max_examples=200)
@given(strings())
def test_dagger_and_hermiticity_match_dense(p):
    m = oracle_string_matrix(p)
    assert p.is_hermitian() == np.allclose(m, m.conj().T, atol=1e-14)


@settings(max_examples=100)
@given(strings())
def test_square_is_phase_times_identity(p):
    sq = mul(p, p)
    assert sq.x_mask == 0 and sq.z_mask == 0
    assert sq.phase_exp in (0, 2)


def test_weight_and_coefficient():
    p = mul(PauliString.single(LAYOUT3, "Y", 1), PauliString.single(LAYOUT3, "Z", 3))
    assert p.coefficient == 1j  # stored as i * X1 Z1 Z3


# -- value semantics -----------------------------------------------------------

@settings(max_examples=100)
@given(strings(ancilla_layout(3)), strings(ancilla_layout(3)))
def test_products_equal_validated_strings(p, q):
    # products, single sites and tableau rows skip the mask check; they
    # compare and hash as the checked constructor's strings do
    lay = p.layout
    c = build_u_gauged(3)
    made = [mul(p, q), conjugate_circuit(c, p),
            *(_string(lay, *row) for row in zip(*c.rows)),
            *(PauliString.single(lay, k, s) for k in "XYZ" for s in (1, "L+1"))]
    for r in made:
        v = PauliString(r.layout, r.x_mask, r.z_mask, r.phase_exp)
        assert r == v and v == r and hash(r) == hash(v)
        assert 0 <= r.phase_exp < 4
        assert {v: True}[r]
    assert PauliString(lay, 1, 0, 5) == PauliString(lay, 1, 0, 1)
    assert PauliString(lay, 1, 0, 0) != PauliString(lay, 1, 0, 2)
    assert PauliString(lay, 1, 0, 0) != (lay, 1, 0, 0)


def test_string_is_frozen():
    p = PauliString.single(LAYOUT3, "Y", 2)
    for name in ("layout", "x_mask", "z_mask", "phase_exp", "other"):
        with pytest.raises(FrozenInstanceError):
            setattr(p, name, 0)
    with pytest.raises(FrozenInstanceError):
        del p.x_mask
    assert (p.x_mask, p.z_mask, p.phase_exp) == (2, 2, 1)


def test_string_copies_and_pickles():
    lay = link_layout(2)
    p = mul(PauliString.single(lay, "Y", 1), PauliString.single(lay, "X", "3/2"))
    copies = [copy.copy(p), copy.deepcopy(p), copy.deepcopy({"k": [p]})["k"][0]]
    copies += [pickle.loads(pickle.dumps(p, protocol=k))
               for k in range(pickle.HIGHEST_PROTOCOL + 1)]
    for q in copies:
        assert type(q) is PauliString
        assert q == p and hash(q) == hash(p) and str(q) == str(p)
        assert q.layout.total_sites == 4


def test_string_and_layout_repr():
    p = PauliString.single(matter_layout(2), "Y", 1)
    assert repr(p) == ("PauliString(layout=HilbertLayout(n_matter=2, "
                       "gauge_slots=()), x_mask=1, z_mask=1, phase_exp=1)")
    assert repr(ancilla_layout(1)) == \
        "HilbertLayout(n_matter=1, gauge_slots=('L+1',))"


def test_equal_layouts_from_separate_calls_interoperate():
    a, b = link_layout(3), link_layout(3)
    assert a == b and a is not b and hash(a) == hash(b)
    z, x = PauliString.single(a, "Z", 1), PauliString.single(b, "X", 1)
    assert mul(z, x) == PauliString(a, 1, 1, 2)  # Z X = -X Z
    assert not commutes(z, x)
    s = PauliSum.from_string(z) * PauliSum.from_string(x)
    assert s == PauliSum.from_strings(b, [(1, mul(z, x))])
    assert PauliSum.from_string(z) + PauliSum.from_string(x) == \
        PauliSum.from_strings(a, [(1, z), (1, x)])


# -- sums --------------------------------------------------------------------

@settings(max_examples=60)
@given(strings(), strings(), strings())
def test_sum_distributivity_matches_dense(p, q, r):
    a = PauliSum.from_string(p, 0.5) + PauliSum.from_string(q, -2.0)
    b = PauliSum.from_string(r, 1.5j)
    assert np.allclose(dense_sum(a * b), dense_sum(a) @ dense_sum(b), atol=1e-12)
    assert np.allclose(dense_sum(a + b), dense_sum(a) + dense_sum(b), atol=1e-12)


def test_sum_cancellation_is_exact():
    p = PauliString(LAYOUT3, 0b001, 0b010)  # X1 Z2
    s = PauliSum.from_string(p) + (-1.0) * PauliSum.from_string(p)
    assert s.is_zero() and len(s) == 0


def test_sum_canonicalizes_phases():
    p = PauliString.single(LAYOUT3, "Y", 2)
    # i * (X2 Z2 with phase 1)  ==  -1 * (X2 Z2 with phase 3)
    a = PauliSum.from_string(p, 1.0)
    b = PauliSum.from_string(PauliString(LAYOUT3, p.x_mask, p.z_mask, 3), -1.0)
    assert a == b


@settings(max_examples=60)
@given(strings(), strings())
def test_sum_commutator_matches_dense(p, q):
    a, b = PauliSum.from_string(p), PauliSum.from_string(q)
    lhs = dense_sum(sum_commutator(a, b))
    am, bm = dense_sum(a), dense_sum(b)
    assert np.allclose(lhs, am @ bm - bm @ am, atol=1e-12)


@settings(max_examples=100)
@given(data=st.data(), layout=st.sampled_from([matter_layout(2), LAYOUT3,
                                               ancilla_layout(2)]))
def test_sum_frobenius_norm_matches_dense(data, layout):
    terms = data.draw(st.lists(st.tuples(
        st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
        strings(layout)), max_size=8))
    s = PauliSum.from_strings(layout, terms)
    assert s.frobenius_norm() == pytest.approx(
        np.linalg.norm(dense_sum(s)), rel=1e-12, abs=1e-300)


def test_sum_frobenius_norm_is_exact_and_saturates():
    assert PauliSum.zero(LAYOUT3).frobenius_norm() == 0.0
    # odd and even site counts: only the square root rounds
    for n in (3, 4, 1000):
        assert PauliSum.identity(matter_layout(n)).frobenius_norm() == \
            math.sqrt(2.0 ** n)
    assert PauliSum.zero(matter_layout(3000)).frobenius_norm() == 0.0
    assert PauliSum.identity(matter_layout(2100)).frobenius_norm() == math.inf


def test_sum_hermiticity_predicate():
    y = PauliString.single(LAYOUT3, "Y", 1)
    assert PauliSum.from_string(y, 2.0).is_hermitian()
    assert not PauliSum.from_string(y, 2.0j).is_hermitian()


# -- eta and projectors ------------------------------------------------------

def test_eta_string_is_all_x_on_matter():
    lay = ancilla_layout(3)
    eta = eta_string(lay)
    assert eta.x_mask == 0b0111 and eta.z_mask == 0 and eta.phase_exp == 0


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("on_ancilla", [False, True])
def test_projector_idempotent_and_resolution(sign, on_ancilla):
    lay = ancilla_layout(3) if on_ancilla else matter_layout(3)
    p = symmetry_projector(sign, lay, on_ancilla=on_ancilla)
    assert p * p == p
    both = symmetry_projector(1, lay, on_ancilla=on_ancilla) + \
        symmetry_projector(-1, lay, on_ancilla=on_ancilla)
    assert both == PauliSum.identity(lay)


def test_projector_eigenvalue_relation():
    lay = matter_layout(3)
    p = symmetry_projector(-1, lay)
    eta = PauliSum.from_string(eta_string(lay))
    assert eta * p == (-1.0) * p


# -- text form ----------------------------------------------------------------

def test_format_string_examples():
    assert format_string(PauliString(LAYOUT3, 0b001, 0b100)) \
        == "(+1i^0) X1 Z3 | L=3, gauge=[]"
    lay = link_layout(2)
    p = PauliString.single(lay, "X", "3/2")
    assert "X[3/2]" in format_string(p)


def test_format_sum_example():
    s = PauliSum.from_strings(LAYOUT3, [
        (-2, PauliString.single(LAYOUT3, "X", 3)),
        (0.5, PauliString(LAYOUT3, 0, 0b011))])
    # terms in sorted (x_mask, z_mask) order: Z1 Z2 is (0, 3), X3 is (4, 0)
    assert format_sum(s) == ("L=3, gauge=[]\n"
                             "(0.5+0j)  (+1i^0) Z1 Z2\n"
                             "(-2+0j)  (+1i^0) X3")
    assert str(s) == format_sum(s)


def per_site_format(p: PauliString) -> str:
    """Reference rendering that visits every site of the layout."""
    toks, n_y = [], 0
    for bit in range(p.layout.total_sites):
        x, z = (p.x_mask >> bit) & 1, (p.z_mask >> bit) & 1
        lay = p.layout
        site = bit + 1 if bit < lay.n_matter else lay.gauge_slots[bit - lay.n_matter]
        token = str(site) if isinstance(site, int) else f"[{site}]"
        if x and z:
            toks.append("Y" + token)
            n_y += 1
        elif x:
            toks.append("X" + token)
        elif z:
            toks.append("Z" + token)
    body = " ".join(toks) if toks else "I"
    header = f"L={lay.n_matter}, gauge=[{','.join(lay.gauge_slots)}]"
    return f"(+1i^{(p.phase_exp - n_y) % 4}) {body} | {header}"


@settings(max_examples=200)
@given(data=st.data(),
       make=st.sampled_from([matter_layout, ancilla_layout, link_layout]),
       n=st.integers(1, 40))
def test_format_string_matches_per_site_loop(data, make, n):
    p = data.draw(strings(make(n)))
    assert format_string(p) == per_site_format(p)


@settings(max_examples=100)
@given(data=st.data())
def test_from_strings_equals_sequential_sum(data):
    # integer coefficients keep the arithmetic exact, so the one-dict
    # accumulation must match term for term, cancellations included
    terms = data.draw(st.lists(st.tuples(
        st.builds(complex, st.integers(-3, 3), st.integers(-3, 3)),
        strings()), max_size=12))
    want = PauliSum.zero(LAYOUT3)
    for c, p in terms:
        want = want + PauliSum.from_string(p, c)
    assert PauliSum.from_strings(LAYOUT3, terms).terms == want.terms


def test_from_strings_rejects_other_layout():
    with pytest.raises(LayoutMismatchError):
        PauliSum.from_strings(LAYOUT3, [(1, eta_string(matter_layout(2)))])

