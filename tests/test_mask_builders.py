"""The mask-built symbolic layer against the per-site construction.

The package writes every string of its Hamiltonians, circuits and tables
straight from bit masks, and conjugates through a tableau of plain integers.
The reference builders here assemble the same objects site by site with
``PauliString.single`` and ``pauli.mul``, which the package itself no longer
uses; a guard test makes sure it stays that way.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fold_conjugate
from wignerlab import cli, clifford, models, pauli
from wignerlab.clifford import (CliffordCircuit, ControlledX, ControlledZ,
                                DualityMap, Hadamard, QuarterRotation, Swap,
                                build_u1, build_u2, build_u_gauged,
                                conjugate_circuit, conjugate_gate,
                                conjugate_sum, phi1_table, phi2_table,
                                phi_gauged_table, rotation_factors)
from wignerlab.dense import materialize
from wignerlab.models import (Family, ModelSpec, build_hamiltonian,
                              emergent_boundary_z, gauss_law_operators)
from wignerlab.pauli import (PauliString, PauliSum, ancilla_layout, eta_string,
                             format_string, format_sum, link_layout,
                             matter_layout, mul, sum_commutator,
                             symmetry_projector)

SIZES = [*range(2, 10), 64, 128]


# -- the per-site construction ------------------------------------------------

def single(layout, kind, site):
    return PauliString.single(layout, kind, site)


def zz(layout, i, j):
    return mul(single(layout, "Z", i), single(layout, "Z", j))


def link_label(j, L):
    j = (j - 1) % L + 1
    return f"{2 * j + 1}/2" if j < L else "1/2"


def ref_hamiltonian(spec):
    L, layout = spec.L, spec.layout
    z = lambda j: single(layout, "Z", j)
    x = lambda j: single(layout, "X", j)
    terms = []
    if spec.family is Family.FULLY_GAUGED_HG:
        for j in range(1, L + 1):
            bond = mul(mul(z(j), single(layout, "X", link_label(j, L))),
                       z(j % L + 1))
            terms += [(-1, x(j)), (-1, bond)]
        return PauliSum.from_strings(layout, terms)
    for j in range(1, L):
        terms += [(-1, mul(z(j), z(j + 1))), (-1, x(j))]
    if spec.family is Family.OPEN_H1:
        return PauliSum.from_strings(layout, terms)
    terms.append((-1, x(L)))
    boundary = mul(z(L), z(1))
    if spec.family is Family.SELF_DUAL_CLOSED_H2:
        terms.append((-1, mul(eta_string(layout), boundary)))
    elif spec.family is Family.PERIODIC_H_PLUS:
        terms.append((-1, boundary))
    elif spec.family is Family.ANTIPERIODIC_H_MINUS:
        terms.append((1, boundary))
    else:
        terms.append((-1, mul(mul(z(L), single(layout, "Z", "L+1")), z(1))))
    return PauliSum.from_strings(layout, terms)


def ref_phi1(L):
    layout = matter_layout(L)
    x = lambda j: single(layout, "X", j)
    entries = []
    for j in range(1, L):
        r = L - j
        entries += [(x(j), zz(layout, r, r + 1)), (zz(layout, j, j + 1), x(r))]
    entries.append((eta_string(layout), single(layout, "Z", L)))
    return DualityMap("phi1", tuple(entries))


def ref_phi2(L):
    layout = matter_layout(L)
    x = lambda j: single(layout, "X", j)
    eta = eta_string(layout)
    entries = []
    for j in range(1, L):
        entries += [(x(j), zz(layout, j, j + 1)), (zz(layout, j, j + 1), x(j + 1))]
    boundary = mul(eta, zz(layout, L, 1))
    entries += [(x(L), boundary), (boundary, x(1)), (eta, eta)]
    return DualityMap("phi2", tuple(entries))


def ref_phi_gauged(L):
    layout = ancilla_layout(L)
    x = lambda j: single(layout, "X", j)
    entries = []
    for j in range(1, L):
        entries += [(zz(layout, j, j + 1), x(j + 1)), (x(j), zz(layout, j, j + 1))]
    boundary = mul(zz(layout, L, "L+1"), single(layout, "Z", 1))
    entries += [(boundary, x(1)), (x(L), boundary)]
    return DualityMap("phi_gauged", tuple(entries))


def ref_u2(L):
    layout = matter_layout(L)
    gates = []
    for j in range(1, L):
        gates += [QuarterRotation(single(layout, "X", j), -1),
                  QuarterRotation(zz(layout, j, j + 1), -1)]
    gates.append(QuarterRotation(single(layout, "X", L), -1))
    return CliffordCircuit(layout, tuple(gates))


def ref_rotation_factors(layout, g):
    s = lambda kind, site: single(layout, kind, site)
    if isinstance(g, Hadamard):
        z, x = s("Z", g.site), s("X", g.site)
        return -2, ((z, 1), (x, 1), (z, 1))
    if isinstance(g, Swap):
        pair = lambda kind: mul(s(kind, g.i), s(kind, g.j))
        return -1, ((pair("X"), 1), (pair("Y"), 1), (pair("Z"), 1))
    if isinstance(g, ControlledX):
        zc, xt = s("Z", g.control), s("X", g.target)
        return 1, ((mul(zc, xt), 1), (zc, -1), (xt, -1))
    zi, zj = s("Z", g.i), s("Z", g.j)
    return -1, ((mul(zi, zj), -1), (zi, 1), (zj, 1))


def exact_terms(h):
    """The term dict in insertion order, coefficients by repr (signed zeros
    included)."""
    return [(key, repr(c)) for key, c in h.terms.items()]


# -- builders -------------------------------------------------------------------

@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
@pytest.mark.parametrize("L", SIZES)
def test_hamiltonians_equal_per_site_build(family, L):
    spec = ModelSpec(family, L)
    assert exact_terms(build_hamiltonian(spec)) == exact_terms(ref_hamiltonian(spec))


@pytest.mark.parametrize("build,ref", [(phi1_table, ref_phi1),
                                       (phi2_table, ref_phi2),
                                       (phi_gauged_table, ref_phi_gauged)])
@pytest.mark.parametrize("L", SIZES)
def test_tables_equal_per_site_build(build, ref, L):
    assert build(L) == ref(L)


@pytest.mark.parametrize("L", SIZES)
def test_u2_equals_per_site_build(L):
    got, want = build_u2(L), ref_u2(L)
    assert got == want
    assert (got.phase, got.factors) == (want.phase, want.factors)


@pytest.mark.parametrize("L", [2, 3, 7])
def test_gauged_operators_equal_per_site_build(L):
    layout = link_layout(L)
    for j, g in enumerate(gauss_law_operators(L), start=1):
        want = mul(mul(single(layout, "Z", f"{2 * j - 1}/2"), single(layout, "X", j)),
                   single(layout, "Z", link_label(j, L)))
        assert exact_terms(g) == exact_terms(PauliSum.from_string(want))
    want = PauliString.identity(layout)
    for j in range(1, L + 1):
        want = mul(want, single(layout, "X", f"{2 * j - 1}/2"))
    assert emergent_boundary_z(L) == want
    anc = ancilla_layout(L)
    assert symmetry_projector(-1, anc, on_ancilla=True) == PauliSum.from_strings(
        anc, [(0.5, PauliString.identity(anc)), (-0.5, single(anc, "Z", "L+1"))])


def gates_on(sites):
    """Every gate kind on every site and every ordered pair, coincident
    pairs included."""
    out = [Hadamard(s) for s in sites]
    for i, j in itertools.product(sites, repeat=2):
        out += [Swap(i, j), ControlledX(i, j), ControlledZ(i, j)]
    return out


@pytest.mark.parametrize("gate", gates_on([1, 2, 3, "L+1"]), ids=str)
def test_rotation_factors_equal_per_site_build(gate):
    layout = ancilla_layout(3)
    # R(A, t) = exp(i t pi/4 A) is the triple of B = i t A = i^(2 - t) A
    s, factors = ref_rotation_factors(layout, gate)
    assert rotation_factors(layout, gate) == (s, tuple(
        (A.x_mask, A.z_mask, (A.phase_exp + 2 - t) % 4) for A, t in factors))


# -- conjugation ------------------------------------------------------------------

def strings(layout):
    full = layout.dim - 1
    return st.builds(PauliString, st.just(layout), st.integers(0, full),
                     st.integers(0, full), st.integers(0, 3))


def sums(layout):
    """Sums with small integer coefficients, so every product is exact."""
    return st.builds(
        lambda terms: PauliSum.from_strings(layout, terms),
        st.lists(st.tuples(st.builds(complex, st.integers(-3, 3),
                                     st.integers(-3, 3)),
                           strings(layout)), max_size=8))


@pytest.mark.parametrize("layout", [matter_layout(3), ancilla_layout(3)],
                         ids=["matter", "ancilla"])
@settings(max_examples=40)
@given(data=st.data())
def test_conjugate_gate_equals_one_gate_circuit(layout, data):
    p = data.draw(strings(layout))
    axis = data.draw(st.builds(
        lambda x, z, neg: PauliString(layout, x, z, (x & z).bit_count() % 2 + 2 * neg),
        st.integers(0, layout.dim - 1), st.integers(0, layout.dim - 1),
        st.integers(0, 1)))
    sites = [*range(1, layout.n_matter + 1), *layout.gauge_slots]
    for gate in (*gates_on(sites), QuarterRotation(axis, 1), QuarterRotation(axis, -1)):
        want = conjugate_circuit(CliffordCircuit(layout, (gate,)), p)
        assert conjugate_gate(gate, p) == want


def test_conjugate_gate_rejects_axis_on_another_layout():
    gate = QuarterRotation(single(matter_layout(2), "X", 1), 1)
    with pytest.raises(ValueError):
        conjugate_gate(gate, single(matter_layout(3), "Z", 1))


@pytest.mark.parametrize("build", [build_u1, build_u2, build_u_gauged])
@settings(max_examples=30)
@given(data=st.data())
def test_conjugate_sum_equals_termwise_strings(build, data):
    c = build(3)
    h = data.draw(sums(c.layout))
    want = PauliSum.from_strings(
        h.layout, [(coeff, conjugate_circuit(c, p)) for coeff, p in h])
    assert exact_terms(conjugate_sum(c, h)) == exact_terms(want)


def test_conjugate_sum_rejects_other_layout():
    with pytest.raises(ValueError):
        conjugate_sum(build_u2(3), PauliSum.identity(matter_layout(4)))


@pytest.mark.parametrize("layout", [matter_layout(3), link_layout(2)],
                         ids=["matter", "link"])
@settings(max_examples=60)
@given(data=st.data())
def test_sum_commutator_equals_both_products(layout, data):
    a, b = data.draw(sums(layout)), data.draw(sums(layout))
    assert sum_commutator(a, b).terms == (a * b - b * a).terms


@pytest.mark.parametrize("build", [build_u1, build_u2, build_u_gauged])
@pytest.mark.parametrize("L", [3, 40])
def test_tableau_rows_do_not_depend_on_the_block_size(build, L, monkeypatch):
    whole = build(L).rows
    # blocks of 8 rows: every block boundary of the compile and transpose
    monkeypatch.setattr(clifford, "_CHUNK_BYTES", 1)
    c = build(L)
    assert c.rows == whole
    for p in (PauliString(c.layout, (1 << c.layout.total_sites) - 1, 5, 1),
              single(c.layout, "Y", 2)):
        assert conjugate_circuit(c, p) == fold_conjugate(c, p)


# -- text form ----------------------------------------------------------------------

def ref_format_sum(s):
    lines = [f"L={s.layout.n_matter}, gauge=[{','.join(s.layout.gauge_slots)}]"]
    for c, p in s:
        lines.append(f"{c!r}  {format_string(p).split(' | ')[0]}")
    return "\n".join(lines)


@pytest.mark.parametrize("make", [matter_layout, ancilla_layout, link_layout])
@settings(max_examples=40)
@given(data=st.data())
def test_format_sum_equals_per_string_rendering(make, data):
    s = data.draw(sums(make(3)))
    assert format_sum(s) == ref_format_sum(s)


# -- guard -----------------------------------------------------------------------------

def test_package_builds_without_the_per_site_path(monkeypatch):
    def forbidden(*_, **__):
        raise AssertionError("per-site construction inside the package")

    monkeypatch.setattr(PauliString, "single", classmethod(forbidden))
    for module in (pauli, clifford, models, cli):
        if hasattr(module, "mul"):
            monkeypatch.setattr(module, "mul", forbidden)
    L = 128
    for build, table in ((build_u1, phi1_table), (build_u2, phi2_table),
                         (build_u_gauged, phi_gauged_table)):
        assert clifford.verify_automorphism(build(L), table(L))["passed"]
    for family in Family:
        h = build_hamiltonian(ModelSpec(family, L))
        conjugate_sum(CliffordCircuit(h.layout, (Hadamard(1),)), h)
    gauss_law_operators(L)
    emergent_boundary_z(L)
    symmetry_projector(1, ancilla_layout(L), on_ancilla=True)
    assert all(models.eta_conservation(L).values())
    assert models.projected_commutation_check(L, -1)["passed"]


def test_circuits_tables_and_dense_build_no_string(monkeypatch):
    # factors, tableau rows, table checks and dense rows stay on integers:
    # with every string constructor forbidden, prebuilt gates compile and
    # verify at L = 128, and sums and circuits materialize at L = 6
    builds = ((build_u1, phi1_table), (build_u2, phi2_table),
              (build_u_gauged, phi_gauged_table))
    large = [(build(128), table(128)) for build, table in builds]
    small = [build(6) for build, _ in builds]
    sums = [build_hamiltonian(ModelSpec(family, 6))
            for family in (Family.SELF_DUAL_CLOSED_H2, Family.MINIMAL_GAUGED_HG)]

    def forbidden(*_, **__):
        raise AssertionError("string built")

    monkeypatch.setattr(clifford, "_string", forbidden)
    monkeypatch.setattr(pauli, "_string", forbidden)
    monkeypatch.setattr(PauliString, "__init__", forbidden)
    for c, table in large:
        c = CliffordCircuit(c.layout, c.gates)
        assert len(c.rows[0]) == 2 * c.layout.total_sites
        assert clifford.verify_automorphism(c, table)["passed"]
    for obj in (*sums, *(CliffordCircuit(c.layout, c.gates) for c in small)):
        assert materialize(obj).dim == obj.layout.dim
