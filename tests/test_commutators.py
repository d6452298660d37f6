"""The commutator battery and the Gauss projector checks, which measure norms
on Pauli sums, against products of dense matrices; the boundary defect
‖[H±, U2]‖_F = 2√dim as an exact identity; and the float range."""

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_circuit_matrix, oracle_string_matrix
from wignerlab import cli
from wignerlab.cli import _commutator_norm, commutator_checks, gauge_checks, main
from wignerlab.clifford import build_u1, build_u2, build_u_gauged, conjugate_sum
from wignerlab.dense import materialize
from wignerlab.gauge import (build_d_hat, build_d_noninvertible,
                             gauss_sector_projector)
from wignerlab.models import Family, ModelSpec, build_hamiltonian
from wignerlab.pauli import PauliString, PauliSum


@settings(max_examples=60, deadline=None)
@given(data=st.data(), build=st.sampled_from([build_u1, build_u2, build_u_gauged]))
def test_commutator_norm_matches_dense_on_any_sums(data, build):
    # generic sums: neither commutes with U or with the other, so the
    # images U H U† and U P U† both count
    u = build(3)
    full = u.layout.dim - 1
    term = st.tuples(st.builds(complex, st.integers(-2, 2), st.integers(-2, 2)),
                     st.builds(PauliString, st.just(u.layout), st.integers(0, full),
                               st.integers(0, full), st.integers(0, 3)))
    h, p = (PauliSum.from_strings(u.layout, data.draw(st.lists(term, max_size=5)))
            for _ in range(2))
    hm = _sum_matrix(h)
    d = oracle_circuit_matrix(u) @ _sum_matrix(p)
    got = _commutator_norm(h, conjugate_sum(u, h), conjugate_sum(u, p))
    assert got == pytest.approx(
        _frob(hm @ d - d @ hm), rel=1e-12, abs=1e-12)


def _sum_matrix(s):
    dim = s.layout.dim
    return sum((c * oracle_string_matrix(q) for c, q in s),
               np.zeros((dim, dim), dtype=complex))


def _frob(m):
    return float(np.linalg.norm(m))


def _h(fam, L):
    return materialize(build_hamiltonian(ModelSpec(fam, L))).matrix


def _dense_battery(L, flip_boundary, mats):
    """``(name, |AB - BA|_F, threshold, above)`` of the nine records, from
    dense products; ``mats`` caches the matrices across calls."""
    def get(key, make):
        if key not in mats:
            mats[key] = make()
        return mats[key]

    u2 = get("u2", lambda: materialize(build_u2(L)).matrix)
    ug = get("ug", lambda: materialize(build_u_gauged(L)).matrix)
    hg = get("hg", lambda: _h(Family.MINIMAL_GAUGED_HG, L))
    rows = []

    def conserved(name, h, u):
        rows.append((name, _frob(h @ u - u @ h),
                     1e-10 * max(_frob(h) * _frob(u), 1.0), False))

    conserved("[H1, U1]", _h(Family.OPEN_H1, L), materialize(build_u1(L)).matrix)
    conserved("[H2, U2]", _h(Family.SELF_DUAL_CLOSED_H2, L), u2)
    conserved("[H_G, U_gauged]", hg, ug)
    for sign, s, fam in ((1, "+", Family.PERIODIC_H_PLUS),
                         (-1, "-", Family.ANTIPERIODIC_H_MINUS)):
        if flip_boundary and sign == 1:
            fam = Family.ANTIPERIODIC_H_MINUS
        h = get(fam, lambda: _h(fam, L))
        conserved(f"[H{s}, D{s}]", h,
                  get(f"d{s}", lambda: build_d_noninvertible(L, sign).matrix))
        conserved(f"[H_G, D_hat{s}]", hg,
                  get(f"d_hat{s}", lambda: build_d_hat(L, sign).matrix))
        rows.append((f"[H{s}, U2] nonzero", _frob(h @ u2 - u2 @ h), 0.1, True))
    return rows


@pytest.mark.parametrize("L", range(2, 10))
def test_battery_matches_dense_products(L):
    mats = {}
    for flip in (False, True):
        got = commutator_checks(L, flip_boundary=flip)[6:]
        want = _dense_battery(L, flip, mats)
        assert [c["name"] for c in got] == [w[0] for w in want]
        for c, (name, measured, threshold, above) in zip(got, want):
            ok = measured > threshold if above else measured < threshold
            assert c["status"] == ("pass" if ok else "fail"), name
            assert c["threshold"] == pytest.approx(threshold, rel=1e-12, abs=0)
            if measured < 1e-8:  # conserved: exactly zero on Pauli sums
                assert c["measured"] == 0.0, name
            else:
                assert c["measured"] == pytest.approx(measured, rel=1e-12, abs=0)
        broken = [c["name"] for c in got if c["status"] == "fail"]
        assert broken == (["[H+, D+]"] if flip else [])


@pytest.mark.parametrize("L", range(2, 6))
def test_gauss_projector_checks_match_dense_forms(L):
    got = {c["name"]: c for c in gauge_checks(L)}
    p = materialize(gauss_sector_projector(L)).matrix
    h_full = _h(Family.FULLY_GAUGED_HG, L)
    want = [("gauss projector trace = 2^L", abs(float(np.trace(p).real) - (1 << L)),
             1e-9),
            ("gauss projector idempotent", _frob(p @ p - p), 1e-12 * (1 << L)),
            ("[H_full_gauged, gauss projector]", _frob(h_full @ p - p @ h_full),
             1e-10 * max(_frob(h_full), 1.0))]
    for name, measured, threshold in want:
        c = got[name]
        assert c["status"] == "pass" and measured < threshold, name
        assert c["measured"] == 0.0
        assert c["threshold"] == pytest.approx(threshold, rel=1e-12, abs=0)


@pytest.mark.parametrize("L", range(2, 17))
def test_boundary_defect_is_two_root_dim(L):
    # U2 is a symmetry of H± up to a defect of 4 unit strings, so
    # |[H±, U2]|_F = sqrt(dim * 4) exactly
    defect = 2 * math.sqrt(1 << L)
    got = {c["name"]: c for c in commutator_checks(L)}
    assert got["[H+, U2] nonzero"]["measured"] == defect
    assert got["[H-, U2] nonzero"]["measured"] == defect
    # the whole defect lies in the sector D± keeps
    flipped = {c["name"]: c for c in commutator_checks(L, flip_boundary=True)}
    assert flipped["[H+, D+]"]["status"] == "fail"
    assert flipped["[H+, D+]"]["measured"] == defect


def _report(*args):
    res = CliRunner().invoke(main, args)
    assert res.exception is None or isinstance(res.exception, SystemExit), \
        repr(res.exception)

    def finite_only(token):
        raise AssertionError(f"non-finite number {token} in the report")
    return res.exit_code, json.loads(res.output, parse_constant=finite_only)


def test_commutators_pass_at_L16_without_skip():
    code, report = _report("commutators", "--L", "16")
    assert code == 0
    assert len(report["checks"]) == 15
    assert all(c["status"] == "pass" for c in report["checks"])


@pytest.mark.parametrize("L", [1100, 2100])
def test_commutators_past_the_float_range_skip_by_name(L):
    code, report = _report("commutators", "--L", str(L))
    assert code == 0
    *symbolic, last = report["checks"]
    assert len(symbolic) == 6 and all(c["status"] == "pass" for c in symbolic)
    assert last["status"] == "skipped"
    assert last["reason"] == (f"{L + 1} sites puts a norm or threshold past "
                              "the float range")


def test_commutators_past_the_float_range_take_no_norm(monkeypatch):
    # every threshold is infinite at 1101 sites, so no image or norm is taken
    def forbidden(*_):
        raise AssertionError("norm taken past the float range")

    monkeypatch.setattr(cli, "_commutator_norm", forbidden)
    monkeypatch.setattr(cli, "conjugate_sum", forbidden)
    assert commutator_checks(1100)[-1]["status"] == "skipped"
