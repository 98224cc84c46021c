"""Fields that read no coordinate (`const`) are evaluated once per order.

The flat model's eta and K are constant, so eta^{-1}, omega, P+-, the
Levi-Civita and canonical Christoffel symbols and the Nijenhuis gate are
`const`: each keeps one memo entry without a batch axis, evaluated at the
first point asked, and serves every point and batch.  These tests compare
them with the per-point evaluation they replace (eta and K behind a
procedure that declares no inputs, so nothing downstream is `const` and
every field is evaluated on the batch, one row per point), count how often
their bodies run, and check that the readers that promise one entry per
point still give one.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paraherm import geometry
from paraherm.brackets import d_bracket, flat_coordinate_dbracket, jacobi_defect
from paraherm.connections import flat_connection, from_christoffels
from paraherm.errors import SingularMetric
from paraherm.geometry import (
    Chart,
    DerivedField,
    constant_field,
    contract_value,
    eval_expr,
    stack_points,
)
from paraherm.models import build_flat, build_tm
from paraherm.parastructure import ParaHermitianStructure
from paraherm.randfields import random_vector_field
from helpers import reduce_adapted


def _per_point(field):
    """`field`'s tape run on the whole batch, one row per point, behind a
    procedure that declares no inputs, so it is not `const`."""
    return DerivedField(field.chart, field.r, field.s,
                        lambda p, k: eval_expr(field.tape, p.coords, k), field.sym)


def _fields(S):
    """name -> (field, involves a contraction)."""
    return {
        "eta": (S.eta, False), "K": (S.K, False), "P_plus": (S.P_plus, False),
        "P_minus": (S.P_minus, False), "eta_inv": (S.eta_inv, True),
        "omega": (S.omega, True), "levi_civita": (S.levi_civita.christoffels, True),
        "canonical": (S.canonical.christoffels, True),
    }


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), order=st.integers(0, 3), B=st.integers(1, 7),
       seed=st.integers(0, 2**32 - 1))
def test_const_fields_equal_each_row_of_a_per_point_evaluation(n, order, B, seed):
    model = build_flat(n, jet_order=4)  # the connections read eta one order up
    S = model.S
    ref = ParaHermitianStructure(model.chart, _per_point(S.eta), _per_point(S.K))
    batch = model.chart.point(np.random.default_rng(seed).uniform(-1.0, 1.0, (B, 2 * n)))
    want_fields = _fields(ref)
    for name, (field, contracted) in _fields(S).items():
        assert field.const and not want_fields[name][0].const, name
        got = field.at(batch, order)
        want = want_fields[name][0].at(batch, order)
        assert got.nb == 0 and want.nb == 1 and want.batch == (B,), name
        assert got.ctx is want.ctx and got.deg == want.deg, name
        for row in want.coeffs:
            if contracted:
                assert np.max(np.abs(row - got.coeffs), initial=0.0) <= 1e-12, name
            else:
                assert row.tobytes() == got.coeffs.tobytes(), name
    assert S.canonical.christoffels.at(batch, order).deg == -1  # exactly zero
    for sign in (+1, -1):
        assert S._nijenhuis_gates[sign].const
        got = S.integrability_residual(sign, batch)
        assert got.shape == (B,)
        assert np.max(np.abs(got - ref.integrability_residual(sign, batch))) <= 1e-12


def test_const_fields_run_once_per_order(monkeypatch):
    """Over 25 fresh single points and then a batch of 20, each `const`
    field's body runs at most K + 1 times, and keeps one memo entry."""
    model = build_flat(2)
    S, chart = model.S, model.chart
    order_budget = chart.jet_order
    runs = Counter()
    fields = dict(_fields(S), gate_plus=(S._nijenhuis_gates[+1], True),
                  gate_minus=(S._nijenhuis_gates[-1], True))
    tapes = {id(S.eta.tape): "eta", id(S.K.tape): "K"}
    run_tape = geometry.eval_expr

    def counted_eval(e, coords, order):
        if id(e) in tapes:
            runs[tapes[id(e)]] += 1
        return run_tape(e, coords, order)

    monkeypatch.setattr(geometry, "eval_expr", counted_eval)
    def counted(name, fn):
        return lambda p, k: runs.update([name]) or fn(p, k)

    for name, (field, _) in fields.items():
        if name not in ("eta", "K"):
            monkeypatch.setattr(field, "fn", counted(name, field.fn))
    rng = np.random.default_rng(11)
    X, Y, Z = (random_vector_field(chart, rng) for _ in range(3))
    bracket = lambda A, B: d_bracket(S, A, B)  # noqa: E731
    oracle = flat_coordinate_dbracket(chart, model.eta_matrix, X, Y)
    coords = rng.uniform(-1.0, 1.0, (45, chart.dim))
    for c in coords[:25]:
        p = chart.point(c)
        assert np.max(np.abs(bracket(X, Y).values(p) - oracle.values(p))) < 1e-12
        jacobi_defect(bracket, X, Y, Z, p)
        S.integrability_residual(+1, p)
        S.omega.at(p, 1)  # no bracket or gate reads omega
    batch = chart.point(coords[25:])
    assert jacobi_defect(bracket, X, Y, Z, batch).shape == (20,)
    S.integrability_residual(-1, batch)
    S.omega.at(batch, 1)
    assert set(runs) == set(fields)
    for name, (field, _) in fields.items():
        assert 1 <= runs[name] <= order_budget + 1, (name, runs[name])
        key, _, jets = field._memo
        assert key is None and jets.nb == 0, name


def test_readers_give_one_entry_per_point_for_const_fields():
    model = build_flat(2)
    S, chart = model.S, model.chart
    points = [chart.point(c) for c in np.random.default_rng(12).uniform(-1, 1, (3, 4))]
    batch = stack_points(points)
    u, v = (constant_field(chart, c, 1, 0) for c in np.eye(4)[[0, 2]])
    assert S.eta.values(batch).shape == (3, 4, 4)
    assert S.eta.max_abs(batch).tolist() == [1.0] * 3
    assert contract_value(batch, S.eta.at(batch, 0), u.at(batch, 0), v.at(batch, 0)).tolist() \
        == [1.0] * 3
    p = points[0]
    assert contract_value(p, S.eta.at(p, 0), u.at(p, 0), v.at(p, 0)) == 1.0
    assert S.integrability_residual(+1, batch).shape == (3,)
    assert jacobi_defect(lambda A, B: d_bracket(S, A, B), u, v, u, batch).shape == (3,)
    # A constant Christoffel symbol with torsion fails every point, each a witness.
    comps = np.zeros((4, 4, 4))
    comps[0, 0, 1] = 1.0
    rep, _ = reduce_adapted(from_christoffels(chart, comps), S, "p", stack_points(points))
    assert not rep.passed
    assert {tuple(w["point"]) for w in rep.witnesses} == {tuple(p.coords) for p in points}


def test_const_errors_name_the_first_point_of_a_batch():
    chart = Chart(["x", "xt"], split=1)
    S = ParaHermitianStructure(chart, constant_field(chart, np.ones((2, 2)), 0, 2),
                               constant_field(chart, np.diag([1.0, -1.0]), 1, 1))
    batch = chart.point([[0.25, 0.5], [0.75, 1.0]])
    with pytest.raises(SingularMetric, match=r"at Point\(\[0\.25, 0\.5\]\)"):
        S.eta_inv.at(batch, 1)


def test_flat_connection_is_a_const_zero_field():
    chart = build_flat(2).chart
    C = flat_connection(chart)
    batch = chart.point(np.random.default_rng(3).uniform(-1.0, 1.0, (4, 4)))
    assert C.christoffels.const and C.provenance == "flat"
    gamma = C.christoffels.at(batch, 2)
    assert gamma.deg == -1 and gamma.nb == 0 and gamma.shape == (4, 4, 4)
    assert not np.any(gamma.coeffs)


def test_flat_base_tangent_bundle_reads_the_fibre_coordinates():
    """On a flat base the Christoffel symbols of g read no coordinate and are
    `const`, but eta, K and the frames read the fibre coordinates through a
    declared field, so they are not, and each point of a batch gets the
    jets it gets alone."""
    model = build_tm([["1", "0"], ["0", "1"]], ["x", "y"])
    S = model.S
    assert model.gamma_g.const
    assert not any(f.const for f in (S.eta, S.K, *model.H, *model.V_co))
    coords = np.random.default_rng(5).uniform(-1.0, 1.0, (3, 4))
    batch = model.chart.point(coords)
    for field in (S.eta, S.K, model.H[0], model.V_co[1]):
        got = field.at(batch, 2)
        assert got.nb == 1
        for i, row in enumerate(coords):
            assert got.coeffs[i].tobytes() == field.at(model.chart.point(row), 2).coeffs.tobytes()
