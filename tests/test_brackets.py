from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from paraherm.brackets import (
    GeneralizedVectorField, associated_bracket, c_bracket, courant_axiom_suite, cyclic_triples,
    d_bracket, dorfman_leafwise, dorfman_via_connection, flat_coordinate_dbracket,
    jacobi_defect, pairing, projected_bracket, schouten_self,
    standard_dorfman,
)
from paraherm.connections import flat_connection, levi_civita, nabla_jets
from paraherm.errors import NotIntegrable, NotTorsionless
from paraherm.cli import run
from paraherm.geometry import (
    RecentringTable, Tape, TensorField, apply_endomorphism, constant_field, constant_jets,
    contract_value, DerivedField, coordinate_vector_field, exterior_derivative, jets_gradient, lie_bracket,
    lie_derivative, scalar_pairing, stack_points, tdot,
)
from paraherm.models import build_flat, build_tm, sphere_base
from paraherm.parastructure import ParaHermitianStructure, rho, rho_field
from paraherm.randfields import (
    random_bivector, random_form, random_metric_perturbation, random_poly,
    random_vector_field,
)
from conftest import sample_points, sphere_box
from helpers import count_calls, reduce_adapted, reduce_courant, shear_adapted_connection
from oracles import values


def eta_pair(S):
    return lambda X, Y: scalar_pairing(S.eta, [X, Y])


# -- associated and projected brackets -------------------------------------------

def test_bracket_sum_identity(flat2):
    """Projected brackets sum to the associated bracket: 50 random cases."""
    rng = np.random.default_rng(0)
    S = flat2.S
    C = S.canonical
    pts = sample_points(flat2, 5, 1)
    for _ in range(10):
        X = random_vector_field(S.chart, rng)
        Y = random_vector_field(S.chart, rng)
        total = projected_bracket(C, S, +1, X, Y) + projected_bracket(C, S, -1, X, Y)
        full = associated_bracket(C, S, X, Y)
        for p in pts:
            assert (total - full).at(p, 0).max_abs() < 1e-10


def test_constant_fields_flat_bracket_zero(flat2):
    X = constant_field(flat2.chart, [1.0, 2.0, -1.0, 0.5], 1, 0)
    Y = constant_field(flat2.chart, [0.0, 1.0, 3.0, -2.0], 1, 0)
    br = associated_bracket(flat2.S.canonical, flat2.S, X, Y)
    for p in sample_points(flat2, 3, 2):
        assert br.at(p, 0).max_abs() == 0.0


def test_worked_dbracket_examples(flat1):
    """Spec worked examples on flat R^2: [xt d~, d_x]^D = d_x and
    [d_x, x d_x]^D = d_x."""
    chart = flat1.chart
    X = TensorField(chart, 1, 0, np.array(["0", "xt1"], dtype=object))
    Y = coordinate_vector_field(chart, 0)
    p = chart.point([0.3, -0.8])
    assert np.allclose(d_bracket(flat1.S, X, Y).values(p), [1.0, 0.0])
    X2 = coordinate_vector_field(chart, 0)
    Y2 = TensorField(chart, 1, 0, np.array(["x1", "0"], dtype=object))
    assert np.allclose(d_bracket(flat1.S, X2, Y2).values(p), [1.0, 0.0])


def test_dbracket_matches_flat_oracle(flat2):
    rng = np.random.default_rng(3)
    for _ in range(5):
        X = random_vector_field(flat2.chart, rng)
        Y = random_vector_field(flat2.chart, rng)
        got = d_bracket(flat2.S, X, Y)
        want = flat_coordinate_dbracket(flat2.chart, flat2.eta_matrix, X, Y)
        for p in sample_points(flat2, 4, 4):
            assert np.max(np.abs(got.values(p) - want.values(p))) < 1e-12


def test_weak_involutivity_of_eigenbundles(flat2, sphere_tm, sphere_pts):
    """eta([P X, P Y]^D, P Z) = 0 for either eigenbundle of K itself."""
    rng = np.random.default_rng(5)
    for S, pts in ((flat2.S, sample_points(flat2, 4, 6)), (sphere_tm.S, sphere_pts[:3])):
        X = random_vector_field(S.chart, rng, degree=1)
        Y = random_vector_field(S.chart, rng, degree=1)
        Z = random_vector_field(S.chart, rng, degree=1)
        for sign in (+1, -1):
            P = S.projector(sign)
            br = d_bracket(S, apply_endomorphism(P, X), apply_endomorphism(P, Y))
            for p in pts:
                pz = tdot(P.at(p, 0), Z.at(p, 0), ([1], [0]))
                val = float(tdot(tdot(S.eta.at(p, 0), br.at(p, 0), ([0], [0])), pz,
                                 ([0], [0])).values())
                assert abs(val) < 1e-9


def test_c_bracket_antisymmetry(flat2):
    rng = np.random.default_rng(7)
    X = random_vector_field(flat2.chart, rng)
    Y = random_vector_field(flat2.chart, rng)
    S = flat2.S
    cb = c_bracket(S, X, Y)
    cb_swapped = c_bracket(S, Y, X)
    cb_self = c_bracket(S, X, X)
    for p in sample_points(flat2, 3, 8):
        assert np.allclose(cb.values(p), -cb_swapped.values(p), atol=1e-14)
        assert cb_self.at(p, 0).max_abs() < 1e-14
    # 1/2 (D(X,Y) - D(Y,X)) by construction
    p = sample_points(flat2, 1, 9)[0]
    dxy = d_bracket(S, X, Y).values(p)
    dyx = d_bracket(S, Y, X).values(p)
    assert np.allclose(cb.values(p), 0.5 * (dxy - dyx))


def test_derivation_properties(flat2):
    """[X, fY]^D = f [X,Y]^D + X[f] Y and the left-argument correction
    [fX, Y]^D = f [X,Y]^D - Y[f] X + eta(X,Y) eta^{-1} df."""
    rng = np.random.default_rng(10)
    chart = flat2.chart
    S = flat2.S
    X = random_vector_field(chart, rng)
    Y = random_vector_field(chart, rng)
    f = TensorField(chart, 0, 0, random_poly(rng, 4))

    fY = DerivedField(chart, 1, 0, lambda p, k: Y.at(p, k) * f.at(p, k))
    fX = DerivedField(chart, 1, 0, lambda p, k: X.at(p, k) * f.at(p, k))
    for p in sample_points(flat2, 3, 11):
        fval = f.values(p)
        base = d_bracket(S, X, Y).values(p)
        # right argument: pure derivation
        lhs = d_bracket(S, X, fY).values(p)
        rhs = fval * base + lie_derivative(X, f).values(p) * Y.values(p)
        assert np.max(np.abs(lhs - rhs)) < 1e-10
        # left argument: the computable correction
        lhs2 = d_bracket(S, fX, Y).values(p)
        etaXY = X.values(p) @ S.eta.values(p) @ Y.values(p)
        df = exterior_derivative(f).values(p)
        grad = S.eta_inv.values(p) @ df
        rhs2 = (fval * base - lie_derivative(Y, f).values(p) * X.values(p)
                + etaXY * grad)
        assert np.max(np.abs(lhs2 - rhs2)) < 1e-10


# -- one bracket field per (connection, X, Y, projection) -------------------------

TABLE_SETTINGS = settings(max_examples=25, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def table_models():
    """A flat and a curved structure, each with budget for brackets at order 2."""
    sphere = build_tm(*sphere_base(), jet_order=4)
    return {"flat": build_flat(2), "sphere": sphere}


def _kinds(S):
    """Every public way to ask a bracket of S, with the `_bracket_core`
    arguments it stands for."""
    C, L = S.canonical, S.levi_civita
    return {
        "d": (lambda X, Y: d_bracket(S, X, Y), (C, None)),
        "canonical": (lambda X, Y: associated_bracket(C, S, X, Y), (C, None)),
        "levi_civita": (lambda X, Y: associated_bracket(L, S, X, Y), (L, None)),
        "plus": (lambda X, Y: projected_bracket(C, S, +1, X, Y), (C, +1)),
        "minus": (lambda X, Y: projected_bracket(C, S, -1, X, Y), (C, -1)),
    }


def _bits(jets):
    """The bytes of a jet array, with -0.0 read as 0.0: the sign of an exact
    zero is the one thing order stability does not fix."""
    return (jets.coeffs + 0.0).tobytes()


@TABLE_SETTINGS
@given(model=st.sampled_from(["flat", "sphere"]), seed=st.integers(0, 2**16))
def test_table_returns_one_field_per_inputs(table_models, model, seed):
    """The same (connection, X, Y, projection) gives the same field object;
    (Y, X), another connection or another projection gives another one."""
    S = table_models[model].S
    rng = np.random.default_rng(seed)
    X, Y = (random_vector_field(S.chart, rng, degree=1) for _ in range(2))
    kinds = _kinds(S)
    got = {name: bracket(X, Y) for name, (bracket, _) in kinds.items()}
    for name, (bracket, _) in kinds.items():
        assert bracket(X, Y) is got[name]
        assert bracket(Y, X) is not got[name]
    assert got["d"] is got["canonical"]
    distinct = [got[name] for name in ("canonical", "levi_civita", "plus", "minus")]
    assert len(set(map(id, distinct))) == 4


@TABLE_SETTINGS
@given(model=st.sampled_from(["flat", "sphere"]),
       kind=st.sampled_from(["d", "levi_civita", "plus", "minus"]),
       orders=st.permutations([0, 1, 2]), batch=st.booleans(), seed=st.integers(0, 2**16))
def test_table_bracket_equals_a_fresh_build(table_models, model, kind, orders, batch, seed):
    """A bracket from the table, asked at orders 0-2 in any sequence (so
    partly served by its memo), has the bits of a `_bracket_core` field
    built afresh for each order, at a point and at a batch."""
    import paraherm.brackets as br

    m = table_models[model]
    S = m.S
    rng = np.random.default_rng(seed)
    X, Y = (random_vector_field(S.chart, rng, degree=2) for _ in range(2))
    pts = sample_points(m, 3, seed, box=sphere_box() if model == "sphere" else None)
    point = stack_points(pts) if batch else pts[0]
    bracket, (C, project) = _kinds(S)[kind]
    for k in orders:
        fresh = br._bracket_core(C, S, X, Y, project, {}).at(point, k)
        assert _bits(bracket(X, Y).at(point, k)) == _bits(fresh)


def _reference_bracket(C, S, X, Y, project, point, k):
    """The bracket of (C, X, Y, project) at (point, k) from `nabla_jets` and
    `tdot` directly, in the order of the bracket's own arithmetic, with no
    operand field in between: w + R_X eta(Y, .), R_X = eta^-1 P^T nabla X."""
    gamma = C.christoffels.at(point, k)
    eta, eta_inv = S.eta.at(point, k), S.eta_inv.at(point, k)
    xj, yj = X.at(point, k + 1), Y.at(point, k + 1)
    nx, ny = nabla_jets(gamma, xj, 1, 0), nabla_jets(gamma, yj, 1, 0)  # [I, A]
    P = None if project is None else S.projector(project).at(point, k)
    dirx, diry = (xj, yj) if P is None else (tdot(P, v, ([1], [0])) for v in (xj, yj))
    w = tdot(dirx, ny, ([0], [0])) - tdot(diry, nx, ([0], [0]))
    M = eta_inv if P is None else tdot(eta_inv, P, ([1], [1]))
    return w + tdot(tdot(M, nx, ([1], [0])), tdot(eta, yj, ([0], [0])), ([1], [0]))


def _lowered_form_bracket(C, S, X, Y, project, point, k):
    """The paper's lowered form of the bracket, raised at the end:
    eta^-1 (eta(w, .) + P^T eta(nabla X, Y)), from `nabla_jets` and `tdot`."""
    gamma = C.christoffels.at(point, k)
    eta, eta_inv = S.eta.at(point, k), S.eta_inv.at(point, k)
    xj, yj = X.at(point, k + 1), Y.at(point, k + 1)
    nx, ny = nabla_jets(gamma, xj, 1, 0), nabla_jets(gamma, yj, 1, 0)  # [I, A]
    P = None if project is None else S.projector(project).at(point, k)
    dirx, diry = (xj, yj) if P is None else (tdot(P, v, ([1], [0])) for v in (xj, yj))
    w = tdot(dirx, ny, ([0], [0])) - tdot(diry, nx, ([0], [0]))
    full = tdot(nx, tdot(eta, yj, ([0], [0])), ([1], [0]))  # [I] = eta(nabla_I X, Y)
    full = full if P is None else tdot(P, full, ([0], [0]))
    return tdot(eta_inv, tdot(eta, w, ([0], [0])) + full, ([1], [0]))


@pytest.fixture(scope="module")
def lowered_form_models(table_models):
    """The table models and the Drinfel'd double of the shipped runspec, each
    with budget for brackets at order 2."""
    import json
    from pathlib import Path

    from paraherm.geometry import Chart
    from paraherm.models import Model

    spec = json.loads((Path(__file__).resolve().parent.parent / "runspecs"
                       / "drinfeld_double.json").read_text())["model"]
    chart = Chart(spec["coords"], split=spec["split"], jet_order=4)
    eta = TensorField(chart, 0, 2, np.asarray(spec["eta"], dtype=object), sym="symmetric")
    K = TensorField(chart, 1, 1, np.asarray(spec["K"], dtype=object))
    return table_models | {"double": Model(chart, ParaHermitianStructure(chart, eta, K))}


@TABLE_SETTINGS
@given(model=st.sampled_from(["flat", "sphere", "double"]),
       kind=st.sampled_from(["d", "levi_civita", "plus", "minus"]),
       order=st.integers(0, 2), batch=st.booleans(), seed=st.integers(0, 2**16))
def test_bracket_equals_its_lowered_form(lowered_form_models, model, kind, order, batch,
                                         seed):
    """A bracket from the table, which raises only eta(Y, .) (through R_X =
    eta^-1 P^T nabla X), equals the paper's lowered form raised at the end,
    eta^-1 (eta(w, .) + P^T eta(nabla X, Y)), in every jet coefficient, to
    1e-12 of max(1, max |D|), at a point and at a batch."""
    m = lowered_form_models[model]
    S = m.S
    rng = np.random.default_rng(seed)
    X, Y = (random_vector_field(S.chart, rng, degree=2) for _ in range(2))
    pts = sample_points(m, 3, seed, box=sphere_box() if model == "sphere" else None)
    point = stack_points(pts) if batch else pts[0]
    bracket, (C, project) = _kinds(S)[kind]
    got = bracket(X, Y).at(point, order).coeffs
    want = _lowered_form_bracket(C, S, X, Y, project, point, order).coeffs
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(got)))


@TABLE_SETTINGS
@given(model=st.sampled_from(["flat", "sphere"]),
       kind=st.sampled_from(["d", "levi_civita", "plus", "minus"]),
       orders=st.permutations([0, 1, 2]), batch=st.booleans(), seed=st.integers(0, 2**16))
def test_shared_operands_give_the_bits_of_a_direct_reference(table_models, model, kind,
                                                             orders, batch, seed):
    """[X,Y] and [Y,X], which read the same nabla X, nabla Y and P X, P Y
    from S's operand table, asked at orders 0-2 in any sequence, have the
    bits of the bracket formula computed directly, at a point and at a
    batch."""
    m = table_models[model]
    S = m.S
    rng = np.random.default_rng(seed)
    X, Y = (random_vector_field(S.chart, rng, degree=2) for _ in range(2))
    pts = sample_points(m, 3, seed, box=sphere_box() if model == "sphere" else None)
    point = stack_points(pts) if batch else pts[0]
    bracket, (C, project) = _kinds(S)[kind]
    for k in orders:
        for A, B in ((X, Y), (Y, X)):
            want = _reference_bracket(C, S, A, B, project, point, k)
            assert _bits(bracket(A, B).at(point, k)) == _bits(want)


def test_each_operand_runs_once_per_point_and_order(flat2):
    """A D-bracket and a Jacobi defect at each of a few fresh points, and a
    batch of them, run each operand's body at most once per (point, order):
    the brackets that read it share its memo."""
    S = ParaHermitianStructure(flat2.chart, flat2.S.eta, flat2.S.K)
    rng = np.random.default_rng(48)
    X, Y, Z = (random_vector_field(S.chart, rng, degree=2) for _ in range(3))
    bracket = lambda A, B: d_bracket(S, A, B)  # noqa: E731
    pts = sample_points(flat2, 4, 49)
    jacobi_defect(bracket, X, Y, Z, pts[0])
    runs = Counter()
    for entry in S.operand_table.values():
        def counted(p, k, _fn=entry[0].fn, _field=entry[0]):
            runs[(_field, p.key, k)] += 1
            return _fn(p, k)
        entry[0].fn = counted
    for point in pts[1:] + [stack_points(pts)]:
        d_bracket(S, X, Y).at(point, 0)
        jacobi_defect(bracket, X, Y, Z, point)
    assert len(S.operand_table) == 13
    assert len({field for field, _, _ in runs}) == 13
    assert set(runs.values()) == {1}, runs


def test_each_field_body_runs_once_per_fresh_point(flat2, monkeypatch):
    """After a first point, a D-bracket and a Jacobi defect at each fresh
    point, and then at their batch, run every field body (tapes, operands,
    brackets) exactly once there, whatever orders are read: each field is
    evaluated at the order its previous point reached.  The counter keys
    hold the tapes and fields, so no id is reused while it counts."""
    import paraherm.geometry as geometry

    runs = Counter()
    eval_expr, init = geometry.eval_expr, DerivedField.__init__

    def counted_eval(tape, coords, order):
        runs[(tape, coords.tobytes())] += 1
        return eval_expr(tape, coords, order)

    def counted_init(self, chart, r, s, fn, *args, **kwargs):
        def counted(p, k):
            runs[(self, p.coords.tobytes())] += 1
            return fn(p, k)
        init(self, chart, r, s, counted, *args, **kwargs)

    monkeypatch.setattr(geometry, "eval_expr", counted_eval)
    monkeypatch.setattr(DerivedField, "__init__", counted_init)
    S = ParaHermitianStructure(flat2.chart, flat2.S.eta, flat2.S.K)
    rng = np.random.default_rng(50)
    X, Y, Z = (random_vector_field(S.chart, rng, degree=2) for _ in range(3))
    bracket = lambda A, B: d_bracket(S, A, B)  # noqa: E731
    pts = sample_points(flat2, 4, 51)
    for point in pts + [stack_points(pts[1:])]:
        runs.clear()
        d_bracket(S, X, Y).at(point, 0)
        jacobi_defect(bracket, X, Y, Z, point)
        assert point is pts[0] or set(runs.values()) == {1}, runs
    assert {V.tape for V in (X, Y, Z)} <= {body for body, _ in runs}
    assert len(runs) > len(S.operand_table) + len(S.bracket_table)


def test_zero_symbols_make_no_zero_operand_kernel_call(flat3, monkeypatch):
    """At a fresh point of the stream (a D-bracket, the flat oracle and a
    Jacobi defect, on the flat model, whose canonical symbols are exactly
    zero), no `tdot` and no `+` or `-` has an all-zero operand: nabla_jets
    differentiates by partials alone, where it made 6 and 6 such calls by
    adding zero corrections.  The point makes at most 25 contractions (34
    while each bracket lowered both its terms with eta and raised their sum
    with eta^-1)."""
    counts = count_calls(monkeypatch)
    S, chart = flat3.S, flat3.chart
    rng = np.random.default_rng(52)
    X, Y, Z = (random_vector_field(chart, rng) for _ in range(3))
    dbracket = lambda A, B: d_bracket(S, A, B)  # noqa: E731
    for coords in rng.uniform(-1.0, 1.0, (2, chart.dim)):
        counts.clear()
        p = chart.point(coords)
        dbracket(X, Y).values(p)
        flat_coordinate_dbracket(chart, flat3.eta_matrix, X, Y).values(p)
        jacobi_defect(dbracket, X, Y, Z, p)
    assert S.canonical.christoffels.at(p, 0).deg < 0
    assert (counts["zero tdot"], counts["zero +-"]) == (0, 0), counts
    assert 0 < counts["tdot"] <= 25, counts


def _count_runs(monkeypatch):
    """Count the runs of each `Tape` and `RecentringTable`, by evaluator."""
    runs = Counter()
    for cls in (Tape, RecentringTable):
        def counted(self, coords, ctx, _run=cls.run):
            runs[self] += 1
            return _run(self, coords, ctx)
        monkeypatch.setattr(cls, "run", counted)
    return runs


def test_monomial_sum_fields_run_no_tape(flat3, tmp_path, monkeypatch):
    """Random polynomial fields are monomial sums, compiled to re-centring
    tables.  A fresh point of the dim-6 stream (a D-bracket, the flat oracle
    and a Jacobi defect) runs no `Tape`, and each of X, Y and Z's tables
    once (it ran their 3 levelled tapes); a flat run runs a tape only for
    the fields that read no coordinate, its constant eta and K."""
    runs = _count_runs(monkeypatch)
    S, chart = flat3.S, flat3.chart
    rng = np.random.default_rng(53)
    X, Y, Z = (random_vector_field(chart, rng) for _ in range(3))
    dbracket = lambda A, B: d_bracket(S, A, B)  # noqa: E731
    for i, coords in enumerate(rng.uniform(-1.0, 1.0, (3, chart.dim))):
        runs.clear()
        p = chart.point(coords)
        dbracket(X, Y).values(p)
        flat_coordinate_dbracket(chart, flat3.eta_matrix, X, Y).values(p)
        jacobi_defect(dbracket, X, Y, Z, p)
        assert i == 0 or runs == Counter({X.tape: 1, Y.tape: 1, Z.tape: 1}), runs
    runs.clear()
    runspec = Path(__file__).resolve().parent.parent / "runspecs" / "flat.json"
    assert run(str(runspec), str(tmp_path / "r.json")) == 0
    tapes = [ev for ev in runs if isinstance(ev, Tape)]
    assert tapes and not any(tape.reads for tape in tapes), runs
    assert any(isinstance(ev, RecentringTable) for ev in runs)


def test_rebuilt_fields_never_get_a_stale_entry(flat2):
    """Fields dropped and rebuilt in a loop each get their own bracket: an
    entry keeps its inputs alive, so no new field reuses the id in its key."""
    import gc

    import paraherm.brackets as br

    S = ParaHermitianStructure(flat2.chart, flat2.S.eta, flat2.S.K)
    rng = np.random.default_rng(44)
    p = sample_points(flat2, 1, 45)[0]
    for i in range(40):
        X, Y = (random_vector_field(S.chart, rng, degree=1) for _ in range(2))
        got = d_bracket(S, X, Y).at(p, 1)
        assert len(S.bracket_table) == i + 1
        assert _bits(got) == _bits(br._bracket_core(S.canonical, S, X, Y, None, {}).at(p, 1))
        del X, Y, got
        gc.collect()


# -- Dorfman brackets --------------------------------------------------------------

def test_standard_dorfman_vs_connection_form(flat2):
    """The Lie/Lie-derivative Dorfman bracket equals the
    torsionless-connection form, for the flat connection and for the
    Levi-Civita connection of a random perturbed metric."""
    rng = np.random.default_rng(12)
    chart = flat2.chart
    e1 = GeneralizedVectorField(random_vector_field(chart, rng),
                                random_form(chart, rng, k=1))
    e2 = GeneralizedVectorField(random_vector_field(chart, rng),
                                random_form(chart, rng, k=1))
    sd = standard_dorfman(e1, e2)
    base = np.block([[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
    metric = random_metric_perturbation(chart, rng, base)
    for C in (flat_connection(chart), levi_civita(metric)):
        dc = dorfman_via_connection(C, e1, e2)
        for p in sample_points(flat2, 3, 13):
            a, b = sd.at(p, 0), dc.at(p, 0)
            assert np.max(np.abs(a.vec.values() - b.vec.values())) < 1e-9
            assert np.max(np.abs(a.cov.values() - b.cov.values())) < 1e-9


def test_dorfman_via_connection_computes_its_parts_once(flat2, monkeypatch):
    """One evaluation of the connection form computes its vector and
    covector parts together: four covariant derivatives (nabla X1, nabla
    alpha1 and the two in nabla_{X1} e2), not eight."""
    import paraherm.brackets as br
    import paraherm.connections as connections

    calls = []
    nabla_jets = connections.nabla_jets
    for module in (br, connections):
        monkeypatch.setattr(module, "nabla_jets",
                            lambda *args: calls.append(1) or nabla_jets(*args))
    rng = np.random.default_rng(16)
    chart = flat2.chart
    e1, e2 = (GeneralizedVectorField(random_vector_field(chart, rng),
                                     random_form(chart, rng, k=1)) for _ in range(2))
    dc = dorfman_via_connection(flat_connection(chart), e1, e2)
    for p in sample_points(flat2, 2, 17):
        calls.clear()
        dc.at(p, 1)
        assert len(calls) == 4


def test_dorfman_connection_requires_torsionless(flat2):
    chart = flat2.chart
    comps = np.empty((4, 4, 4), dtype=object)
    comps[...] = 0
    comps[0, 0, 1] = "1"  # asymmetric lower pair: torsion
    from paraherm.connections import from_christoffels

    C = from_christoffels(chart, comps)
    rng = np.random.default_rng(14)
    e = GeneralizedVectorField(random_vector_field(chart, rng),
                               random_form(chart, rng, k=1))
    with pytest.raises(NotTorsionless):
        dorfman_via_connection(C, e, e).at(
            chart.point([0.1, 0.2, 0.3, 0.4]), 0)


def test_dorfman_leafwise_axiom2(flat2):
    """<[e,e], f> = 1/2 a(f)<e,e> on the leafwise algebroid."""
    rng = np.random.default_rng(15)
    S = flat2.S
    for sign in (+1, -1):
        X = random_vector_field(S.chart, rng)
        Y = random_vector_field(S.chart, rng)
        e = GeneralizedVectorField(*rho_field(S, sign, X), sign)
        fgv = GeneralizedVectorField(*rho_field(S, sign, Y), sign)
        br = dorfman_leafwise(S, sign, e, e)

        for p in sample_points(flat2, 3, 16):
            lhs = pairing(br, fgv).values(p)
            anchor = fgv.vec
            rhs = 0.5 * lie_derivative(anchor, pairing(e, e)).values(p)
            assert abs(lhs - rhs) < 1e-9


def test_leafwise_objects_annihilate_other_distribution(flat2, flatg_tm):
    """The covector part of an F+-leaf object vanishes on T-, both for rho
    images and for leafwise Dorfman outputs."""
    rng = np.random.default_rng(55)
    for model, seed in ((flat2, 56), (flatg_tm, 57)):
        S = model.S
        X = random_vector_field(S.chart, rng)
        Y = random_vector_field(S.chart, rng)
        for sign in (+1, -1):
            e1 = GeneralizedVectorField(*rho_field(S, sign, X), sign)
            e2 = GeneralizedVectorField(*rho_field(S, sign, Y), sign)
            out = dorfman_leafwise(S, sign, e1, e2)
            for p in sample_points(model, 2, seed):
                Q = S.projector(-sign).values(p)
                for obj in (e1.at(p, 0), out.at(p, 0)):
                    assert np.max(np.abs(obj.cov.values() @ Q)) < 1e-12


def test_dorfman_leafwise_not_integrable_raises(sphere_tm, sphere_pts):
    S = sphere_tm.S
    rng = np.random.default_rng(17)
    X = random_vector_field(S.chart, rng, degree=1)
    Y = random_vector_field(S.chart, rng, degree=1)
    e1 = GeneralizedVectorField(*rho_field(S, +1, X), +1)
    e2 = GeneralizedVectorField(*rho_field(S, +1, Y), +1)
    with pytest.raises(NotIntegrable):
        dorfman_leafwise(S, +1, e1, e2).at(sphere_pts[0], 0)


def test_adapted_connections_reproduce_leafwise_dorfman(flat2, flatg_tm):
    """Canonical and an independently built adapted connection both reproduce
    the leafwise Dorfman bracket through rho."""
    rng = np.random.default_rng(18)
    for model, pts in ((flat2, sample_points(flat2, 3, 19)),
                       (flatg_tm, sample_points(flatg_tm, 3, 20))):
        S = model.S
        X = random_vector_field(S.chart, rng)
        Y = random_vector_field(S.chart, rng)
        second = shear_adapted_connection(S)
        for sign in (+1, -1):
            e1 = GeneralizedVectorField(*rho_field(S, sign, X), sign)
            e2 = GeneralizedVectorField(*rho_field(S, sign, Y), sign)
            dorf = dorfman_leafwise(S, sign, e1, e2)
            for C in (S.canonical, second):
                pb = projected_bracket(C, S, sign, X, Y)
                for p in pts:
                    got = rho(S, sign, pb, p)
                    want = dorf.at(p, 0)
                    assert np.max(np.abs(got.vec.values() - want.vec.values())) < 1e-9
                    assert np.max(np.abs(got.cov.values() - want.cov.values())) < 1e-9


def test_shear_connection_is_adapted_and_distinct(flat2):
    S = flat2.S
    C = shear_adapted_connection(S)
    pts = sample_points(flat2, 4, 21)
    for side in ("p", "n"):
        rep, conditions = reduce_adapted(C, S, side, stack_points(pts))
        assert rep.passed, conditions
    p = pts[0]
    diff = values(C.christoffels.at(p, 0)) - values(S.canonical.christoffels.at(p, 0))
    assert np.max(np.abs(diff)) > 0.01


# -- Jacobi defect -----------------------------------------------------------------

def test_jacobi_witness_frozen_value(flat1):
    """X = xt d_x, Y = x d~, Z = d_x: the D-bracket Jacobi defect is the
    constant vector -d_x; norm 1 (hand evaluation of the coordinate formula,
    regression baseline)."""
    chart = flat1.chart
    X = TensorField(chart, 1, 0, np.array(["xt1", "0"], dtype=object))
    Y = TensorField(chart, 1, 0, np.array(["0", "x1"], dtype=object))
    Z = coordinate_vector_field(chart, 0)
    br = lambda A, B: d_bracket(flat1.S, A, B)
    oracle = lambda A, B: flat_coordinate_dbracket(chart, flat1.eta_matrix, A, B)
    for p in sample_points(flat1, 3, 22):
        assert jacobi_defect(br, X, Y, Z, p) == pytest.approx(1.0, abs=1e-12)
        assert jacobi_defect(oracle, X, Y, Z, p) == pytest.approx(1.0, abs=1e-12)
        # defect vector is exactly -d_x
        defect = (br(X, br(Y, Z)) - br(Y, br(X, Z)) - br(br(X, Y), Z)).values(p)
        assert np.allclose(defect, [-1.0, 0.0], atol=1e-12)


def test_lie_bracket_jacobi_zero(flat2):
    rng = np.random.default_rng(23)
    X = random_vector_field(flat2.chart, rng)
    Y = random_vector_field(flat2.chart, rng)
    Z = random_vector_field(flat2.chart, rng)
    for p in sample_points(flat2, 3, 24):
        assert jacobi_defect(lie_bracket, X, Y, Z, p) < 1e-9


# -- Schouten bracket --------------------------------------------------------------

def test_schouten_constant_bivector_zero(flat2):
    chart = flat2.chart
    comps = np.zeros((4, 4))
    comps[0, 1], comps[1, 0] = 1.0, -1.0
    beta = constant_field(chart, comps, 2, 0, sym="antisymmetric")
    C = flat_connection(chart)
    sch = schouten_self(beta, C)
    for p in sample_points(flat2, 3, 25):
        assert sch.at(p, 0).max_abs() == 0.0


def test_schouten_matches_coordinate_formula(flat2):
    """[b,b](l,m,n) = beta^{il} d_l beta^{jk} Sum_cycl l_i m_j n_k with the
    flat coordinate connection (the raw index expression)."""
    rng = np.random.default_rng(26)
    chart = flat2.chart
    beta = random_bivector(chart, rng)
    C = flat_connection(chart)
    for p in sample_points(flat2, 3, 27):
        bj = beta.at(p, 1)
        bv = values(bj)
        db = values(jets_gradient(bj))  # db[m, a, b] = d_m beta^{ab}
        lam, mu, nu = (rng.uniform(-1, 1, 4) for _ in range(3))
        # directional derivative along beta(lambda)^l = lam_i beta^{il}
        def term(l1, l2, l3):
            direction = l1 @ bv
            return np.einsum("m,mjk,j,k->", direction, db, l2, l3)

        want = term(lam, mu, nu) + term(mu, nu, lam) + term(nu, lam, mu)
        t = schouten_self(beta, C).at(p, 0)
        got = contract_value(p, t, *(constant_jets(t.ctx, c) for c in (lam, mu, nu)))
        assert abs(got - want) < 1e-10


def test_schouten_requires_torsionless(flat2):
    chart = flat2.chart
    comps = np.empty((4, 4, 4), dtype=object)
    comps[...] = 0
    comps[0, 0, 1] = "1"
    from paraherm.connections import from_christoffels

    C = from_christoffels(chart, comps)
    rng = np.random.default_rng(99)
    beta = random_bivector(chart, rng)
    with pytest.raises(NotTorsionless):
        schouten_self(beta, C).at(chart.point([0.1, 0.2, 0.3, 0.4]), 0)


def test_schouten_connection_independence(flat2):
    rng = np.random.default_rng(28)
    chart = flat2.chart
    beta = random_bivector(chart, rng)
    base = np.block([[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
    metric = random_metric_perturbation(chart, rng, base)
    c1 = flat_connection(chart)
    c2 = levi_civita(metric)
    s1 = schouten_self(beta, c1)
    s2 = schouten_self(beta, c2)
    for p in sample_points(flat2, 5, 29):
        assert (s1.at(p, 0) - s2.at(p, 0)).max_abs() < 1e-9


# -- Courant axiom suite -----------------------------------------------------------

def test_courant_suite_projected_passes(flat2):
    S = flat2.S
    rng = np.random.default_rng(30)
    pool = [random_vector_field(S.chart, rng) for _ in range(3)]
    pts = sample_points(flat2, 4, 31)
    for sign in (+1, -1):
        bracket = lambda X, Y: projected_bracket(S.canonical, S, sign, X, Y)
        anchor = lambda X: apply_endomorphism(S.projector(sign), X)
        rep = reduce_courant(courant_axiom_suite(bracket, anchor, eta_pair(S), cyclic_triples(
            pool, stack_points(pts))), stack_points(pts))
        assert rep.passed, rep.maxima


def test_courant_suite_full_dbracket_fails_axiom3(flat2):
    S = flat2.S
    rng = np.random.default_rng(32)
    pool = [random_vector_field(S.chart, rng) for _ in range(3)]
    pts = sample_points(flat2, 3, 33)
    bracket = lambda X, Y: d_bracket(S, X, Y)
    arrays = courant_axiom_suite(bracket, lambda X: X, eta_pair(S),
                                 cyclic_triples(pool, stack_points(pts)))
    rep = reduce_courant(arrays, stack_points(pts), limits={"axiom3": ("defect", 1e-9)})
    assert rep.maxima["axiom1"] < 1e-9 and rep.maxima["axiom2"] < 1e-9
    assert rep.maxima["axiom3"] > 1e-4
    assert rep.passed
    assert "3" in {w["axiom"] for w in rep.witnesses}


def test_courant_suite_lie_bracket_axiom3(flat2):
    rng = np.random.default_rng(34)
    pool = [random_vector_field(flat2.chart, rng) for _ in range(3)]
    pts = sample_points(flat2, 3, 35)
    triples = cyclic_triples(pool, stack_points(pts))
    assert np.max(jacobi_defect(lie_bracket, *triples.fields, triples.point)) < 1e-9


def test_courant_axioms_on_tm_minus_side(flatg_tm):
    """Courant axioms 1-3 for (TP, P-, eta, [,]_-) on the flat-g tangent
    bundle (T- integrable)."""
    S = flatg_tm.S
    rng = np.random.default_rng(36)
    pool = [random_vector_field(S.chart, rng, degree=1) for _ in range(3)]
    pts = sample_points(flatg_tm, 3, 37)
    bracket = lambda X, Y: projected_bracket(S.canonical, S, -1, X, Y)
    anchor = lambda X: apply_endomorphism(S.P_minus, X)
    rep = reduce_courant(courant_axiom_suite(bracket, anchor, eta_pair(S), cyclic_triples(
        pool, stack_points(pts))), stack_points(pts))
    assert rep.passed, rep.maxima


def test_dbracket_axiom1_without_integrability(sphere_tm, sphere_pts):
    """Metric compatibility of the D-bracket holds with the identity anchor
    even on the non-integrable model."""
    S = sphere_tm.S
    rng = np.random.default_rng(38)
    pool = [random_vector_field(S.chart, rng, degree=1) for _ in range(3)]
    bracket = lambda X, Y: d_bracket(S, X, Y)
    rep = reduce_courant(courant_axiom_suite(bracket, lambda X: X, eta_pair(S), cyclic_triples(
        pool, stack_points(sphere_pts[:3]))),
                         stack_points(sphere_pts[:3]))
    assert rep.maxima["axiom1"] < 1e-9
    assert rep.maxima["axiom2"] < 1e-9


# -- bounded memory ----------------------------------------------------------------

def test_dbracket_memory_does_not_grow_with_the_point_count():
    """The stream's access pattern, a D-bracket asked afresh and one Jacobi
    defect at each of 2,000 fresh single points, retains no more memory than
    after 200: each field, structure and connection keeps the jets of its
    last point only, and the structure's bracket and operand tables grow
    with the distinct field pairs (six brackets, 13 operands here), not
    with the points.  (With per-point caches the retained memory grew by
    about 9.3 KB a point.)"""
    import gc
    import tracemalloc

    from paraherm.models import build_flat

    model = build_flat(2)
    S = model.S
    rng = np.random.default_rng(47)
    X, Y, Z = (random_vector_field(model.chart, rng, degree=1, terms=1) for _ in range(3))
    coords = iter(rng.uniform(-1.0, 1.0, (2200, model.chart.dim)))
    bracket = lambda A, B: d_bracket(S, A, B)

    def evaluate(count):
        for _ in range(count):
            p = model.chart.point(next(coords))
            d_bracket(S, X, Y).at(p, 0)
            jacobi_defect(bracket, X, Y, Z, p)
        gc.collect()
        assert (len(S.bracket_table), len(S.operand_table)) == (6, 13)
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        after_200 = evaluate(200)
        after_2000 = evaluate(2000)
    finally:
        tracemalloc.stop()
    assert after_2000 - after_200 < 100_000, (after_200, after_2000)


def test_flat_oracle_batch_equals_stacked_points(flat2):
    """The oracle evaluates a batch in one pass, bit for bit as at each point."""
    rng = np.random.default_rng(48)
    X, Y = (random_vector_field(flat2.chart, rng) for _ in range(2))
    oracle = flat_coordinate_dbracket(flat2.chart, flat2.eta_matrix, X, Y)
    coords = rng.uniform(-1.0, 1.0, (3, 4))
    for k in (0, 1, 2):
        got = oracle.at(flat2.chart.point(coords), k)
        each = [oracle.at(flat2.chart.point(c), k).coeffs for c in coords]
        assert got.nb == 1 and got.shape == (4,)
        assert got.coeffs.tobytes() == np.stack(each).tobytes()
