import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from paraherm import cli
from paraherm.connections import (
    Connection, canonical_connection, canonical_connection_contorsion, check_adapted,
    covariant_derivative, covariant_differential, curvature, flat_connection,
    from_christoffels, levi_civita, nabla_jets, require_torsionless, torsion,
)
from paraherm.errors import DomainError, NotTorsionless
from paraherm.models import build_tm, sphere_base
from paraherm.geometry import (
    Chart, TensorField, as_batch, constant_field, constant_jets, jets_gradient,
    lie_derivative, per_point, per_point_max, stack_points, tdot,
)
from paraherm.parastructure import n_scalar
from paraherm.randfields import random_metric_perturbation, random_poly, random_vector_field
from conftest import sample_points, sphere_box
from helpers import reduce_adapted
from oracles import sphere_gamma, sphere_riemann, values

RUNSPECS = Path(__file__).resolve().parent.parent / "runspecs"


def gamma_values(conn, p, dim):
    g = conn.christoffels.at(p, 0)
    return values(g)


# -- Levi-Civita -----------------------------------------------------------------

def test_constant_metric_has_zero_christoffels(flat2):
    lc = flat2.S.levi_civita
    for p in sample_points(flat2, 3, 0):
        assert np.max(np.abs(gamma_values(lc, p, 4))) == 0.0


def test_sphere_christoffels_closed_form():
    chart = Chart(["th", "ph"], jet_order=3)
    g = TensorField(chart, 0, 2,
                    np.array([["1", "0"], ["0", "sin(th)^2"]], dtype=object),
                    sym="symmetric")
    lc = levi_civita(g)
    rng = np.random.default_rng(1)
    for _ in range(20):
        th = rng.uniform(0.3, 2.8)
        ph = rng.uniform(-3, 3)
        p = chart.point([th, ph])
        assert np.max(np.abs(gamma_values(lc, p, 2) - sphere_gamma(th))) < 1e-12


def test_levi_civita_metric_compatibility():
    chart = Chart(["x1", "x2", "xt1", "xt2"], split=2)
    rng = np.random.default_rng(2)
    base = np.block([[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
    eta = random_metric_perturbation(chart, rng, base)
    lc = levi_civita(eta)
    for _ in range(10):
        p = chart.point(rng.uniform(-1, 1, 4))
        de = covariant_differential(lc, eta).at(p, 0)
        assert de.max_abs() < 1e-9
        t = torsion(lc).at(p, 0)
        assert t.max_abs() < 1e-10


# -- covariant derivative ----------------------------------------------------------

def test_covd_scalar_is_directional(flat2):
    chart = flat2.chart
    rng = np.random.default_rng(3)
    f = TensorField(chart, 0, 0, random_poly(rng, 4))
    X = random_vector_field(chart, rng)
    # nabla_X f = X[f] for the (0,0) field f.
    D = covariant_derivative(flat_connection(chart), X, f)

    for p in sample_points(flat2, 3, 4):
        assert abs(float(D.at(p, 0).values())
                   - float(lie_derivative(X, f).values(p))) < 1e-12


def test_covd_flat_is_coordinate_derivative(flat2):
    chart = flat2.chart
    rng = np.random.default_rng(5)
    X = random_vector_field(chart, rng)
    Y = random_vector_field(chart, rng)
    D = covariant_derivative(flat2.S.levi_civita, X, Y)

    for p in sample_points(flat2, 3, 6):
        yj = Y.at(p, 1)
        expect = tdot(X.at(p, 0), jets_gradient(yj), ([0], [0]))
        assert np.max(np.abs(D.values(p) - values(expect))) < 1e-12


def test_covd_omega_frame_vs_coordinate(flatg_tm):
    """nablao omega on the flat-g model, frame route vs coordinate route."""
    S = flatg_tm.S
    n = flatg_tm.n
    dOmega = covariant_differential(S.levi_civita, S.omega)
    pts = sample_points(flatg_tm, 3, 7)
    for p in pts:
        # flat g: Christoffels of eta vanish, so nabla omega = d omega comps,
        # and omega has constant coefficients: everything must vanish.
        assert dOmega.at(p, 0).max_abs() < 1e-12


def _general_nabla(gamma, tj, r, s):
    """nabla T by the general formula, whatever Gamma is: the gradient, then
    one contraction with Gamma, two `moveaxis` calls and a sum per slot."""
    out = jets_gradient(tj)
    for axis in range(r):
        corr = tdot(gamma, tj, ([2], [axis])).moveaxis(1, 0)
        out = out + corr.moveaxis(1, axis + 1)
    for axis in range(r, r + s):
        corr = tdot(gamma, tj, ([0], [axis]))
        out = out - corr.moveaxis(1, axis + 1)
    return out


@pytest.fixture(scope="module")
def nabla_connections(flat2):
    """Connections on the flat model whose symbols are exactly zero: the
    canonical ones and `flat_connection`'s (both `const`, so unbatched), and
    one whose expressions read a coordinate, so it is batched at a batch;
    and the sphere's Levi-Civita connection, with budget for order 2."""
    g, coords, ok = sphere_base()
    sphere = build_tm(g, coords, jet_order=4)
    sphere._point_ok = ok
    zero = np.full((flat2.chart.dim,) * 3, "x1 - x1", dtype=object)
    return {"canonical": (flat2, flat2.S.canonical),
            "flat": (flat2, flat_connection(flat2.chart)),
            "zero_expr": (flat2, from_christoffels(flat2.chart, zero)),
            "sphere": (sphere, sphere.S.levi_civita)}


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(connection=st.sampled_from(["canonical", "flat", "zero_expr", "sphere"]),
       rank=st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (2, 0)]),
       order=st.integers(0, 2), data=st.data(), batch=st.booleans(),
       const=st.booleans(), seed=st.integers(0, 2**16))
def test_nabla_jets_equals_the_general_formula(nabla_connections, connection, rank, order,
                                               data, batch, const, seed):
    """nabla_jets gives the bits of the general formula, up to the sign of an
    exact zero, with its order, degree bound and batch axes: for symbols
    that are exactly zero, unbatched or batched, and for the sphere's
    non-zero ones; at the tensor's order less one or lower, at a point and
    at a batch, for a tensor that reads the coordinates or a constant one."""
    model, C = nabla_connections[connection]
    chart = model.chart
    rng = np.random.default_rng(seed)
    r, s = rank
    shape = (chart.dim,) * (r + s)
    if const:
        T = constant_field(chart, rng.integers(-8, 9, shape) / 4, r, s)
    else:
        polys = [random_poly(rng, chart.dim) for _ in range(math.prod(shape))]
        T = TensorField(chart, r, s, np.array(polys, dtype=object).reshape(shape))
    pts = sample_points(model, 3, seed, box=sphere_box() if connection == "sphere" else None)
    point = stack_points(pts) if batch else pts[0]
    gamma = C.christoffels.at(point, data.draw(st.integers(0, order), label="gamma order"))
    tj = T.at(point, order + 1)
    got, want = nabla_jets(gamma, tj, r, s), _general_nabla(gamma, tj, r, s)
    assert (got.ctx, got.deg, got.nb) == (want.ctx, want.deg, want.nb)
    assert got.coeffs.shape == want.coeffs.shape
    assert (got.coeffs + 0.0).tobytes() == (want.coeffs + 0.0).tobytes()


# -- canonical connection ----------------------------------------------------------

def test_canonical_equals_lc_on_flat(flat2):
    c = flat2.S.canonical
    lc = flat2.S.levi_civita
    for p in sample_points(flat2, 3, 8):
        assert np.max(np.abs(gamma_values(c, p, 4) - gamma_values(lc, p, 4))) == 0.0


def test_canonical_two_defining_formulas_agree(sphere_tm, sphere_pts):
    c1 = canonical_connection(sphere_tm.S)
    c2 = canonical_connection_contorsion(sphere_tm.S)
    for p in sphere_pts[:5]:
        d = np.max(np.abs(gamma_values(c1, p, 4) - gamma_values(c2, p, 4)))
        assert d < 1e-9


def test_canonical_forms_read_only_the_fields_they_use(sphere_pts, monkeypatch):
    """Each form reads only the fields it declares: the projector form the
    Levi-Civita symbols and P+- one order up, the contorsion form the
    Levi-Civita symbols, omega one order up, K and eta^{-1}.  With those
    evaluated at the point and every other structure field made to raise,
    its Christoffel symbols still evaluate there."""
    g, coords, _ = sphere_base()
    S = build_tm(g, coords).S
    p = sphere_pts[0]
    lc = S.levi_civita.christoffels
    # Each form's inputs, with the order it reads them at for order 1.
    forms = {canonical_connection: {lc: 1, S.P_plus: 2, S.P_minus: 2},
             canonical_connection_contorsion: {lc: 1, S.omega: 2, S.K: 1, S.eta_inv: 1}}

    def undeclared(point, order=0):
        raise AssertionError("a canonical form read a field it does not declare")

    for form, inputs in forms.items():
        for f, order in inputs.items():
            f.at(p, order)
        with monkeypatch.context() as patch:
            for f in S.fields:
                if all(f is not g for g in inputs):
                    patch.setattr(f, "at", undeclared)
            assert form(S).christoffels.at(p, 1).ctx.order == 1


def test_canonical_parallelism(sphere_tm, sphere_pts):
    """nabla^c eta = nabla^c omega = nabla^c K = 0 and eigenbundle preservation."""
    S = sphere_tm.S
    c = S.canonical
    rng = np.random.default_rng(9)
    for p in sphere_pts[:3]:
        for T in (S.eta, S.omega, S.K):
            assert covariant_differential(c, T).at(p, 0).max_abs() < 1e-9
        # P-mixed derivative: P-+ nabla^c (P+- Y) = 0 for constant-coefficient Y
        from paraherm.geometry import apply_endomorphism

        Y = constant_field(S.chart, rng.uniform(-1, 1, 4), 1, 0)
        X = constant_field(S.chart, rng.uniform(-1, 1, 4), 1, 0)
        for P, Q in ((S.P_plus, S.P_minus), (S.P_minus, S.P_plus)):
            W = covariant_derivative(c, X, apply_endomorphism(P, Y))
            mixed = apply_endomorphism(Q, W)
            assert mixed.at(p, 0).max_abs() < 1e-9


# -- torsion and curvature ----------------------------------------------------------

def test_torsion_is_tensorial(sphere_tm, sphere_pts):
    """torsion(fX, Y) = f torsion(X, Y) pointwise."""
    S = sphere_tm.S
    rng = np.random.default_rng(10)
    c = S.canonical
    t = torsion(c)
    p = sphere_pts[0]
    tv = values(t.at(p, 0))
    X = rng.uniform(-1, 1, 4)
    Y = rng.uniform(-1, 1, 4)
    fval = 1.7
    lhs = np.einsum("kij,i,j->k", tv, fval * X, Y)
    rhs = fval * np.einsum("kij,i,j->k", tv, X, Y)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_curvature_matches_sphere_oracle():
    chart = Chart(["th", "ph"], jet_order=3)
    g = TensorField(chart, 0, 2,
                    np.array([["1", "0"], ["0", "sin(th)^2"]], dtype=object),
                    sym="symmetric")
    R = curvature(levi_civita(g))
    rng = np.random.default_rng(11)
    for _ in range(20):
        th = rng.uniform(0.3, 2.8)
        p = chart.point([th, rng.uniform(-3, 3)])
        assert np.max(np.abs(values(R.at(p, 0)) - sphere_riemann(th))) < 1e-8


def test_tm_riemann_procedure_matches_oracle(sphere_tm, sphere_pts):
    for p in sphere_pts[:5]:
        got = values(sphere_tm.riemann_g(p, 0))
        assert np.max(np.abs(got - sphere_riemann(p.coords[0]))) < 1e-8


# -- adapted checks -----------------------------------------------------------------

def test_canonical_adapted_on_flat(flat2):
    pts = sample_points(flat2, 4, 12)
    for side in ("p", "n"):
        rep, conditions = reduce_adapted(flat2.S.canonical, flat2.S, side, stack_points(pts))
        assert rep.passed, conditions


def test_canonical_adapted_on_flatg_tm(flatg_tm):
    pts = sample_points(flatg_tm, 4, 13)
    for side in ("p", "n"):
        rep, conditions = reduce_adapted(flatg_tm.S.canonical, flatg_tm.S, side,
                                         stack_points(pts))
        assert rep.passed, conditions


def test_lc_adapted_on_flat_para_kahler(flat2):
    pts = sample_points(flat2, 4, 14)
    rep, conditions = reduce_adapted(flat2.S.levi_civita, flat2.S, "p", stack_points(pts))
    assert rep.passed


def test_canonical_adapted_n_side_on_sphere(sphere_tm, sphere_pts):
    rep, conditions = reduce_adapted(sphere_tm.S.canonical, sphere_tm.S, "n",
                                     stack_points(sphere_pts[:4]))
    assert rep.passed, conditions


def test_sphere_p_side_condition4_is_nijenhuis(sphere_tm, sphere_pts):
    """On the curved model the canonical connection violates condition (4)
    on the non-integrable side by exactly the Nijenhuis obstruction."""
    S = sphere_tm.S
    rep, conditions = reduce_adapted(S.canonical, S, "p", stack_points(sphere_pts[:3]))
    assert conditions[1] < 1e-9
    assert conditions[2] < 1e-9
    assert conditions[3] < 1e-9
    assert conditions[4] > 1e-3
    # exact equality with -N_+ for specific vectors
    rng = np.random.default_rng(15)
    p = sphere_pts[0]
    Pp = S.P_plus.at(p, 1)
    Ppv = values(Pp)
    etav = values(S.eta.at(p, 1))
    gv = values(S.canonical.christoffels.at(p, 0))
    dPp = values(jets_gradient(Pp))
    tors = gv - np.transpose(gv, (0, 2, 1))
    u, v, w = rng.uniform(-1, 1, (3, 4))
    xp, yp, zp = Ppv @ u, Ppv @ v, Ppv @ w
    tv = np.einsum("kij,i,j->k", tors, xp, yp)
    dx = np.einsum("iab,b->ia", dPp, u)
    nz = np.einsum("i,ia->a", zp, dx) + np.einsum("kim,i,m->k", gv, zp, xp)
    cond4 = etav @ zp @ tv + etav @ yp @ nz
    X, Y, Z = (constant_field(S.chart, c, 1, 0) for c in (u, v, w))
    assert abs(cond4 + n_scalar(S, +1, X, Y, Z, p)) < 1e-10


def test_lc_not_adapted_on_curved_tm(sphere_tm, sphere_pts):
    """Levi-Civita is not p-adapted on the curved model.  A Koszul computation
    shows it does preserve T- along T+ here (condition 2 holds); the failure
    is the curvature term in condition (4)."""
    rep, conditions = reduce_adapted(sphere_tm.S.levi_civita, sphere_tm.S, "p",
                                     stack_points(sphere_pts[:4]))
    assert not rep.passed
    assert conditions[2] < 1e-9
    assert conditions[4] > 1e-3


def _random_triple_residuals(C, S, side, sample, n_vectors=20, seed=2024):
    """The reference for `check_adapted`, which this was until its conditions
    became projected tensors: the four conditions on `n_vectors` random
    triples per point, from one seeded draw, the worst triple's residual,
    scaled as `check_adapted` scales its own."""
    batch = as_batch(sample)
    dim = S.chart.dim
    eta, Pp, Pm = (f.at(batch, 1) for f in (S.eta, S.P_plus, S.P_minus))
    if side == "n":
        Pp, Pm = Pm, Pp
    gamma = C.christoffels.at(batch, 0)
    values = lambda x: per_point(batch, x).values()  # noqa: E731
    Ppv = values(Pp)  # (point, a, b)
    Pmv = values(Pm)
    etav = values(eta)
    gv = values(gamma)
    nabla_eta = values(nabla_jets(gamma, eta, 0, 2))
    tors = gv - np.swapaxes(gv, -1, -2)
    dPp = values(jets_gradient(Pp))  # dPp[point, i, a, b]
    dPm = values(jets_gradient(Pm))
    scale = np.maximum(1.0, np.maximum(per_point_max(etav), per_point_max(gv)))
    rng = np.random.default_rng(seed)
    npts = len(batch.coords)
    uvw = rng.uniform(-1.0, 1.0, (npts * n_vectors, 3, dim)).reshape(npts, n_vectors, 3, dim)
    u, v, w = np.moveaxis(uvw, 2, 0)  # (point, vec, a)
    xp, yp, zp = np.moveaxis(np.einsum("pab,pvkb->pvka", Ppv, uvw), 2, 0)
    ym, zm = np.moveaxis(np.einsum("pab,pvkb->pvka", Pmv, uvw[:, :, 1:]), 2, 0)
    # (1) nabla_{x+} eta = 0
    r1 = _on_vectors(nabla_eta, xp, v, w)
    # (2) P+ nabla_{x+} (P- v) = 0
    dy = np.einsum("piab,pvb->pvia", dPm, v)  # d_i (P- v)^a
    w2 = np.einsum("pvi,pvia->pva", xp, dy) + _on_vectors(gv, xp, ym)
    r2 = np.abs(np.einsum("pab,pvb->pva", Ppv, w2)).max(axis=2)
    # (3) eta(T(x+, y+), z-) = 0
    tv = _on_vectors(tors, xp, yp)
    r3 = _on_vectors(etav, tv, zm)
    # (4) eta(T(x+, y+), z+) + eta(nabla_{z+} x+, y+) = 0
    dx = np.einsum("piab,pvb->pvia", dPp, u)
    nz = np.einsum("pvi,pvia->pva", zp, dx) + _on_vectors(gv, zp, xp)
    r4 = _on_vectors(etav, tv, zp) + _on_vectors(etav, nz, yp)
    point_worst = np.stack([np.abs(r).max(axis=1) for r in (r1, r2, r3, r4)], axis=1)
    return {f"{side}_cond": point_worst / scale[:, None]}


def _on_vectors(T, *vectors):
    """T[p, ..., i, j] evaluated on the vectors (..., x, y), which fill its
    trailing axes: [p, v, ...], for each point p and vector v, through the
    vectors' outer product."""
    outer = vectors[0]
    for x in vectors[1:]:
        outer = (outer[:, :, :, None] * x[:, :, None, :]).reshape(outer.shape[:2] + (-1,))
    flat = T.reshape(T.shape[:T.ndim - len(vectors)] + (-1,))
    return np.einsum("p...I,pvI->pv...", flat, outer)


@pytest.fixture(scope="module")
def adapted_models(flat2, sphere_tm):
    """name -> (model, the box its points are drawn from): the flat model,
    the sphere's tangent bundle and the Drinfel'd double of the shipped
    runspec."""
    spec = json.loads((RUNSPECS / "drinfeld_double.json").read_text())
    return {"flat": (flat2, None), "tm": (sphere_tm, sphere_box()),
            "double": (cli._RunContext(spec).model, None)}


@settings(max_examples=40, deadline=None)
@given(model=st.sampled_from(["flat", "tm", "double"]),
       conn=st.sampled_from(["canonical", "levi_civita"]),
       kick=st.none() | st.tuples(*[st.integers(0, 3)] * 3),
       count=st.integers(1, 6), seed=st.integers(0, 2**16))
def test_adapted_tensors_vanish_where_the_random_triples_do(adapted_models, model, conn, kick,
                                                            count, seed):
    """On random batches of 1-6 points of the flat, tangent-bundle and double
    models, for their canonical and Levi-Civita connections, each optionally
    kicked by one constant Christoffel component, every condition's tensor
    residual is zero (at rounding level) exactly where the random-triple
    reference's is, and bounds it: a triple of vectors in [-1, 1]^4 reads at
    most 4^3 times the tensor's largest component."""
    m, box = adapted_models[model]
    S = m.S
    C = getattr(S, conn)
    if kick is not None:
        delta = np.zeros((4, 4, 4))
        delta[kick] = 0.5
        base = C.christoffels
        kicked = lambda p, k: base.at(p, k) + constant_jets(S.chart.context(k), delta)  # noqa: E731
        C = Connection(S.chart, kicked, inputs=(base,))
    batch = stack_points(sample_points(m, count, seed, box=box))
    for side in "pn":
        key = f"{side}_cond"
        tensor = check_adapted(C, S, side, batch)[key]
        triples = _random_triple_residuals(C, S, side, batch)[key]
        assert tensor.shape == triples.shape == (count, 4)
        assert np.array_equal(tensor <= 1e-10, triples <= 1e-10), (side, tensor, triples)
        assert np.all(triples <= 4**3 * tensor + 1e-12), (side, tensor, triples)


def test_from_christoffels_roundtrip():
    chart = Chart(["x", "xt"], split=1)
    comps = np.empty((2, 2, 2), dtype=object)
    comps[...] = 0
    comps[0, 0, 0] = "x"
    conn = from_christoffels(chart, comps)
    p = chart.point([0.5, 0.1])
    assert conn.christoffels.at(p, 0).values()[0, 0, 0] == 0.5


def _fails_check_adapted(C, S, pts):
    """True when check_adapted rejects C at pts: it raises, or reports a
    failure with a witness."""
    try:
        rep, _ = reduce_adapted(C, S, "p", stack_points(pts))
    except (DomainError, NotTorsionless):
        return True
    return not rep.passed and bool(rep.witnesses)


def test_overflowing_christoffels_fail_the_gates(flat1):
    """Gamma^0_{01} - Gamma^0_{10} is inf - inf = NaN at these points: the
    torsion gate and the adapted check must fail, not read the NaN as 0."""
    chart = flat1.chart
    comps = np.zeros((2, 2, 2), dtype=object)
    comps[0, 0, 1] = "exp(800*x1) + 1"
    comps[0, 1, 0] = "exp(800*x1)"
    C = from_christoffels(chart, comps)
    pts = [chart.point([1.0, 0.0]), chart.point([0.9, 0.1])]
    for p in pts:
        with pytest.raises((DomainError, NotTorsionless)):
            require_torsionless(C, p)
    assert _fails_check_adapted(C, flat1.S, pts)


def test_nan_residuals_fail_the_gates(flat1):
    """A connection whose Christoffels are NaN (not built from expressions,
    so no finiteness check sees them) fails the torsion gate at the first
    point, and every condition of check_adapted reads NaN with a witness."""
    chart = flat1.chart

    def fn(point, order):
        vals = np.zeros(point.batch + (2, 2, 2))
        vals[..., 0, 0, 1] = np.nan
        return constant_jets(chart.context(order), vals, len(point.batch))

    C = Connection(chart, fn)
    pts = [chart.point([0.2, 0.3]), chart.point([0.4, -0.1])]
    with pytest.raises(NotTorsionless, match=r"nan at Point\(\[0\.2, 0\.3\]\)"):
        require_torsionless(C, stack_points(pts))
    rep, conditions = reduce_adapted(C, flat1.S, "p", stack_points(pts))
    assert not rep.passed
    assert all(np.isnan(v) for v in conditions.values())
    assert {w["condition"] for w in rep.witnesses} == {1, 2, 3, 4}
