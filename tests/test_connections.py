import numpy as np
import pytest

from paraherm.connections import (
    Connection, canonical_connection, canonical_connection_contorsion, check_adapted,
    covariant_derivative, covariant_differential, curvature, flat_connection,
    from_christoffels, levi_civita, require_torsionless, torsion,
)
from paraherm.errors import DomainError, NotTorsionless
from paraherm.geometry import (
    Chart, TensorField, constant_field, constant_jets, lie_derivative, stack_points,
)
from paraherm.parastructure import n_scalar
from paraherm.randfields import random_metric_perturbation, random_poly, random_vector_field
from conftest import sample_points
from oracles import sphere_gamma, sphere_riemann, values


def gamma_values(conn, p, dim):
    g = conn.gamma(p, 0)
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
    from paraherm.geometry import jets_gradient, tdot

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
        rep = check_adapted(flat2.S.canonical, flat2.S, side, pts)
        assert rep.passed, rep.conditions


def test_canonical_adapted_on_flatg_tm(flatg_tm):
    pts = sample_points(flatg_tm, 4, 13)
    for side in ("p", "n"):
        rep = check_adapted(flatg_tm.S.canonical, flatg_tm.S, side, pts)
        assert rep.passed, rep.conditions


def test_lc_adapted_on_flat_para_kahler(flat2):
    pts = sample_points(flat2, 4, 14)
    rep = check_adapted(flat2.S.levi_civita, flat2.S, "p", pts)
    assert rep.passed


def test_canonical_adapted_n_side_on_sphere(sphere_tm, sphere_pts):
    rep = check_adapted(sphere_tm.S.canonical, sphere_tm.S, "n", sphere_pts[:4])
    assert rep.passed, rep.conditions


def test_sphere_p_side_condition4_is_nijenhuis(sphere_tm, sphere_pts):
    """On the curved model the canonical connection violates condition (4)
    on the non-integrable side by exactly the Nijenhuis obstruction."""
    S = sphere_tm.S
    rep = check_adapted(S.canonical, S, "p", sphere_pts[:3])
    assert rep.conditions[1] < 1e-9
    assert rep.conditions[2] < 1e-9
    assert rep.conditions[3] < 1e-9
    assert rep.conditions[4] > 1e-3
    # exact equality with -N_+ for specific vectors
    rng = np.random.default_rng(15)
    p = sphere_pts[0]
    b = S.at(p, 1)
    Ppv = values(b.Pp)
    etav = values(b.eta)
    gv = values(S.canonical.gamma(p, 0))
    from paraherm.geometry import jets_gradient

    dPp = values(jets_gradient(b.Pp))
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
    rep = check_adapted(sphere_tm.S.levi_civita, sphere_tm.S, "p", sphere_pts[:4])
    assert not rep.passed
    assert rep.conditions[2] < 1e-9
    assert rep.conditions[4] > 1e-3


def test_from_christoffels_roundtrip():
    chart = Chart(["x", "xt"], split=1)
    comps = np.empty((2, 2, 2), dtype=object)
    comps[...] = 0
    comps[0, 0, 0] = "x"
    conn = from_christoffels(chart, comps)
    p = chart.point([0.5, 0.1])
    assert conn.gamma(p, 0).values()[0, 0, 0] == 0.5


def _fails_check_adapted(C, S, pts):
    """True when check_adapted rejects C at pts: it raises, or reports a
    failure with a witness."""
    try:
        rep = check_adapted(C, S, "p", pts)
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
    rep = check_adapted(C, flat1.S, "p", pts)
    assert not rep.passed
    assert all(np.isnan(v) for v in rep.conditions.values())
    assert {w["condition"] for w in rep.witnesses} == {1, 2, 3, 4}
