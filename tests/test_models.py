import numpy as np
import pytest

from paraherm.brackets import d_bracket, flat_coordinate_dbracket
from paraherm.errors import NotPositiveDefinite
from paraherm.geometry import exterior_derivative, lie_bracket, reduce_points, stack_points
from paraherm.models import b_field_on_tm, build_tm, sphere_base
from paraherm.parastructure import classify, validate_structure
from paraherm.randfields import random_vector_field
from conftest import sample_points
from helpers import flux_report
from oracles import sphere_riemann, values


def test_flat_model(flat2):
    pts = sample_points(flat2, 4, 0)
    assert reduce_points(validate_structure(flat2.S, stack_points(pts)), 1e-10).passed
    flags, _ = classify(flat2.S, stack_points(pts[:2]))
    assert flags["para_kahler"]


def test_tm_identity_metric_reduces_to_flat():
    m = build_tm([["1", "0"], ["0", "1"]], ["a", "b"])
    pts = sample_points(m, 4, 1)
    assert reduce_points(validate_structure(m.S, stack_points(pts)), 1e-10).passed
    flags, _ = classify(m.S, stack_points(pts[:2]))
    assert flags["para_kahler"]
    # H_i = d_i
    p = pts[0]
    for i in range(2):
        hv = m.H[i].at(p, 0).values()
        assert np.allclose(hv, np.eye(4)[i])
    # eta equals the flat off-diagonal-identity matrix
    assert np.allclose(m.S.eta.at(p, 0).values(),
                       np.block([[np.zeros((2, 2)), np.eye(2)],
                                 [np.eye(2), np.zeros((2, 2))]]))


def test_not_positive_definite():
    m = build_tm([["-1", "0"], ["0", "1"]], ["a", "b"])
    with pytest.raises(NotPositiveDefinite):
        build_tm([["-1", "0"], ["0", "1"]], ["a", "b"],
                 sample=m.chart.point([0.5, 0.5, 0.0, 0.0]))


def test_frame_duality(sphere_tm, sphere_pts):
    p = sphere_pts[0]
    n = sphere_tm.n
    for i in range(n):
        for j in range(n):
            h = sphere_tm.H[j].at(p, 1)
            v = sphere_tm.V[j].at(p, 1)
            hco = sphere_tm.H_co[i].at(p, 1)
            vco = sphere_tm.V_co[i].at(p, 1)
            def pair(co, frame):
                return sum(float((co[a] * frame[a]).values()) for a in range(2 * n))

            assert abs(pair(hco, h) - (i == j)) < 1e-14
            assert abs(pair(vco, v) - (i == j)) < 1e-14
            assert abs(pair(vco, h)) < 1e-14
            assert abs(pair(hco, v)) < 1e-14


def test_eta_frame_values(sphere_tm, sphere_pts):
    """eta(H_i,H_j) = eta(V_i,V_j) = 0, eta(V_i,H_j) = g_ij; lowering H_i
    gives g_ij V^j."""
    S = sphere_tm.S
    n = sphere_tm.n
    for p in sphere_pts[:3]:
        etav = S.eta.at(p, 0).values()
        gv = sphere_tm.g.at(p, 0).values()[:n, :n]
        H = [sphere_tm.H[i].at(p, 0).values() for i in range(n)]
        V = [sphere_tm.V[i].at(p, 0).values() for i in range(n)]
        Vco = [values(sphere_tm.V_co[i].at(p, 0)) for i in range(n)]
        for i in range(n):
            for j in range(n):
                assert abs(H[i] @ etav @ H[j]) < 1e-13
                assert abs(V[i] @ etav @ V[j]) < 1e-13
                assert abs(V[i] @ etav @ H[j] - gv[i, j]) < 1e-13
        for i in range(n):
            lowered = H[i] @ etav
            expect = sum(gv[i, j] * Vco[j] for j in range(n))
            assert np.max(np.abs(lowered - expect)) < 1e-13


def test_horizontal_bracket_is_curvature(sphere_tm, sphere_pts):
    """[H_i, H_j] = R^k_{ijl} v^l V_k against the closed-form sphere oracle."""
    for p in sphere_pts[:5]:
        R = sphere_riemann(p.coords[0])
        v = p.coords[2:]
        br = lie_bracket(sphere_tm.H[0], sphere_tm.H[1]).values(p)
        expect = np.zeros(4)
        for k in range(2):
            expect[2 + k] = R[k, 0, 1, :] @ v
        assert np.max(np.abs(br - expect)) < 1e-8
        assert np.max(np.abs(expect)) > 1e-3  # non-vacuous away from flat


def test_domega_display(sphere_tm, curved3_tm, sphere_pts):
    """d omega has no (H,H,V), (H,V,V) or (V,V,V) components (Levi-Civita,
    torsionless), and its (H,H,H) values match the curvature frame expansion
    v^l (L_{cabl} + L_{abcl} + L_{bcal}), L = g R (zero by first Bianchi)."""
    cases = [(sphere_tm, sphere_pts[:2]),
             (curved3_tm, sample_points(curved3_tm, 2, 3, box=[(-0.8, 0.8)] * 6))]
    for model, pts in cases:
        S = model.S
        n = model.n
        dw = exterior_derivative(S.omega)
        for p in pts:
            dwv = dw.at(p, 0).values()
            H = np.array([model.H[i].at(p, 0).values() for i in range(n)])
            V = np.array([model.V[i].at(p, 0).values() for i in range(n)])
            R = model.riemann_g(p, 0)
            gv = model.g.at(p, 0).values()[:n, :n]
            Rv = values(R)
            L = np.einsum("km,mabl->kabl", gv, Rv)
            vcoord = p.coords[n:]
            expect = np.zeros((n, n, n))
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        expect[a, b, c] = (L[c, a, b] + L[a, b, c] + L[b, c, a]) @ vcoord
            got = np.einsum("ABC,aA,bB,cC->abc", dwv, H, H, H)
            assert np.max(np.abs(got - expect)) < 1e-10
            assert np.max(np.abs(np.einsum("ABC,aA,bB,cC->abc", dwv, H, H, V))) < 1e-10
            assert np.max(np.abs(np.einsum("ABC,aA,bB,cC->abc", dwv, H, V, V))) < 1e-10
            assert np.max(np.abs(np.einsum("ABC,aA,bB,cC->abc", dwv, V, V, V))) < 1e-10


def test_sphere_classification(sphere_tm, sphere_pts):
    flags, _ = classify(sphere_tm.S, stack_points(sphere_pts[:3]))
    assert flags["n_para_kahler"]
    assert not flags["p_integrable"]


def test_flatg_eta_christoffels_vanish(flatg_tm):
    """With flat constant-coefficient g the Christoffels of eta vanish in the
    chosen coordinates; verified numerically rather than assumed."""
    lc = flatg_tm.S.levi_civita
    for p in sample_points(flatg_tm, 4, 8):
        assert np.max(np.abs(values(lc.christoffels.at(p, 0)))) == 0.0


def test_flatg_dbracket_takes_coordinate_form(flatg_tm):
    """On the flat-g model the D-bracket is the coordinate formula with
    capital indices split into (x, v)."""
    S = flatg_tm.S
    rng = np.random.default_rng(4)
    eta = S.eta.at(flatg_tm.chart.point(np.zeros(6)), 0).values()
    X = random_vector_field(S.chart, rng)
    Y = random_vector_field(S.chart, rng)
    got = d_bracket(S, X, Y)
    want = flat_coordinate_dbracket(flatg_tm.chart, eta, X, Y)
    for p in sample_points(flatg_tm, 4, 5):
        assert np.max(np.abs(got.values(p) - want.values(p))) < 1e-12


def test_b_field_on_tm_x_dependent():
    """b_12 = x1 (n = 2, identity g): Q = 0 and all (+3,-0)-type fluxes
    vanish (rank-2 plus bundle)."""
    m = build_tm([["1", "0"], ["0", "1"]], ["x1", "x2"])
    pts = sample_points(m, 3, 6)
    bb = np.empty((2, 2), dtype=object)
    bb[...] = 0
    bb[0, 1] = "x1"
    bb[1, 0] = "-x1"
    T = b_field_on_tm(m, bb, sample=stack_points(pts))
    rep = flux_report(T, pts[0])
    assert np.max(np.abs(rep.q_frame)) < 1e-14
    assert np.max(np.abs(rep.h_flux)) < 1e-14  # n=2: Lambda^3 T+* = 0
    assert rep.reassembly_residual < 1e-10


def test_b_field_on_tm_v_dependent():
    """b_12 = v1: H = 0, Q_112 = 1, covariantized H = 0 (spec worked example)."""
    m = build_tm([["1", "0"], ["0", "1"]], ["x1", "x2"])
    pts = sample_points(m, 3, 7)
    bb = np.empty((2, 2), dtype=object)
    bb[...] = 0
    bb[0, 1] = "v1"
    bb[1, 0] = "-v1"
    T = b_field_on_tm(m, bb, sample=stack_points(pts))
    rep = flux_report(T, pts[0])
    assert np.max(np.abs(rep.h_flux)) < 1e-14
    q = np.array(rep.q_frame)
    assert q[0, 0, 1] == 1.0 and q[0, 1, 0] == -1.0
    assert np.max(np.abs(rep.covariantized_h)) < 1e-14


def test_b_field_on_tm_curved_base_rejected(sphere_tm, sphere_pts):
    from paraherm.errors import NotParaKahler

    bb = np.empty((2, 2), dtype=object)
    bb[...] = 0
    bb[0, 1] = "v1"
    bb[1, 0] = "-v1"
    with pytest.raises(NotParaKahler, match="not flat") as err:
        b_field_on_tm(sphere_tm, bb, sample=stack_points(sphere_pts[:2]))
    # The round sphere is curved everywhere, so the first point is named.
    assert str(sphere_pts[0]) in str(err.value)


def test_sphere_base_pole_exclusion():
    g, coords, ok = sphere_base()
    assert not ok(np.array([0.01, 0.0, 0.0, 0.0]))
    assert ok(np.array([1.2, 0.0, 0.0, 0.0]))
