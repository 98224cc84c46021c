import numpy as np
import pytest

from paraherm.brackets import (
    GeneralizedVectorField, associated_bracket, c_bracket, courant_axiom_suite,
    d_bracket, dorfman_leafwise, dorfman_via_connection, flat_coordinate_dbracket,
    jacobi_defect, pairing, projected_bracket, schouten_scalar, schouten_self,
    standard_dorfman,
)
from paraherm.connections import flat_connection, levi_civita
from paraherm.errors import NotIntegrable, NotTorsionless
from paraherm.geometry import (
    TensorField, apply_endomorphism, constant_field,
    DerivedField, coordinate_vector_field, exterior_derivative, jets_gradient, lie_bracket,
    lie_derivative, scalar_pairing, tdot,
)
from paraherm.parastructure import rho, rho_field
from paraherm.randfields import (
    random_bivector, random_form, random_metric_perturbation, random_poly,
    random_vector_field,
)
from conftest import sample_points
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
                b = S.at(p, 0)
                Pc = (b.Pp if sign > 0 else b.Pm)
                pz = tdot(Pc, Z.at(p, 0), ([1], [0]))
                val = float(tdot(tdot(b.eta, br.at(p, 0), ([0], [0])), pz,
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
        b = S.at(p, 0)
        etaXY = X.values(p) @ values(b.eta) @ Y.values(p)
        df = exterior_derivative(f).values(p)
        grad = values(b.eta_inv) @ df
        rhs2 = (fval * base - lie_derivative(Y, f).values(p) * X.values(p)
                + etaXY * grad)
        assert np.max(np.abs(lhs2 - rhs2)) < 1e-10


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
        dorfman_via_connection(C, e, e, check=True).at(
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
                b = S.at(p, 0)
                Q = values((b.Pm if sign > 0 else b.Pp))
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


from helpers import shear_adapted_connection  # noqa: E402


def test_shear_connection_is_adapted_and_distinct(flat2):
    from paraherm.connections import check_adapted

    S = flat2.S
    C = shear_adapted_connection(S)
    pts = sample_points(flat2, 4, 21)
    for side in ("p", "n"):
        rep = check_adapted(C, S, side, pts)
        assert rep.passed, rep.conditions
    p = pts[0]
    diff = values(C.gamma(p, 0)) - values(S.canonical.gamma(p, 0))
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
        got = schouten_scalar(beta, C, lam, mu, nu, p)
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
        rep = courant_axiom_suite(bracket, anchor, eta_pair(S), pool, pts)
        assert rep.passed(), (rep.axiom1, rep.axiom2, rep.axiom3)


def test_courant_suite_full_dbracket_fails_axiom3(flat2):
    S = flat2.S
    rng = np.random.default_rng(32)
    pool = [random_vector_field(S.chart, rng) for _ in range(3)]
    pts = sample_points(flat2, 3, 33)
    bracket = lambda X, Y: d_bracket(S, X, Y)
    rep = courant_axiom_suite(bracket, lambda X: X, eta_pair(S), pool, pts)
    assert rep.axiom1 < 1e-9 and rep.axiom2 < 1e-9
    assert rep.axiom3 > 1e-4
    assert rep.passed(expect_jacobi_failure=True)
    assert "3" in rep.witnesses


def test_courant_suite_lie_bracket_axiom3(flat2):
    rng = np.random.default_rng(34)
    pool = [random_vector_field(flat2.chart, rng) for _ in range(3)]
    pts = sample_points(flat2, 3, 35)
    rep = courant_axiom_suite(lie_bracket, lambda X: X, None, pool, pts,
                              skip_pairing=True)
    assert rep.axiom3 < 1e-9


def test_courant_axioms_on_tm_minus_side(flatg_tm):
    """Courant axioms 1-3 for (TP, P-, eta, [,]_-) on the flat-g tangent
    bundle (T- integrable)."""
    S = flatg_tm.S
    rng = np.random.default_rng(36)
    pool = [random_vector_field(S.chart, rng, degree=1) for _ in range(3)]
    pts = sample_points(flatg_tm, 3, 37)
    bracket = lambda X, Y: projected_bracket(S.canonical, S, -1, X, Y)
    anchor = lambda X: apply_endomorphism(S.P_minus, X)
    rep = courant_axiom_suite(bracket, anchor, eta_pair(S), pool, pts)
    assert rep.passed(), (rep.axiom1, rep.axiom2, rep.axiom3)


def test_dbracket_axiom1_without_integrability(sphere_tm, sphere_pts):
    """Metric compatibility of the D-bracket holds with the identity anchor
    even on the non-integrable model."""
    S = sphere_tm.S
    rng = np.random.default_rng(38)
    pool = [random_vector_field(S.chart, rng, degree=1) for _ in range(3)]
    bracket = lambda X, Y: d_bracket(S, X, Y)
    rep = courant_axiom_suite(bracket, lambda X: X, eta_pair(S), pool,
                              sphere_pts[:3])
    assert rep.axiom1 < 1e-9
    assert rep.axiom2 < 1e-9


# -- bounded memory ----------------------------------------------------------------

def test_dbracket_memory_does_not_grow_with_the_point_count():
    """A D-bracket evaluated at 2,000 fresh single points retains no more
    memory than after 200: each field, structure and connection keeps the
    jets of its last point only.  (With per-point caches the retained memory
    grew by about 9.3 KB a point.)"""
    import gc
    import tracemalloc

    from paraherm.models import build_flat

    model = build_flat(2)
    rng = np.random.default_rng(47)
    X, Y = (random_vector_field(model.chart, rng, degree=1, terms=1) for _ in range(2))
    D = d_bracket(model.S, X, Y)
    coords = iter(rng.uniform(-1.0, 1.0, (2200, model.chart.dim)))

    def evaluate(count):
        for _ in range(count):
            D.at(model.chart.point(next(coords)), 0)
        gc.collect()
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
