import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paraherm.cli import SUITES
from paraherm.connections import flat_connection
from paraherm.geometry import (
    apply_endomorphism, constant_field, coordinate_vector_field, exterior_derivative,
    reduce_points, stack_points, tdot,
)
from paraherm.parastructure import (
    ParaHermitianStructure, bigraded_parts, classify, n_scalar, nijenhuis,
    nijenhuis_connection_form, nijenhuis_projector_form, phi_scalar, rho,
    rho_field, rho_inverse, validate_structure,
)
from paraherm.randfields import random_form, random_vector_field
from conftest import sample_points, sphere_box


def _const_vecs(chart, rng, count):
    return [constant_field(chart, rng.uniform(-1, 1, chart.dim), 1, 0)
            for _ in range(count)]


# -- validation -----------------------------------------------------------------

def test_flat_validation_exact(flat2):
    pts = sample_points(flat2, 5, 0)
    rep = reduce_points(validate_structure(flat2.S, stack_points(pts)), 1e-10)
    assert rep.passed
    assert max(rep.maxima.values()) == 0.0


def test_rank_skewed_K_fails(flat2):
    chart = flat2.chart
    K = constant_field(chart, np.diag([1.0, 1.0, 1.0, -1.0]), 1, 1)
    eta = constant_field(chart, flat2.eta_matrix, 0, 2, sym="symmetric")
    S = ParaHermitianStructure(chart, eta, K)
    sample = stack_points(sample_points(flat2, 3, 1))
    rep = reduce_points(validate_structure(S, sample), 1e-10)
    assert not rep.passed
    assert rep.maxima["trace_K"] > 1.0


def test_sphere_tm_validation(sphere_tm):
    pts = sample_points(sphere_tm, 50, 2, box=sphere_box())
    rep = reduce_points(validate_structure(sphere_tm.S, stack_points(pts)), 1e-10)
    assert rep.passed
    assert max(rep.maxima.values()) < 1e-12


# -- rho maps -------------------------------------------------------------------

def test_rho_flat_images(flat2):
    """rho_+(dtilde^i) = dx^i and rho_-(d_i) = dxt_i on the flat model."""
    chart = flat2.chart
    p = chart.point([0.1, -0.2, 0.3, 0.4])
    for i in range(2):
        dt = constant_field(chart, np.eye(4)[2 + i], 1, 0)
        gv = rho(flat2.S, +1, dt, p)
        assert np.max(np.abs(gv.vec.values())) == 0.0
        assert np.allclose(gv.cov.values(), np.eye(4)[i])
        dx = constant_field(chart, np.eye(4)[i], 1, 0)
        gv = rho(flat2.S, -1, dx, p)
        assert np.max(np.abs(gv.vec.values())) == 0.0
        assert np.allclose(gv.cov.values(), np.eye(4)[2 + i])


def test_rho_plus_fixes_plus_vectors(flat2):
    rng = np.random.default_rng(3)
    p = flat2.chart.point(rng.uniform(-1, 1, 4))
    xplus = constant_field(flat2.chart, [0.7, -0.4, 0.0, 0.0], 1, 0)
    gv = rho(flat2.S, +1, xplus, p)
    assert np.allclose(gv.vec.values(), [0.7, -0.4, 0.0, 0.0])
    assert gv.cov.max_abs() == 0.0


def test_rho_isometry(sphere_tm, sphere_pts):
    """<rho X, rho Y> = eta(X, Y) for 100 random pairs."""
    rng = np.random.default_rng(4)
    S = sphere_tm.S
    for p in sphere_pts[:2]:
        etav = S.eta.values(p)
        for _ in range(50):
            X, Y = _const_vecs(S.chart, rng, 2)
            for sign in (+1, -1):
                gx = rho(S, sign, X, p)
                gy = rho(S, sign, Y, p)
                pair = (gx.cov.values() @ gy.vec.values()
                        + gy.cov.values() @ gx.vec.values())
                target = X.values(p) @ etav @ Y.values(p)
                assert abs(pair - target) < 1e-12


def test_rho_inverse_roundtrip(sphere_tm, sphere_pts):
    rng = np.random.default_rng(5)
    S = sphere_tm.S
    p = sphere_pts[0]
    for sign in (+1, -1):
        X = constant_field(S.chart, rng.uniform(-1, 1, 4), 1, 0)
        gv = rho(S, sign, X, p)
        back = rho_inverse(S, sign, gv.vec, gv.cov, p)
        assert np.max(np.abs(back.values() - X.values(p))) < 1e-12


def test_rho_field_matches_pointwise(flat2):
    rng = np.random.default_rng(6)
    X = random_vector_field(flat2.chart, rng)
    p = flat2.chart.point(rng.uniform(-1, 1, 4))
    vec, cov = rho_field(flat2.S, +1, X)
    gv = rho(flat2.S, +1, X, p)
    assert np.allclose(vec.values(p), gv.vec.values())
    assert np.allclose(cov.values(p), gv.cov.values())


# -- Nijenhuis -------------------------------------------------------------------

def test_flat_nijenhuis_vanishes(flat2):
    rng = np.random.default_rng(7)
    X = random_vector_field(flat2.chart, rng)
    Y = random_vector_field(flat2.chart, rng)
    p = flat2.chart.point(rng.uniform(-1, 1, 4))
    assert nijenhuis(flat2.S, X, Y).at(p, 0).max_abs() < 1e-12


def test_nijenhuis_forms_agree(curved3_tm):
    """All four algebraic forms agree pairwise at sampled points."""
    rng = np.random.default_rng(8)
    S = curved3_tm.S
    pts = sample_points(curved3_tm, 5, 9, box=[(-0.8, 0.8)] * 6)
    X = random_vector_field(S.chart, rng, degree=1)
    Y = random_vector_field(S.chart, rng, degree=1)
    f1 = nijenhuis(S, X, Y)
    f2 = nijenhuis_projector_form(S, X, Y)
    f3 = nijenhuis_connection_form(S, X, Y, flat_connection(S.chart))
    f4 = nijenhuis_connection_form(S, X, Y, S.levi_civita)
    for p in pts:
        v1 = f1.values(p)
        for other in (f2, f3, f4):
            assert np.max(np.abs(v1 - other.values(p))) < 1e-9


def _sheared(flat3, pts):
    """flat3 B-transformed by a non-closed b-field, so that d omega^(3,0) and
    the Nijenhuis tensor do not vanish."""
    from paraherm.deformations import b_transform
    from paraherm.geometry import TensorField

    comps = np.empty((6, 6), dtype=object)
    comps[...] = 0
    for (i, j), s in {(0, 1): "xt1", (0, 2): "x2*xt2", (1, 2): "x1"}.items():
        comps[i, j] = s
        comps[j, i] = f"-({s})"
    b = TensorField(flat3.chart, 0, 2, comps, sym="antisymmetric")
    return b_transform(flat3.S, b, sample=stack_points(pts)).structure_B


@pytest.fixture(scope="module")
def nijenhuis_models(sphere_tm, curved3_tm, flat3):
    """name -> (structure, count, seed -> sample points)."""
    return {
        "sphere_tm": (sphere_tm.S, lambda n, seed: sample_points(sphere_tm, n, seed,
                                                                 box=sphere_box())),
        "curved3_tm": (curved3_tm.S, lambda n, seed: sample_points(
            curved3_tm, n, seed, box=[(-0.8, 0.8)] * 6)),
        "sheared_flat3": (_sheared(flat3, sample_points(flat3, 3, 18)),
                          lambda n, seed: sample_points(flat3, n, seed)),
    }


def _loop_nijenhuis_parts(S, batch):
    """The pure-type Nijenhuis parts as `classify` computed them before the
    Nijenhuis tensor field: one Lie-bracket `nijenhuis` field per pair of
    basis vectors and sign, n[sign][point, i, j, :] = eta(N(P e_i, P e_j), P .)."""
    dim = S.chart.dim
    basis = [constant_field(S.chart, row, 1, 0) for row in np.eye(dim)]
    eta = S.eta.at(batch, 1)
    n = {}
    for sign in (+1, -1):
        P = S.projector(sign)
        Pc = P.at(batch, 1)
        store = n[sign] = np.zeros(batch.batch + (dim, dim, dim))
        for i in range(dim):
            for j in range(i + 1, dim):
                N = nijenhuis(S, apply_endomorphism(P, basis[i]),
                              apply_endomorphism(P, basis[j]))
                row = tdot(tdot(eta, N.at(batch, 0), ([0], [0])), Pc, ([0], [0])).values()
                store[:, i, j, :] = row
                store[:, j, i, :] = -row
    return n


NIJENHUIS_MODELS = ("sphere_tm", "curved3_tm", "sheared_flat3")


@pytest.mark.parametrize("model", NIJENHUIS_MODELS)
@settings(max_examples=25, deadline=None)
@given(order=st.integers(0, 1), batch=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_nijenhuis_tensor_contracts_to_the_lie_bracket_form(nijenhuis_models, model, order,
                                                            batch, seed):
    """N^i_jk X^j Y^k equals the Lie-bracket form N_K(X, Y) to 1e-12 relative,
    coefficient by coefficient, for random polynomial X and Y, at one point
    or a batch; N is exactly antisymmetric in j, k."""
    S, draw = nijenhuis_models[model]
    rng = np.random.default_rng(seed)
    pts = draw(3 if batch else 1, seed)
    point = stack_points(pts) if batch else pts[0]
    X, Y = (random_vector_field(S.chart, rng) for _ in range(2))
    N = S.nijenhuis_tensor.at(point, order)
    got = tdot(tdot(N, X.at(point, order), ([1], [0])), Y.at(point, order), ([1], [0]))
    want = nijenhuis(S, X, Y).at(point, order)
    assert got.ctx is want.ctx and got.nb == want.nb == int(batch)
    scale = max(1.0, np.max(np.abs(want.coeffs)))
    assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-12 * scale
    assert np.array_equal(N.coeffs, -np.swapaxes(N.coeffs, -3, -2))


@pytest.mark.parametrize("model", NIJENHUIS_MODELS)
@settings(max_examples=8, deadline=None)
@given(count=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_nijenhuis_parts_equal_the_lie_bracket_loop(nijenhuis_models, model, count, seed):
    """`classify`'s pure-type parts, contracted from the tensor field, equal
    the loop over Lie-bracket fields they replace, to 1e-12 relative."""
    from paraherm.parastructure import _nijenhuis_parts

    S, draw = nijenhuis_models[model]
    batch = stack_points(draw(count, seed))
    got = _nijenhuis_parts(S.nijenhuis_tensor, S.eta, {+1: S.P_plus, -1: S.P_minus}, batch)
    want = _loop_nijenhuis_parts(S, batch)
    for sign in (+1, -1):
        assert got[sign].shape == want[sign].shape == (count,) + (S.chart.dim,) * 3
        scale = max(1.0, np.max(np.abs(want[sign])))
        assert np.max(np.abs(got[sign] - want[sign])) <= 1e-12 * scale


def _einsum_nijenhuis_part(Nv, etav, P):
    """n[point, i, j, c] = eta_ab N^a_kl P^k_i P^l_j P^b_c as `_nijenhuis_parts`
    computed it before its `matmul` chain: two chained pairs of `einsum`s."""
    t = np.einsum("pail,plj->paij", np.einsum("pakl,pki->pail", Nv, P), P)
    return np.einsum("pijb,pbc->pijc", np.einsum("pab,paij->pijb", etav, t), P)


@pytest.mark.parametrize("model", NIJENHUIS_MODELS)
@settings(max_examples=15, deadline=None)
@given(count=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_staged_nijenhuis_parts_equal_the_einsum_form(nijenhuis_models, model, count, seed):
    """`_nijenhuis_parts`, a chain of batched `matmul`s, equals the `einsum`
    form it replaced on random batches, within n eps times the sum of the
    terms' magnitudes, n the number of terms (dim^4) plus the factors of one
    (the order of the products and sums differs)."""
    from paraherm.parastructure import _nijenhuis_parts

    S, draw = nijenhuis_models[model]
    batch = stack_points(draw(count, seed))
    got = _nijenhuis_parts(S.nijenhuis_tensor, S.eta, {+1: S.P_plus, -1: S.P_minus}, batch)
    Nv, etav = S.nijenhuis_tensor.values(batch), S.eta.values(batch)
    dim = S.chart.dim
    for sign in (+1, -1):
        P = S.projector(sign).values(batch)
        want = _einsum_nijenhuis_part(Nv, etav, P)
        bound = _einsum_nijenhuis_part(np.abs(Nv), np.abs(etav), np.abs(P))
        assert got[sign].shape == want.shape == (count,) + (dim,) * 3
        assert np.all(np.abs(got[sign] - want) <= (dim**4 + 5) * np.finfo(float).eps * bound)


def test_nijenhuis_tensor_is_const_and_zero_on_flat(flat2):
    N = flat2.S.nijenhuis_tensor
    assert N.const and N is flat2.S.nijenhuis_tensor
    jets = N.at(flat2.chart.point(np.zeros(4)), 2)
    assert jets.deg == -1 and not jets.coeffs.any()


def test_gates_and_classify_build_no_lie_bracket_graph(sphere_tm, sphere_pts, monkeypatch):
    """The integrability gates and `classify` contract the Nijenhuis tensor
    field: they run with the Lie-bracket form and `lie_bracket` disabled."""
    from paraherm import parastructure

    def disabled(*args):
        raise AssertionError("a Lie-bracket Nijenhuis graph was built")

    monkeypatch.setattr(parastructure, "nijenhuis", disabled)
    monkeypatch.setattr(parastructure, "lie_bracket", disabled)
    S = ParaHermitianStructure(sphere_tm.chart, sphere_tm.S.eta, sphere_tm.S.K)
    batch = stack_points(sphere_pts)
    for sign in (+1, -1):
        assert S.integrability_residual(sign, batch).shape == (len(sphere_pts),)
    flags, _ = classify(S, batch)
    assert flags["n_integrable"] and not flags["p_integrable"]


def test_sphere_tm_half_integrability(sphere_tm, sphere_pts):
    """N_- = 0 (vertical distribution integrable); N_+ reproduces the
    curvature contraction eta(N(H_i,H_j), .) = -(1/4-free) R-term check via
    the N_+ = eta([H_i,H_j], z_+)-route."""
    S = sphere_tm.S
    rng = np.random.default_rng(10)
    p = sphere_pts[0]
    for _ in range(10):
        X, Y, Z = _const_vecs(S.chart, rng, 3)
        assert abs(n_scalar(S, -1, X, Y, Z, p)) < 1e-12
    # N_+(X,Y,Z) = eta([P+X, P+Y], P+Z), nonzero by curvature
    from paraherm.geometry import lie_bracket, tdot

    worst = 0.0
    for _ in range(5):
        X, Y, Z = _const_vecs(S.chart, rng, 3)
        lhs = n_scalar(S, +1, X, Y, Z, p)
        P = S.projector(+1)
        br = lie_bracket(apply_endomorphism(P, X), apply_endomorphism(P, Y))
        pz = tdot(P.at(p, 0), Z.at(p, 0), ([1], [0]))
        rhs = float(tdot(tdot(S.eta.at(p, 0), br.at(p, 0), ([0], [0])), pz,
                         ([0], [0])).values())
        assert abs(lhs - rhs) < 1e-10
        worst = max(worst, abs(lhs))
    assert worst > 1e-3


# -- Phi tensor -----------------------------------------------------------------

def test_phi_vanishes_on_flat(flat2):
    rng = np.random.default_rng(11)
    X, Y, Z = _const_vecs(flat2.chart, rng, 3)
    p = flat2.chart.point(rng.uniform(-1, 1, 4))
    assert abs(phi_scalar(flat2.S, X, Y, Z, p)) < 1e-13


def test_phi_lemma_identities(sphere_tm, sphere_pts):
    """Phi(X, KY, KZ) = Phi(X,Y,Z) and Phi(X, P+Y, P-Z) = 0."""
    S = sphere_tm.S
    rng = np.random.default_rng(12)
    for p in sphere_pts[:3]:
        for _ in range(5):
            X, Y, Z = _const_vecs(S.chart, rng, 3)
            KY = apply_endomorphism(S.K, Y)
            KZ = apply_endomorphism(S.K, Z)
            a = phi_scalar(S, X, KY, KZ, p)
            b = phi_scalar(S, X, Y, Z, p)
            assert abs(a - b) < 1e-9
            PpY = apply_endomorphism(S.P_plus, Y)
            PmZ = apply_endomorphism(S.P_minus, Z)
            assert abs(phi_scalar(S, X, PpY, PmZ, p)) < 1e-9
            PmY = apply_endomorphism(S.P_minus, Y)
            PpZ = apply_endomorphism(S.P_plus, Z)
            assert abs(phi_scalar(S, X, PmY, PpZ, p)) < 1e-9


def test_nijenhuis_from_phi(curved3_tm):
    """N_pm(X,Y,Z) = 1/2 [Phi(PX,PY,PZ) - Phi(PY,PX,PZ)]."""
    S = curved3_tm.S
    rng = np.random.default_rng(13)
    pts = sample_points(curved3_tm, 3, 14, box=[(-0.8, 0.8)] * 6)
    for p in pts:
        for sign in (+1, -1):
            X, Y, Z = _const_vecs(S.chart, rng, 3)
            P = S.projector(sign)
            PX, PY, PZ = (apply_endomorphism(P, f) for f in (X, Y, Z))
            lhs = n_scalar(S, sign, X, Y, Z, p)
            rhs = 0.5 * (phi_scalar(S, PX, PY, PZ, p) - phi_scalar(S, PY, PX, PZ, p))
            assert abs(lhs - rhs) < 1e-9


# -- bigrading -------------------------------------------------------------------

def test_omega_is_type_one_one(sphere_tm, sphere_pts):
    S = sphere_tm.S
    for p in sphere_pts[:3]:
        w, Pp, Pm = (f.values(p) for f in (S.omega, S.P_plus, S.P_minus))
        assert np.max(np.abs(Pp.T @ w @ Pp)) < 1e-12
        assert np.max(np.abs(Pm.T @ w @ Pm)) < 1e-12


def test_bigrading_completeness(sphere_tm, sphere_pts):
    """Sum of the (+m,-n) projections reconstructs any (0,3) form."""
    rng = np.random.default_rng(15)
    S = sphere_tm.S
    w2 = random_form(S.chart, rng, k=2)
    T = exterior_derivative(w2)
    for p in sphere_pts[:3]:
        tj = T.at(p, 0)
        total = None
        for m in range(4):
            part = bigraded_parts(tj, S.P_plus.at(p, 0), S.P_minus.at(p, 0), (m,))[m]
            total = part if total is None else total + part
        assert (total - tj).max_abs() < 1e-12


# -- classification --------------------------------------------------------------

def test_flat_classifies_para_kahler(flat2):
    flags, arrays = classify(flat2.S, stack_points(sample_points(flat2, 4, 16)))
    assert flags["para_kahler"]
    assert flags["p_integrable"] and flags["n_integrable"]
    assert flags["almost_para_kahler"] and flags["nearly_para_kahler"]
    cross_checks = {k: v for k, v in reduce_points(arrays).maxima.items()
                    if k not in SUITES["classify"].limits}
    assert len(cross_checks) == 3 and max(cross_checks.values()) < 1e-12


def test_flatg_tm_is_n_para_kahler(flatg_tm):
    pts = sample_points(flatg_tm, 4, 17)
    flags, _ = classify(flatg_tm.S, stack_points(pts))
    assert flags["para_kahler"]  # flat metric, Levi-Civita: fully integrable
    assert flags["n_para_kahler"]


def test_sphere_tm_classification(sphere_tm, sphere_pts):
    flags, arrays = classify(sphere_tm.S, stack_points(sphere_pts[:4]))
    maxima = reduce_points(arrays).maxima
    assert not flags["p_integrable"]
    assert flags["n_integrable"]
    assert flags["n_para_kahler"]
    assert not flags["para_kahler"]
    # d omega (3,0) equals the cyclic sum of N_+ (both sides here
    # vanish by the first Bianchi identity; the equality is the assertion).
    assert maxima["d_omega_30_vs_cyclic_n_plus"] < 1e-9
    assert maxima["d_omega_03_vs_cyclic_n_minus"] < 1e-9
    assert maxima["para_kahler_iff_nabla_K"] == 0.0


def test_nonvacuous_cyclic_nijenhuis_identity_on_sheared_structure(flat3):
    """A B-transformed flat structure has d omega^(3,0) != 0; the classify
    cross-check exercises the Nijenhuis formula with nonzero sides."""
    from paraherm.deformations import b_transform
    from paraherm.geometry import TensorField

    pts = sample_points(flat3, 3, 18)
    comps = np.empty((6, 6), dtype=object)
    comps[...] = 0
    for (i, j), s in {(0, 1): "xt1", (0, 2): "x2*xt2", (1, 2): "x1"}.items():
        comps[i, j] = s
        comps[j, i] = f"-({s})"
    b = TensorField(flat3.chart, 0, 2, comps, sym="antisymmetric")
    T = b_transform(flat3.S, b, sample=stack_points(pts))
    _, arrays = classify(T.structure_B, stack_points(pts))
    maxima = reduce_points(arrays).maxima
    assert maxima["domega_30"] > 0.1
    assert maxima["d_omega_30_vs_cyclic_n_plus"] < 1e-9


def test_nearly_pk_implies_skew_nijenhuis(flat2, sphere_tm, sphere_pts, curved3_tm):
    """Where the nearly-para-Kahler flag holds, N must be fully skew."""
    rng = np.random.default_rng(19)
    cases = [
        (flat2.S, sample_points(flat2, 3, 20)),
        (sphere_tm.S, sphere_pts[:2]),
        (curved3_tm.S, sample_points(curved3_tm, 2, 21, box=[(-0.8, 0.8)] * 6)),
    ]
    triggered = 0
    for S, pts in cases:
        flags, _ = classify(S, stack_points(pts))
        if not flags["nearly_para_kahler"]:
            continue
        triggered += 1
        for p in pts:
            for _ in range(5):
                X, Y, Z = _const_vecs(S.chart, rng, 3)
                for sign in (+1, -1):
                    a = n_scalar(S, sign, X, Y, Z, p)
                    b = n_scalar(S, sign, X, Z, Y, p)  # swap last two slots
                    assert abs(a + b) < 1e-9
    assert triggered >= 1


# -- a sample is one Point --------------------------------------------------------

CHECKS = ("validate", "classify", "adapted", "courant", "antisymmetry", "b_transform",
          "compatibility", "build_tm", "flatness")


def _run_check(name, flat1, sample):
    """Each library function that evaluates over a sample, on flat1 or on the
    tangent bundle of the flat line, as a value that compares by ==: a
    checker's per-point arrays as nested lists.
    Both charts have dimension 2, so one sample serves both."""
    from paraherm.brackets import courant_axiom_suite, cyclic_triples, d_bracket, eta_pairing
    from paraherm.connections import check_adapted
    from paraherm.deformations import b_transform, compatibility_residual
    from paraherm.geometry import antisymmetry_residual
    from paraherm.models import build_tm, flatness_residual

    S = flat1.S
    zero_b = constant_field(S.chart, np.zeros((2, 2)), 0, 2, sym="antisymmetric")
    rng = np.random.default_rng(4)
    pool = [random_vector_field(S.chart, rng) for _ in range(3)]
    line_tm = lambda s=None: build_tm([["1 + x^2"]], ["x"], sample=s)  # noqa: E731

    def listed(arrays):
        return {name: arr.tolist() for name, arr in arrays.items()}

    def listed_classify():
        flags, arrays = classify(S, sample)
        return flags, listed(arrays)

    return {
        "validate": lambda: listed(validate_structure(S, sample)),
        "classify": lambda: listed_classify(),
        "adapted": lambda: listed(check_adapted(S.canonical, S, "p", sample)),
        "courant": lambda: listed(courant_axiom_suite(
            lambda X, Y: d_bracket(S, X, Y), lambda X: X, lambda X, Y: eta_pairing(S, X, Y),
            cyclic_triples(pool, sample))),
        "antisymmetry": lambda: antisymmetry_residual(S.omega, sample),
        "b_transform": lambda: b_transform(S, zero_b, sample=sample).side,
        "compatibility": lambda: compatibility_residual(b_transform(S, zero_b),
                                                        sample).tolist(),
        "build_tm": lambda: line_tm(sample).n,
        "flatness": lambda: flatness_residual(line_tm(), sample).tolist(),
    }[name]()


@pytest.mark.parametrize("kind", ["empty", "list"])
@pytest.mark.parametrize("check", CHECKS)
def test_a_list_of_points_is_not_a_sample(flat1, check, kind):
    """An empty list raises rather than passing vacuously, and so does a list
    of points: a sample is one Point."""
    pts = [] if kind == "empty" else sample_points(flat1, 2, 11)
    with pytest.raises(TypeError, match="a sample is one Point"):
        _run_check(check, flat1, pts)


@pytest.mark.parametrize("check", CHECKS)
def test_a_single_point_is_a_sample_of_one(flat1, check):
    p = sample_points(flat1, 1, 12)[0]
    assert _run_check(check, flat1, p) == _run_check(check, flat1, stack_points([p]))


def test_integrability_gate_is_computed_once_per_point(sphere_tm, sphere_pts, monkeypatch):
    """The residual is the largest n_scalar over the coordinate basis (the
    projected Nijenhuis part, by `nijenhuis`' Lie brackets); asked again at
    the same point it does no new work, and a new point replaces it."""
    S = ParaHermitianStructure(sphere_tm.chart, sphere_tm.S.eta, sphere_tm.S.K)
    p, q = sphere_pts[:2]
    basis = [coordinate_vector_field(S.chart, i) for i in range(S.chart.dim)]
    for sign in (+1, -1):
        scale = max(1.0, S.K.at(p, 1).max_abs(), S.eta.at(p, 1).max_abs())
        want = max(abs(n_scalar(S, sign, X, Y, Z, p)) / scale
                   for X in basis for Y in basis for Z in basis)
        assert S.integrability_residual(sign, p) == pytest.approx(want, rel=1e-12, abs=1e-15)
    calls = []
    gate = S._nijenhuis_gates[+1]
    body = gate.fn
    monkeypatch.setattr(gate, "fn", lambda *a: calls.append(1) or body(*a))
    S.integrability_residual(+1, p)
    assert len(calls) == 0
    S.integrability_residual(+1, q)
    S.integrability_residual(+1, q)
    assert len(calls) == 1
