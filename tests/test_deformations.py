import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paraherm.brackets import (
    GeneralizedVectorField, dorfman_leafwise, projected_bracket,
)
from paraherm.deformations import (
    b_minus_transform, b_transform, compatibility_residual, extract_fluxes,
    f_flux, maurer_cartan_sides, mc_form,
    twisted_d_bracket, twisted_d_bracket_reference,
)
from paraherm.expr import to_source
from paraherm.errors import (
    NotAntisymmetric, NotParaKahler, RankMismatch, SingularFrame, WrongType,
)
from paraherm.geometry import (
    TensorField, apply_endomorphism, constant_field, exterior_derivative,
    lie_bracket, reduce_points, stack_points, tdot,
)
from paraherm.connections import covariant_differential
from paraherm.parastructure import rho, rho_field, validate_structure
from paraherm.randfields import random_poly, random_vector_field
from conftest import sample_points
from helpers import flux_report
from oracles import values


def make_b(chart, entries):
    comps = np.empty((chart.dim, chart.dim), dtype=object)
    comps[...] = 0
    for (i, j), s in entries.items():
        comps[i, j] = s
        comps[j, i] = f"-({s})"
    return TensorField(chart, 0, 2, comps, sym="antisymmetric")


@pytest.fixture(scope="module")
def flat3_b(flat3):
    pts = sample_points(flat3, 5, 0)
    b = make_b(flat3.chart, {(0, 1): "xt1", (0, 2): "x2*xt2", (1, 2): "x1"})
    return b_transform(flat3.S, b, sample=stack_points(pts)), pts


# -- construction and validation ---------------------------------------------------

def test_zero_b_is_identity(flat2):
    pts = sample_points(flat2, 3, 1)
    b = make_b(flat2.chart, {})
    T = b_transform(flat2.S, b, sample=stack_points(pts))
    p = pts[0]
    assert np.allclose(values(T.e_B.at(p, 0)), np.eye(4))
    assert np.allclose(values(T.K_B.at(p, 0)), flat2.K_matrix)


def test_constant_b_gives_integrable_compatible_structure(flat2):
    pts = sample_points(flat2, 4, 2)
    comps = np.zeros((4, 4))
    comps[0, 1], comps[1, 0] = 0.7, -0.7
    b = constant_field(flat2.chart, comps, 0, 2, sym="antisymmetric")
    T = b_transform(flat2.S, b, sample=stack_points(pts))
    rep = reduce_points(validate_structure(T.structure_B, stack_points(pts)), 1e-10)
    assert rep.passed
    from paraherm.parastructure import classify

    flags, _ = classify(T.structure_B, stack_points(pts[:2]))
    assert flags["para_kahler"]
    assert np.max(compatibility_residual(T, stack_points(pts))) == 0.0


def test_wrong_type_rejected(flat2):
    pts = sample_points(flat2, 2, 3)
    bad = make_b(flat2.chart, {(0, 2): "1"})  # dx ^ dxt component
    with pytest.raises(WrongType, match=r"\(\+2,-0\) type") as err:
        b_transform(flat2.S, bad, sample=stack_points(pts))
    assert str(pts[0]) in str(err.value)


def test_not_antisymmetric_rejected(flat2):
    pts = sample_points(flat2, 2, 4)
    comps = np.zeros((4, 4))
    comps[0, 1] = 1.0  # no matching -1
    b = constant_field(flat2.chart, comps, 0, 2, sym="antisymmetric")
    with pytest.raises(NotAntisymmetric, match="b antisymmetry") as err:
        b_transform(flat2.S, b, sample=stack_points(pts))
    assert str(pts[0]) in str(err.value)


def test_kb_invariants(flat3_b):
    T, pts = flat3_b
    rep = reduce_points(validate_structure(T.structure_B, stack_points(pts)), 1e-10)
    assert rep.passed
    for p in pts[:2]:
        KB = values(T.K_B.at(p, 0))
        assert np.max(np.abs(KB @ KB - np.eye(6))) < 1e-12
        # shared -1 eigenbundle: P+ P^B- = 0
        PBm = values(T.structure_B.P_minus.at(p, 0))
        assert np.max(np.abs(values(T.S.P_plus.at(p, 0)) @ PBm)) < 1e-12
        # omega_B = omega + 2b
        wB = values(T.structure_B.omega.at(p, 0))
        w = values(T.S.omega.at(p, 0))
        bv = T.b.at(p, 0).values()
        assert np.max(np.abs(wB - w - 2 * bv)) < 1e-12


# -- Maurer-Cartan ------------------------------------------------------------------

def test_mc_two_sides_agree_nontrivially(flat3_b):
    T, pts = flat3_b
    rng = np.random.default_rng(5)
    X = random_vector_field(T.S.chart, rng)
    Y = random_vector_field(T.S.chart, rng)
    Z = random_vector_field(T.S.chart, rng)
    saw_nonzero = False
    for p in pts:
        sides = maurer_cartan_sides(T, X, Y, Z, p)
        assert sides.agreement < 1e-9 * max(1.0, abs(sides.d_bracket_side))
        saw_nonzero = saw_nonzero or abs(sides.d_bracket_side) > 0.1
    assert saw_nonzero  # the n=3 example is not weakly integrable


def test_mc_residual_0_for_closed_x_only_b(flat2):
    """b = x2 dx1 ^ dx2: d+b = 0 (n = 2) and [b,b] = 0: compatible."""
    pts = sample_points(flat2, 4, 6)
    b = make_b(flat2.chart, {(0, 1): "x2"})
    T = b_transform(flat2.S, b, sample=stack_points(pts))
    assert np.max(compatibility_residual(T, stack_points(pts))) < 1e-14
    rng = np.random.default_rng(7)
    X, Y, Z = (random_vector_field(flat2.chart, rng) for _ in range(3))
    sides = maurer_cartan_sides(T, X, Y, Z, pts[0])
    assert abs(sides.d_bracket_side) < 1e-12
    assert sides.agreement < 1e-12


def test_mc_residual_vs_twist_distinction(flat2):
    """b = xt1 dx1 ^ dx2: the MC ((+3,-0)_B) residual vanishes while db
    itself does not: compatibility is not closedness."""
    pts = sample_points(flat2, 4, 8)
    b = make_b(flat2.chart, {(0, 1): "xt1"})
    T = b_transform(flat2.S, b, sample=stack_points(pts))
    assert np.max(compatibility_residual(T, stack_points(pts))) < 1e-14
    db = exterior_derivative(b)
    assert max(db.at(p, 0).max_abs() for p in pts) == 1.0
    # Cross-check: the (+3,-0)_B part of db equals the MC form.
    from paraherm.parastructure import bigraded_part_at

    for p in pts[:2]:
        lhs = mc_form(T).at(p, 0).values()
        rhs = bigraded_part_at(db.at(p, 0), 3, T.structure_B.P_plus.at(p, 0),
                               T.structure_B.P_minus.at(p, 0)).values()
        assert np.max(np.abs(lhs - rhs)) < 1e-13


# -- twisted D-bracket ---------------------------------------------------------------

def test_twisted_equals_untwisted_for_zero_b(flat2):
    pts = sample_points(flat2, 3, 9)
    T = b_transform(flat2.S, make_b(flat2.chart, {}), sample=stack_points(pts))
    rng = np.random.default_rng(10)
    X = random_vector_field(flat2.chart, rng)
    Y = random_vector_field(flat2.chart, rng)
    from paraherm.brackets import d_bracket

    tw = twisted_d_bracket(T, X, Y)
    base = d_bracket(flat2.S, X, Y)
    for p in pts:
        assert np.max(np.abs(tw.values(p) - base.values(p))) < 1e-13


def test_twisted_two_way(flat3_b):
    T, pts = flat3_b
    rng = np.random.default_rng(11)
    X = random_vector_field(T.S.chart, rng)
    Y = random_vector_field(T.S.chart, rng)
    tw = twisted_d_bracket(T, X, Y)
    ref = twisted_d_bracket_reference(T, X, Y)
    for p in pts:
        assert np.max(np.abs(tw.values(p) - ref.values(p))) < 1e-9


def test_twisted_requires_para_kahler(sphere_tm, sphere_pts):
    """The curved tangent-bundle base is not para-Kahler: gate must trip."""
    S = sphere_tm.S
    b = make_b(S.chart, {(0, 1): "v1"})
    T = b_transform(S, b, sample=stack_points(sphere_pts[:2]))
    rng = np.random.default_rng(12)
    X = random_vector_field(S.chart, rng, degree=1)
    Y = random_vector_field(S.chart, rng, degree=1)
    with pytest.raises(NotParaKahler):
        twisted_d_bracket(T, X, Y).at(sphere_pts[0], 0)


def test_twisted_projected_is_h_twisted_dorfman(flat2):
    """eta([X,Y]^B_+, Z) = eta([X,Y]_+, Z) - d+b(x+,y+,z+); through rho this
    is the H-twisted Dorfman bracket with H = -d+b."""
    pts = sample_points(flat2, 3, 13)
    b = make_b(flat2.chart, {(0, 1): "x1*x2"})
    T = b_transform(flat2.S, b, sample=stack_points(pts))
    S = flat2.S
    rng = np.random.default_rng(14)
    X = random_vector_field(S.chart, rng)
    Y = random_vector_field(S.chart, rng)
    CB = T.structure_B.canonical
    from paraherm.parastructure import bigraded_part_at

    db = exterior_derivative(b)
    for p in pts:
        lhs = projected_bracket(CB, S, +1, X, Y).at(p, 0)
        base = projected_bracket(S.canonical, S, +1, X, Y).at(p, 0)
        eta = S.eta.at(p, 0)
        dplus = bigraded_part_at(db.at(p, 0), 3, S.P_plus.at(p, 0), S.P_minus.at(p, 0))
        corr = tdot(tdot(dplus, X.at(p, 0), ([0], [0])),
                    Y.at(p, 0), ([0], [0]))
        lhs_cov = values(tdot(eta, lhs, ([0], [0])))
        rhs_cov = values(tdot(eta, base, ([0], [0]))) - values(corr)
        assert np.max(np.abs(lhs_cov - rhs_cov)) < 1e-9
        # under rho_+: H-twisted Dorfman with the extra one-form -iota_Y iota_X d+b
        e1 = GeneralizedVectorField(*rho_field(S, +1, X), +1)
        e2 = GeneralizedVectorField(*rho_field(S, +1, Y), +1)
        dorf = dorfman_leafwise(S, +1, e1, e2).at(p, 0)
        tw = rho(S, +1, projected_bracket(CB, S, +1, X, Y), p)
        hterm = values(tdot(tdot(dplus, X.at(p, 0), ([0], [0])),
                            Y.at(p, 0), ([0], [0])))
        assert np.max(np.abs(tw.vec.values() - dorf.vec.values())) < 1e-9
        assert np.max(np.abs(tw.cov.values() - (dorf.cov.values() - hterm))) < 1e-9


# -- fluxes -------------------------------------------------------------------------

def test_constant_b_all_fluxes_zero(flat2):
    pts = sample_points(flat2, 2, 15)
    comps = np.zeros((4, 4))
    comps[0, 1], comps[1, 0] = 0.4, -0.4
    T = b_transform(flat2.S,
                    constant_field(flat2.chart, comps, 0, 2, sym="antisymmetric"),
                    sample=stack_points(pts))
    rep = flux_report(T, pts[0])
    for arr in (rep.h_flux, rep.r_flux, rep.q_flux, rep.covariantized_h):
        assert np.max(np.abs(arr)) == 0.0


def test_q_flux_example(flat2):
    """b = xt1 dx1 ^ dx2: H = 0, R = 0, Q in the B-coframe has the single
    independent component d~^1 b_12 = 1."""
    pts = sample_points(flat2, 2, 16)
    T = b_transform(flat2.S, make_b(flat2.chart, {(0, 1): "xt1"}), sample=stack_points(pts))
    rep = flux_report(T, pts[0])
    assert np.max(np.abs(rep.h_flux)) == 0.0
    assert np.max(np.abs(rep.r_flux)) == 0.0
    q = np.array(rep.q_frame)
    assert q[0, 0, 1] == 1.0 and q[0, 1, 0] == -1.0
    q[0, 0, 1] = q[0, 1, 0] = 0.0
    assert np.max(np.abs(q)) == 0.0
    assert rep.reassembly_residual < 1e-10
    assert rep.vanishing_residual < 1e-10
    assert rep.cross_check_residual < 1e-10


def test_flux_reassembly_nontrivial(flat3_b):
    T, pts = flat3_b
    for p in pts[:3]:
        rep = flux_report(T, p)
        assert rep.reassembly_residual < 1e-10
        assert rep.vanishing_residual < 1e-10
        assert rep.cross_check_residual < 1e-10
        assert np.max(np.abs(rep.covariantized_h)) > 0.01  # nonvacuous


def _einsum_frames(covH, dbj, plus, n):
    """h_frame and q_frame as `extract_fluxes` computed them before its
    `matmul` chains: one 4-operand `einsum` each, with the V frame the
    identity columns n, n + 1, ..."""
    minus = np.eye(covH.shape[-1])[:, n:]
    return (np.einsum("...abc,...ai,...bj,...ck->...ijk", covH, plus, plus, plus),
            np.einsum("...abc,ai,...bj,...ck->...ijk", dbj, minus, plus, plus))


@settings(max_examples=15, deadline=None)
@given(count=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_staged_flux_frames_equal_the_einsum_forms(flat3, count, seed):
    """`extract_fluxes`' h_frame and q_frame, chains of batched `matmul`s
    (the V slot of q_frame a slice), equal the `einsum` forms they replaced,
    for a random polynomial b on the plus block of flat3 at random points,
    within n eps times the sum of the terms' magnitudes, n the number of
    terms (dim^3) plus the factors of one."""
    rng = np.random.default_rng(seed)
    chart, n = flat3.chart, flat3.chart.split
    b = make_b(chart, {(i, j): to_source(random_poly(rng, chart.dim, 2, 2), chart.coord_names)
                       for i in range(n) for j in range(i + 1, n)})
    batch = stack_points(sample_points(flat3, count, seed))
    T = b_transform(flat3.S, b, sample=batch)
    _, tensors = extract_fluxes(T, batch)
    covH = tensors["covariantized_h"]
    dbj = exterior_derivative(b).values(batch)
    plus = T.e_B.values(batch)[..., :n]
    wants = _einsum_frames(covH, dbj, plus, n)
    bounds = _einsum_frames(np.abs(covH), np.abs(dbj), np.abs(plus), n)
    tol = (chart.dim**3 + 4) * np.finfo(float).eps
    for name, want, bound in zip(("h_frame", "q_frame"), wants, bounds):
        got = tensors[name]
        assert got.shape == want.shape == (count, n, n, n)
        assert np.all(np.abs(got - want) <= tol * bound), name


# -- f-flux -------------------------------------------------------------------------

def test_f_flux_identity_and_constant(flat2):
    p = sample_points(flat2, 1, 17)[0]
    eye = np.array([["1", "0"], ["0", "1"]], dtype=object)
    assert np.max(np.abs(f_flux(flat2.S, eye, p))) == 0.0
    const = np.array([["2", "1"], ["0", "1"]], dtype=object)
    assert np.max(np.abs(f_flux(flat2.S, const, p))) < 1e-14


def test_f_flux_matches_lie_structure_functions(flat2, flat1):
    """f^c_{ab} = structure functions of [e_a, e_b] computed by the
    independent Lie-bracket oracle."""
    # n = 1: A = (e^x): single frame field, f must vanish by antisymmetry.
    p1 = sample_points(flat1, 1, 18)[0]
    f1 = f_flux(flat1.S, np.array([["exp(x1)"]], dtype=object), p1)
    assert np.max(np.abs(f1)) < 1e-12
    # n = 2: A = diag(e^{x2}, 1): [e_1, e_2] = -e_1.
    p = sample_points(flat2, 1, 19)[0]
    A = np.array([["exp(x2)", "0"], ["0", "1"]], dtype=object)
    f = f_flux(flat2.S, A, p)
    # oracle: frame fields on the plus block, Lie bracket, solve for f
    chart = flat2.chart
    e1 = TensorField(chart, 1, 0, np.array(["exp(x2)", "0", "0", "0"], dtype=object))
    e2 = TensorField(chart, 1, 0, np.array(["0", "1", "0", "0"], dtype=object))
    br = lie_bracket(e1, e2).values(p)[:2]
    frame = np.array([[np.exp(p.coords[1]), 0.0], [0.0, 1.0]]).T
    coeffs = np.linalg.solve(frame, br)
    assert np.allclose(f[:, 0, 1], coeffs, atol=1e-12)
    assert np.allclose(f + np.transpose(f, (0, 2, 1)), 0.0, atol=1e-14)
    assert f[0, 0, 1] == pytest.approx(-1.0, abs=1e-12)


def test_repeated_calls_leave_no_bracket_entries_behind():
    """`maurer_cartan_sides` brackets P^B X and P^B Y and `f_flux` its frame
    fields, all built anew on each call: 50 calls of each on one structure
    leave every table it holds (its brackets and their operands), after a
    collection, no larger than the first call did."""
    import gc

    from paraherm.models import build_flat

    model = build_flat(2)
    T = b_transform(model.S, make_b(model.chart, {(0, 1): "xt1"}))
    rng = np.random.default_rng(60)
    X, Y, Z = (random_vector_field(model.chart, rng) for _ in range(3))
    p = sample_points(model, 1, 61)[0]
    A = np.array([["exp(x2)", "0"], ["x1", "1"]], dtype=object)
    sizes = []
    for _ in range(50):
        maurer_cartan_sides(T, X, Y, Z, p)
        f_flux(T.S, A, p)
        gc.collect()
        sizes.append({name: len(t) for name, t in vars(T.S).items() if isinstance(t, dict)})
    assert {"bracket_table", "operand_table"} <= set(sizes[0])
    assert all(size == sizes[0] for size in sizes), sizes


def test_f_flux_singular_frame(flat2):
    p = sample_points(flat2, 1, 20)[0]
    A = np.array([["0", "0"], ["0", "1"]], dtype=object)
    with pytest.raises(SingularFrame):
        f_flux(flat2.S, A, p)


def test_f_flux_frame_guard_is_relative(flat3):
    """The frame check is a condition number, so it does not depend on the
    overall scale: 1e-5 I (|det| = 1e-15, condition number 1) is a valid
    constant frame, while a block with a zero row is still rejected, and so
    is a block of the wrong size."""
    p = sample_points(flat3, 1, 22)[0]
    tiny = np.array([["0.00001", "0", "0"], ["0", "0.00001", "0"], ["0", "0", "0.00001"]],
                    dtype=object)
    assert np.max(np.abs(f_flux(flat3.S, tiny, p))) == 0.0
    singular = np.array([["0", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], dtype=object)
    with pytest.raises(SingularFrame):
        f_flux(flat3.S, singular, p)
    with pytest.raises(RankMismatch):
        f_flux(flat3.S, np.array([["0", "0"], ["0", "1"]], dtype=object), p)


def test_error_messages_print_plain_coordinates(flat2):
    """Points in error messages read as plain numbers, not as numpy scalars."""
    p = flat2.chart.point([0.5, -0.25, 0.125, 1.0])
    assert repr(p) == "Point([0.5, -0.25, 0.125, 1.0])"
    with pytest.raises(SingularFrame) as err:
        f_flux(flat2.S, np.array([["0", "0"], ["0", "1"]], dtype=object), p)
    assert "np.float64" not in str(err.value)
    assert "[0.5, -0.25, 0.125, 1.0]" in str(err.value)


# -- mirror and composite --------------------------------------------------------------

def test_b_minus_mirror(flat2):
    pts = sample_points(flat2, 3, 21)
    beta = make_b(flat2.chart, {(2, 3): "0.25"})
    T = b_minus_transform(flat2.S, beta, sample=stack_points(pts))
    rep = reduce_points(validate_structure(T.structure_B, stack_points(pts)), 1e-10)
    assert rep.passed
    assert np.max(compatibility_residual(T, stack_points(pts))) == 0.0
    # zero beta is the identity
    T0 = b_minus_transform(flat2.S, make_b(flat2.chart, {}), sample=stack_points(pts))
    assert np.allclose(values(T0.K_B.at(pts[0], 0)), flat2.K_matrix)
    # shares the +1 eigenbundle instead
    p = pts[0]
    PBp = values(T.structure_B.P_plus.at(p, 0))
    Pm = values(flat2.S.P_minus.at(p, 0))
    assert np.max(np.abs(Pm @ PBp)) < 1e-13


def test_b_minus_wrong_type(flat2):
    pts = sample_points(flat2, 2, 22)
    with pytest.raises(WrongType, match=r"beta has components off the \(\+0,-2\)") as err:
        b_minus_transform(flat2.S, make_b(flat2.chart, {(0, 1): "1"}), sample=stack_points(pts))
    assert str(pts[0]) in str(err.value)


def test_mc_form_is_the_shears_own_field(flat3_b):
    """`mc_form` returns the one field the shear built, which the
    Maurer-Cartan sides, the compatibility residual and the fluxes read."""
    T, _ = flat3_b
    assert mc_form(T) is T.mc_form and mc_form(T) is mc_form(T)


# -- intertwining and the type of nabla b -----------------------------------------------

def test_rho_plus_intertwining(flat3_b):
    """e^{b+} rho_+ = rho_+ e^B: the covector part gains iota_x b."""
    T, pts = flat3_b
    S = T.S
    rng = np.random.default_rng(23)
    X = random_vector_field(S.chart, rng)
    eBX = apply_endomorphism(T.e_B, X)
    for p in pts[:3]:
        lhs = rho(S, +1, eBX, p)
        g = rho(S, +1, X, p)
        bv = T.b.at(p, 0).values()
        cov = g.cov.values() + X.values(p) @ bv  # + iota_x b
        assert np.max(np.abs(lhs.vec.values() - g.vec.values())) < 1e-12
        assert np.max(np.abs(lhs.cov.values() - cov)) < 1e-12


def test_rho_minus_intertwining(flat3_b):
    """e^{b-} rho_- = rho_- e^B: the vector part gains the bivector action."""
    T, pts = flat3_b
    S = T.S
    rng = np.random.default_rng(24)
    X = random_vector_field(S.chart, rng)
    eBX = apply_endomorphism(T.e_B, X)
    for p in pts[:3]:
        lhs = rho(S, -1, eBX, p)
        g = rho(S, -1, X, p)
        biv = values(T.b_bivector.at(p, 0))
        vec = g.vec.values() + g.cov.values() @ biv
        assert np.max(np.abs(lhs.vec.values() - vec)) < 1e-12
        assert np.max(np.abs(lhs.cov.values() - g.cov.values())) < 1e-12


def test_adapted_nabla_b_stays_plus_type(flat3_b):
    """nabla^c_X b stays type (+2,-0) for the adapted canonical connection."""
    T, pts = flat3_b
    S = T.S
    dB = covariant_differential(S.canonical, T.b)  # (0,3): (X; Y, Z)
    for p in pts[:3]:
        d = dB.at(p, 0).values()
        Pm = values(S.P_minus.at(p, 0))
        # minus leg in either argument slot must vanish
        assert np.max(np.abs(np.einsum("xyz,ya->xaz", d, Pm))) < 1e-12
        assert np.max(np.abs(np.einsum("xyz,za->xya", d, Pm))) < 1e-12


def test_f_flux_of_a_batch_stacks_its_points(flat2):
    A = np.array([["exp(x2)", "x1"], ["0", "1"]], dtype=object)
    pts = sample_points(flat2, 3, 21)
    got = f_flux(flat2.S, A, stack_points(pts))
    want = np.stack([f_flux(flat2.S, A, p) for p in pts])
    assert got.shape == (3, 2, 2, 2)
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)
    singular = np.array([["x1", "0"], ["0", "1"]], dtype=object)
    batch = stack_points([flat2.chart.point(c) for c in
                          ([0.5, 0.1, 0.2, 0.3], [0.0, 0.1, 0.2, 0.3], [0.7, 0.1, 0.2, 0.3])])
    with pytest.raises(SingularFrame, match=r"at Point\(\[0\.0, 0\.1, 0\.2, 0\.3\]\)"):
        f_flux(flat2.S, singular, batch)
