import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paraherm.errors import (
    DomainError, InsufficientJetOrder, NotAntisymmetric, RankMismatch, SingularMetric,
)
from paraherm.geometry import (
    Chart, DerivedField, Point, TensorField, antisymmetry_residual, constant_field,
    constant_jets, coordinate_vector_field, exterior_derivative, interior_product,
    invert_matrix_jets, jets_gradient, lie_bracket, lie_derivative, musical, require_within,
    scalar_pairing, stack_points, truncate_jets, wedge,
)
from paraherm.jets import context
from paraherm.randfields import random_form, random_poly, random_vector_field


@pytest.fixture(scope="module")
def chart():
    return Chart(["x", "xt"], split=1)


@pytest.fixture(scope="module")
def chart4():
    return Chart(["x1", "x2", "xt1", "xt2"], split=2)


def pts(chart, n, seed):
    rng = np.random.default_rng(seed)
    return [chart.point(rng.uniform(-1, 1, chart.dim)) for _ in range(n)]


# -- Lie bracket ---------------------------------------------------------------

def test_coordinate_fields_commute(chart):
    X = coordinate_vector_field(chart, 0)
    Y = coordinate_vector_field(chart, 1)
    for p in pts(chart, 3, 0):
        assert lie_bracket(X, Y).at(p, 0).max_abs() == 0.0


def test_textbook_bracket(chart):
    X = coordinate_vector_field(chart, 0)
    Y = TensorField(chart, 1, 0, np.array(["x", "0"], dtype=object))
    for p in pts(chart, 3, 1):
        assert np.allclose(lie_bracket(X, Y).values(p), [1.0, 0.0])


def test_bracket_antisymmetry_and_jacobi(chart4):
    rng = np.random.default_rng(2)
    X = random_vector_field(chart4, rng)
    Y = random_vector_field(chart4, rng)
    Z = random_vector_field(chart4, rng)
    for p in pts(chart4, 3, 3):
        anti = (lie_bracket(X, Y) + lie_bracket(Y, X)).at(p, 0).max_abs()
        assert anti < 1e-12
        jac = (
            lie_bracket(X, lie_bracket(Y, Z))
            - lie_bracket(Y, lie_bracket(X, Z))
            - lie_bracket(lie_bracket(X, Y), Z)
        ).at(p, 0).max_abs()
        assert jac < 1e-9


def test_bracket_leibniz_in_second_argument(chart4):
    """[X, fY] = f [X,Y] + X[f] Y."""
    rng = np.random.default_rng(4)
    X = random_vector_field(chart4, rng)
    Y = random_vector_field(chart4, rng)
    f = TensorField(chart4, 0, 0, random_poly(rng, 4))

    fY = DerivedField(chart4, 1, 0, lambda p, k: Y.at(p, k) * f.at(p, k))
    for p in pts(chart4, 3, 5):
        lhs = lie_bracket(X, fY).at(p, 0).values()
        xf = lie_derivative(X, f).values(p)
        rhs = f.values(p) * lie_bracket(X, Y).at(p, 0).values() + xf * Y.values(p)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


# -- exterior derivative ---------------------------------------------------------

def test_d_constant_two_form(chart4):
    w = constant_field(
        chart4,
        np.array([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], float),
        0, 2, sym="antisymmetric",
    )
    for p in pts(chart4, 2, 6):
        assert exterior_derivative(w).at(p, 0).max_abs() == 0.0


def test_d_of_xt_dx(chart):
    alpha = TensorField(chart, 0, 1, np.array(["xt", "0"], dtype=object),
                        sym="antisymmetric")
    p = chart.point([0.3, 0.7])
    d = exterior_derivative(alpha).values(p)
    # coordinate order (x, xt): (d alpha)_{xt,x} = +1, (d alpha)_{x,xt} = -1
    assert d[1, 0] == 1.0 and d[0, 1] == -1.0
    # Cartan formula cross-check: d alpha (X, Y) = X[a(Y)] - Y[a(X)] - a([X,Y])
    rng = np.random.default_rng(7)
    for _ in range(10):
        q = chart.point(rng.uniform(-1, 1, 2))
        X = random_vector_field(chart, rng)
        Y = random_vector_field(chart, rng)
        aY = scalar_pairing(alpha, [Y])
        aX = scalar_pairing(alpha, [X])
        lhs = (
            lie_derivative(X, aY).values(q)
            - lie_derivative(Y, aX).values(q)
            - scalar_pairing(alpha, [lie_bracket(X, Y)]).values(q)
        )
        dv = exterior_derivative(alpha).values(q)
        rhs = X.values(q) @ dv @ Y.values(q)
        assert abs(lhs - rhs) < 1e-10


def test_d_squared_zero(chart4):
    rng = np.random.default_rng(8)
    w = random_form(chart4, rng, k=2)
    dd = exterior_derivative(exterior_derivative(w))
    for p in pts(chart4, 4, 9):
        assert dd.at(p, 0).max_abs() < 1e-10


def test_d_requires_antisymmetry_tag(chart4):
    w = constant_field(chart4, np.eye(4), 0, 2, sym="symmetric")
    with pytest.raises(NotAntisymmetric):
        exterior_derivative(w)


# -- Lie derivative -------------------------------------------------------------

def test_lie_derivative_coordinate(chart):
    X = coordinate_vector_field(chart, 0)
    alpha = TensorField(chart, 0, 1, np.array(["x", "0"], dtype=object),
                        sym="antisymmetric")
    for p in pts(chart, 3, 10):
        assert np.allclose(lie_derivative(X, alpha).values(p), [1.0, 0.0])


def test_lie_derivative_worked_example(chart):
    """L_{xt d/dxt}(dxt) = dxt."""
    X = TensorField(chart, 1, 0, np.array(["0", "xt"], dtype=object))
    dxt = constant_field(chart, [0.0, 1.0], 0, 1, sym="antisymmetric")
    for p in pts(chart, 3, 11):
        assert np.allclose(lie_derivative(X, dxt).values(p), [0.0, 1.0])


def test_lie_derivative_leibniz(chart4):
    """L_X(f a) = X[f] a + f L_X a."""
    rng = np.random.default_rng(12)
    X = random_vector_field(chart4, rng)
    alpha = random_form(chart4, rng, k=1)
    f = TensorField(chart4, 0, 0, random_poly(rng, 4))

    fa = DerivedField(chart4, 0, 1,
                      lambda p, k: alpha.at(p, k) * f.at(p, k),
                      sym="antisymmetric")
    for p in pts(chart4, 3, 13):
        lhs = lie_derivative(X, fa).values(p)
        rhs = (
            lie_derivative(X, f).values(p) * alpha.values(p)
            + f.values(p) * lie_derivative(X, alpha).values(p)
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_cartan_magic_formula(chart4):
    """L_X = iota_X d + d iota_X on 2-forms (the implementation identity,
    re-checked against the derivative of the pairing along the flow direction
    on polynomial data via components)."""
    rng = np.random.default_rng(14)
    X = random_vector_field(chart4, rng)
    w = random_form(chart4, rng, k=2)
    inner = interior_product(X, w)
    inner.sym = "antisymmetric"
    lhs = lie_derivative(X, w)
    rhs = interior_product(X, exterior_derivative(w)) + exterior_derivative(inner)
    for p in pts(chart4, 3, 15):
        assert (lhs - rhs).at(p, 0).max_abs() < 1e-10


# -- wedge / musical -------------------------------------------------------------

def test_wedge_two_one_forms(chart):
    dx = constant_field(chart, [1.0, 0.0], 0, 1, sym="antisymmetric")
    dxt = constant_field(chart, [0.0, 1.0], 0, 1, sym="antisymmetric")
    w = wedge(dxt, dx)
    p = chart.point([0.0, 0.0])
    v = w.values(p)
    assert v[1, 0] == 1.0 and v[0, 1] == -1.0


def test_wedge_consistent_with_d(chart):
    """d(f dg) = df ^ dg for scalars f, g."""
    rng = np.random.default_rng(16)
    f = TensorField(chart, 0, 0, random_poly(rng, 2))
    g = TensorField(chart, 0, 0, random_poly(rng, 2))

    fdg = DerivedField(chart, 0, 1,
                       lambda p, k: exterior_derivative(g).at(p, k) * f.at(p, k),
                       sym="antisymmetric")
    lhs = exterior_derivative(fdg)
    rhs = wedge(exterior_derivative(f), exterior_derivative(g))
    for p in pts(chart, 4, 17):
        assert (lhs - rhs).at(p, 0).max_abs() < 1e-11


def test_musical_flat(chart):
    eta = constant_field(chart, [[0.0, 1.0], [1.0, 0.0]], 0, 2, sym="symmetric")
    X = coordinate_vector_field(chart, 0)
    p = chart.point([0.2, 0.4])
    low = musical(eta, X, [0], p)
    assert np.allclose(low.values(), [0.0, 1.0])  # eta(d_x) = dxt
    back = musical(eta, TensorField(chart, 0, 1, np.array([0.0, 1.0], dtype=object)),
                   [0], p)
    assert np.allclose(back.values(), [1.0, 0.0])


def test_musical_roundtrip(chart4):
    rng = np.random.default_rng(18)
    eta = constant_field(
        chart4, np.block([[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]]),
        0, 2, sym="symmetric",
    )
    X = random_vector_field(chart4, rng)
    for p in pts(chart4, 3, 19):
        low = musical(eta, X, [0], p)
        lowf = constant_field(chart4, low.values(), 0, 1)
        up = musical(eta, lowf, [0], p)
        assert np.max(np.abs(up.values() - X.values(p))) < 1e-12


def test_musical_lowers_every_contravariant_slot(sphere_tm):
    """On a (2,0) field, slots [0, 1] are both lowered with eta: E B E^T,
    on the non-constant metric of the sphere tangent bundle."""
    chart = sphere_tm.chart
    comps = np.array([[f"{i + 1}*th*v{1 + j % 2} + {j}*sin(ph) - {i - j}" for j in range(4)]
                      for i in range(4)], dtype=object)
    B = TensorField(chart, 2, 0, comps)
    p = chart.point([1.0, 0.3, 0.2, -0.4])
    E = sphere_tm.S.eta.at(p, 0).values()
    low = musical(sphere_tm.S.eta, B, [0, 1], p)
    assert np.max(np.abs(low.values() - E @ B.values(p) @ E.T)) < 1e-12


def test_singular_metric_guard(chart):
    eta = constant_field(chart, [[0.0, 0.0], [0.0, 1.0]], 0, 2, sym="symmetric")
    with pytest.raises(SingularMetric):
        p = chart.point([0.0, 0.0])
        invert_matrix_jets(eta.at(p, 0), p)


def test_rank_guards(chart):
    X = coordinate_vector_field(chart, 0)
    with pytest.raises(RankMismatch):
        lie_bracket(X, constant_field(chart, [[1.0, 0], [0, 1.0]], 1, 1))


def test_declared_antisymmetry_is_checkable(chart):
    """The symmetry tag is an assertion; the numeric checker catches lies."""
    honest = TensorField(chart, 0, 2,
                         np.array([["0", "x"], ["-x", "0"]], dtype=object),
                         sym="antisymmetric")
    liar = TensorField(chart, 0, 2,
                       np.array([["0", "x"], ["0", "0"]], dtype=object),
                       sym="antisymmetric")
    points = stack_points(pts(chart, 3, 77))
    assert antisymmetry_residual(honest, points) < 1e-10
    assert antisymmetry_residual(liar, points) > 0.01


def test_nan_components_fail_the_antisymmetry_check(chart):
    """A NaN component reads NaN, not 0, in the residual."""
    nan = DerivedField(chart, 0, 2, lambda p, k: constant_jets(
        chart.context(k), np.full(p.batch + (2, 2), np.nan), len(p.batch)),
        sym="antisymmetric")
    assert np.isnan(antisymmetry_residual(nan, stack_points(pts(chart, 2, 78))))


def test_gate_fails_at_the_first_point_above_its_bound_or_nan(chart):
    batch = Point(chart, [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    require_within(batch, np.array([0.0, 1e-12, 0.0]), 1e-10, SingularMetric, "r")
    require_within(chart.point([0.1, 0.2]), 1e-10, 1e-10, SingularMetric, "r")
    with pytest.raises(SingularMetric, match=r"^r nan at Point\(\[0\.3, 0\.4\]\) exceeds"):
        require_within(batch, np.array([0.0, np.nan, 5.0]), 1e-10, SingularMetric, "r")
    with pytest.raises(SingularMetric, match=r"^r 5\.000e\+00 at Point\(\[0\.5, 0\.6\]\)"):
        require_within(batch, np.array([0.0, 0.0, 5.0]), 1e-10, SingularMetric, "r")
    with pytest.raises(SingularMetric, match=r"^r nan exceeds 1e-10$"):
        require_within(None, np.nan, 1e-10, SingularMetric, "r")


# -- scalars are (0,0) fields ---------------------------------------------------

def test_scalar_is_the_rank_zero_field(chart):
    """A (0,0) TensorField takes an expression, source text or a number, and
    evaluates to 0-d jets (with the batch axis at a batch); d is its
    gradient and L_X is X[f]."""
    f = TensorField(chart, 0, 0, "x^2 * xt")
    p = chart.point([0.5, -2.0])
    batch = Point(chart, [[0.5, -2.0], [1.0, 3.0]])
    assert f.at(p, 2).shape == () and float(f.values(p)) == -0.5
    assert f.values(batch).tolist() == [-0.5, 3.0]
    assert exterior_derivative(f).values(p).tolist() == [-2.0, 0.25]
    X = TensorField(chart, 1, 0, np.array(["1", "xt"], dtype=object))
    assert float(lie_derivative(X, f).values(p)) == -2.0 + -2.0 * 0.25
    assert float(TensorField(chart, 0, 0, 3).values(p)) == 3.0
    assert float(TensorField(chart, 0, 0, 0.25).values(p)) == 0.25
    with pytest.raises(TypeError):
        TensorField(chart, 0, 0, None)


@pytest.mark.filterwarnings("error")
def test_non_finite_component_jets_are_a_domain_error(chart):
    """exp(800 x) overflows at x = 1: the field names the first such point
    of a batch instead of returning inf or NaN jets."""
    f = TensorField(chart, 0, 0, "exp(800*x) - exp(800*x)")
    with pytest.raises(DomainError, match=r"not finite at Point\(\[1\.0, 0\.0\]\)"):
        f.at(Point(chart, [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), 0)
    assert float(f.values(chart.point([0.5, 0.0]))) == 0.0


def test_chart_dimension_must_be_even():
    from paraherm.errors import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        Chart(["x", "y", "z"])


def test_jet_order_budget_enforced():
    from paraherm.errors import InsufficientJetOrder

    tight = Chart(["x", "xt"], split=1, jet_order=0)
    X = coordinate_vector_field(tight, 0)
    Y = TensorField(tight, 1, 0, np.array(["x", "0"], dtype=object))
    with pytest.raises(InsufficientJetOrder):
        lie_bracket(X, Y).at(tight.point([0.0, 0.0]), 0)
    from paraherm.jets import context

    with pytest.raises(InsufficientJetOrder):
        jets_gradient(constant_jets(context(2, 0), 1.0))


# -- guarded inverse -------------------------------------------------------------

def test_near_singular_metric_rejected(chart):
    """cond(eta) = 4e14: relatively singular although no pivot is exactly zero."""
    from paraherm.parastructure import ParaHermitianStructure

    eta = constant_field(chart, [[1.0, 1.0], [1.0, 1.0 + 1e-14]], 0, 2, sym="symmetric")
    K = constant_field(chart, [[1.0, 0.0], [0.0, -1.0]], 1, 1)
    S = ParaHermitianStructure(chart, eta, K)
    with pytest.raises(SingularMetric):
        S.eta_inv.at(chart.point([0.1, 0.2]), 0)


def test_rescaled_metric_accepted(chart4):
    """|det eta| = 1e-16 but cond(eta) = 1: the guard does not depend on scale."""
    from paraherm.geometry import tdot

    eye = np.eye(2)
    zero = np.zeros((2, 2))
    eta = constant_field(chart4, 1e-4 * np.block([[zero, eye], [eye, zero]]), 0, 2,
                         sym="symmetric")
    X = TensorField(chart4, 1, 0, np.array(["x1", "1 + xt2", "x2*xt1", "2"], dtype=object))
    for p in pts(chart4, 3, 21):
        inv = invert_matrix_jets(eta.at(p, 0), p)
        lowered = musical(eta, X, [0], p)
        assert lowered.max_abs() > 0.0
        back = tdot(inv, lowered, ([1], [0]))
        assert np.max(np.abs(back.values() - X.values(p))) < 1e-12


# -- the last-point memo of Field.at ---------------------------------------------

def _counted(chart, fn):
    """A derived vector field whose procedure records the order of each call."""
    calls = []

    def proc(p, k):
        calls.append(k)
        return fn(p, k)

    return DerivedField(chart, 1, 0, proc), calls


def test_memo_serves_lower_orders_from_one_evaluation(chart4):
    X = random_vector_field(chart4, np.random.default_rng(3))
    F, calls = _counted(chart4, X.at)
    p, q = pts(chart4, 2, 30)
    top = F.at(p, 2)
    for k in (1, 0):
        lower = F.at(p, k)
        assert lower.ctx.order == k
        assert np.array_equal(lower.coeffs, truncate_jets(top, k).coeffs)
    assert len(calls) == 1
    F.at(p, 3)
    assert len(calls) == 2
    F.at(q, 0)
    F.at(p, 0)
    # A new point is evaluated at the order its predecessor reached.
    assert calls == [2, 3, 3, 3]


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from([2, 4, 6]), top=st.integers(0, 3), low=st.integers(0, 3),
       seed=st.integers(0, 2**32 - 1))
def test_memo_matches_a_fresh_evaluation(dim, top, low, seed):
    """A memo-served at(p, k) is bit-equal to a fresh field's at(p, k), and
    alternating p, q, p never returns q's jets."""
    chart = Chart([f"x{i}" for i in range(dim)], split=dim // 2)
    rng = np.random.default_rng(seed)
    X = random_vector_field(chart, rng)
    p, q = (chart.point(rng.uniform(-1, 1, dim)) for _ in range(2))
    k = min(top, low)

    def fresh(point):
        return TensorField(chart, 1, 0, X.comps).at(point, k).coeffs.tobytes()

    X.at(p, top)
    assert X.at(p, k).coeffs.tobytes() == fresh(p)
    assert X.at(q, k).coeffs.tobytes() == fresh(q)
    assert X.at(p, k).coeffs.tobytes() == fresh(p)


def test_memo_keeps_the_jet_order_budget():
    """A procedure that returns more orders than asked still cannot serve a
    request past the chart's budget."""
    tight = Chart(["x", "xt"], split=1, jet_order=1)
    F, calls = _counted(tight, lambda p, k: constant_jets(context(2, 2), p.coords))
    p = tight.point([0.1, 0.2])
    assert F.at(p, 1).ctx.order == 2
    with pytest.raises(InsufficientJetOrder):
        F.at(p, 2)
    assert len(calls) == 1


def test_failed_evaluation_keeps_the_entry(chart4):
    X = random_vector_field(chart4, np.random.default_rng(4))
    p, q = pts(chart4, 2, 31)

    def fn(point, k):
        if point is q or k == 3:
            raise DomainError("outside the domain")
        return X.at(point, k)

    F, calls = _counted(chart4, fn)
    kept = F.at(p, 2)
    for bad, k in ((q, 0), (p, 3)):
        with pytest.raises(DomainError):
            F.at(bad, k)
    assert F.at(p, 2) is kept
    assert np.array_equal(F.at(p, 1).coeffs, truncate_jets(kept, 1).coeffs)
    # q is tried at the entry's order 2, then at the order 0 asked.
    assert calls == [2, 2, 0, 3]


def _bits(jets):
    """The bytes of a jet array, with -0.0 read as 0.0: the sign of an exact
    zero is the one thing order stability does not fix."""
    return (jets.coeffs + 0.0).tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), npts=st.integers(2, 3),
       requests=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1,
                         max_size=12))
def test_memo_sequences_match_fresh_fields(seed, npts, requests):
    """Any sequence of (point, order) requests over a few points and their
    batch gets, from a field and from a bracket of fields, the bits a fresh
    field gives at that point and order, however high the memo's order."""
    chart = Chart(["x1", "x2", "xt1", "xt2"], split=2, jet_order=4)
    rng = np.random.default_rng(seed)
    X, Y = (random_vector_field(chart, rng) for _ in range(2))
    points = pts(chart, npts, seed % 1000)
    points.append(stack_points(points))
    F = lie_bracket(X, Y)
    for i, k in requests:
        point = points[min(i, npts)]
        fresh = lie_bracket(*(TensorField(chart, 1, 0, V.comps) for V in (X, Y)))
        assert _bits(F.at(point, k)) == _bits(fresh.at(point, k))
        assert _bits(X.at(point, k)) == _bits(TensorField(chart, 1, 0, X.comps).at(point, k))


def test_memo_falls_back_to_the_order_asked():
    """x^-2 at x = 1e-120 is finite at order 0 but not at order 1: after an
    order-2 read elsewhere, order 0 there still gives a fresh field's jets,
    and order 1 still raises."""
    chart = Chart(["x", "xt"], split=1)
    comps = np.array(["x^-2", "xt"], dtype=object)
    F = TensorField(chart, 1, 0, comps)
    p, q = chart.point([0.5, 0.3]), chart.point([1e-120, 0.3])
    F.at(p, 2)
    assert _bits(F.at(q, 0)) == _bits(TensorField(chart, 1, 0, comps).at(q, 0))
    with pytest.raises(DomainError):
        F.at(q, 1)


def test_field_jets_are_read_only(chart4):
    X = random_vector_field(chart4, np.random.default_rng(5))
    p = pts(chart4, 1, 32)[0]
    for jets in (X.at(p, 2), X.at(p, 1), lie_bracket(X, X).at(p, 1)):
        with pytest.raises(ValueError):
            jets.coeffs[0, 0] = 1.0
