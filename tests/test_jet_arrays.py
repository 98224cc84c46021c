"""Property tests: the dense tensor-of-jets kernels in `geometry` against the
scalar `Jet` arithmetic of `jets`, over dims 1-8 and orders K <= 4.

Each reference is computed component by component with `Jet` products,
sums, partials and truncations, on object arrays built from the same
coefficients, so it shares no code with the dense kernels.  The carried jet
degree is checked against the coefficients themselves, and the zero and
constant paths of `tdot` against its general kernel on the same
coefficients carried at full degree.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paraherm import brackets as br
from paraherm.connections import covariant_differential, curvature, flat_connection
from paraherm.deformations import BTransformation, mc_form
from paraherm.errors import RankMismatch, SingularMetric
from paraherm.geometry import (
    Chart,
    JetArray,
    TensorField,
    as_jets,
    concat_jets,
    constant_jets,
    embed_block,
    exterior_derivative,
    invert_matrix_jets,
    jets_gradient,
    lie_bracket,
    lie_derivative,
    tdot,
    truncate_jets,
    wedge,
)
from paraherm.jets import Jet, context
from paraherm.randfields import random_bivector, random_form, random_vector_field

SETTINGS = settings(max_examples=60, deadline=None)
dims = st.integers(1, 8)
orders = st.integers(0, 4)
seeds = st.integers(0, 2**32 - 1)
axis_len = st.integers(1, 3)


def random_jets(rng, dim, order, shape):
    ctx = context(dim, order)
    return JetArray(ctx, rng.uniform(-1.0, 1.0, tuple(shape) + (ctx.n,)))


def scalar_jets(arr):
    """The same tensor as an object array of scalar `Jet`s."""
    out = np.empty(arr.shape, dtype=object)
    for idx in np.ndindex(arr.shape):
        out[idx] = Jet(arr.ctx, arr.coeffs[idx].copy())
    return out


def assert_same(dense, jets, tol=1e-12):
    """Every component of `dense` equals the scalar jet in `jets`."""
    assert dense.shape == jets.shape
    for idx in np.ndindex(jets.shape):
        want = jets[idx]
        got = dense[idx]
        assert isinstance(got, Jet)
        assert got.ctx is want.ctx
        scale = max(1.0, float(np.max(np.abs(want.coeffs))))
        assert np.max(np.abs(got.coeffs - want.coeffs)) <= tol * scale


@SETTINGS
@given(dims, orders, orders, axis_len, axis_len, axis_len, seeds)
def test_contraction_matches_scalar_products(dim, ka, kb, p, c, q, seed):
    """A (p,c) . (c,q) contraction, operands of mixed order."""
    rng = np.random.default_rng(seed)
    a = random_jets(rng, dim, ka, (p, c))
    b = random_jets(rng, dim, kb, (c, q))
    aj, bj = scalar_jets(a), scalar_jets(b)
    want = np.empty((p, q), dtype=object)
    for i in range(p):
        for j in range(q):
            acc = aj[i, 0] * bj[0, j]
            for m in range(1, c):
                acc = acc + aj[i, m] * bj[m, j]
            want[i, j] = acc
    got = tdot(a, b, ([1], [0]))
    assert got.ctx.order == min(ka, kb)
    assert_same(got, want)


@SETTINGS
@given(dims, orders, orders, axis_len, axis_len, seeds)
def test_full_contraction_is_a_scalar_jet(dim, ka, kb, c1, c2, seed):
    """Contracting both axes of two (c1,c2) tensors, in swapped order on the
    second operand, gives a 0-d array whose one component is the scalar sum."""
    rng = np.random.default_rng(seed)
    a = random_jets(rng, dim, ka, (c1, c2))
    b = random_jets(rng, dim, kb, (c2, c1))
    aj, bj = scalar_jets(a), scalar_jets(b)
    want = aj[0, 0] * bj[0, 0]
    for i, j in np.ndindex(c1, c2):
        if (i, j) != (0, 0):
            want = want + aj[i, j] * bj[j, i]
    got = tdot(a, b, ([0, 1], [1, 0]))
    assert got.shape == ()
    assert_same(got, np.array(want, dtype=object))


@SETTINGS
@given(dims, orders, orders, axis_len, axis_len, seeds)
def test_outer_product_and_elementwise_operations(dim, ka, kb, p, q, seed):
    """tdot with no contracted axis; +, - and * by a scalar jet, mixed order."""
    rng = np.random.default_rng(seed)
    a = random_jets(rng, dim, ka, (p,))
    b = random_jets(rng, dim, kb, (q,))
    c = random_jets(rng, dim, kb, (p,))
    s = random_jets(rng, dim, kb, ())[()]
    aj, bj, cj = scalar_jets(a), scalar_jets(b), scalar_jets(c)
    outer = np.empty((p, q), dtype=object)
    for i, j in np.ndindex(p, q):
        outer[i, j] = aj[i] * bj[j]
    assert_same(tdot(a, b, ([], [])), outer)
    assert_same(a * s, np.array([x * s for x in aj], dtype=object))
    assert_same(s * a, np.array([s * x for x in aj], dtype=object))
    assert_same(a + c, aj + cj, tol=0.0)
    assert_same(a - c, aj - cj, tol=0.0)
    assert_same(0.5 * a, aj * 0.5, tol=0.0)


@SETTINGS
@given(dims, st.integers(1, 4), axis_len, axis_len, seeds)
def test_gradient_matches_partial(dim, k, p, q, seed):
    rng = np.random.default_rng(seed)
    a = random_jets(rng, dim, k, (p, q))
    aj = scalar_jets(a)
    want = np.empty((dim, p, q), dtype=object)
    for v in range(dim):
        for i, j in np.ndindex(p, q):
            want[v, i, j] = aj[i, j].partial(v)
    got = jets_gradient(a)
    assert got.ctx is context(dim, k - 1)
    assert_same(got, want, tol=0.0)


@SETTINGS
@given(dims, orders, orders, axis_len, seeds)
def test_truncate_matches_scalar_truncate(dim, k, target, p, seed):
    rng = np.random.default_rng(seed)
    a = random_jets(rng, dim, k, (p, 2))
    aj = scalar_jets(a)
    want = np.empty(aj.shape, dtype=object)
    for idx in np.ndindex(aj.shape):
        want[idx] = aj[idx].truncate(min(target, k))
    assert_same(truncate_jets(a, target), want, tol=0.0)


def gauss_jordan(M):
    """Scalar-jet Gauss-Jordan inverse with pivoting on the largest value."""
    d = M.shape[0]
    A = M.copy()
    B = np.empty((d, d), dtype=object)
    for i, j in np.ndindex(d, d):
        B[i, j] = M[0, 0].ctx.constant(1.0 if i == j else 0.0)
    for col in range(d):
        pivot = max(range(col, d), key=lambda r: abs(A[r, col].value))
        A[[col, pivot]] = A[[pivot, col]]
        B[[col, pivot]] = B[[pivot, col]]
        inv = A[col, col].reciprocal()
        A[col] = A[col] * inv
        B[col] = B[col] * inv
        for row in range(d):
            if row != col:
                factor = A[row, col]
                A[row] = A[row] - factor * A[col]
                B[row] = B[row] - factor * B[col]
    return B


@SETTINGS
@given(dims, orders, st.integers(1, 4), seeds)
def test_inverse_matches_gauss_jordan(dim, k, d, seed):
    """Well-conditioned draws: diagonally dominant values, small derivatives."""
    rng = np.random.default_rng(seed)
    M = random_jets(rng, dim, k, (d, d))
    M.coeffs[..., 0] += 2.0 * d * np.eye(d)
    inv = invert_matrix_jets(M)
    Mj = scalar_jets(M)
    ref = gauss_jordan(Mj)
    assert_same(inv, ref, tol=1e-12)
    # M . M^-1 = I through the scalar route.
    eye = np.empty((d, d), dtype=object)
    for i, j in np.ndindex(d, d):
        eye[i, j] = M.ctx.constant(1.0 if i == j else 0.0)
    prod = np.empty((d, d), dtype=object)
    invj = scalar_jets(inv)
    for i, j in np.ndindex(d, d):
        acc = Mj[i, 0] * invj[0, j]
        for m in range(1, d):
            acc = acc + Mj[i, m] * invj[m, j]
        prod[i, j] = acc
    assert_same(as_jets(prod), eye, tol=1e-12)


def test_inverse_rejects_ill_conditioned_matrix():
    ctx = context(2, 2)
    M = as_jets([[ctx.constant(1.0), ctx.constant(1.0)],
                 [ctx.constant(1.0), ctx.constant(1.0 + 1e-14)]])
    with pytest.raises(SingularMetric):
        invert_matrix_jets(M)


def test_indexing_transpose_and_conversion():
    rng = np.random.default_rng(5)
    a = random_jets(rng, 3, 2, (2, 3, 4))
    aj = scalar_jets(a)
    assert_same(a.transpose((2, 0, 1)), np.transpose(aj, (2, 0, 1)), tol=0.0)
    assert_same(a.moveaxis(2, 0), np.moveaxis(aj, 2, 0), tol=0.0)
    assert_same(a[1], aj[1], tol=0.0)
    assert_same(a[:, 1:, 0], aj[:, 1:, 0], tol=0.0)
    assert_same(as_jets(aj), aj, tol=0.0)


def test_sum_of_different_shapes_rejected():
    """(4,) + (4, 4) is a rank error, not a broadcast to (4, 4)."""
    rng = np.random.default_rng(6)
    vec = random_jets(rng, 4, 2, (4,))
    mat = random_jets(rng, 4, 2, (4, 4))
    with pytest.raises(RankMismatch):
        vec + mat
    with pytest.raises(RankMismatch):
        mat - vec


# -- one tensor-of-jets type ---------------------------------------------------

def _derived_fields(model):
    """(name, field) for a tensor field and each kind of derived field."""
    rng = np.random.default_rng(8)
    chart, S = model.chart, model.S
    X, Y = (random_vector_field(chart, rng) for _ in range(2))
    w1, w2 = random_form(chart, rng, k=1), random_form(chart, rng, k=2)
    b = TensorField(chart, 0, 2, embed_block(chart, [["0", "xt1"], ["-(xt1)", "0"]]),
                    sym="antisymmetric")
    return [
        ("tensor_field", X),
        ("lie_bracket", lie_bracket(X, Y)),
        ("exterior_derivative", exterior_derivative(w2)),
        ("wedge", wedge(w1, w2)),
        ("lie_derivative", lie_derivative(X, w2)),
        ("covariant_differential", covariant_differential(S.canonical, X)),
        ("curvature", curvature(S.levi_civita)),
        ("d_bracket", br.d_bracket(S, X, Y)),
        ("flat_coordinate_dbracket",
         br.flat_coordinate_dbracket(chart, model.eta_matrix, X, Y)),
        ("schouten_self", br.schouten_self(random_bivector(chart, rng),
                                           flat_connection(chart))),
        ("mc_form", mc_form(BTransformation(S, b))),
    ]


@pytest.mark.parametrize("order", [0, 1])
def test_field_at_returns_a_jet_array(flat2, order):
    """`Field.at(p, k)` gives a JetArray of shape (dim,)*(r+s) at order k;
    the rank lives on the field."""
    p = flat2.chart.point([0.3, -0.2, 0.5, 0.1])
    for name, field in _derived_fields(flat2):
        out = field.at(p, order)
        assert isinstance(out, JetArray), name
        assert out.shape == (4,) * (field.r + field.s), name
        assert out.ctx.order == order, name


# -- carried jet degree --------------------------------------------------------

degrees = st.integers(-1, 4)
# (shape_a, shape_b, axes) in the sizes p, c1, c2, q: a matrix product, a
# double contraction with transposed axes, and an outer product.
LAYOUTS = [
    (("p", "c1"), ("c1", "q"), ([1], [0])),
    (("c1", "p", "c2"), ("c2", "q", "c1"), ([0, 2], [2, 0])),
    (("p",), ("q", "c1"), ([], [])),
]


def graded_jets(rng, dim, order, shape, deg):
    """Random jets that are zero above degree `deg`, carrying that degree."""
    ctx = context(dim, order)
    deg = min(deg, order)
    coeffs = rng.uniform(-1.0, 1.0, tuple(shape) + (ctx.n,))
    coeffs[..., ctx.degree > deg] = 0.0
    return JetArray(ctx, coeffs, deg)


def full_degree(x):
    """The same coefficients carried at the full order: `tdot`'s general case."""
    return JetArray(x.ctx, x.coeffs)


def assert_degree_bound(x):
    """`x.deg` is a valid bound: every coefficient above it is exactly 0."""
    assert -1 <= x.deg <= x.ctx.order
    assert not np.any(x.coeffs[..., x.ctx.degree > x.deg])


@SETTINGS
@given(dims, orders, orders, degrees, degrees, axis_len, axis_len, seeds)
def test_degree_never_under_reports(dim, ka, kb, da, db, p, c, seed):
    """Through every helper that carries the degree, mixed orders."""
    rng = np.random.default_rng(seed)
    a = graded_jets(rng, dim, ka, (p, c), da)
    b = graded_jets(rng, dim, kb, (c, p), db)
    b2 = graded_jets(rng, dim, kb, (p, c), db)
    s = random_jets(rng, dim, kb, ())[()]
    results = [
        tdot(a, b, ([1], [0])), tdot(a, b, ([0, 1], [1, 0])), tdot(a, b, ([], [])),
        tdot(b, a, ([1], [0])), a + b2, a - b2, b2 - a, -a, 0.5 * a, a * s,
        a.transpose(), a.moveaxis(1, 0), a[0], a[:, :1],
        concat_jets([a, b2]), as_jets(scalar_jets(a)),
        constant_jets(a.ctx, rng.uniform(-1.0, 1.0, (p, c))),
        constant_jets(a.ctx, np.zeros((p, c))),
    ]
    results += [truncate_jets(a, k) for k in range(ka + 1)]
    if ka >= 1:
        results.append(jets_gradient(a))
    for x in results:
        assert_degree_bound(x)


@SETTINGS
@given(st.integers(2, 4), orders, seeds)
def test_tensor_field_degree_is_scanned(n, k, seed):
    """`TensorField.at` reports the degree of its polynomial components:
    exactly -1 for zero, 0 for constants, and a valid bound otherwise."""
    rng = np.random.default_rng(seed)
    chart = Chart([f"x{i}" for i in range(2 * n)], split=n, jet_order=4)
    p = chart.point(rng.uniform(0.1, 1.0, 2 * n))
    cases = [("0", -1), ("2.5", 0), ("x0", min(1, k)), ("x0*x1*x1", min(3, k))]
    for source, want in cases:
        field = TensorField(chart, 1, 0, [source] + ["0"] * (2 * n - 1))
        got = field.at(p, k)
        assert_degree_bound(got)
        assert got.deg == want, source


def _draw_layout(layout, p, c1, c2, q):
    sizes = dict(p=p, c1=c1, c2=c2, q=q)
    shape_a, shape_b, axes = layout
    return tuple(sizes[x] for x in shape_a), tuple(sizes[x] for x in shape_b), axes


@pytest.mark.parametrize("layout", LAYOUTS)
@SETTINGS
@given(dims, orders, orders, degrees, axis_len, axis_len, axis_len, axis_len, seeds)
def test_zero_operand_equals_the_full_kernel(layout, dim, ka, kb, d, p, c1, c2, q, seed):
    """A zero operand on either side gives exactly the full kernel's zeros."""
    rng = np.random.default_rng(seed)
    shape_a, shape_b, axes = _draw_layout(layout, p, c1, c2, q)
    for zero_left in (True, False):
        a = graded_jets(rng, dim, ka, shape_a, -1 if zero_left else d)
        b = graded_jets(rng, dim, kb, shape_b, d if zero_left else -1)
        got = tdot(a, b, axes)
        want = tdot(full_degree(a), full_degree(b), axes)
        assert got.deg == -1
        assert got.coeffs.shape == want.coeffs.shape
        assert got.coeffs.tobytes() == want.coeffs.tobytes()


@pytest.mark.parametrize("layout", LAYOUTS)
@SETTINGS
@given(dims, orders, orders, degrees, axis_len, axis_len, axis_len, axis_len, seeds)
def test_constant_operand_matches_the_full_kernel(layout, dim, ka, kb, d, p, c1, c2, q,
                                                  seed):
    """A constant operand on either side matches the full kernel to 1e-12."""
    rng = np.random.default_rng(seed)
    shape_a, shape_b, axes = _draw_layout(layout, p, c1, c2, q)
    for const_left in (True, False):
        a = graded_jets(rng, dim, ka, shape_a, 0 if const_left else d)
        b = graded_jets(rng, dim, kb, shape_b, d if const_left else 0)
        got = tdot(a, b, axes)
        want = tdot(full_degree(a), full_degree(b), axes)
        assert_degree_bound(got)
        assert got.coeffs.shape == want.coeffs.shape
        scale = max(1.0, float(np.max(np.abs(want.coeffs))))
        assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-12 * scale
