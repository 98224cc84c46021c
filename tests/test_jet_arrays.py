"""Property tests: the dense tensor-of-jets kernels in `geometry` against the
reference jet arithmetic of `oracles.py`, over dims 1-8 and orders K <= 4.

Each reference is computed component by component, one coefficient vector
at a time, with the products, partials and truncations written there from
the multi-index definition, so it shares no code with the dense kernels.
The carried jet degree is checked against the coefficients themselves, and
the zero and constant paths of `tdot` against its general kernel on the
same coefficients carried at full degree.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paraherm import brackets as br
from paraherm.connections import covariant_differential, curvature, flat_connection
from paraherm.deformations import BTransformation
from paraherm.errors import RankMismatch, SingularMetric
from paraherm.geometry import (
    Chart,
    JetArray,
    TensorField,
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
from paraherm.jets import context
from paraherm.randfields import random_bivector, random_form, random_vector_field
from oracles import jet_partial, jet_product, jet_reciprocal

SETTINGS = settings(max_examples=60, deadline=None)
dims = st.integers(1, 8)
orders = st.integers(0, 4)
seeds = st.integers(0, 2**32 - 1)
axis_len = st.integers(1, 3)


def random_jets(rng, dim, order, shape):
    ctx = context(dim, order)
    return JetArray(ctx, rng.uniform(-1.0, 1.0, tuple(shape) + (ctx.n,)))


def at_order(x, k):
    """The reference coefficients of a tensor of jets truncated to order k:
    the graded layout makes that a prefix of each coefficient vector."""
    return x.coeffs[..., : context(x.ctx.dim, k).n]


def assert_same(dense, want, ctx, tol=1e-12):
    """`dense` is a tensor of jets of `ctx` whose coefficients are `want`."""
    assert dense.ctx is ctx
    assert dense.coeffs.shape == want.shape
    scale = max(1.0, float(np.max(np.abs(want)))) if want.size else 1.0
    assert np.max(np.abs(dense.coeffs - want), initial=0.0) <= tol * scale


@SETTINGS
@given(dims, orders, orders, axis_len, axis_len, axis_len, seeds)
def test_contraction_matches_scalar_products(dim, ka, kb, p, c, q, seed):
    """A (p,c) . (c,q) contraction, operands of mixed order."""
    rng = np.random.default_rng(seed)
    a = random_jets(rng, dim, ka, (p, c))
    b = random_jets(rng, dim, kb, (c, q))
    ctx = context(dim, min(ka, kb))
    aj, bj = at_order(a, ctx.order), at_order(b, ctx.order)
    want = np.empty((p, q, ctx.n))
    for i in range(p):
        for j in range(q):
            acc = jet_product(ctx, aj[i, 0], bj[0, j])
            for m in range(1, c):
                acc = acc + jet_product(ctx, aj[i, m], bj[m, j])
            want[i, j] = acc
    got = tdot(a, b, ([1], [0]))
    assert got.ctx.order == min(ka, kb)
    assert_same(got, want, ctx)


@SETTINGS
@given(dims, orders, orders, axis_len, axis_len, seeds)
def test_full_contraction_is_a_scalar_jet(dim, ka, kb, c1, c2, seed):
    """Contracting both axes of two (c1,c2) tensors, in swapped order on the
    second operand, gives a 0-d array whose one component is the scalar sum."""
    rng = np.random.default_rng(seed)
    a = random_jets(rng, dim, ka, (c1, c2))
    b = random_jets(rng, dim, kb, (c2, c1))
    ctx = context(dim, min(ka, kb))
    aj, bj = at_order(a, ctx.order), at_order(b, ctx.order)
    want = jet_product(ctx, aj[0, 0], bj[0, 0])
    for i, j in np.ndindex(c1, c2):
        if (i, j) != (0, 0):
            want = want + jet_product(ctx, aj[i, j], bj[j, i])
    got = tdot(a, b, ([0, 1], [1, 0]))
    assert got.shape == ()
    assert_same(got, want, ctx)


@SETTINGS
@given(dims, orders, orders, axis_len, axis_len, seeds)
def test_outer_product_and_elementwise_operations(dim, ka, kb, p, q, seed):
    """tdot with no contracted axis; +, - and * by a scalar jet, mixed
    order; * of two tensors broadcast over their axes; / and an axis sum."""
    rng = np.random.default_rng(seed)
    a = random_jets(rng, dim, ka, (p,))
    b = random_jets(rng, dim, kb, (q,))
    c = random_jets(rng, dim, kb, (p,))
    s = random_jets(rng, dim, kb, ())[()]
    ctx = context(dim, min(ka, kb))
    aj, bj, cj, sj = (at_order(x, ctx.order) for x in (a, b, c, s))
    outer = np.empty((p, q, ctx.n))
    for i, j in np.ndindex(p, q):
        outer[i, j] = jet_product(ctx, aj[i], bj[j])
    assert_same(tdot(a, b, ([], [])), outer, ctx)
    assert_same(a[:, None] * b[None, :], outer, ctx)
    assert_same(a * s, np.array([jet_product(ctx, x, sj) for x in aj]), ctx)
    assert_same(s * a, np.array([jet_product(ctx, sj, x) for x in aj]), ctx)
    assert_same(a + c, aj + cj, ctx, tol=0.0)
    assert_same(a - c, aj - cj, ctx, tol=0.0)
    assert_same(0.5 * a, a.coeffs * 0.5, a.ctx, tol=0.0)
    assert_same((a[:, None] * b[None, :]).sum(0), outer.sum(0), ctx)
    c.coeffs[..., 0] = 2.0
    assert_same(a / c, np.array([jet_product(ctx, x, jet_reciprocal(ctx, y))
                                 for x, y in zip(aj, cj)]), ctx)


@SETTINGS
@given(dims, st.integers(1, 4), axis_len, axis_len, seeds)
def test_gradient_matches_partial(dim, k, p, q, seed):
    rng = np.random.default_rng(seed)
    a = random_jets(rng, dim, k, (p, q))
    lower = context(dim, k - 1)
    want = np.empty((dim, p, q, lower.n))
    for v in range(dim):
        for i, j in np.ndindex(p, q):
            want[v, i, j] = jet_partial(a.ctx, a.coeffs[i, j], v, lower)
    got = jets_gradient(a)
    assert got.ctx is lower
    assert_same(got, want, lower, tol=0.0)


@SETTINGS
@given(dims, orders, orders, axis_len, seeds)
def test_truncate_matches_scalar_truncate(dim, k, target, p, seed):
    rng = np.random.default_rng(seed)
    a = random_jets(rng, dim, k, (p, 2))
    lower = context(dim, min(target, k))
    want = np.empty((p, 2, lower.n))
    for idx in np.ndindex(p, 2):
        for m, alpha in enumerate(lower.alphas):
            want[idx + (m,)] = a.coeffs[idx + (a.ctx.index[alpha],)]
    assert_same(truncate_jets(a, target), want, lower, tol=0.0)


def gauss_jordan(ctx, M):
    """Gauss-Jordan inverse of a matrix of coefficient vectors, with the
    reference jet products, pivoting on the largest value."""
    d = M.shape[0]
    A = M.copy()
    B = np.zeros_like(M)
    for i in range(d):
        B[i, i, 0] = 1.0
    for col in range(d):
        pivot = max(range(col, d), key=lambda r: abs(A[r, col, 0]))
        A[[col, pivot]] = A[[pivot, col]]
        B[[col, pivot]] = B[[pivot, col]]
        inv = jet_reciprocal(ctx, A[col, col])
        A[col] = [jet_product(ctx, x, inv) for x in A[col]]
        B[col] = [jet_product(ctx, x, inv) for x in B[col]]
        for row in range(d):
            if row != col:
                factor = A[row, col].copy()
                A[row] = A[row] - [jet_product(ctx, factor, x) for x in A[col]]
                B[row] = B[row] - [jet_product(ctx, factor, x) for x in B[col]]
    return B


@SETTINGS
@given(dims, orders, st.integers(1, 4), seeds)
def test_inverse_matches_gauss_jordan(dim, k, d, seed):
    """Well-conditioned draws: diagonally dominant values, small derivatives."""
    rng = np.random.default_rng(seed)
    M = random_jets(rng, dim, k, (d, d))
    M.coeffs[..., 0] += 2.0 * d * np.eye(d)
    inv = invert_matrix_jets(M)
    ctx = M.ctx
    assert_same(inv, gauss_jordan(ctx, M.coeffs), ctx, tol=1e-12)
    # M . M^-1 = I through the reference products.
    eye = np.zeros((d, d, ctx.n))
    eye[..., 0] = np.eye(d)
    prod = np.empty((d, d, ctx.n))
    for i, j in np.ndindex(d, d):
        prod[i, j] = sum(jet_product(ctx, M.coeffs[i, m], inv.coeffs[m, j]) for m in range(d))
    assert np.max(np.abs(prod - eye)) <= 1e-12 * max(1.0, float(np.max(np.abs(eye))))


def test_inverse_rejects_ill_conditioned_matrix():
    ctx = context(2, 2)
    M = constant_jets(ctx, [[1.0, 1.0], [1.0, 1.0 + 1e-14]])
    with pytest.raises(SingularMetric):
        invert_matrix_jets(M)


def test_indexing_transpose_and_conversion():
    """Tensor axes move like numpy's; indexing down to one component gives
    that component as a 0-d array (a scalar jet), a view of the same
    coefficients."""
    rng = np.random.default_rng(5)
    a = random_jets(rng, 3, 2, (2, 3, 4))
    c = a.coeffs
    assert_same(a.transpose((2, 0, 1)), np.transpose(c, (2, 0, 1, 3)), a.ctx, tol=0.0)
    assert_same(a.moveaxis(2, 0), np.moveaxis(c, 2, 0), a.ctx, tol=0.0)
    assert_same(a[1], c[1], a.ctx, tol=0.0)
    assert_same(a[:, 1:, 0], c[:, 1:, 0], a.ctx, tol=0.0)
    one = a[1, 2, 3]
    assert isinstance(one, JetArray) and one.shape == () and one.nb == 0
    assert_same(one, c[1, 2, 3], a.ctx, tol=0.0)


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
        ("mc_form", BTransformation(S, b).mc_form),
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
        concat_jets([a, b2]), a * b2, a[:, None] * b2[None, :], (a * b2).sum(0),
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
