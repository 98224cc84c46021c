"""Property tests: each kernel of `geometry` on a batch of points equals
stacking its results at the single points, over dims 1-8, orders K <= 4 and
batches of 1-7 points.

A batched JetArray carries one leading batch axis; an unbatched operand
broadcasts against it.  Every case compares the batched call with the same
call on each point's slice: byte-equal on `tdot`'s zero path, to 1e-12
relative otherwise, and the carried degree is checked against the
coefficients of every batched result.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paraherm.brackets import GeneralizedVectorField, dorfman_leafwise
from paraherm.deformations import BTransformation
from paraherm.errors import DomainError, NotIntegrable, NotParaKahler, SingularMetric
from paraherm.geometry import (
    _FUSED_PRODUCT_MAX,
    Chart,
    JetArray,
    TensorField,
    _product_tables,
    concat_jets,
    constant_field,
    constant_jets,
    invert_matrix_jets,
    jets_gradient,
    stack_points,
    tdot,
    truncate_jets,
)
from paraherm.jets import context
from paraherm.models import build_flat
from paraherm.parastructure import ParaHermitianStructure
from paraherm.randfields import random_vector_field

SETTINGS = settings(max_examples=60, deadline=None)
dims = st.integers(1, 8)
orders = st.integers(0, 4)
degrees = st.integers(-1, 4)
batches = st.integers(1, 7)
seeds = st.integers(0, 2**32 - 1)
axis_len = st.integers(1, 3)
# Which operands carry the batch axis: both, only the left, only the right.
BATCHING = [(True, True), (True, False), (False, True)]
LAYOUTS = [
    (("p", "c1"), ("c1", "q"), ([1], [0])),
    (("c1", "p", "c2"), ("c2", "q", "c1"), ([0, 2], [2, 0])),
    (("p",), ("q", "c1"), ([], [])),
    (("c1",), ("c1",), ([0], [0])),
]


def jets(rng, dim, order, shape, deg, batch=None):
    """Random jets, zero above degree `deg` and carrying it; with a batch
    size, a batched array of that many points."""
    ctx = context(dim, order)
    deg = min(deg, order)
    lead = () if batch is None else (batch,)
    coeffs = rng.uniform(-1.0, 1.0, lead + tuple(shape) + (ctx.n,))
    coeffs[..., ctx.degree > deg] = 0.0
    return JetArray(ctx, coeffs, deg, len(lead))


def at_point(x, i):
    """Point i of a batched array, or the unbatched array itself."""
    return JetArray(x.ctx, x.coeffs[i], x.deg) if x.nb else x


def assert_degree_bound(x):
    assert -1 <= x.deg <= x.ctx.order
    assert not np.any(x.coeffs[..., x.ctx.degree > x.deg])


def assert_stacked(got, per_point, exact=False):
    """`got` is batched and equals the per-point results stacked."""
    assert isinstance(got, JetArray) and got.nb == 1
    want = np.stack([w.coeffs for w in per_point])
    assert got.coeffs.shape == want.shape
    assert got.ctx is per_point[0].ctx
    assert got.shape == per_point[0].shape
    assert_degree_bound(got)
    if exact:
        assert got.coeffs.tobytes() == want.tobytes()
    else:
        scale = max(1.0, float(np.max(np.abs(want)))) if want.size else 1.0
        assert np.max(np.abs(got.coeffs - want), initial=0.0) <= 1e-12 * scale


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("batching", BATCHING)
@SETTINGS
@given(dims, orders, orders, degrees, degrees, batches,
       axis_len, axis_len, axis_len, axis_len, seeds)
def test_tdot_equals_stacked_points(layout, batching, dim, ka, kb, da, db, B,
                                    p, c1, c2, q, seed):
    """All three paths (zero, constant, general), batched on either side or
    both, at mixed orders."""
    rng = np.random.default_rng(seed)
    sizes = dict(p=p, c1=c1, c2=c2, q=q)
    shape_a, shape_b, axes = layout
    a = jets(rng, dim, ka, [sizes[x] for x in shape_a], da, B if batching[0] else None)
    b = jets(rng, dim, kb, [sizes[x] for x in shape_b], db, B if batching[1] else None)
    got = tdot(a, b, axes)
    per_point = [tdot(at_point(a, i), at_point(b, i), axes) for i in range(B)]
    assert_stacked(got, per_point, exact=min(a.deg, b.deg) < 0)


@SETTINGS
@given(dims, orders, orders, degrees, degrees, batches, axis_len, axis_len, seeds)
def test_elementwise_kernels_equal_stacked_points(dim, ka, kb, da, db, B, p, c, seed):
    """+, -, negation, scaling, products (with a scalar jet and broadcast
    between tensors), an axis sum, sin and a power, truncation, gradient,
    transpose, moveaxis, indexing and concatenation."""
    rng = np.random.default_rng(seed)
    a = jets(rng, dim, ka, (p, c), da, B)
    b = jets(rng, dim, kb, (p, c), db, B)
    u = jets(rng, dim, kb, (p, c), db)            # unbatched, broadcast
    s = jets(rng, dim, kb, (), db, B)             # a batched scalar jet
    s0 = jets(rng, dim, kb, (), db)               # an unbatched 0-d one
    cases = [
        (lambda x, y: x + y, (a, b)), (lambda x, y: x - y, (a, b)),
        (lambda x, y: x + y, (a, u)), (lambda x, y: y - x, (a, u)),
        (lambda x: -x, (a,)), (lambda x: 0.5 * x, (a,)),
        (lambda x, y: x * y, (a, s)), (lambda x, y: y * x, (u, s)),
        (lambda x, y: x * y, (a, s0)), (lambda x, y: x * y[:1], (a, u)),
        (lambda x, y: x * y, (a, b)), (lambda x: x.sum(1), (a,)),
        (lambda x: x.sin() * x ** 2, (a,)),
        (lambda x: x.transpose(), (a,)), (lambda x: x.moveaxis(1, 0), (a,)),
        (lambda x: x[0], (a,)), (lambda x: x[:, :1], (a,)),
        (lambda x, y: concat_jets([x, y]), (a, u)),
    ]
    cases += [(lambda x, k=k: truncate_jets(x, k), (a,)) for k in range(ka + 1)]
    if ka >= 1:
        cases.append((jets_gradient, (a,)))
    for fn, args in cases:
        got = fn(*args)
        assert_stacked(got, [fn(*(at_point(x, i) for x in args)) for i in range(B)])
    # Values and max_abs give one entry per point.
    assert np.array_equal(a.values(), np.stack([at_point(a, i).values() for i in range(B)]))
    assert np.array_equal(a.max_abs(), [at_point(a, i).max_abs() for i in range(B)])


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.integers(1, 4), st.sampled_from([(), (3,)]), st.integers(0, 2),
       seeds)
def test_large_products_are_byte_equal_to_stacked_points(dim, k, shape, broadcast, seed):
    """A product too large for one temporary sums its pairs one at a time;
    each point still gets the bits of its own small product, signed zeros
    and operand broadcasting included."""
    rng = np.random.default_rng(seed)
    ctx = context(dim, k)
    pairs = len(_product_tables(ctx)[3])
    points = _FUSED_PRODUCT_MAX // (pairs * ctx.n * max(1, math.prod(shape))) + 1
    picks = np.array([-1.5, -1.0, -0.0, 0.0, 0.5, 2.0])
    a = JetArray(ctx, rng.choice(picks, (points,) + shape + (ctx.n,)), k, 1)
    b = JetArray(ctx, rng.choice(picks, (points,) + shape + (ctx.n,)), k, 1)
    if broadcast == 1:
        b = at_point(b, 0)          # unbatched, broadcast over the points
    elif broadcast == 2 and shape:
        b = b[:1]                   # one component, broadcast over the axis
    got = a * b
    assert_stacked(got, [at_point(a, i) * at_point(b, i) for i in range(points)], exact=True)


@SETTINGS
@given(dims, orders, batches, axis_len, seeds)
def test_full_index_of_a_batch_is_a_batched_scalar(dim, k, B, p, seed):
    """Indexing a batch down to no tensor axes gives a 0-d batched JetArray;
    a single point gives an unbatched one."""
    rng = np.random.default_rng(seed)
    a = jets(rng, dim, k, (p, p), k, B)
    x = a[0, p - 1]
    assert isinstance(x, JetArray) and x.shape == () and x.batch == (B,)
    assert np.array_equal(x.coeffs, a.coeffs[:, 0, p - 1])
    x0 = at_point(a, 0)[0, p - 1]
    assert isinstance(x0, JetArray) and x0.shape == () and x0.batch == ()
    full = tdot(a, a, ([0, 1], [0, 1]))
    assert isinstance(full, JetArray) and full.shape == () and full.nb == 1
    assert isinstance(full[()], JetArray)


@SETTINGS
@given(st.integers(1, 4), dims, orders, batches, seeds)
def test_inverse_equals_stacked_points(d, dim, k, B, seed):
    """A d x d matrix of jets in `dim` variables, diagonally dominant."""
    rng = np.random.default_rng(seed)
    ctx = context(dim, k)
    coeffs = rng.uniform(-0.5, 0.5, (B, d, d, ctx.n))
    coeffs[..., 0] += 2.0 * np.eye(d)
    M = JetArray(ctx, coeffs, nb=1)
    got = invert_matrix_jets(M)
    assert_stacked(got, [invert_matrix_jets(at_point(M, i)) for i in range(B)])


# -- a batch still blames one point ------------------------------------------------
#
# Each case is a batch of three points whose middle one is bad; the error
# names that point's coordinates.

def three_points(chart, middle):
    """A batch of three points of `chart`: `middle` between two good ones."""
    first, last = ([x] + [0.1] * (chart.dim - 1) for x in (0.25, 0.75))
    return stack_points([chart.point(first), chart.point(middle), chart.point(last)])


def test_singular_metric_names_the_point():
    chart = Chart(["x", "xt"], split=1)
    batch = three_points(chart, [0.0, 0.5])
    eta = TensorField(chart, 0, 2, [["0", "1 + x"], ["1 + x", "0"]], sym="symmetric")
    K = constant_field(chart, np.diag([1.0, -1.0]), 1, 1)
    vals = np.stack([np.eye(2), np.zeros((2, 2)), np.eye(2)])
    with pytest.raises(SingularMetric):
        invert_matrix_jets(constant_jets(context(2, 1), vals, nb=1))
    with pytest.raises(SingularMetric, match=r"at Point\(\[0\.0, 0\.5\]\)"):
        invert_matrix_jets(constant_jets(context(2, 1), vals, nb=1), batch)
    eta_bad = TensorField(chart, 0, 2, [["0", "x"], ["x", "0"]], sym="symmetric")
    ParaHermitianStructure(chart, eta, K).at(batch, 1)
    with pytest.raises(SingularMetric, match=r"at Point\(\[0\.0, 0\.5\]\)"):
        ParaHermitianStructure(chart, eta_bad, K).at(batch, 1)


def test_domain_error_names_the_point():
    chart = Chart(["x", "xt"], split=1)
    field = TensorField(chart, 1, 0, ["sqrt(x + 1)", "1 / (x + 2)"])
    field.at(three_points(chart, [0.0, 0.5]), 1)
    with pytest.raises(DomainError, match=r"at Point\(\[-1\.5, 0\.5\]\)"):
        field.at(three_points(chart, [-1.5, 0.5]), 1)
    with pytest.raises(DomainError, match=r"at Point\(\[-1\.5, 0\.5\]\)"):
        field.at(chart.point([-1.5, 0.5]), 0)


def _gate_residual(batch_values):
    """An `integrability_residual` stand-in: `batch_values` at a batch, 0 at a point."""
    def residual(self, sign, point):
        return np.asarray(batch_values, dtype=float) if point.batch else 0.0
    return residual


def test_not_integrable_names_the_point(monkeypatch):
    model = build_flat(1)
    rng = np.random.default_rng(3)
    X, Y = (random_vector_field(model.chart, rng) for _ in range(2))
    e1, e2 = (GeneralizedVectorField(F, constant_field(model.chart, [0.0, 0.0], 0, 1))
              for F in (X, Y))
    batch = three_points(model.chart, [0.5, -0.75])
    monkeypatch.setattr(ParaHermitianStructure, "integrability_residual",
                        _gate_residual([0.0, 1e-3, 0.0]))
    with pytest.raises(NotIntegrable, match=r"1\.000e-03 at Point\(\[0\.5, -0\.75\]\)"):
        dorfman_leafwise(model.S, +1, e1, e2).vec.at(batch, 0)


def test_not_para_kahler_names_the_point():
    """eta = f eta_flat with f = 1 + x1^2 (x1 - 1)^2: d omega = df ^ omega_flat
    vanishes at x1 = 0 and 1 and not at x1 = 0.25."""
    chart = Chart(["x1", "x2", "xt1", "xt2"], split=2)
    f = "(1 + x1^2 * (x1 - 1)^2)"
    eta = TensorField(chart, 0, 2, [["0", "0", f, "0"], ["0", "0", "0", f],
                                    [f, "0", "0", "0"], ["0", f, "0", "0"]], sym="symmetric")
    K = constant_field(chart, np.diag([1.0, 1.0, -1.0, -1.0]), 1, 1)
    zero = constant_field(chart, np.zeros((4, 4)), 0, 2, sym="antisymmetric")
    T = BTransformation(ParaHermitianStructure(chart, eta, K), zero)
    batch = stack_points([chart.point(c) for c in
                          ([0.0, 0.1, 0.2, 0.3], [0.25, 0.1, 0.2, 0.3], [1.0, 0.1, 0.2, 0.3])])
    res = T.base_parakahler_residual(batch)
    assert res[0] < 1e-12 and res[2] < 1e-12 and res[1] > 1e-3
    with pytest.raises(NotParaKahler, match=r"at Point\(\[0\.25, 0\.1, 0\.2, 0\.3\]\)"):
        T.require_parakahler(batch)
