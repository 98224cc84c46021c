"""Scalar jet arithmetic: a single jet is a 0-d `JetArray`.

The hand-computed cases come first.  The property tests then check the
elementwise kernels of `geometry.JetArray` (`*`, the reciprocal and `/`,
integer powers from -3 to 4, `sin`, `cos`, `exp`, `sqrt`) against the
reference arithmetic of `oracles.py`, which is written from the multi-index
definition, over dims 1-8 and orders K <= 4, for a single jet and for a
batch of them.  Each result must also carry a degree that does not
under-report its coefficients.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from paraherm.errors import DimensionMismatch, DivisionByZero, DomainError
from paraherm.expr import Coord
from paraherm.geometry import JetArray, constant_jets, eval_expr, jets_gradient, truncate_jets
from paraherm.jets import context
from oracles import (
    derivative, function_derivatives, jet_function, jet_power, jet_product, jet_reciprocal,
)


def coordinate(ctx, i, value):
    """The jet of the coordinate x^i at a point where x^i = value."""
    coords = np.zeros(ctx.dim)
    coords[i] = value
    return eval_expr(Coord(i), coords, ctx.order)


def coefficient(jet, alpha):
    return float(jet.coeffs[jet.ctx.index[tuple(alpha)]])


def test_seed_coordinate():
    ctx = context(1, 2)
    x = coordinate(ctx, 0, 5.0)
    assert x.shape == () and x.nb == 0
    assert coefficient(x, (0,)) == 5.0
    assert coefficient(x, (1,)) == 1.0
    assert coefficient(x, (2,)) == 0.0


def test_square_second_derivative():
    ctx = context(1, 2)
    x = coordinate(ctx, 0, 3.0)
    sq = x * x
    assert float(sq.values()) == 9.0
    assert derivative(sq, (1,)) == 6.0
    assert derivative(sq, (2,)) == 2.0


def test_exp_series_at_zero():
    ctx = context(1, 3)
    x = coordinate(ctx, 0, 0.0)
    e = x.exp()
    expected = [1.0, 1.0, 0.5, 1.0 / 6.0]
    for k, c in enumerate(expected):
        assert coefficient(e, (k,)) == pytest.approx(c, abs=1e-15)


def test_division_by_zero_value():
    ctx = context(1, 2)
    x = coordinate(ctx, 0, 0.0)
    with pytest.raises(DivisionByZero):
        constant_jets(ctx, 1.0) / x


def test_sqrt_domain():
    ctx = context(1, 2)
    with pytest.raises(DomainError):
        coordinate(ctx, 0, -1.0).sqrt()


def test_dim_mismatch():
    a = constant_jets(context(2, 2), 1.0)
    b = constant_jets(context(3, 2), 1.0)
    with pytest.raises(DimensionMismatch):
        a + b


def _random_jet(rng, ctx):
    return JetArray(ctx, rng.uniform(-1.0, 1.0, ctx.n))


def test_leibniz_rule():
    rng = np.random.default_rng(0)
    ctx = context(3, 3)
    for _ in range(20):
        a = _random_jet(rng, ctx)
        b = _random_jet(rng, ctx)
        prod = jets_gradient(a * b)
        da, db = jets_gradient(a), jets_gradient(b)
        for i in range(3):
            lhs = prod[i]
            rhs = da[i] * truncate_jets(b, 2) + truncate_jets(a, 2) * db[i]
            scale = max(1.0, np.max(np.abs(lhs.coeffs)))
            assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) / scale < 1e-12


def test_sin_cos_pythagoras():
    rng = np.random.default_rng(1)
    ctx = context(2, 3)
    for _ in range(20):
        a = _random_jet(rng, ctx)
        one = a.sin() ** 2 + a.cos() ** 2
        expected = np.zeros(ctx.n)
        expected[0] = 1.0
        assert np.max(np.abs(one.coeffs - expected)) < 1e-12


def test_mixed_partials_commute_bitwise():
    rng = np.random.default_rng(2)
    ctx = context(3, 3)
    for _ in range(10):
        a = _random_jet(rng, ctx)
        da = jets_gradient(a)
        for i in range(3):
            for j in range(3):
                ij = jets_gradient(da[i])[j]
                ji = jets_gradient(da[j])[i]
                assert np.array_equal(ij.coeffs, ji.coeffs)


def test_truncation_is_prefix():
    ctx = context(3, 3)
    rng = np.random.default_rng(3)
    a = _random_jet(rng, ctx)
    t = truncate_jets(a, 1)
    assert np.array_equal(t.coeffs, a.coeffs[: t.ctx.n])


@settings(max_examples=50, deadline=None)
@given(st.floats(-2, 2), st.floats(-2, 2), st.integers(1, 4))
def test_pow_matches_repeated_mul(x0, y0, n):
    ctx = context(2, 3)
    a = coordinate(ctx, 0, x0) * coordinate(ctx, 1, y0) + constant_jets(ctx, 0.5)
    bymul = constant_jets(ctx, 1.0)
    for _ in range(n):
        bymul = bymul * a
    assert np.allclose((a**n).coeffs, bymul.coeffs, rtol=1e-13, atol=1e-13)


def test_reciprocal_inverts():
    rng = np.random.default_rng(4)
    ctx = context(3, 4)
    for _ in range(10):
        coeffs = rng.uniform(-1.0, 1.0, ctx.n)
        coeffs[0] = 2.0 + abs(coeffs[0])
        a = JetArray(ctx, coeffs)
        one = a * a.reciprocal()
        expected = np.zeros(ctx.n)
        expected[0] = 1.0
        assert np.max(np.abs(one.coeffs - expected)) < 1e-13


def test_coefficient_count():
    assert context(4, 3).n == math.comb(4 + 3, 3)
    assert context(8, 3).n == math.comb(8 + 3, 3)


# -- the elementwise kernels against the multi-index reference -----------------

SETTINGS = settings(max_examples=60, deadline=None)
dims = st.integers(1, 8)
orders = st.integers(0, 4)
batches = st.one_of(st.none(), st.integers(1, 4))  # None: a single jet
seeds = st.integers(0, 2**32 - 1)


def random_scalars(rng, ctx, batch, lo=-1.0, hi=1.0):
    """A 0-d JetArray, or a batch of them, with values in [lo, hi] and
    derivative coefficients in [-1, 1]."""
    lead = () if batch is None else (batch,)
    coeffs = rng.uniform(-1.0, 1.0, lead + (ctx.n,))
    coeffs[..., 0] = rng.uniform(lo, hi, lead)
    return JetArray(ctx, coeffs, nb=len(lead))


def rows(x):
    """The coefficient vector of each jet of a 0-d array or a batch."""
    return x.coeffs.reshape(-1, x.ctx.n)


def assert_matches(got, want_rows, tol=1e-12):
    assert_degree_bound(got)
    want = np.array(want_rows)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(rows(got) - want)) <= tol * scale


def assert_degree_bound(x):
    assert -1 <= x.deg <= x.ctx.order
    assert not np.any(x.coeffs[..., x.ctx.degree > x.deg])


@SETTINGS
@given(dims, orders, batches, seeds)
def test_product_matches_reference(dim, k, batch, seed):
    rng = np.random.default_rng(seed)
    ctx = context(dim, k)
    a, b = random_scalars(rng, ctx, batch), random_scalars(rng, ctx, batch)
    assert_matches(a * b, [jet_product(ctx, x, y) for x, y in zip(rows(a), rows(b))])
    # A constant or zero operand takes its own path, to the same coefficients.
    c = constant_jets(ctx, rng.uniform(-1.0, 1.0, () if batch is None else (batch,)),
                      nb=int(batch is not None))
    assert_matches(c * a, [jet_product(ctx, x, y) for x, y in zip(rows(c), rows(a))])
    assert_matches(a * c, [jet_product(ctx, x, y) for x, y in zip(rows(a), rows(c))])
    zero = constant_jets(ctx, 0.0)
    assert (a * zero).deg == -1 and not np.any((a * zero).coeffs)


@SETTINGS
@given(dims, orders, batches, seeds)
def test_reciprocal_and_division_match_reference(dim, k, batch, seed):
    """Values bounded away from zero, of either sign."""
    rng = np.random.default_rng(seed)
    ctx = context(dim, k)
    a = random_scalars(rng, ctx, batch, 0.5, 2.0) * float(rng.choice([-1.0, 1.0]))
    b = random_scalars(rng, ctx, batch)
    assert_matches(a.reciprocal(), [jet_reciprocal(ctx, x) for x in rows(a)])
    assert_matches(b / a, [jet_product(ctx, y, jet_reciprocal(ctx, x))
                           for x, y in zip(rows(a), rows(b))])


@SETTINGS
@given(dims, orders, batches, st.integers(-3, 4), seeds)
def test_integer_power_matches_reference(dim, k, batch, n, seed):
    rng = np.random.default_rng(seed)
    ctx = context(dim, k)
    a = random_scalars(rng, ctx, batch, 0.5, 1.5)
    got = a ** n
    assert got.nb == a.nb
    assert_matches(got, [jet_power(ctx, x, n) for x in rows(a)], tol=1e-11)


@pytest.mark.parametrize("name", ["sin", "cos", "exp", "sqrt"])
@SETTINGS
@given(dims, orders, batches, seeds)
def test_analytic_function_matches_reference(name, dim, k, batch, seed):
    rng = np.random.default_rng(seed)
    ctx = context(dim, k)
    a = random_scalars(rng, ctx, batch, 0.1 if name == "sqrt" else -2.0, 2.0)
    want = [jet_function(ctx, x, function_derivatives(name, float(x[0]), k)) for x in rows(a)]
    assert_matches(getattr(a, name)(), want, tol=1e-11)


@SETTINGS
@given(dims, orders, st.integers(2, 4), seeds)
@example(dim=2, k=4, batch=4, seed=1274855)  # `**` on a numpy scalar called libm's pow
def test_batch_of_scalars_equals_each_jet(dim, k, batch, seed):
    """Every kernel at a batch is byte-equal to the same kernel on each jet."""
    rng = np.random.default_rng(seed)
    ctx = context(dim, k)
    a = random_scalars(rng, ctx, batch, 0.5, 2.0)
    b = random_scalars(rng, ctx, batch)
    cases = [lambda x, y: x * y, lambda x, y: y / x, lambda x, y: x ** -3 + y ** 4,
             lambda x, y: x.sin() * y.cos(), lambda x, y: x.exp() - x.sqrt()]
    for fn in cases:
        got = fn(a, b)
        each = [fn(JetArray(ctx, a.coeffs[i]), JetArray(ctx, b.coeffs[i])) for i in range(batch)]
        assert got.coeffs.tobytes() == np.stack([x.coeffs for x in each]).tobytes()


def test_zero_value_in_a_batch_is_a_division_by_zero():
    ctx = context(2, 1)
    a = JetArray(ctx, np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0]]), nb=1)
    with pytest.raises(DivisionByZero):
        a.reciprocal()
    with pytest.raises(DomainError, match="-0.5"):
        JetArray(ctx, np.array([[1.0, 0.0, 0.0], [-0.5, 0.0, 0.0]]), nb=1).sqrt()
