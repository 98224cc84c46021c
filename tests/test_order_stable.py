"""Property tests: every jet kernel of `geometry` is order-stable.

A kernel's result at order k equals, byte for byte, its result at order
k + 1 truncated to k, on operands that are themselves truncations, as
slices of the higher order's coefficients or as arrays of their own: random
operands over dims 1-6 and orders k <= 3, at one point or a batch, with
zero, constant and full degrees.  So a field's jets are a function of
(point, order) and `Field.at` may serve a lower order as a prefix slice.
The one exception is the sign of an exact zero (0.0 + -0.0 is 0.0, so a
sum over more terms can lose a -0.0), which compares equal, and which no
report shows, since residuals are magnitudes.

The kernels that replaced order-dependent ones (the series `reciprocal` and
`invert_matrix_jets`, `tdot`'s fixed-order pair sums) are also checked
against the paths they replaced, the Newton iterations and the one-hot
scatter, and against the reference jet arithmetic of `oracles.py`, to 1e-12.
`tdot` and `*` sum the Cauchy pairs down one table in one order, so an
outer-product `tdot` equals the broadcast `*` bit for bit.  The re-centring
table of monomial-sum fields (quotients by nonzero sums of constants
included) is checked the same way, and against the tape it replaces for
them and the reference jets, to 1e-13.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paraherm.errors import DivisionByZero
from paraherm.expr import (Add, Const, Coord, Cos, Div, Exp, Mul, Neg, Pow, Sin, Sqrt, Sub,
                           monomial_terms)
from paraherm.geometry import (
    JetArray,
    RecentringTable,
    Tape,
    compile_components,
    constant_jets,
    eval_expr,
    invert_matrix_jets,
    jets_gradient,
    tdot,
    truncate_jets,
)
from paraherm.jets import context
from oracles import jet_power, jet_product, jet_reciprocal

SETTINGS = settings(max_examples=80, deadline=None)
dims = st.integers(1, 6)
orders = st.integers(0, 3)
seeds = st.integers(0, 2**32 - 1)
batches = st.sampled_from([None, 1, 4])
# Degree of an operand: all-zero, constant, or carried at its full order.
degrees = st.sampled_from(["zero", "const", "full"])


def jets(rng, dim, order, shape, deg="full", batch=None, low=-1.0, high=1.0):
    """Random jets at order `order`, zero above the degree class `deg`."""
    ctx = context(dim, order)
    lead = () if batch is None else (batch,)
    coeffs = rng.uniform(low, high, lead + tuple(shape) + (ctx.n,))
    d = {"zero": -1, "const": 0, "full": order}[deg]
    coeffs[..., ctx.degree > d] = 0.0
    return JetArray(ctx, coeffs, d, 0 if batch is None else 1)


def fresh(x):
    """`x` in memory of its own, laid out as a kernel would make it at its
    order, and not as a slice of a higher order's coefficients."""
    return JetArray(x.ctx, np.ascontiguousarray(x.coeffs), x.deg, x.nb)


def same_bits(x, y):
    """Byte-equal coefficients, a zero of either sign counting as 0.0."""
    return x.shape == y.shape and (x + 0.0).tobytes() == (y + 0.0).tobytes()


def assert_order_stable(kernel, operands, k):
    """`kernel` on `operands` (at order k + 1) truncated to k equals, byte for
    byte, `kernel` on the operands truncated to k, whether these are slices
    of the order-(k + 1) coefficients or arrays of their own."""
    high = truncate_jets(kernel(*operands), k)
    for low in (kernel(*(truncate_jets(x, k) for x in operands)),
                kernel(*(fresh(truncate_jets(x, k)) for x in operands))):
        assert high.ctx is low.ctx and high.nb == low.nb
        assert same_bits(high.coeffs, low.coeffs)
    return low


def assert_close(got, want, tol=1e-12):
    want = np.asarray(want)
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=tol, atol=tol * max(1.0, float(np.max(np.abs(want)))))


# -- elementwise kernels ------------------------------------------------------------

@SETTINGS
@given(dims, orders, degrees, degrees, batches, seeds)
def test_product_is_order_stable(dim, k, da, db, batch, seed):
    rng = np.random.default_rng(seed)
    a = jets(rng, dim, k + 1, (2, 3), da, batch)
    b = jets(rng, dim, k + 1, (3,), db, batch if seed % 2 else None)
    assert_order_stable(lambda x, y: x * y, (a, b), k)


def newton_reciprocal(x):
    """The replaced path: r <- r (2 - x r) from the inverse of the values."""
    r = constant_jets(x.ctx, 1.0 / x.coeffs[..., 0], x.nb)
    two = constant_jets(x.ctx, np.full(x.shape, 2.0))
    for _ in range(max(1, math.ceil(math.log2(x.ctx.order + 1)))):
        r = r * (two - x * r)
    return r


@SETTINGS
@given(dims, orders, st.sampled_from(["const", "full"]), batches, seeds)
def test_reciprocal_and_division_are_order_stable(dim, k, deg, batch, seed):
    rng = np.random.default_rng(seed)
    x = jets(rng, dim, k + 1, (3,), deg, batch, 0.5, 2.0)
    y = jets(rng, dim, k + 1, (3,), "full", batch)
    r = assert_order_stable(JetArray.reciprocal, (x,), k)
    assert_order_stable(lambda u, v: u / v, (y, x), k)
    assert_order_stable(lambda u: u ** -2, (x,), k)
    # The series against the Newton steps it replaced and the reference.
    xk = truncate_jets(x, k)
    assert_close(r.coeffs, newton_reciprocal(xk).coeffs)
    flat = xk.coeffs.reshape(-1, xk.ctx.n)
    assert_close(r.coeffs, np.array([jet_reciprocal(xk.ctx, c) for c in flat]).reshape(
        r.coeffs.shape))


@SETTINGS
@given(dims, orders, st.sampled_from(["const", "full"]), batches, seeds)
def test_series_functions_are_order_stable(dim, k, deg, batch, seed):
    rng = np.random.default_rng(seed)
    x = jets(rng, dim, k + 1, (2,), deg, batch, 0.25, 1.5)
    for name in ("sin", "cos", "exp", "sqrt"):
        assert_order_stable(lambda u: getattr(u, name)(), (x,), k)


@SETTINGS
@given(dims, orders, degrees, batches, seeds)
def test_gradient_is_order_stable(dim, k, deg, batch, seed):
    rng = np.random.default_rng(seed)
    x = jets(rng, dim, k + 2, (2, 2), deg, batch)  # its gradient has order k + 1
    high = truncate_jets(jets_gradient(x), k)
    low = truncate_jets(x, k + 1)
    for low in (jets_gradient(low), jets_gradient(fresh(low))):
        assert high.ctx is low.ctx and same_bits(high.coeffs, low.coeffs)


# -- contractions -----------------------------------------------------------------

@st.composite
def contractions(draw):
    """Tensor shapes of a and b and the axes of a tdot that contracts
    nothing (an outer product), one pair of axes (of length up to 8) or two
    (of lengths up to 6 each), so up to 36 contracted entries."""
    count = draw(st.integers(0, 2))
    rank_a, rank_b = draw(st.integers(max(1, count), 3)), draw(st.integers(max(1, count), 3))
    shape_a = draw(st.lists(st.integers(1, 3), min_size=rank_a, max_size=rank_a))
    shape_b = draw(st.lists(st.integers(1, 3), min_size=rank_b, max_size=rank_b))
    ax_a = draw(st.permutations(range(rank_a)))[:count]
    ax_b = draw(st.permutations(range(rank_b)))[:count]
    for i, j in zip(ax_a, ax_b):
        shape_b[j] = shape_a[i] = draw(st.integers(1, 8 if count == 1 else 6))
    return tuple(shape_a), tuple(shape_b), (list(ax_a), list(ax_b))


@settings(max_examples=300, deadline=None)
@given(dims, orders, contractions(), degrees, degrees,
       st.sampled_from([(None, None), (3, 3), (3, None), (None, 3), (1, 1)]), seeds)
# Pinned draws: two 36-entry contractions with a constant operand, which one
# matrix product of the constant's values with all of the other's
# coefficients summed in an order that depended on the jet order; and a
# 24-entry one whose pair operands are strided views at order 1 but not at
# order 0, unless they are copied to C-contiguous arrays.
@example(dim=3, k=1, layout=((6, 6), (6, 6), ([1, 0], [0, 1])), da="const", db="full",
         batch=(None, None), seed=0)
@example(dim=2, k=1, layout=((2, 6, 6), (6, 6), ([1, 2], [0, 1])), da="full", db="const",
         batch=(3, None), seed=0)
@example(dim=3, k=0, layout=((6, 4, 2), (2, 6, 4), ([0, 1], [1, 2])), da="full", db="full",
         batch=(None, None), seed=0)
def test_tdot_is_order_stable(dim, k, layout, da, db, batch, seed):
    """Every degree class of `tdot`'s operands: a zero operand, a constant
    one on either side, or two non-constant ones, vectors (a side with no
    free axis) and contractions over two axes included."""
    rng = np.random.default_rng(seed)
    shape_a, shape_b, axes = layout
    a = jets(rng, dim, k + 1, shape_a, da, batch[0])
    b = jets(rng, dim, k + 1, shape_b, db, batch[1])
    assert_order_stable(lambda x, y: tdot(x, y, axes), (a, b), k)


def scatter_tdot(a, b, axes):
    """The replaced general path: every pair product a[i] @ b[j], scattered
    onto its coefficient with one matrix product by a one-hot table."""
    ctx = a.ctx
    ia, ib, it = ctx._mul_a, ctx._mul_b, ctx._mul_t
    scatter = np.zeros((len(it), ctx.n))
    scatter[np.arange(len(it)), it] = 1.0
    pairs = np.stack([np.tensordot(a.coeffs[..., i], b.coeffs[..., j], axes)
                      for i, j in zip(ia, ib)], axis=-1)
    return pairs @ scatter


def reference_tdot(a, b, axes):
    """Each component of the contraction as its sum of scalar jet products."""
    shape = np.tensordot(a.coeffs[..., 0], b.coeffs[..., 0], axes).shape
    out = np.zeros(shape + (a.ctx.n,))
    for i in np.ndindex(a.shape):
        for j in np.ndindex(b.shape):
            if all(i[x] == j[y] for x, y in zip(*axes)):
                free = (tuple(v for p, v in enumerate(i) if p not in axes[0])
                        + tuple(v for p, v in enumerate(j) if p not in axes[1]))
                out[free] += jet_product(a.ctx, a.coeffs[i], b.coeffs[j])
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), contractions(), seeds)
def test_tdot_full_path_matches_the_scatter_and_the_reference(dim, k, layout, seed):
    rng = np.random.default_rng(seed)
    shape_a, shape_b, axes = layout
    a = jets(rng, dim, k, shape_a)
    b = jets(rng, dim, k, shape_b)
    got = tdot(a, b, axes).coeffs
    assert_close(got, scatter_tdot(a, b, axes))
    assert_close(got, reference_tdot(a, b, axes))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(0, 4), st.integers(1, 3), st.integers(1, 3), degrees,
       degrees, st.sampled_from([(None, None), (3, 3), (3, None), (None, 3)]), seeds)
def test_outer_tdot_is_the_broadcast_product(dim, k, p, q, da, db, batch, seed):
    """`tdot` and `*` sum each coefficient's pairs down one table in one
    order, so an outer product is the broadcast `*`, bit for bit (a zero of
    either sign counting as 0.0), for every degree class and batching."""
    rng = np.random.default_rng(seed)
    ctx = context(dim, k)

    def draw(length, deg, lead):
        d = {"zero": -1, "const": 0, "full": k}[deg]
        coeffs = rng.standard_normal(((lead,) if lead else ()) + (length, ctx.n))
        coeffs[..., ctx.degree > d] = 0.0
        return JetArray(ctx, coeffs, d, 0 if lead is None else 1)

    a, b = draw(p, da, batch[0]), draw(q, db, batch[1])
    got, want = tdot(a, b, ([], [])), a[:, None] * b[None, :]
    assert (got.nb, got.deg) == (want.nb, want.deg)
    assert np.array_equal(got.coeffs, want.coeffs)


# -- the matrix inverse -------------------------------------------------------------

def newton_inverse(M):
    """The replaced path: X <- X (2 - M X) from the inverse of the values."""
    vals = M.values()
    X = constant_jets(M.ctx, np.linalg.inv(vals), M.nb)
    two = constant_jets(M.ctx, 2.0 * np.eye(vals.shape[-1]))
    for _ in range(max(1, math.ceil(math.log2(M.ctx.order + 1)))):
        X = tdot(X, two - tdot(M, X, ([1], [0])), ([1], [0]))
    return X


@SETTINGS
@given(dims, orders, st.integers(1, 5), st.sampled_from(["const", "full"]), batches, seeds)
def test_inverse_is_order_stable(dim, k, size, deg, batch, seed):
    rng = np.random.default_rng(seed)
    M = jets(rng, dim, k + 1, (size, size), deg, batch, -0.3, 0.3)
    eye = np.eye(size) * (2.0 + rng.uniform(0.0, 1.0, size))
    M = M + constant_jets(M.ctx, eye)
    X = assert_order_stable(invert_matrix_jets, (M,), k)
    Mk = truncate_jets(M, k)
    assert_close(X.coeffs, newton_inverse(Mk).coeffs)
    # The reference: M X is the identity, product by product.
    lead = Mk.coeffs.shape[:Mk.nb]
    for p in np.ndindex(lead):
        for i in range(size):
            for j in range(size):
                got = sum(jet_product(Mk.ctx, Mk.coeffs[p + (i, l)], X.coeffs[p + (l, j)])
                          for l in range(size))
                want = np.zeros(Mk.ctx.n)
                want[0] = float(i == j)
                assert_close(got, want)


def test_constant_matrix_takes_no_series_step():
    ctx = context(3, 2)
    M = constant_jets(ctx, [[2.0, 1.0], [1.0, 3.0]])
    X = invert_matrix_jets(M)
    assert X.deg == 0
    assert X.coeffs.tobytes() == constant_jets(ctx, np.linalg.inv(M.values())).coeffs.tobytes()


# -- expressions ------------------------------------------------------------------

def _trees(nvars):
    leaves = st.one_of(st.integers(0, nvars - 1).map(Coord),
                       st.integers(-8, 8).map(lambda n: Const(Fraction(n, 4))),
                       st.sampled_from([Const(0.0), Const(-0.0), Const(-1.5)]))

    def positive(e):
        return Add(Const(Fraction(5, 2)), Mul(Const(Fraction(1, 4)), Sin(e)))

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda t: Add(*t)),
            st.tuples(children, children).map(lambda t: Sub(*t)),
            st.tuples(children, children).map(lambda t: Mul(*t)),
            st.tuples(children, children).map(lambda t: Div(t[0], positive(t[1]))),
            children.map(Neg),
            children.map(Sin),
            children.map(Cos),
            children.map(lambda e: Exp(Mul(Const(Fraction(1, 4)), Sin(e)))),
            children.map(lambda e: Sqrt(positive(e))),
            st.tuples(children, st.integers(-3, 4)).map(
                lambda t: Pow(positive(t[0]) if t[1] < 0 else t[0], t[1])),
        )

    return st.recursive(leaves, extend, max_leaves=8)


_TREES = [_trees(nvars) for nvars in range(1, 7)]


@st.composite
def forests(draw):
    nvars = draw(dims)
    trees = draw(st.lists(_TREES[nvars - 1], min_size=1, max_size=3))
    return nvars, trees


@SETTINGS
@given(forests(), orders, batches, seeds)
def test_expression_tapes_are_order_stable(forest, k, batch, seed):
    nvars, trees = forest
    tape = Tape(trees, (len(trees),), nvars)
    rng = np.random.default_rng(seed)
    coords = rng.uniform(-1.0, 1.0, (nvars,) if batch is None else (batch, nvars))
    high = truncate_jets(eval_expr(tape, coords, k + 1), k)
    assert same_bits(high.coeffs, eval_expr(tape, coords, k).coeffs)


@SETTINGS
@given(dims, st.integers(1, 3), contractions(), degrees, degrees, st.integers(2, 5), seeds)
def test_tdot_batch_is_byte_equal_to_stacked_points(dim, k, layout, da, db, B, seed):
    """A batch gives each point the bits that point gets alone."""
    rng = np.random.default_rng(seed)
    shape_a, shape_b, axes = layout
    a = jets(rng, dim, k, shape_a, da, B)
    b = jets(rng, dim, k, shape_b, db, B)
    got = tdot(a, b, axes)
    each = [tdot(JetArray(a.ctx, a.coeffs[p], a.deg), JetArray(b.ctx, b.coeffs[p], b.deg), axes)
            for p in range(B)]
    assert same_bits(got.coeffs, np.stack([x.coeffs for x in each]))


# -- monomial sums: the re-centring table -------------------------------------------

def _monomials(nvars):
    """Single terms: products of constants, coordinates and `Coord ^ n`, n >= 0."""
    factors = st.one_of(
        st.integers(0, nvars - 1).map(Coord),
        st.tuples(st.integers(0, nvars - 1), st.integers(0, 4)).map(
            lambda t: Pow(Coord(t[0]), t[1])),
        st.integers(-8, 8).map(lambda n: Const(Fraction(n, 4))),
        st.sampled_from([Const(0.0), Const(-0.0), Const(-1.5), Const(0.1)]))
    return st.recursive(factors, lambda m: st.tuples(m, m).map(lambda t: Mul(*t)),
                        max_leaves=4)


def _constant_value(e):
    """The value of a tree that reads no coordinate, from its monomial terms."""
    return float(sum((c for c, _ in monomial_terms(e)), Fraction(0)))


# Sums of constants, such as 4 or 1.5 - 0.5, as divisors; never zero.
_DIVISORS = st.recursive(
    st.one_of(st.integers(1, 8).map(lambda n: Const(Fraction(n))),
              st.sampled_from([Const(-1.5), Const(0.1), Const(Fraction(-3, 4))])),
    lambda c: st.one_of(st.tuples(c, c).map(lambda t: Add(*t)),
                        st.tuples(c, c).map(lambda t: Sub(*t))),
    max_leaves=3).filter(_constant_value)


def _monomial_sums(nvars):
    """Monomial terms joined by `+`, `-` and unary `-`, products of a
    single term with a sum, on either side, and quotients of a sum by a
    nonzero sum of constants."""
    terms = _monomials(nvars)

    def extend(sums):
        return st.one_of(
            st.tuples(sums, sums).map(lambda t: Add(*t)),
            st.tuples(sums, sums).map(lambda t: Sub(*t)),
            sums.map(Neg),
            st.tuples(terms, sums).map(lambda t: Mul(*t)),
            st.tuples(sums, terms).map(lambda t: Mul(*t)),
            st.tuples(sums, _DIVISORS).map(lambda t: Div(*t)))

    return st.recursive(terms, extend, max_leaves=6)


_SUMS = [_monomial_sums(nvars) for nvars in range(1, 7)]


def _reads(e):
    return isinstance(e, Coord) or any(map(_reads, e.children))


@st.composite
def monomial_forests(draw):
    """Monomial sums over 1-6 coordinates, one of which reads a coordinate,
    each followed by Mul(Const(-1), tree), its negation as `random_form`
    builds it."""
    nvars = draw(dims)
    trees = draw(st.lists(_SUMS[nvars - 1], min_size=1, max_size=3).filter(
        lambda ts: any(map(_reads, ts))))
    return nvars, [t for tree in trees for t in (tree, Mul(Const(Fraction(-1)), tree))]


def _reference_jets(e, x, ctx):
    """`e`'s jets at the single point x from the multi-index definition."""
    match e:
        case Const(value=v):
            out = np.zeros(ctx.n)
            out[0] = float(v)
            return out
        case Coord(index=i):
            out = np.zeros(ctx.n)
            out[0] = x[i]
            if ctx.order:
                out[ctx.index[tuple(int(v == i) for v in range(ctx.dim))]] = 1.0
            return out
        case Pow(base=b, exponent=n):
            return jet_power(ctx, _reference_jets(b, x, ctx), n)
        case Neg(arg=a):
            return -_reference_jets(a, x, ctx)
        case Div(left=a, right=b):
            return _reference_jets(a, x, ctx) / _constant_value(b)
    a, b = (_reference_jets(c, x, ctx) for c in e.children)
    return {Add: np.add, Sub: np.subtract}.get(type(e), lambda a, b: jet_product(ctx, a, b))(a, b)


def _magnitude(e):
    """`e` with every constant, coordinate and sign made non-negative: its
    jets at |x| bound the sum of |terms| in each coefficient."""
    match e:
        case Const(value=v):
            return Const(abs(v))
        case Coord() | Pow():
            return e
        case Neg(arg=a):
            return _magnitude(a)
        case Div(left=a, right=b):
            return Mul(_magnitude(a), Const(1.0 / abs(_constant_value(b))))
    return (Mul if type(e) is Mul else Add)(*map(_magnitude, e.children))


@SETTINGS
@given(monomial_forests(), orders, st.integers(2, 4), seeds)
def test_recentring_tables_are_order_stable_and_exact(forest, k, B, seed):
    """A field whose components are monomial sums compiles to a
    `RecentringTable`.  It is order-stable and gives a batch its stacked
    points' bytes; its `deg` is exact; each component built as
    Mul(Const(-1), poly) is the exact negation of poly; and it matches a
    `Tape` of the same trees and the reference jets, to 1e-13 relative to
    the sum of the terms' magnitudes."""
    nvars, trees = forest
    table = compile_components(trees, (len(trees),), nvars)
    assert isinstance(table, RecentringTable)
    tape = Tape(trees, (len(trees),), nvars)
    coords = np.random.default_rng(seed).uniform(-1.0, 1.0, (B, nvars))
    got = eval_expr(table, coords, k)
    high = truncate_jets(eval_expr(table, coords, k + 1), k)
    assert same_bits(high.coeffs, got.coeffs)
    each = np.stack([eval_expr(table, x, k).coeffs for x in coords])
    assert each.tobytes() == got.coeffs.tobytes()
    nonzero = got.coeffs.reshape(-1, got.ctx.n).any(axis=0)
    assert got.deg == max(got.ctx.degree[nonzero], default=-1)
    assert same_bits(got.coeffs[:, 1::2], -got.coeffs[:, ::2])
    want = eval_expr(tape, coords, k).coeffs
    for i, e in enumerate(trees):
        bound = eval_expr(Tape([_magnitude(e)], (), nvars), np.abs(coords), k).coeffs
        tol = 1e-13 * np.maximum(1.0, bound)
        reference = np.stack([_reference_jets(e, x, got.ctx) for x in coords])
        for other in (want[:, i], reference):
            assert np.all(np.abs(got.coeffs[:, i] - other) <= tol)


def test_a_division_by_zero_stays_on_the_tape():
    """A quotient by a sum of constants that is zero is no monomial sum: the
    field stays on the tape, whose division raises DivisionByZero naming
    the first point of the batch."""
    tree = Add(Coord(0), Div(Coord(1), Sub(Const(Fraction(1)), Const(Fraction(1)))))
    assert monomial_terms(tree) is None
    tape = compile_components([tree, Coord(0)], (2,), 2)
    assert isinstance(tape, Tape)
    with pytest.raises(DivisionByZero, match=r"at Point\(\[0\.5, 0\.25\]\)"):
        eval_expr(tape, np.array([[0.5, 0.25], [1.0, 2.0]]), 1)
    assert isinstance(compile_components([Div(Coord(0), Const(Fraction(4))), Coord(1)],
                                         (2,), 2), RecentringTable)


def test_a_long_scalar_sum_is_order_stable():
    """A one-component sum of 40 terms sums its one order-0 target down two
    columns, never one: numpy sums a single column pairwise, which would
    round it differently from its order-1 sum."""
    rng = np.random.default_rng(3)
    tree = Const(0.0)
    for c, n in zip(rng.standard_normal(40) * 10.0 ** rng.integers(-8, 9, 40),
                    rng.integers(0, 5, 40)):
        tree = Add(tree, Mul(Const(float(c)), Pow(Coord(0), int(n))))
    table = compile_components([tree], (), 1)
    assert isinstance(table, RecentringTable)
    coords = rng.uniform(-1.0, 1.0, (50, 1))
    low, high = (eval_expr(table, coords, k) for k in (0, 1))
    assert same_bits(truncate_jets(high, 0).coeffs, low.coeffs)
