import copy
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paraherm.errors import (
    DimensionMismatch, DivisionByZero, DomainError, ExprSyntaxError, NonIntegerExponent,
    UnknownIdentifier,
)
from paraherm.expr import (
    Add, Const, Coord, Cos, Div, Exp, Mul, Neg, Pow, Sin, Sqrt, Sub,
    parse_expr, to_source,
)
from paraherm.geometry import Chart, JetArray, Tape, TensorField, eval_expr
from oracles import central_diff_gradient, central_diff_hessian, derivative


def value(jet):
    return float(jet.values())


def gradient(jet):
    return jet.coeffs[1 : 1 + jet.ctx.dim]


def test_parse_product_plus_const():
    e = parse_expr("x1*x2 + 3", ["x1", "x2"])
    assert e == Add(Mul(Coord(0), Coord(1)), Const(Fraction(3)))


def test_parse_sin_power():
    e = parse_expr("sin(th)^2", ["th", "ph"])
    assert e == Pow(Sin(Coord(0)), 2)


def test_parse_error_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("x1 +* 2", ["x1"])
    assert err.value.offset == 4


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifier) as err:
        parse_expr("x1 + y", ["x1"])
    assert err.value.name == "y"


def test_non_integer_exponent():
    with pytest.raises(NonIntegerExponent):
        parse_expr("x1^1.5", ["x1"])


def test_precedence():
    assert parse_expr("1 + 2*x1", ["x1"]) == Add(
        Const(Fraction(1)), Mul(Const(Fraction(2)), Coord(0))
    )
    assert parse_expr("-x1^2", ["x1"]) == Neg(Pow(Coord(0), 2))
    assert parse_expr("2 - 1 - 1", ["x1"]) == Sub(
        Sub(Const(Fraction(2)), Const(Fraction(1))), Const(Fraction(1))
    )


def test_eval_product_rule():
    e = parse_expr("x1*x2", ["x1", "x2"])
    j = eval_expr(e, [2.0, 3.0], 1)
    assert j.shape == () and j.nb == 0
    assert value(j) == 6.0
    assert list(gradient(j)) == [3.0, 2.0]


def test_eval_sin_squared_hand_values():
    e = parse_expr("sin(th)^2", ["th"])
    j = eval_expr(e, [math.pi / 2], 2)
    # f = sin^2: f(pi/2) = 1, f' = sin(2 th) -> 0, f'' = 2 cos(2 th) -> -2.
    assert value(j) == pytest.approx(1.0, abs=1e-15)
    assert derivative(j, (1,)) == pytest.approx(0.0, abs=1e-12)
    assert derivative(j, (2,)) == pytest.approx(-2.0, abs=1e-12)
    # cross-check by central differences
    f = lambda x: math.sin(x[0]) ** 2
    g = central_diff_gradient(f, [math.pi / 2])
    h = central_diff_hessian(f, [math.pi / 2])
    assert derivative(j, (1,)) == pytest.approx(g[0], abs=1e-8)
    assert derivative(j, (2,)) == pytest.approx(h[0, 0], abs=1e-5)


def test_pole_is_error():
    e = parse_expr("1/x1", ["x1"])
    with pytest.raises(DivisionByZero):
        eval_expr(e, [0.0], 1)


# -- random polynomial generation --------------------------------------------

def _random_poly(rng, nvars, degree):
    node = Const(Fraction(int(rng.integers(-4, 5)), 4))
    for _ in range(4):
        mono = Const(Fraction(int(rng.integers(-8, 9)), 4))
        total = 0
        while total < degree and rng.random() < 0.7:
            v = int(rng.integers(0, nvars))
            p = int(rng.integers(1, degree - total + 1))
            mono = Mul(mono, Coord(v) if p == 1 else Pow(Coord(v), p))
            total += p
        node = Add(node, mono)
    return node


def _eval_float(e, x):
    j = eval_expr(e, x, 0)
    return value(j)


def test_jet_gradient_matches_finite_differences():
    """Order-1 jet coefficients vs central differences at h = 1e-5."""
    rng = np.random.default_rng(10)
    for _ in range(40):
        nvars = int(rng.integers(1, 5))
        e = _random_poly(rng, nvars, degree=4)
        x = rng.uniform(-1, 1, nvars)
        j = eval_expr(e, x, 1)
        fd = central_diff_gradient(lambda y: _eval_float(e, y), x)
        scale = max(1.0, np.max(np.abs(fd)))
        assert np.max(np.abs(gradient(j) - fd)) / scale < 1e-6


def test_jet_hessian_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(20):
        nvars = int(rng.integers(1, 5))
        e = _random_poly(rng, nvars, degree=4)
        x = rng.uniform(-1, 1, nvars)
        j = eval_expr(e, x, 2)
        fd = central_diff_hessian(lambda y: _eval_float(e, y), x)
        scale = max(1.0, np.max(np.abs(fd)))
        for i in range(nvars):
            for k in range(nvars):
                alpha = [0] * nvars
                alpha[i] += 1
                alpha[k] += 1
                assert abs(derivative(j, alpha) - fd[i, k]) / scale < 1e-4


def test_ring_homomorphism_bitwise():
    """Evaluating Mul/Add nodes equals jet arithmetic on the parts, exactly."""
    rng = np.random.default_rng(12)
    for _ in range(20):
        a = _random_poly(rng, 3, 3)
        b = _random_poly(rng, 3, 3)
        x = rng.uniform(-1, 1, 3)
        ja = eval_expr(a, x, 3)
        jb = eval_expr(b, x, 3)
        jm = eval_expr(Mul(a, b), x, 3)
        js = eval_expr(Add(a, b), x, 3)
        assert np.array_equal(jm.coeffs, (ja * jb).coeffs)
        assert np.array_equal(js.coeffs, (ja + jb).coeffs)


# -- printer round-trip --------------------------------------------------------

_names = ["x1", "x2", "x3"]


def _exprs():
    leaves = st.one_of(
        st.integers(0, 2).map(Coord),
        st.integers(0, 40).map(lambda n: Const(Fraction(n, 4))),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda t: Add(*t)),
            st.tuples(children, children).map(lambda t: Sub(*t)),
            st.tuples(children, children).map(lambda t: Mul(*t)),
            st.tuples(children, children).map(lambda t: Div(*t)),
            children.map(Neg),
            children.map(Sin),
            children.map(Cos),
            children.map(Exp),
            children.map(Sqrt),
            st.tuples(children, st.integers(-3, 3)).map(lambda t: Pow(*t)),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(_exprs())
def test_print_parse_roundtrip(e):
    src = to_source(e, _names)
    assert parse_expr(src, _names) == e


# -- the evaluator on a batch of points ----------------------------------------

def _smooth_exprs(nvars, signed_zeros=False):
    """Expressions over `nvars` coordinates (none: constant expressions),
    with every node kind; divisions, negative powers and square roots only
    of expressions kept positive on the sampled box [-1, 1]^nvars.  With
    `signed_zeros`, the float constants 0.0 and -0.0 are leaves too."""
    leaves = st.integers(-8, 8).map(lambda n: Const(Fraction(n, 4)))
    if signed_zeros:
        leaves = st.one_of(leaves, st.sampled_from([Const(0.0), Const(-0.0), Const(-1.5)]))
    if nvars:
        leaves = st.one_of(st.integers(0, nvars - 1).map(Coord), leaves)

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


# Built once: a strategy made inside a draw is validated again at every draw.
_SMOOTH_EXPRS = [_smooth_exprs(nvars) for nvars in range(9)]


@st.composite
def _expr_and_points(draw):
    nvars = draw(st.integers(1, 8))
    e = draw(_SMOOTH_EXPRS[nvars])
    seed = draw(st.integers(0, 2**32 - 1))
    B = draw(st.integers(1, 5))
    return e, np.random.default_rng(seed).uniform(-1.0, 1.0, (B, nvars))


@settings(max_examples=60, deadline=None)
@given(_expr_and_points(), st.integers(0, 4))
def test_batch_is_byte_equal_to_stacked_points(case, k):
    """One pass over a batch gives each point's jets bit for bit, and the
    carried degree never under-reports the coefficients."""
    e, coords = case
    got = eval_expr(e, coords, k)
    each = [eval_expr(e, x, k) for x in coords]
    assert got.nb == 1 and got.shape == ()
    assert got.coeffs.tobytes() == np.stack([j.coeffs for j in each]).tobytes()
    for j in [got] + each:
        assert -1 <= j.deg <= k
        assert not np.any(j.coeffs[..., j.ctx.degree > j.deg])


def test_batch_error_names_its_point():
    e = parse_expr("1/x1 + sqrt(x2)", ["x1", "x2"])
    batch = np.array([[0.5, 1.0], [0.0, 1.0], [-0.5, -1.0]])
    with pytest.raises(DivisionByZero, match=r"at Point\(\[0\.0, 1\.0\]\)"):
        eval_expr(e, batch, 1)
    with pytest.raises(DomainError, match=r"at Point\(\[0\.5, -1\.0\]\)"):
        eval_expr(e, batch[[0, 0, 2]] * [1.0, -1.0], 1)


def test_constant_expression_at_a_batch_has_the_batch_axis():
    got = eval_expr(parse_expr("2 * 3", ["x1"]), np.zeros((4, 1)), 2)
    assert got.nb == 1 and got.coeffs.shape == (4, 3) and got.deg == 0
    assert np.array_equal(got.values(), [6.0] * 4)


# -- the tape of a forest ------------------------------------------------------

_SIGNED_ZERO_EXPRS = [_smooth_exprs(nvars, signed_zeros=True) for nvars in range(7)]


@st.composite
def _forest(draw):
    """Trees over `nvars` coordinates: random ones, constant-only ones, and
    ones made of the others' subtrees, both as the same objects and as
    equal copies."""
    nvars = draw(st.integers(1, 6))
    trees = draw(st.lists(_SIGNED_ZERO_EXPRS[nvars], min_size=1, max_size=5))
    trees += draw(st.lists(_SIGNED_ZERO_EXPRS[0], max_size=2))
    for _ in range(draw(st.integers(0, 3))):
        a, b = (trees[draw(st.integers(0, len(trees) - 1))] for _ in range(2))
        op = draw(st.sampled_from([Add, Sub, Mul]))
        trees.append(op(a, copy.deepcopy(b)) if draw(st.booleans()) else Neg(a))
    return nvars, trees


def _node_by_node(e, coords, ctx):
    """The reference for the tape: `e` evaluated node by node with the
    JetArray kernels, every node at the degree its own operands give it."""
    match e:
        case Const(value=v):
            coeffs = np.zeros(ctx.n)
            coeffs[0] = v
            return JetArray(ctx, coeffs, 0 if v else -1)
        case Coord(index=i):
            coeffs = np.zeros(coords.shape[:-1] + (ctx.n,))
            coeffs[..., 0] = coords[..., i]
            if ctx.order:
                coeffs[..., 1 + i] = 1.0
            return JetArray(ctx, coeffs, min(1, ctx.order), coords.ndim - 1)
        case Pow(base=b, exponent=n):
            return _node_by_node(b, coords, ctx) ** n
    args = [_node_by_node(c, coords, ctx) for c in e.children]
    kernel = {Neg: lambda a: -a, Add: lambda a, b: a + b, Sub: lambda a, b: a - b,
              Mul: lambda a, b: a * b, Div: lambda a, b: a / b, Sin: JetArray.sin,
              Cos: JetArray.cos, Exp: JetArray.exp, Sqrt: JetArray.sqrt}[type(e)]
    return kernel(*args)


@settings(max_examples=150, deadline=None)
@given(_forest(), st.integers(0, 4), st.sampled_from([(), (1,), (4,)]),
       st.integers(0, 2**32 - 1))
def test_forest_tape_is_byte_equal_to_each_tree_alone(forest, k, batch, seed):
    """One tape over the forest gives every tree the bits it gets evaluated
    alone, by its own tape and node by node, at a point and at a batch, and
    a degree that never under-reports."""
    nvars, trees = forest
    coords = np.random.default_rng(seed).uniform(-1.0, 1.0, batch + (nvars,))
    got = eval_expr(Tape(trees, (len(trees),)), coords, k)
    assert got.nb == len(batch) and got.shape == (len(trees),)
    assert got.coeffs.flags["C_CONTIGUOUS"]
    assert not np.any(got.coeffs[..., got.ctx.degree > got.deg])
    for i, e in enumerate(trees):
        alone = eval_expr(e, coords, k).coeffs
        reference = _node_by_node(e, coords, got.ctx).coeffs
        want = np.broadcast_to(reference, coords.shape[:-1] + reference.shape[-1:])
        assert got.coeffs[..., i, :].tobytes() == alone.tobytes() == want.tobytes()


def test_signed_zero_constants_keep_their_bits():
    """Const(0.0) and Const(-0.0) are equal dataclasses but different bits,
    so the tape gives them separate slots."""
    chart = Chart(["x", "xt"], split=1)
    K = TensorField(chart, 0, 2, np.array([[1.0, -0.0], [0.0, -1.0]]).astype(object))
    assert K.tape.n_const == 4
    got = K.at(chart.point([0.3, 0.4]), 2).coeffs
    assert np.array_equal(np.signbit(got[..., 0]), [[False, True], [False, True]])


@pytest.mark.parametrize("batch", [(), (3,)])
def test_tape_output_is_c_contiguous(batch):
    chart = Chart(["x", "xt"], split=1)
    coords = np.random.default_rng(5).uniform(-1.0, 1.0, batch + (2,))
    for comps in (["x*xt", "sin(x) + xt^2"], [2, "3/4"]):
        X = TensorField(chart, 1, 0, comps)
        for k in (0, 3):
            assert X.at(chart.point(coords), k).coeffs.flags["C_CONTIGUOUS"]


def test_a_field_is_compiled_once(monkeypatch):
    """Construction compiles the tape; evaluations at any number of points
    and orders reuse it."""
    compiled = []
    init = Tape.__init__

    def counting(self, *args, **kwargs):
        compiled.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tape, "__init__", counting)
    chart = Chart(["x", "y", "xt", "yt"], split=2)
    X = TensorField(chart, 1, 0, ["x*y", "sin(xt) / (2 + yt^2)", "1/3", "x - x"])
    assert compiled == [X.tape]
    rng = np.random.default_rng(6)
    for k in (0, 3, 1, 2, 3):
        for coords in (rng.uniform(-1, 1, 4), rng.uniform(-1, 1, (5, 4))):
            X.at(chart.point(coords), k)
    assert compiled == [X.tape]


def test_field_error_names_the_first_failing_point():
    """The components run together, so the error comes from the first point
    where any of them fails, whatever the component order."""
    chart = Chart(["x", "xt"], split=1)
    X = TensorField(chart, 1, 0, ["sqrt(x)", "1/xt"])
    with pytest.raises(DivisionByZero, match=r"at Point\(\[1\.0, 0\.0\]\)"):
        X.at(chart.point([[1.0, 1.0], [1.0, 0.0], [-1.0, 1.0]]), 1)


def test_compiling_checks_the_coordinates():
    chart = Chart(["x", "xt"], split=1)
    with pytest.raises(DimensionMismatch, match="coordinate 2 out of range for dim 2"):
        TensorField(chart, 0, 0, Add(Coord(0), Coord(2)))
    with pytest.raises(DimensionMismatch, match="coordinate 2 out of range for dim 2"):
        eval_expr(Coord(2), [0.1, 0.2], 1)
