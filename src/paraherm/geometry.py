"""Charts, points, tensor fields and the core differential operators.

Everything is chart-local and pointwise: a field is anything that can produce
jets of its components at a point, to a requested truncation order.  Operators
(Lie bracket, exterior derivative, Lie derivative, musical maps) are field
combinators: they return derived fields whose evaluation pulls jets of one
order higher from their inputs, so operators nest without any symbolic step.

Every tensor of jets is a `JetArray`: one jet context and a float array of
shape (*tensor_shape, ncoef), the graded coefficient layout of `jets` on the
last axis.  `Field.at` returns one; the rank (r, s) lives on the field, not on
the array.  Each JetArray also carries `deg`, an upper bound on the degree of
its highest nonzero coefficient block: -1 for all-zero, 0 for constant, at
most the order.  Only this module sets it, and every rule here may
over-report it but never under-reports it.  Contractions (`tdot`) are
einsum-style products over the tensor axes with three paths: a zero operand
gives zeros, a constant operand is one matrix product of its values with the
other operand's coefficients, and two non-constant operands run a
gather-multiply-scatter of the truncated Cauchy product over the coefficient
axis.  Partials, truncation and values are index operations on that axis.
Outside `jets`, only code here reads jet coefficients, and the other modules
go through the helpers next to `tdot` and `jets_gradient`.
Scalars stay `Jet`s: indexing a JetArray down to one component, or
contracting it fully, gives a `Jet`, and `as_jets` turns a `Jet` or an array
of `Jet`s (the scalar routes' output) into a JetArray.

Each field remembers its last point: `TensorField.at` and `DerivedField.at`
keep the jets of the most recent point at the highest order asked there, and
serve a request there at that order or lower as a prefix slice, so the nested
operators, which ask their inputs at one point for orders k, k+1 and k+2,
evaluate each input once.  This needs a field's jets at a point to depend
only on (point, order), as every procedure here and above does.  The jets
`at` returns are read-only, since callers share them.

Conventions (fixed once, used everywhere):
  - exterior derivative of a k-form: (dT)_{I0..Ik} = sum_j (-1)^j d_{Ij} T_{..omit j..},
    no 1/k! normalization; equivalently the cyclic Cartan formula for 2-forms;
  - wedge product: shuffle sum with unit coefficients, matching d above;
  - all identity checks are pointwise at sampled points, never symbolic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, wraps
from itertools import combinations, permutations

import numpy as np

from . import expr as ex
from .errors import (
    DimensionMismatch,
    InsufficientJetOrder,
    NotAntisymmetric,
    RankMismatch,
    SingularMetric,
)
from .jets import Jet, context

__all__ = [
    "Chart", "Point", "ScalarField", "TensorField", "DerivedField", "JetArray",
    "lie_bracket", "exterior_derivative", "lie_derivative",
    "interior_product", "wedge", "musical",
    "invert_matrix_jets", "metric_inverse_at", "d_scalar",
]


class Chart:
    """A coordinate patch: dimension, ordered coordinate names, optional split.

    `split = n` tags the first n coordinates as the "+" block and the rest as
    the "-" block of an adapted coordinate system.  `jet_order` is the budget
    K for the whole run; any evaluation requesting more raises.
    """

    def __init__(self, coord_names, split=None, jet_order=3):
        names = list(coord_names)
        if len(set(names)) != len(names):
            raise DimensionMismatch("coordinate names must be distinct")
        self.coord_names = names
        self.dim = len(names)
        if self.dim < 2 or self.dim % 2:
            raise DimensionMismatch(f"chart dimension must be even and >= 2, got {self.dim}")
        if split is not None and 2 * split != self.dim:
            raise DimensionMismatch(f"split {split} does not halve dim {self.dim}")
        self.split = split
        self.jet_order = jet_order

    def context(self, order):
        if order > self.jet_order:
            raise InsufficientJetOrder(
                f"requested jet order {order} exceeds the chart budget {self.jet_order}"
            )
        return context(self.dim, order)

    def point(self, coords):
        return Point(self, coords)

    def parse(self, source):
        return ex.parse_expr(source, self.coord_names)

    def __repr__(self):
        return f"Chart({self.coord_names}, split={self.split})"


class Point:
    __slots__ = ("chart", "coords", "key")

    def __init__(self, chart, coords):
        arr = np.asarray(coords, dtype=float)
        if arr.shape != (chart.dim,):
            raise DimensionMismatch(f"point has shape {arr.shape}, chart dim {chart.dim}")
        if not np.all(np.isfinite(arr)):
            raise DimensionMismatch("point coordinates must be finite")
        self.chart = chart
        self.coords = arr
        self.key = arr.tobytes()

    def __repr__(self):
        return f"Point({self.coords.tolist()})"


# --------------------------------------------------------------------------
# Scalar sources
# --------------------------------------------------------------------------

class ScalarField:
    """A chart scalar evaluable to jets; wraps an Expr or a jet procedure."""

    def __init__(self, chart, source):
        self.chart = chart
        if isinstance(source, (int, np.integer)):
            source = ex.Const(Fraction(int(source)))
        elif isinstance(source, (float, np.floating)):
            source = ex.Const(float(source))
        if isinstance(source, str):
            source = chart.parse(source)
        self.source = source
        if not callable(source):
            _check_bound(source, chart.dim)

    def jet(self, point, order) -> Jet:
        ctx = self.chart.context(order)
        if callable(self.source):
            return self.source(point, ctx)
        return ex._eval(self.source, point.coords, ctx)

    def value(self, point) -> float:
        return self.jet(point, 0).value


def _check_bound(node, dim):
    if isinstance(node, ex.Coord) and node.index >= dim:
        raise DimensionMismatch(f"expression coordinate {node.index} out of range for dim {dim}")
    for child in node.children:
        _check_bound(child, dim)


def _as_scalar(chart, obj):
    if isinstance(obj, ScalarField):
        if obj.chart is not chart:
            raise DimensionMismatch("scalar bound to a different chart")
        return obj
    return ScalarField(chart, obj)


# --------------------------------------------------------------------------
# Tensors of jets
# --------------------------------------------------------------------------

class JetArray:
    """A tensor of jets of one context: `coeffs` has shape (*shape, ctx.n).

    `deg` is an upper bound on the degree of the highest nonzero coefficient
    block: -1 for all-zero, 0 for constant, at most `ctx.order` (the default).
    Every operation here carries it by a rule that may over-report but never
    under-reports, so `tdot` can send zero and constant operands past the
    Cauchy product.  It is set only in this module.

    Indexing selects over the tensor axes, and an index that leaves none
    gives a scalar `Jet`.  `+` and `-` need operands of one tensor shape.
    Operands of different orders are truncated to the lower one.  Results
    may be views of their operands (an index, a truncation, a transpose), so
    `coeffs` is never written in place; `Field.at` enforces this by
    returning read-only coefficients.
    """

    __slots__ = ("ctx", "coeffs", "deg")
    # Let numpy scalars and arrays defer to the reflected operators below.
    __array_ufunc__ = None

    def __init__(self, ctx, coeffs, deg=None):
        self.ctx = ctx
        self.coeffs = coeffs
        self.deg = ctx.order if deg is None else deg

    @property
    def shape(self):
        return self.coeffs.shape[:-1]

    @property
    def ndim(self):
        return self.coeffs.ndim - 1

    def __getitem__(self, idx):
        key = idx if isinstance(idx, tuple) else (idx,)
        out = self.coeffs[key + (slice(None),)]
        if out.ndim == 1:
            return Jet(self.ctx, out.copy())
        return JetArray(self.ctx, out, self.deg)

    def values(self) -> np.ndarray:
        """Float array of the values (constant terms)."""
        return self.coeffs[..., 0].copy()

    def max_abs(self) -> float:
        """Largest |value| over the components (0 if there are none)."""
        vals = self.coeffs[..., 0]
        return float(np.max(np.abs(vals))) if vals.size else 0.0

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def _combine(self, other, op):
        if not isinstance(other, JetArray):
            return NotImplemented
        if other.shape != self.shape:
            raise RankMismatch(f"tensor shapes differ: {self.shape} vs {other.shape}")
        a, b = _common(self, other)
        return JetArray(a.ctx, op(a.coeffs, b.coeffs), max(a.deg, b.deg))

    def __neg__(self):
        return JetArray(self.ctx, -self.coeffs, self.deg)

    def __mul__(self, c):
        """Product with a float, or componentwise with one scalar jet."""
        if isinstance(c, Jet):
            a, b = _common(self, as_jets(c))
            ia, ib, scatter = _product_tables(a.ctx)
            return JetArray(a.ctx, (a.coeffs[..., ia] * b.coeffs[ib]) @ scatter,
                            _product_deg(a, b))
        return JetArray(self.ctx, self.coeffs * float(c), self.deg)

    __rmul__ = __mul__

    def transpose(self, axes=None):
        axes = tuple(reversed(range(self.ndim))) if axes is None else tuple(axes)
        return JetArray(self.ctx, self.coeffs.transpose(axes + (self.ndim,)), self.deg)

    def moveaxis(self, source, destination):
        order = [i for i in range(self.ndim) if i != source % self.ndim]
        order.insert(destination % self.ndim, source % self.ndim)
        return self.transpose(order)

    def __repr__(self):
        return f"JetArray(shape={self.shape}, deg={self.deg}, {self.ctx})"


def as_jets(obj) -> JetArray:
    """The output of a scalar-`Jet` route as a JetArray: a Jet becomes a 0-d
    one, and an array (or nested sequence) of jets is converted at the
    lowest order among them."""
    if isinstance(obj, Jet):
        return JetArray(obj.ctx, obj.coeffs)
    arr = np.asarray(obj, dtype=object)
    if not arr.size or not all(isinstance(x, Jet) for x in arr.flat):
        raise TypeError("as_jets needs a Jet or a non-empty array of Jets")
    ctx = min((x.ctx for x in arr.flat), key=lambda c: c.order)
    coeffs = np.empty(arr.shape + (ctx.n,))
    for idx, x in np.ndenumerate(arr):
        if x.ctx.dim != ctx.dim:
            raise DimensionMismatch(f"jet dims differ: {x.ctx.dim} vs {ctx.dim}")
        coeffs[idx] = x.coeffs[: ctx.n]
    return JetArray(ctx, coeffs)


def _common(a: JetArray, b: JetArray):
    """The two operands at the lower of their orders."""
    if a.ctx.dim != b.ctx.dim:
        raise DimensionMismatch(f"jet dims differ: {a.ctx.dim} vs {b.ctx.dim}")
    if a.ctx.order == b.ctx.order:
        return a, b
    k = min(a.ctx.order, b.ctx.order)
    return truncate_jets(a, k), truncate_jets(b, k)


def _product_deg(a: JetArray, b: JetArray) -> int:
    """Degree bound of a product of two operands of one context."""
    if a.deg < 0 or b.deg < 0:
        return -1
    return min(a.deg + b.deg, a.ctx.order)


@lru_cache(maxsize=None)
def _product_tables(ctx):
    """(ia, ib, scatter) for the truncated Cauchy product of `ctx`: pair p
    multiplies coefficients ia[p] and ib[p], and scatter[p] is the one-hot
    row of the coefficient it adds to."""
    scatter = np.zeros((len(ctx._mul_t), ctx.n))
    scatter[np.arange(len(ctx._mul_t)), ctx._mul_t] = 1.0
    return ctx._mul_a, ctx._mul_b, scatter


def _same_rank(a, b):
    if a.rank != b.rank:
        raise RankMismatch(f"rank mismatch: {a.rank} vs {b.rank}")


def jets_gradient(comps: JetArray) -> JetArray:
    """Stack of partials: result[v, ...] = d_v comps[...], one order lower."""
    if comps.ctx.order < 1:
        raise InsufficientJetOrder("cannot differentiate an order-0 jet")
    lower, src, fac = comps.ctx._deriv_tables()
    out = comps.coeffs[..., src] * fac  # (*shape, dim, lower.n)
    k = out.ndim - 2
    return JetArray(lower, out.transpose([k, *range(k), k + 1]), max(comps.deg - 1, -1))


@lru_cache(maxsize=None)
def _tdot_plan(shape_a, shape_b, axes):
    """The shapes and transposes of `tdot` for one (shape_a, shape_b, axes).

    Returns (shape, m, c, q, full, a_const, b_const): the result's tensor
    shape; the sizes of a's free axes, the contracted axes and b's free axes;
    and one pair of axis orders, coefficient axis included, per path.  `full`
    moves the coefficients first; `a_const` orders a's values and b's
    coefficients, `b_const` a's coefficients and b's values.
    """
    na, nb = len(shape_a), len(shape_b)
    ax_a = tuple(x % na for x in axes[0])
    ax_b = tuple(x % nb for x in axes[1])
    free_a = tuple(i for i in range(na) if i not in ax_a)
    free_b = tuple(i for i in range(nb) if i not in ax_b)
    return (
        tuple(shape_a[i] for i in free_a) + tuple(shape_b[i] for i in free_b),
        math.prod(shape_a[i] for i in free_a),
        math.prod(shape_a[i] for i in ax_a),
        math.prod(shape_b[i] for i in free_b),
        ((na, *free_a, *ax_a), (nb, *ax_b, *free_b)),
        (free_a + ax_a, (*ax_b, *free_b, nb)),
        ((*free_a, na, *ax_a), ax_b + free_b),
    )


def tdot(a, b, axes) -> JetArray:
    """np.tensordot for tensors of jets; a full contraction gives a 0-d array.

    The operands' degrees pick one of three paths.  A zero operand gives
    zeros.  A constant operand is one matrix product of its values with the
    other operand's coefficient array.  Otherwise, with the coefficient axis
    moved first, each pair (i, j) of the truncated Cauchy product is one
    matrix product a[i] @ b[j] over the tensor axes, all pairs in one batched
    call, and the pairs are then scattered onto the coefficients they add to.
    """
    a, b = _common(a, b)
    shape, m, c, q, full, a_const, b_const = _tdot_plan(
        a.shape, b.shape, (tuple(axes[0]), tuple(axes[1])))
    ctx = a.ctx
    n = ctx.n
    if a.deg < 0 or b.deg < 0:
        return JetArray(ctx, np.zeros(shape + (n,)), -1)
    ca, cb = a.coeffs, b.coeffs
    if a.deg == 0:
        A = ca[..., 0].transpose(a_const[0]).reshape(m, c)
        out = A @ cb.transpose(a_const[1]).reshape(c, q * n)
        return JetArray(ctx, out.reshape(shape + (n,)), b.deg)
    if b.deg == 0:
        A = ca.transpose(b_const[0]).reshape(m * n, c)
        out = (A @ cb[..., 0].transpose(b_const[1]).reshape(c, q)).reshape(m, n, q)
        return JetArray(ctx, out.transpose(0, 2, 1).reshape(shape + (n,)), a.deg)
    A = ca.transpose(full[0]).reshape(n, m, c)
    B = cb.transpose(full[1]).reshape(n, c, q)
    ia, ib, scatter = _product_tables(ctx)
    pairs = A[ia] @ B[ib]
    out = pairs.reshape(len(ia), -1).T @ scatter
    return JetArray(ctx, out.reshape(shape + (n,)), _product_deg(a, b))


def contract_value(t, *vectors) -> float:
    """Value of t with each vector contracted, in turn, into its first axis."""
    for v in vectors:
        t = tdot(t, v, ([0], [0]))
    return float(t.coeffs[0])


def coeff_max(comps: JetArray) -> float:
    """Largest |coefficient| over a tensor of jets (0 if empty)."""
    coeffs = comps.coeffs
    return float(np.max(np.abs(coeffs))) if coeffs.size else 0.0


def truncate_jets(comps: JetArray, order) -> JetArray:
    """The tensor truncated to `order`, or kept as is if its order is lower."""
    if order >= comps.ctx.order:
        return comps
    lower = context(comps.ctx.dim, order)
    return JetArray(lower, comps.coeffs[..., : lower.n], min(comps.deg, order))


def constant_jets(ctx, values) -> JetArray:
    """A float array as a tensor of constant jets of `ctx`."""
    values = np.asarray(values, dtype=float)
    coeffs = np.zeros(values.shape + (ctx.n,))
    coeffs[..., 0] = values
    return JetArray(ctx, coeffs, 0 if values.any() else -1)


def concat_jets(parts) -> JetArray:
    """Tensors joined along their first axis, at the lowest of their orders."""
    k = min(x.ctx.order for x in parts)
    parts = [truncate_jets(x, k) for x in parts]
    return JetArray(parts[0].ctx, np.concatenate([x.coeffs for x in parts]),
                    max(x.deg for x in parts))


def embed_block(chart, block):
    """The n x n `block` of chart scalars in the top-left of a dim x dim
    component array, zero elsewhere; n is the chart's split."""
    n = chart.split
    block = np.asarray(block, dtype=object)
    if block.shape != (n, n):
        raise RankMismatch(f"block must be {n} x {n}, got shape {block.shape}")
    comps = np.zeros((chart.dim, chart.dim), dtype=object)
    comps[:n, :n] = block
    return comps


# --------------------------------------------------------------------------
# Fields
# --------------------------------------------------------------------------

class Field:
    """Base: anything producing component jets at a point."""

    def __init__(self, chart, r, s, sym=None):
        self.chart = chart
        self.r = r
        self.s = s
        self.sym = sym
        self._memo = None  # (point.key, JetArray), see _memo_at

    @property
    def rank(self):
        return (self.r, self.s)

    def at(self, point, order=0) -> JetArray:
        """Jets of the components at `point`, shape (dim,)*(r+s).

        The subclasses memoise this with `_memo_at`: the jets of the most
        recent point are kept at the highest order asked there, and a request
        there at that order or lower is their prefix slice.  So a field's
        jets at a point must depend only on (point, order), and the caller
        gets a read-only array it may share with other callers.
        """
        raise NotImplementedError

    def values(self, point) -> np.ndarray:
        return self.at(point, 0).values()

    def __add__(self, other):
        _same_rank(self, other)
        sym = self.sym if self.sym == other.sym else None
        return DerivedField(
            self.chart, self.r, self.s,
            lambda p, k: self.at(p, k) + other.at(p, k), sym=sym,
        )

    def __sub__(self, other):
        _same_rank(self, other)
        sym = self.sym if self.sym == other.sym else None
        return DerivedField(
            self.chart, self.r, self.s,
            lambda p, k: self.at(p, k) - other.at(p, k), sym=sym,
        )

    def __mul__(self, c):
        if isinstance(c, (int, float)):
            return DerivedField(
                self.chart, self.r, self.s,
                lambda p, k: self.at(p, k) * float(c), sym=self.sym,
            )
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)


def _memo_at(at):
    """Give `Field.at` a one-entry memo: the field's most recent point and
    its jets at the highest order asked there.

    A request at that point for the same order or lower is served as a
    prefix slice (`truncate_jets`); a new point or a higher order evaluates
    the field and replaces the entry, unless the evaluation raises.  The
    chart's jet-order budget is checked first, so a memo never serves a
    request past it.  The coefficients are made read-only, because every
    caller of the point shares them.
    """

    @wraps(at)
    def memo_at(self, point, order=0):
        self.chart.context(order)  # raises InsufficientJetOrder past the budget
        memo = self._memo
        if memo is not None and memo[0] == point.key and order <= memo[1].ctx.order:
            return truncate_jets(memo[1], order)
        jets = at(self, point, order)
        jets.coeffs.flags.writeable = False
        self._memo = (point.key, jets)
        return jets

    return memo_at


class TensorField(Field):
    """An (r,s) tensor with components given as chart scalars (usually Expr).

    The component array is dense, shape (dim,)**(r+s), upper indices first.
    A symmetry tag is an assertion checked numerically by validation suites,
    not a storage scheme.
    """

    def __init__(self, chart, r, s, comps, sym=None):
        super().__init__(chart, r, s, sym=sym)
        arr = np.empty((chart.dim,) * (r + s), dtype=object)
        comps = np.asarray(comps, dtype=object)
        if comps.shape != arr.shape:
            raise RankMismatch(
                f"component array has shape {comps.shape}, expected {arr.shape}"
            )
        for idx in np.ndindex(arr.shape):
            arr[idx] = _as_scalar(chart, comps[idx])
        self.comps = arr

    @_memo_at
    def at(self, point, order=0) -> JetArray:
        ctx = self.chart.context(order)
        coeffs = np.empty(self.comps.shape + (ctx.n,))
        for idx, comp in np.ndenumerate(self.comps):
            coeffs[idx] = comp.jet(point, order).coeffs
        nonzero = ctx.degree[coeffs.reshape(-1, ctx.n).any(axis=0)]
        return JetArray(ctx, coeffs, int(nonzero.max()) if nonzero.size else -1)


class DerivedField(Field):
    """A field backed by a procedure (point, order) -> JetArray."""

    def __init__(self, chart, r, s, fn, sym=None):
        super().__init__(chart, r, s, sym=sym)
        self.fn = fn

    @_memo_at
    def at(self, point, order=0) -> JetArray:
        return self.fn(point, order)


def constant_field(chart, array, r, s, sym=None):
    arr = np.asarray(array, dtype=float)
    return TensorField(chart, r, s, arr.astype(object), sym=sym)


def coordinate_vector_field(chart, i):
    comps = np.zeros(chart.dim)
    comps[i] = 1.0
    return constant_field(chart, comps, 1, 0)


def scalar_field(chart, source):
    return _as_scalar(chart, source)


# --------------------------------------------------------------------------
# Operators
# --------------------------------------------------------------------------

def _want_vector(X):
    if X.rank != (1, 0):
        raise RankMismatch(f"expected a vector field, got rank {X.rank}")


def _want_form(T, k=None):
    if T.r != 0 or (k is not None and T.s != k):
        raise RankMismatch(f"expected a (0,{k if k is not None else 'k'}) field, got {T.rank}")


def lie_bracket(X: Field, Y: Field) -> Field:
    """[X,Y]^J = X^I d_I Y^J - Y^I d_I X^J, as a derived vector field."""
    _want_vector(X)
    _want_vector(Y)

    def fn(p, k):
        xj = X.at(p, k + 1)
        yj = Y.at(p, k + 1)
        dx = jets_gradient(xj)   # dx[I, J] = d_I X^J
        dy = jets_gradient(yj)
        return tdot(xj, dy, ([0], [0])) - tdot(yj, dx, ([0], [0]))

    return DerivedField(X.chart, 1, 0, fn)


def exterior_derivative(T: Field) -> Field:
    """Coordinate exterior derivative of an antisymmetric (0,k) field."""
    _want_form(T)
    if T.s >= 1 and T.sym != "antisymmetric":
        raise NotAntisymmetric("exterior derivative needs the antisymmetry tag")

    def fn(p, k):
        tj = T.at(p, k + 1)
        grad = jets_gradient(tj)  # grad[v, i1..ik] = d_v T_{i1..ik}
        out = grad
        for j in range(1, T.s + 1):
            term = grad.moveaxis(0, j)
            out = out - term if j % 2 else out + term
        return out

    return DerivedField(T.chart, 0, T.s + 1, fn, sym="antisymmetric")


def d_scalar(f: ScalarField) -> Field:
    """Differential of a scalar, as a (0,1) field."""

    def fn(p, k):
        return jets_gradient(as_jets(f.jet(p, k + 1)))

    return DerivedField(f.chart, 0, 1, fn, sym="antisymmetric")


def interior_product(X: Field, T: Field) -> Field:
    """iota_X T: contract X into the first covariant slot."""
    _want_vector(X)
    _want_form(T)
    if T.s < 1:
        raise RankMismatch("interior product needs at least one covariant slot")

    def fn(p, k):
        return tdot(X.at(p, k), T.at(p, k), ([0], [0]))

    sym = "antisymmetric" if T.s > 2 else None
    return DerivedField(X.chart, 0, T.s - 1, fn, sym=sym)


def scalar_pairing(T: Field, fields) -> ScalarField:
    """Full contraction of a (0,k) field with k vector fields, as a scalar."""

    def fn(p, ctx):
        comps = T.at(p, ctx.order)
        for X in fields:
            comps = tdot(X.at(p, ctx.order), comps, ([0], [0]))
        return comps[()]

    return ScalarField(T.chart, fn)


def lie_derivative(X: Field, T: Field) -> Field:
    """Cartan magic formula L_X = iota_X d + d iota_X on (0,k) forms, k >= 1."""
    _want_vector(X)
    _want_form(T)
    if T.s < 1:
        raise RankMismatch("lie_derivative is defined here for (0,k) forms with k >= 1")
    if T.sym != "antisymmetric" and T.s > 1:
        raise NotAntisymmetric("Cartan formula needs an antisymmetric form")
    inner = interior_product(X, T)
    if T.s == 1:
        first = d_scalar(ScalarField(T.chart, lambda p, ctx: inner.at(p, ctx.order)[()]))
    else:
        inner.sym = "antisymmetric"
        first = exterior_derivative(inner)
    tagged = T if T.sym == "antisymmetric" else DerivedField(
        T.chart, 0, T.s, lambda p, k: T.at(p, k), sym="antisymmetric"
    )
    second = interior_product(X, exterior_derivative(tagged))
    return first + second


def lie_derivative_scalar(X: Field, f: ScalarField) -> ScalarField:
    _want_vector(X)

    def fn(p, ctx):
        xj = X.at(p, ctx.order)
        return tdot(xj, jets_gradient(as_jets(f.jet(p, ctx.order + 1))), ([0], [0]))[()]

    return ScalarField(X.chart, fn)


def wedge(a: Field, b: Field) -> Field:
    """Shuffle-sum wedge with unit coefficients (consistent with d above)."""
    _want_form(a)
    _want_form(b)
    ka, kb = a.s, b.s

    def fn(p, k):
        # outer[i_1..i_ka, j_1..j_kb] = a_{i..} b_{j..}; each shuffle places
        # the a-slots at `left` and the b-slots at the rest.
        outer = tdot(a.at(p, k), b.at(p, k), ([], []))
        out = None
        for left in combinations(range(ka + kb), ka):
            perm = list(left) + [t for t in range(ka + kb) if t not in left]
            term = outer.transpose(np.argsort(perm)) * float(_perm_sign(perm))
            out = term if out is None else out + term
        return out

    return DerivedField(a.chart, 0, ka + kb, fn, sym="antisymmetric")


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, cycle = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            cycle += 1
        if cycle % 2 == 0:
            sign = -sign
    return sign


def antisymmetry_residual(T: Field, points, order=0) -> float:
    """Max violation of the full sign rule at the given points."""
    worst = 0.0
    k = T.r + T.s
    for p in points:
        vals = T.at(p, order).values()
        for perm in permutations(range(k)):
            sgn = _perm_sign(list(perm))
            worst = max(worst, float(np.max(np.abs(np.transpose(vals, perm) - sgn * vals))))
    return worst


# --------------------------------------------------------------------------
# Metric machinery
# --------------------------------------------------------------------------

# Largest condition number of the value matrix that `invert_matrix_jets`
# accepts.  The test is relative, so it does not depend on the overall scale.
MAX_CONDITION = 1e12


def invert_matrix_jets(M: JetArray) -> JetArray:
    """Inverse of a square matrix of jets.

    Raises SingularMetric when the condition number of the value matrix
    exceeds MAX_CONDITION.  Starting from the inverse of the values, each
    Newton step X <- X (2 - M X) doubles the number of correct orders.
    """
    vals = M.values()
    cond = float(np.linalg.cond(vals))
    if not cond <= MAX_CONDITION:
        raise SingularMetric(f"condition number {cond:.3e} exceeds {MAX_CONDITION:.0e}")
    X = constant_jets(M.ctx, np.linalg.inv(vals))
    two = constant_jets(M.ctx, 2.0 * np.eye(len(vals)))
    for _ in range(max(1, math.ceil(math.log2(M.ctx.order + 1)))):
        X = tdot(X, two - tdot(M, X, ([1], [0])), ([1], [0]))
    return X


def metric_inverse_at(eta: Field, point, order) -> tuple[JetArray, JetArray]:
    """(eta, eta^{-1}) jets at a point; raises SingularMetric as
    `invert_matrix_jets` does."""
    ej = eta.at(point, order)
    return ej, invert_matrix_jets(ej)


def musical(eta: Field, T: Field, slots, point, order=0) -> JetArray:
    """Raise or lower the given axes of T with eta at a point.

    Axes in T's contravariant range (below T.r) are lowered with eta and
    covariant axes are raised with eta^{-1}; axis positions are preserved.
    """
    ej, inv = metric_inverse_at(eta, point, order)
    out = T.at(point, order)
    for axis in sorted(slots):
        g = ej if axis < T.r else inv
        out = tdot(g, out, ([1], [axis])).moveaxis(0, axis)
    return out


def apply_endomorphism(E: Field, X: Field) -> Field:
    """E^I_J X^J as a derived vector field."""
    _want_vector(X)

    def fn(p, k):
        return tdot(E.at(p, k), X.at(p, k), ([1], [0]))

    return DerivedField(X.chart, 1, 0, fn)
