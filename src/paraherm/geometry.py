"""Charts, points, tensor fields and the core differential operators.

Everything is chart-local and pointwise: a field is anything that can produce
jets of its components at a point, to a requested truncation order.  Operators
(Lie bracket, exterior derivative, Lie derivative, musical maps) are field
combinators: they return derived fields whose evaluation pulls jets of one
order higher from their inputs, so operators nest without any symbolic step.

This module is the sole owner of the tensor-of-jets layout (a numpy object
array with one `Jet` per component): outside `jets`, only code here walks the
components or reads jet coefficients, and the other modules go through the
helpers next to `tdot` and `jets_gradient`.

Conventions (fixed once, used everywhere):
  - exterior derivative of a k-form: (dT)_{I0..Ik} = sum_j (-1)^j d_{Ij} T_{..omit j..},
    no 1/k! normalization; equivalently the cyclic Cartan formula for 2-forms;
  - wedge product: shuffle sum with unit coefficients, matching d above;
  - all identity checks are pointwise at sampled points, never symbolic.
"""

from __future__ import annotations

from fractions import Fraction
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
    "Chart", "Point", "ScalarField", "TensorField", "DerivedField", "JetTensor",
    "lie_bracket", "exterior_derivative", "lie_derivative",
    "interior_product", "wedge", "musical", "lower_index", "raise_index",
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
        return f"Point({list(self.coords)})"


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
# Evaluated tensors (jets of components at one point)
# --------------------------------------------------------------------------

class JetTensor:
    """Components of an (r,s) tensor at a point, as jets of one shared order."""

    __slots__ = ("r", "s", "comps", "order")

    def __init__(self, r, s, comps, order):
        self.r = r
        self.s = s
        self.comps = comps
        self.order = order

    @property
    def rank(self):
        return (self.r, self.s)

    def values(self) -> np.ndarray:
        return jet_values(self.comps)

    def max_abs(self) -> float:
        vals = self.values()
        return float(np.max(np.abs(vals))) if vals.size else 0.0

    def __add__(self, other):
        _same_rank(self, other)
        return JetTensor(self.r, self.s, self.comps + other.comps, min(self.order, other.order))

    def __sub__(self, other):
        _same_rank(self, other)
        return JetTensor(self.r, self.s, self.comps - other.comps, min(self.order, other.order))

    def __mul__(self, c):
        return JetTensor(self.r, self.s, self.comps * c, self.order)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)


def _same_rank(a, b):
    if a.rank != b.rank:
        raise RankMismatch(f"rank mismatch: {a.rank} vs {b.rank}")


def jets_gradient(comps):
    """Stack of partials: result[v, ...] = d_v comps[...]."""
    dim = next(iter(comps.flat)).ctx.dim
    out = np.empty((dim,) + comps.shape, dtype=object)
    for v in range(dim):
        for idx in np.ndindex(comps.shape):
            out[(v,) + idx] = comps[idx].partial(v)
    return out


def tdot(a, b, axes):
    """np.tensordot for object arrays of jets; full contractions stay 0-d arrays."""
    out = np.tensordot(a, b, axes=axes)
    if not isinstance(out, np.ndarray):
        wrapped = np.empty((), dtype=object)
        wrapped[()] = out
        return wrapped
    return out


def contract_value(t, *vectors) -> float:
    """Value of t with each vector contracted, in turn, into its first axis."""
    for v in vectors:
        t = tdot(t, v, ([0], [0]))
    return float(t[()].value)


def jet_values(comps) -> np.ndarray:
    """Float array of the values (constant terms) of an object array of jets."""
    return np.array([jet.value for jet in comps.flat], dtype=float).reshape(comps.shape)


def coeff_max(comps) -> float:
    """Largest |coefficient| over all jets of an object array (0 if empty)."""
    worst = 0.0
    for idx in np.ndindex(comps.shape):
        worst = max(worst, float(np.max(np.abs(comps[idx].coeffs))))
    return worst


def truncate_jets(comps, order):
    """Each jet truncated to `order`, or kept as is if its order is lower."""
    out = np.empty(comps.shape, dtype=object)
    for idx in np.ndindex(comps.shape):
        out[idx] = comps[idx].truncate(min(order, comps[idx].ctx.order))
    return out


def identity_jets(ctx, dim):
    """The dim x dim identity matrix as constant jets of `ctx`."""
    eye = np.empty((dim, dim), dtype=object)
    for i, j in np.ndindex(eye.shape):
        eye[i, j] = ctx.constant(1.0 if i == j else 0.0)
    return eye


def embed_block(chart, block):
    """The n x n `block` of chart scalars in the top-left of a dim x dim
    component array, zero elsewhere; n is the chart's split."""
    n = chart.split
    comps = np.zeros((chart.dim, chart.dim), dtype=object)
    comps[:n, :n] = np.asarray(block, dtype=object)[:n, :n]
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

    @property
    def rank(self):
        return (self.r, self.s)

    def at(self, point, order=0) -> JetTensor:
        raise NotImplementedError

    def values(self, point) -> np.ndarray:
        return self.at(point, 0).values()

    def __add__(self, other):
        _same_rank(self, other)
        sym = self.sym if self.sym == other.sym else None
        return DerivedField(
            self.chart, self.r, self.s,
            lambda p, k: (self.at(p, k) + other.at(p, k)).comps, sym=sym,
        )

    def __sub__(self, other):
        _same_rank(self, other)
        sym = self.sym if self.sym == other.sym else None
        return DerivedField(
            self.chart, self.r, self.s,
            lambda p, k: (self.at(p, k) - other.at(p, k)).comps, sym=sym,
        )

    def __mul__(self, c):
        if isinstance(c, (int, float)):
            return DerivedField(
                self.chart, self.r, self.s,
                lambda p, k: (self.at(p, k) * float(c)).comps, sym=self.sym,
            )
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)


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

    def at(self, point, order=0) -> JetTensor:
        out = np.empty(self.comps.shape, dtype=object)
        for idx in np.ndindex(out.shape):
            out[idx] = self.comps[idx].jet(point, order)
        return JetTensor(self.r, self.s, out, order)


class DerivedField(Field):
    """A field backed by a procedure (point, order) -> object array of jets."""

    def __init__(self, chart, r, s, fn, sym=None):
        super().__init__(chart, r, s, sym=sym)
        self.fn = fn

    def at(self, point, order=0) -> JetTensor:
        self.chart.context(order)
        return JetTensor(self.r, self.s, self.fn(point, order), order)


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
        xj = X.at(p, k + 1).comps
        yj = Y.at(p, k + 1).comps
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
        tj = T.at(p, k + 1).comps
        grad = jets_gradient(tj)  # grad[v, i1..ik] = d_v T_{i1..ik}
        out = grad
        for j in range(1, T.s + 1):
            term = np.moveaxis(grad, 0, j)
            out = out - term if j % 2 else out + term
        return out

    return DerivedField(T.chart, 0, T.s + 1, fn, sym="antisymmetric")


def d_scalar(f: ScalarField) -> Field:
    """Differential of a scalar, as a (0,1) field."""

    def fn(p, k):
        return jets_gradient(np.array(f.jet(p, k + 1), dtype=object))

    return DerivedField(f.chart, 0, 1, fn, sym="antisymmetric")


def interior_product(X: Field, T: Field) -> Field:
    """iota_X T: contract X into the first covariant slot."""
    _want_vector(X)
    _want_form(T)
    if T.s < 1:
        raise RankMismatch("interior product needs at least one covariant slot")

    def fn(p, k):
        return tdot(X.at(p, k).comps, T.at(p, k).comps, ([0], [0]))

    sym = "antisymmetric" if T.s > 2 else None
    return DerivedField(X.chart, 0, T.s - 1, fn, sym=sym)


def scalar_pairing(T: Field, fields) -> ScalarField:
    """Full contraction of a (0,k) field with k vector fields, as a scalar."""

    def fn(p, ctx):
        comps = T.at(p, ctx.order).comps
        for X in fields:
            comps = tdot(X.at(p, ctx.order).comps, comps, ([0], [0]))
        return comps[()] if comps.shape == () else comps

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
        first = d_scalar(ScalarField(T.chart, lambda p, ctx: inner.at(p, ctx.order).comps[()]))
    else:
        inner.sym = "antisymmetric"
        first = exterior_derivative(inner)
    tagged = T if T.sym == "antisymmetric" else DerivedField(
        T.chart, 0, T.s, lambda p, k: T.at(p, k).comps, sym="antisymmetric"
    )
    second = interior_product(X, exterior_derivative(tagged))
    return first + second


def lie_derivative_scalar(X: Field, f: ScalarField) -> ScalarField:
    _want_vector(X)

    def fn(p, ctx):
        xj = X.at(p, ctx.order).comps
        fj = f.jet(p, ctx.order + 1)
        acc = ctx.zero()
        for v in range(X.chart.dim):
            acc = acc + xj[v] * fj.partial(v)
        return acc

    return ScalarField(X.chart, fn)


def wedge(a: Field, b: Field) -> Field:
    """Shuffle-sum wedge with unit coefficients (consistent with d above)."""
    _want_form(a)
    _want_form(b)
    ka, kb = a.s, b.s

    def fn(p, k):
        aj = a.at(p, k).comps
        bj = b.at(p, k).comps
        dim = a.chart.dim
        out = np.empty((dim,) * (ka + kb), dtype=object)
        zero = a.chart.context(k).zero()
        for idx in np.ndindex(out.shape):
            acc = zero
            for left in combinations(range(ka + kb), ka):
                right = [t for t in range(ka + kb) if t not in left]
                perm = list(left) + right
                sgn = _perm_sign(perm)
                acc = acc + sgn * (
                    aj[tuple(idx[t] for t in left)] * bj[tuple(idx[t] for t in right)]
                )
            out[idx] = acc
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


def invert_matrix_jets(M: np.ndarray) -> np.ndarray:
    """Gauss-Jordan inverse of a square object matrix of jets.

    Raises SingularMetric when the condition number of the value matrix
    exceeds MAX_CONDITION.  Pivots are chosen by the largest constant term.
    """
    cond = float(np.linalg.cond(jet_values(M)))
    if not cond <= MAX_CONDITION:
        raise SingularMetric(f"condition number {cond:.3e} exceeds {MAX_CONDITION:.0e}")
    d = M.shape[0]
    A = M.copy()
    B = identity_jets(M[0, 0].ctx, d)
    for col in range(d):
        pivot = max(range(col, d), key=lambda r: abs(A[r, col].value))
        if pivot != col:
            A[[col, pivot]] = A[[pivot, col]]
            B[[col, pivot]] = B[[pivot, col]]
        inv = A[col, col].reciprocal()
        A[col] = A[col] * inv
        B[col] = B[col] * inv
        for row in range(d):
            if row == col:
                continue
            factor = A[row, col]
            if factor.value == 0.0 and not factor.coeffs.any():
                continue
            A[row] = A[row] - factor * A[col]
            B[row] = B[row] - factor * B[col]
    return B


def metric_inverse_at(eta: Field, point, order) -> tuple[JetTensor, JetTensor]:
    """(eta, eta^{-1}) jets at a point; raises SingularMetric as
    `invert_matrix_jets` does."""
    ej = eta.at(point, order)
    return ej, JetTensor(2, 0, invert_matrix_jets(ej.comps), order)


def lower_index(eta_jets: JetTensor, T: JetTensor, axis=0) -> JetTensor:
    out = tdot(eta_jets.comps, T.comps, ([1], [axis]))
    out = np.moveaxis(out, 0, axis)
    return JetTensor(T.r - 1, T.s + 1, out, min(eta_jets.order, T.order))


def raise_index(eta_inv_jets: JetTensor, T: JetTensor, axis=0) -> JetTensor:
    out = tdot(eta_inv_jets.comps, T.comps, ([1], [axis]))
    out = np.moveaxis(out, 0, axis)
    return JetTensor(T.r + 1, T.s - 1, out, min(eta_inv_jets.order, T.order))


def musical(eta: Field, T: Field, slots, point, order=0) -> JetTensor:
    """Raise or lower the given axes of T with eta at a point.

    Axes in the contravariant range are lowered, covariant axes are raised;
    axis positions are preserved.
    """
    ej, inv = metric_inverse_at(eta, point, order)
    out = T.at(point, order)
    for axis in sorted(slots):
        if axis < out.r:
            out = lower_index(ej, out, axis)
        else:
            out = raise_index(inv, out, axis)
    return out


def apply_endomorphism(E: Field, X: Field) -> Field:
    """E^I_J X^J as a derived vector field."""
    _want_vector(X)

    def fn(p, k):
        return tdot(E.at(p, k).comps, X.at(p, k).comps, ([1], [0]))

    return DerivedField(X.chart, 1, 0, fn)
