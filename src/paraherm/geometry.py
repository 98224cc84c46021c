"""Charts, points, tensor fields and the core differential operators.

Everything is chart-local: a field is anything that can produce jets of its
components at a point, or at a batch of points, to a requested truncation
order.  Operators (Lie bracket, exterior derivative, Lie derivative,
musical maps) are field combinators: they return derived fields whose
evaluation pulls jets of one order higher from their inputs, so operators
nest without any symbolic step.

Every tensor of jets is a `JetArray`: one jet context and a float array of
shape (*batch, *tensor_shape, ncoef), the graded coefficient layout of
`jets` on the last axis.  The batch shape is () for a single point and (B,)
for a `Point` built from B coordinate rows; the points are independent, so
each suite evaluates its field graph once on its whole sample.  `Field.at`
returns a JetArray; the rank (r, s) lives on the field, not on the array.
Each JetArray also carries `deg`, an upper bound on the degree of its
highest nonzero coefficient block: -1 for all-zero, 0 for constant, at most
the order.  Only this module sets it, and every rule here may over-report
it but never under-reports it.  Contractions (`tdot`) are einsum-style
products over the tensor axes, carried over the batch, with three paths: a
zero operand gives zeros, a constant operand is one matrix product of its
values with the other operand's coefficients, and two non-constant operands
run a gather-multiply-scatter of the truncated Cauchy product over the
coefficient axis.  Partials, truncation and values are index operations on
that axis.  Outside `jets`, only code here reads jet coefficients, and the
other modules go through the helpers next to `tdot` and `jets_gradient`.
A scalar is the (0,0) field, and a scalar jet is a 0-d JetArray: indexing
down to one component, contracting fully and a (0,0) field's `at` give one.
The elementwise arithmetic (`*`, `/`, integer powers, `sin`, `cos`, `exp`,
`sqrt`) works on JetArrays of any shape.  A `TensorField` compiles the
`expr` trees of its components once, at construction, into a levelled
`Tape`: equal subtrees share a slot, each subtree that reads no coordinate
is a constant row computed once per jet order, and the other nodes run
level by level, one kernel call for all the nodes of a level that share an
operation and the degree classes of their operands, over one stacked
buffer.  Each component gets the bits it gets evaluated alone.
`eval_expr` runs a tape (or one tree) for a point or a whole batch, and
`TensorField.at` calls it once per evaluation.

Each field remembers its last point or batch: `TensorField.at` and
`DerivedField.at` (like `ParaHermitianStructure.at`, `Connection.gamma` and
the tangent-bundle Christoffels) keep their result there at the highest
order asked, keyed by the point or batch, and serve a request there at that
order or lower as a prefix slice, so the nested operators, which ask their
inputs for orders k, k+1 and k+2, evaluate each input once.  This needs a
field's jets to depend only on (point, order), as every procedure here and
above does.  One entry per object keeps memory flat in the number of
points.  The jets `at` returns are read-only, since callers share them.

Conventions (fixed once, used everywhere):
  - exterior derivative of a k-form: (dT)_{I0..Ik} = sum_j (-1)^j d_{Ij} T_{..omit j..},
    no 1/k! normalization; equivalently the cyclic Cartan formula for 2-forms;
  - wedge product: shuffle sum with unit coefficients, matching d above;
  - all identity checks are pointwise at sampled points, never symbolic.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache, wraps
from itertools import combinations, permutations
from numbers import Real

import numpy as np

from . import expr as ex
from .errors import (
    DimensionMismatch,
    DivisionByZero,
    DomainError,
    InsufficientJetOrder,
    NotAntisymmetric,
    RankMismatch,
    SingularMetric,
)
from .jets import context

__all__ = [
    "Chart", "Point", "TensorField", "DerivedField", "JetArray",
    "lie_bracket", "exterior_derivative", "lie_derivative",
    "interior_product", "scalar_pairing", "wedge", "musical",
    "invert_matrix_jets", "metric_inverse_at", "require_within",
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
    """A chart point, or a batch of points evaluated together.

    `coords` has shape (dim,) for one point and (B, dim) for a batch of B;
    `batch` is () or (B,), and every `Field.at` at a batch returns jets with
    that leading batch axis.  `key` identifies the coordinates (and the
    batch shape) for the last-point memos.
    """

    __slots__ = ("chart", "coords", "batch", "key")

    def __init__(self, chart, coords):
        arr = np.asarray(coords, dtype=float)
        if arr.ndim not in (1, 2) or arr.shape[-1] != chart.dim or not arr.size:
            raise DimensionMismatch(f"point has shape {arr.shape}, chart dim {chart.dim}")
        if not np.all(np.isfinite(arr)):
            raise DimensionMismatch("point coordinates must be finite")
        self.chart = chart
        self.coords = arr
        self.batch = arr.shape[:-1]
        self.key = (arr.shape, arr.tobytes())

    def first(self, mask):
        """(i, point): the first point of the batch where `mask` holds, with
        its batch index, or (0, self) for a single point."""
        if not self.batch:
            return 0, self
        i = int(np.argmax(mask))
        return i, Point(self.chart, self.coords[i])

    def __repr__(self):
        return f"Point({self.coords.tolist()})"


def stack_points(points) -> Point:
    """One batch of a non-empty sequence of single points, in order."""
    points = list(points)
    return Point(points[0].chart, np.stack([p.coords for p in points]))


def require_within(point, residuals, bound, error, label):
    """The one gate: raise `error` naming the first point of `point` (one
    point or a batch) whose residual is not <= `bound`, a NaN included.
    With `point` None the message names no point."""
    bad = ~(np.asarray(residuals) <= bound)
    if bad.any():
        i = int(np.argmax(bad))
        where = f" at {point.first(bad)[1]}" if point is not None else ""
        raise error(f"{label} {np.ravel(residuals)[i]:.3e}{where} exceeds {bound:.3g}")


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------

def eval_expr(e, coords, order) -> JetArray:
    """Truncated Taylor expansion at `coords` of an expression tree, or of
    the forest of a `Tape`, exact to rounding.

    Coords of shape (dim,) give one point and (B, dim) a batch, all B points
    in one pass.  A tree gives a 0-d JetArray (one axis for the batch); a
    tape gives its tensor shape.  The coefficients are C-contiguous and
    `deg` is the exact degree of their highest nonzero block.  A DomainError
    or DivisionByZero names the first point where some component cannot be
    evaluated."""
    coords = np.asarray(coords, dtype=float)
    ctx = context(coords.shape[-1], order)
    tape = e if isinstance(e, Tape) else Tape([e], dim=ctx.dim)
    try:
        return tape.run(coords, ctx)
    except (DomainError, DivisionByZero) as exc:
        if coords.ndim == 1:
            raise type(exc)(f"{exc} at Point({coords.tolist()})") from None
        for row in coords:  # raises at the first failing point
            eval_expr(tape, row, order)
        raise


# Degree classes of a tape node: all-zero (deg -1), constant (deg 0), or
# deg >= 1 at jet orders K >= 1 (deg 0 at K = 0).  A group runs with these
# degrees; each member alone has the same -1, 0 or positive degree, so the
# kernel takes the product path it takes alone.
_ZERO, _CONST, _VAR = 0, 1, 2

_KERNELS = {
    ex.Neg: operator.neg, ex.Add: operator.add, ex.Sub: operator.sub,
    ex.Mul: operator.mul, ex.Div: operator.truediv, ex.Pow: operator.pow,
    ex.Sin: operator.methodcaller("sin"), ex.Cos: operator.methodcaller("cos"),
    ex.Exp: operator.methodcaller("exp"), ex.Sqrt: operator.methodcaller("sqrt"),
}
_BINARY = (ex.Add, ex.Sub, ex.Mul, ex.Div)
# Kernels whose product paths follow their operands' degree classes; the
# others only add, subtract or negate coefficients.
_PATHED = (ex.Mul, ex.Div, ex.Pow, ex.Sin, ex.Cos, ex.Exp, ex.Sqrt)


def _degree_class(t, args, exponent):
    if t in (ex.Neg, ex.Add, ex.Sub):
        return max(args)
    if t in (ex.Mul, ex.Div):
        return _ZERO if _ZERO in args else max(args)
    if t is ex.Pow:
        return _CONST if exponent == 0 else args[0]
    return _VAR if args[0] == _VAR else _CONST  # sin, cos, exp, sqrt


class Tape:
    """A forest of expression trees compiled once into a levelled evaluation
    tape (the Taylor-propagation tape of Griewank & Walther, Evaluating
    Derivatives, 2008, with the nodes of one level run together).

    Structurally equal subtrees share one slot; constants are keyed by the
    type and the bits of their float value, so 0.0 and -0.0 stay apart.
    Each subtree that reads no coordinate is folded into a constant row,
    computed once per jet order by the same kernels (the Newton steps of a
    reciprocal depend on the order) and kept on the tape.  The other nodes
    are grouped by height, operation and the degree classes of their
    operands, which fix every product path inside the kernel; a group is one
    JetArray kernel call over the stacked slots of one buffer of shape
    (*batch, slots, ncoef), so each slot gets the bits its tree alone gets.
    A forest that reads no coordinate is one constant array per order.
    """

    def __init__(self, trees, shape=(), dim=None):
        index, seen = {}, {}  # structural key -> node; id(tree) -> node
        info = []  # node -> (degree class, reads a coordinate, height, children)
        leaves, values, coords, coord_index, groups = [], [], [], [], {}

        def visit(e):  # post-order: a node's index comes after its children's
            i = seen.get(id(e))
            if i is not None:
                return i
            t = type(e)
            if t is ex.Const:
                v = float(e.value)
                key = (type(e.value), v.hex())
            elif t is ex.Coord:
                if dim is not None and e.index >= dim:
                    raise DimensionMismatch(
                        f"expression coordinate {e.index} out of range for dim {dim}")
                key = (t, e.index)
            elif t in _BINARY:
                key = (t, (visit(e.left), visit(e.right)))
            elif t is ex.Pow:
                key = (t, (visit(e.base),), e.exponent, type(e.exponent))
            elif t in _KERNELS:
                key = (t, (visit(e.arg),))
            else:
                raise TypeError(f"not an expression node: {e!r}")
            i = index.get(key)
            if i is None:
                i = index[key] = len(info)
                if t is ex.Const:
                    info.append((_CONST if v else _ZERO, False, 0, ()))
                    leaves.append(i)
                    values.append(v)
                elif t is ex.Coord:
                    info.append((_VAR, True, 0, ()))
                    coords.append(i)
                    coord_index.append(e.index)
                else:
                    args = key[1]
                    a = info[args[0]]
                    if len(args) == 2:
                        b = info[args[1]]
                        r = a[1] or b[1]
                        h = 1 + max(a[2] if a[1] == r else 0, b[2] if b[1] == r else 0)
                        arg_cls = (a[0], b[0])
                    else:
                        r, h, arg_cls = a[1], 1 + a[2], (a[0],)
                    path = arg_cls if t in _PATHED else (_VAR,) * len(args)
                    groups.setdefault((r, h, t, key[2:], path), []).append(i)
                    exponent = key[2] if t is ex.Pow else None
                    info.append((_degree_class(t, arg_cls, exponent), r, h, args))
            seen[id(e)] = i
            return i

        roots = [visit(e) for e in trees]
        # Slots: constant leaves, constant groups, coordinates, other groups.
        order = sorted(groups, key=lambda g: g[:2])
        layout = leaves + [i for g in order if not g[0] for i in groups[g]]
        self.n_const = len(layout)
        layout += coords + [i for g in order if g[0] for i in groups[g]]
        slot = [0] * len(layout)
        for s, i in enumerate(layout):
            slot[i] = s
        self.shape = tuple(shape)
        self.size = len(layout)
        self.leaf_values = np.array(values)
        self.coord_index = np.array(coord_index, dtype=int)
        self.out = np.array([slot[i] for i in roots], dtype=int)
        self.const_groups, self.groups = [], []
        for g in order:
            (reads, _, t, exponent, path), members = g, groups[g]
            operands = [(np.array([slot[info[i][3][k]] for i in members]), c)
                        for k, c in enumerate(path)]
            lo = slot[members[0]]
            (self.groups if reads else self.const_groups).append(
                (_KERNELS[t], operands, exponent[:1], lo, lo + len(members)))
        self._per_order = {}  # order -> (leading rows of the buffer, fixed result or None)

    def _constants(self, ctx):
        """At ctx's order: the buffer's leading rows (the constants, then the
        coordinates' unit gradients) and, for a forest that reads no
        coordinate, its result as a JetArray.  Computed at the first request."""
        entry = self._per_order.get(ctx.order)
        if entry is None:
            m = len(self.coord_index)
            rows = np.zeros((self.n_const + m, ctx.n))
            rows[: len(self.leaf_values), 0] = self.leaf_values
            _run_groups(rows, self.const_groups, ctx, 0)
            fixed = None
            if not m:
                out = rows.take(self.out, axis=0).reshape(self.shape + (ctx.n,))
                fixed = _exact_deg(ctx, out, 0)
                fixed.coeffs.flags.writeable = False
            elif ctx.order:
                rows[self.n_const + np.arange(m), 1 + self.coord_index] = 1.0
            rows.flags.writeable = False
            entry = self._per_order[ctx.order] = (rows, fixed)
        return entry

    def run(self, coords, ctx) -> JetArray:
        """The forest's jets at coords of shape (*batch, dim); see `eval_expr`."""
        batch = coords.shape[:-1]
        rows, fixed = self._constants(ctx)
        if fixed is not None:
            if not batch:
                return JetArray(ctx, fixed.coeffs, fixed.deg)
            out = np.empty(batch + fixed.coeffs.shape)
            out[...] = fixed.coeffs
            return JetArray(ctx, out, fixed.deg, 1)
        buf = np.empty(batch + (self.size, ctx.n))
        buf[..., : len(rows), :] = rows
        buf[..., self.n_const : len(rows), 0] = coords[..., self.coord_index]
        _run_groups(buf, self.groups, ctx, len(batch))
        out = buf.take(self.out, axis=-2).reshape(batch + self.shape + (ctx.n,))
        return _exact_deg(ctx, out, len(batch))


def _run_groups(buf, groups, ctx, nb):
    """Run each group's kernel on its operand slots of `buf` (*batch, slots,
    ncoef) and write the results to its own slots, level by level."""
    degs = (-1, 0, ctx.order)
    for kernel, operands, extra, lo, hi in groups:
        args = [JetArray(ctx, buf.take(idx, axis=-2), degs[c], nb) for idx, c in operands]
        buf[..., lo:hi, :] = kernel(*args, *extra).coeffs


def _exact_deg(ctx, coeffs, nb):
    """`coeffs` as a JetArray whose deg is its highest nonzero block."""
    nonzero = np.flatnonzero(coeffs.reshape(-1, ctx.n).any(axis=0))
    return JetArray(ctx, coeffs, int(ctx.degree[nonzero[-1]]) if nonzero.size else -1, nb)


def _as_expr(chart, source):
    """A chart scalar (an int, a float, source text or an `expr` tree) as a
    tree over the chart's coordinates."""
    if isinstance(source, (int, np.integer)):
        source = ex.Const(Fraction(int(source)))
    elif isinstance(source, (float, np.floating)):
        source = ex.Const(float(source))
    elif isinstance(source, str):
        source = chart.parse(source)
    if not isinstance(source, ex.Expr):
        raise TypeError(f"not a chart scalar: {source!r}")
    return source


# --------------------------------------------------------------------------
# Tensors of jets
# --------------------------------------------------------------------------

class JetArray:
    """A tensor of jets of one context, for one point or a batch of them.

    `coeffs` has shape (*batch, *shape, ctx.n): `nb` (0 or 1) leading batch
    axes, then the tensor axes, then the coefficients.  A single point has
    batch shape ().  `shape`, `ndim`, indexing, `transpose` and `moveaxis`
    see only the tensor axes, so operator code reads the same for a point
    and a batch; the kernels (`tdot`, `jets_gradient`, `+`, `-`, `*`, ...)
    carry the batch axis and broadcast an unbatched operand against a
    batched one.  `values()` and `max_abs()` give one entry per point.

    `deg` is an upper bound on the degree of the highest nonzero coefficient
    block, over the whole batch: -1 for all-zero, 0 for constant, at most
    `ctx.order` (the default).  Every operation here carries it by a rule
    that may over-report but never under-reports, so `tdot` and `*` can
    send zero and constant operands past the Cauchy product.  It is set
    only in this module.

    Indexing selects over the tensor axes (`None` adds one); an index that
    leaves none gives a 0-d JetArray, a scalar jet.  `+` and `-` need
    operands of one tensor shape; `*` broadcasts.  Operands of different orders
    are truncated to the lower one.  Results may be views of their operands
    (an index, a truncation, a transpose), so `coeffs` is never written in
    place; `Field.at` enforces this by returning read-only coefficients.
    """

    __slots__ = ("ctx", "coeffs", "deg", "nb")
    # Let numpy scalars and arrays defer to the reflected operators below.
    __array_ufunc__ = None

    def __init__(self, ctx, coeffs, deg=None, nb=0):
        self.ctx = ctx
        self.coeffs = coeffs
        self.deg = ctx.order if deg is None else deg
        self.nb = nb

    @property
    def shape(self):
        return self.coeffs.shape[self.nb:-1]

    @property
    def ndim(self):
        return self.coeffs.ndim - 1 - self.nb

    @property
    def batch(self):
        return self.coeffs.shape[:self.nb]

    def __getitem__(self, idx):
        key = idx if isinstance(idx, tuple) else (idx,)
        return JetArray(self.ctx, self.coeffs[(slice(None),) * self.nb + key + (slice(None),)],
                        self.deg, self.nb)

    def values(self) -> np.ndarray:
        """Float array of the values (constant terms), shape (*batch, *shape)."""
        return self.coeffs[..., 0].copy()

    def max_abs(self):
        """Largest |value| over the components (0 if there are none): a
        float for one point, one per point for a batch."""
        return per_point_max(self.coeffs[..., 0], self.nb)

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def _combine(self, other, op):
        if not isinstance(other, JetArray):
            return NotImplemented
        a, b = self, other
        ca, cb = a.coeffs, b.coeffs
        if ca.shape[a.nb:-1] != cb.shape[b.nb:-1]:
            raise RankMismatch(f"tensor shapes differ: {a.shape} vs {b.shape}")
        if a.ctx is not b.ctx:
            a, b = _common(a, b)
            ca, cb = a.coeffs, b.coeffs
        return JetArray(a.ctx, op(ca, cb), max(a.deg, b.deg), max(a.nb, b.nb))

    def __neg__(self):
        return JetArray(self.ctx, -self.coeffs, self.deg, self.nb)

    def __mul__(self, other):
        """Elementwise product: with a float, or with a JetArray broadcast
        against this one over the tensor axes as numpy broadcasts (and over
        the batch).  A zero or constant operand takes the degree rule of
        `tdot`; two non-constant operands run the truncated Cauchy product,
        each coefficient summed pair by pair in the order of
        `_product_tables`, starting from 0, so the result does not depend on
        the shapes."""
        if not isinstance(other, JetArray):
            if not isinstance(other, Real):
                return NotImplemented
            return JetArray(self.ctx, self.coeffs * float(other), self.deg, self.nb)
        a, b = (self, other) if self.ctx is other.ctx else _common(self, other)
        ca, cb = a.coeffs, b.coeffs
        if ca.ndim - a.nb != cb.ndim - b.nb:  # pad the tensor axes to one rank
            rank = max(a.ndim, b.ndim)
            ca = ca.reshape(a.batch + (1,) * (rank - a.ndim) + ca.shape[a.nb:])
            cb = cb.reshape(b.batch + (1,) * (rank - b.ndim) + cb.shape[b.nb:])
        deg = _product_deg(a, b)
        try:
            if deg < 0:
                out = np.zeros(np.broadcast_shapes(ca.shape, cb.shape))
            elif a.deg == 0:
                out = ca[..., :1] * cb
            elif b.deg == 0:
                out = ca * cb[..., :1]
            else:
                ga, gb, mask = _product_tables(a.ctx)[3:]
                if max(ca.size, cb.size) * len(ga) <= _FUSED_PRODUCT_MAX:
                    out = (ca[..., ga] * cb[..., gb] * mask).sum(axis=-2)
                else:  # the same sum from 0, one pair at a time, without the R-fold temporaries
                    out = np.zeros(np.broadcast_shapes(ca.shape, cb.shape))
                    for r in range(len(ga)):
                        out += ca[..., ga[r]] * cb[..., gb[r]] * mask[r]
        except ValueError:
            raise RankMismatch(f"tensor shapes {a.shape} and {b.shape} do not broadcast") from None
        return JetArray(a.ctx, out, deg, max(a.nb, b.nb))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * other.reciprocal() if isinstance(other, JetArray) else NotImplemented

    def reciprocal(self) -> "JetArray":
        """Elementwise 1 / self.  From the inverse of the values, each Newton
        step r <- r (2 - self r) doubles the number of correct orders."""
        vals = self.coeffs[..., 0]
        if not np.all(vals):
            raise DivisionByZero("division by a jet with zero value")
        r = constant_jets(self.ctx, 1.0 / vals, self.nb)
        two = constant_jets(self.ctx, np.full(self.shape, 2.0))
        for _ in range(max(1, math.ceil(math.log2(self.ctx.order + 1)))):
            r = r * (two - self * r)
        return r

    def __pow__(self, n):
        """Elementwise integer power, by squaring; a negative n inverts first."""
        if not isinstance(n, (int, np.integer)):
            raise DomainError("jet exponent must be an integer")
        n = int(n)
        if n < 0:
            return self.reciprocal() ** -n
        if n == 0:
            return constant_jets(self.ctx, np.ones(self.batch + self.shape), self.nb)
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def _compose(self, derivs):
        """f(self), given derivs[m], the m-th derivative of f at the values
        (one per jet): the sum of derivs[m] / m! h^m, with h the
        nonconstant, nilpotent part of self."""
        ctx, nb = self.ctx, self.nb

        def const(values):  # deg 0 even where the values vanish, see below
            coeffs = np.zeros(values.shape + (ctx.n,))
            coeffs[..., 0] = values
            return JetArray(ctx, coeffs, 0, nb)

        # The degree of the result and the path of each product follow the
        # degree of self alone, never the values of f's derivatives, so that
        # a `Tape` group takes the path each of its members takes alone.
        h = self.coeffs.copy()
        h[..., 0] = 0.0
        h = power = JetArray(ctx, h, self.deg, nb)
        acc = const(derivs[0])
        for m in range(1, ctx.order + 1):
            if m > 1:
                power = power * h
            acc = acc + power * const(derivs[m] / math.factorial(m))
        return acc

    def sin(self):
        x = self.coeffs[..., 0]
        cycle = [np.sin(x), np.cos(x), -np.sin(x), -np.cos(x)]
        return self._compose([cycle[m % 4] for m in range(self.ctx.order + 1)])

    def cos(self):
        x = self.coeffs[..., 0]
        cycle = [np.cos(x), -np.sin(x), -np.cos(x), np.sin(x)]
        return self._compose([cycle[m % 4] for m in range(self.ctx.order + 1)])

    def exp(self):
        return self._compose([np.exp(self.coeffs[..., 0])] * (self.ctx.order + 1))

    def sqrt(self):
        x = self.coeffs[..., 0]
        bad = x <= 0.0
        if bad.any():
            raise DomainError(f"sqrt of non-positive value {x[bad].flat[0]}")
        derivs, coef = [], 1.0
        for m in range(self.ctx.order + 1):
            derivs.append(coef * x ** (0.5 - m))
            coef *= 0.5 - m
        return self._compose(derivs)

    def sum(self, axis=0):
        """Sum over one tensor axis."""
        return JetArray(self.ctx, self.coeffs.sum(axis=self.nb + axis % self.ndim), self.deg,
                        self.nb)

    def transpose(self, axes=None):
        axes = tuple(reversed(range(self.ndim))) if axes is None else tuple(axes)
        nb = self.nb
        perm = (0, *(a + 1 for a in axes)) if nb else axes
        return JetArray(self.ctx, self.coeffs.transpose(perm + (nb + len(axes),)), self.deg, nb)

    def moveaxis(self, source, destination):
        order = [i for i in range(self.ndim) if i != source % self.ndim]
        order.insert(destination % self.ndim, source % self.ndim)
        return self.transpose(order)

    def __repr__(self):
        return f"JetArray(batch={self.batch}, shape={self.shape}, deg={self.deg}, {self.ctx})"


# Largest number of pair products (operand size times the pairs per
# coefficient) that `*` builds as one temporary; a larger product sums its
# pairs one at a time.  Past about 128 KB a temporary costs more per element
# than the loop (measured with numpy 2.4 on x86-64).
_FUSED_PRODUCT_MAX = 1 << 14


def per_point_max(arr, nb=1):
    """max |arr| over all but its `nb` (0 or 1) leading batch axes, 0 where
    there is nothing: a float for nb = 0, one value per point for nb = 1."""
    if not nb:
        return float(np.max(np.abs(arr))) if arr.size else 0.0
    flat = np.abs(arr.reshape(arr.shape[0], -1))
    return flat.max(axis=1) if flat.shape[1] else np.zeros(arr.shape[0])


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
    """The truncated Cauchy product of `ctx` in two layouts: pair p
    multiplies coefficients ia[p] and ib[p] and adds to coefficient
    ctx._mul_t[p].

    (ia, ib, scatter): scatter[p] is the one-hot row of the coefficient pair
    p adds to, so `tdot` sums the pairs with one matrix product.
    (ga, gb, mask), each of shape (R, ctx.n): column t lists the pairs that
    add to coefficient t, in pair order, padded with mask 0 to the largest
    count R; the elementwise `*` sums each column down.
    """
    ia, ib, it = ctx._mul_a, ctx._mul_b, ctx._mul_t
    scatter = np.zeros((len(it), ctx.n))
    scatter[np.arange(len(it)), it] = 1.0
    by_target = np.argsort(it, kind="stable")
    t = it[by_target]
    rank = np.arange(len(t)) - np.searchsorted(t, t)  # place among t's pairs
    ga, gb = (np.zeros((rank.max() + 1, ctx.n), dtype=int) for _ in range(2))
    mask = np.zeros(ga.shape)
    ga[rank, t], gb[rank, t], mask[rank, t] = ia[by_target], ib[by_target], 1.0
    return ia, ib, scatter, ga, gb, mask


def _same_rank(a, b):
    if a.rank != b.rank:
        raise RankMismatch(f"rank mismatch: {a.rank} vs {b.rank}")


def jets_gradient(comps: JetArray) -> JetArray:
    """Stack of partials: result[v, ...] = d_v comps[...], one order lower."""
    if comps.ctx.order < 1:
        raise InsufficientJetOrder("cannot differentiate an order-0 jet")
    lower, src, fac = comps.ctx._deriv_tables()
    out = comps.coeffs[..., src] * fac  # (*batch, *shape, dim, lower.n)
    k, nb = out.ndim - 2, comps.nb
    return JetArray(lower, out.transpose([*range(nb), k, *range(nb, k), k + 1]),
                    max(comps.deg - 1, -1), nb)


@lru_cache(maxsize=None)
def _tdot_plan(shape_a, shape_b, axes, nb_a, nb_b, ctx):
    """The shapes and transposes of `tdot` for one (shape_a, shape_b, axes),
    the operands' batch ranks nb_a, nb_b and their jet context.

    Returns (shape, out, const_a, const_b, full): the result's tensor shape
    and coefficient-array shape (with a -1 batch size), then per path the
    axis orders (batch axes first) and 2-d (or batched 2-d) shapes of its
    operands.  `const_a` takes a's values and b's coefficients, `const_b`
    a's coefficients and b's values; `full` moves the coefficients right
    after the batch and indexes the pairs of the Cauchy product there.
    """
    na, nb = len(shape_a), len(shape_b)
    ax_a = tuple(x % na for x in axes[0])
    ax_b = tuple(x % nb for x in axes[1])
    free_a = tuple(i for i in range(na) if i not in ax_a)
    free_b = tuple(i for i in range(nb) if i not in ax_b)
    m = math.prod(shape_a[i] for i in free_a)
    c = math.prod(shape_a[i] for i in ax_a)
    q = math.prod(shape_b[i] for i in free_b)
    n = ctx.n
    lead_a, lead_b, lead = (-1,) * nb_a, (-1,) * nb_b, (-1,) * max(nb_a, nb_b)
    shape = tuple(shape_a[i] for i in free_a) + tuple(shape_b[i] for i in free_b)

    def perm_a(*axes_):
        return (*range(nb_a), *(x + nb_a for x in axes_))

    def perm_b(*axes_):
        return (*range(nb_b), *(x + nb_b for x in axes_))

    ia, ib, scatter = _product_tables(ctx)[:3]
    return (
        shape,
        lead + shape + (n,),
        (perm_a(*free_a, *ax_a), lead_a + (m, c), perm_b(*ax_b, *free_b, nb), lead_b + (c, q * n)),
        (perm_a(*free_a, na, *ax_a), lead_a + (m * n, c),
         perm_b(*ax_b, *free_b), lead_b + (c, q), lead + (m, n, q)),
        (perm_a(na, *free_a, *ax_a), lead_a + (n, m, c), (slice(None),) * nb_a + (ia,),
         perm_b(nb, *ax_b, *free_b), lead_b + (n, c, q), (slice(None),) * nb_b + (ib,),
         lead + (len(ia), m * q), scatter),
    )


def tdot(a, b, axes) -> JetArray:
    """np.tensordot for tensors of jets; a full contraction gives a 0-d array.

    The batch axes are carried: a batched and an unbatched operand broadcast
    as numpy's matmul does.  The operands' degrees pick one of three paths.
    A zero operand gives zeros.  A constant operand is one matrix product of
    its values with the other operand's coefficient array.  Otherwise, with
    the coefficient axis moved right after the batch, each pair (i, j) of
    the truncated Cauchy product is one matrix product a[i] @ b[j] over the
    tensor axes, all pairs (and points) in one batched call, and the pairs
    are then scattered onto the coefficients they add to.
    """
    if a.ctx is not b.ctx:
        a, b = _common(a, b)
    ca, cb = a.coeffs, b.coeffs
    nba, nbb = a.nb, b.nb
    shape, so, const_a, const_b, full = _tdot_plan(
        ca.shape[nba:-1], cb.shape[nbb:-1], (tuple(axes[0]), tuple(axes[1])), nba, nbb, a.ctx)
    nb = nba or nbb
    if a.deg < 0 or b.deg < 0:
        batch = ca.shape[:nba] or cb.shape[:nbb]
        return JetArray(a.ctx, np.zeros(batch + shape + (a.ctx.n,)), -1, nb)
    if a.deg == 0:
        pa, sa, pb, sb = const_a
        out = ca[..., 0].transpose(pa).reshape(sa) @ cb.transpose(pb).reshape(sb)
        return JetArray(a.ctx, out.reshape(so), b.deg, nb)
    if b.deg == 0:
        pa, sa, pb, sb, sm = const_b
        out = (ca.transpose(pa).reshape(sa) @ cb[..., 0].transpose(pb).reshape(sb)).reshape(sm)
        return JetArray(a.ctx, out.swapaxes(-1, -2).reshape(so), a.deg, nb)
    pa, sa, ga, pb, sb, gb, sp, scatter = full
    pairs = ca.transpose(pa).reshape(sa)[ga] @ cb.transpose(pb).reshape(sb)[gb]
    out = pairs.reshape(sp).swapaxes(-1, -2) @ scatter
    return JetArray(a.ctx, out.reshape(so), _product_deg(a, b), nb)


def contract_value(t, *vectors):
    """Value of t with each vector contracted, in turn, into its first axis:
    a float for one point, one per point for a batch."""
    for v in vectors:
        t = tdot(t, v, ([0], [0]))
    vals = t.coeffs[..., 0]
    return vals.copy() if t.nb else float(vals)


def coeff_max(comps: JetArray):
    """Largest |coefficient| over a tensor of jets (0 if empty): a float for
    one point, one per point for a batch."""
    return per_point_max(comps.coeffs, comps.nb)


def truncate_jets(comps: JetArray, order) -> JetArray:
    """The tensor truncated to `order`, or kept as is if its order is lower."""
    if order >= comps.ctx.order:
        return comps
    lower = context(comps.ctx.dim, order)
    return JetArray(lower, comps.coeffs[..., : lower.n], min(comps.deg, order), comps.nb)


def constant_jets(ctx, values, nb=0) -> JetArray:
    """A float array as a tensor of constant jets of `ctx`; with nb=1 its
    first axis is the batch."""
    values = np.asarray(values, dtype=float)
    coeffs = np.zeros(values.shape + (ctx.n,))
    coeffs[..., 0] = values
    return JetArray(ctx, coeffs, 0 if values.any() else -1, nb)


def coordinate_jets(ctx, point, indices) -> JetArray:
    """Jets of the coordinate functions x^i, i in `indices`, at a point or a
    batch: a vector of jets with value x^i and unit gradient along i."""
    idx = np.asarray(indices, dtype=int)
    coeffs = np.zeros(point.batch + (len(idx), ctx.n))
    coeffs[..., 0] = point.coords[..., idx]
    if ctx.order >= 1:
        coeffs[..., np.arange(len(idx)), 1 + idx] = 1.0
    return JetArray(ctx, coeffs, min(1, ctx.order), len(point.batch))


def concat_jets(parts) -> JetArray:
    """Tensors joined along their first tensor axis, at the lowest of their
    orders; unbatched parts are broadcast to the batch of the others."""
    k = min(x.ctx.order for x in parts)
    parts = [truncate_jets(x, k) for x in parts]
    batch = max((x.batch for x in parts), key=len)
    coeffs = [np.broadcast_to(x.coeffs, batch + x.coeffs.shape[x.nb:]) for x in parts]
    return JetArray(parts[0].ctx, np.concatenate(coeffs, axis=len(batch)),
                    max(x.deg for x in parts), len(batch))


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
        self._memo = None  # (point.key, order, JetArray), see _memo_at

    @property
    def rank(self):
        return (self.r, self.s)

    def at(self, point, order=0) -> JetArray:
        """Jets of the components at `point`, tensor shape (dim,)*(r+s); at a
        batch of points the JetArray carries the batch axis too.

        The subclasses memoise this with `_memo_at`: the jets of the most
        recent point or batch are kept at the highest order asked there, and
        a request there at that order or lower is their prefix slice.  So a
        field's jets at a point must depend only on (point, order), and the
        caller gets a read-only array it may share with other callers.
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


def _memo_at(at=None, *, cut=truncate_jets):
    """Give a `(point, order)` method a one-entry memo: the most recent point
    (or batch) and its result at the highest order asked there.

    The instance keeps the entry in `_memo` and has a `chart`.  A request at
    that point for the same order or lower is served by `cut(result, order)`
    (a prefix slice by default); a new point or a higher order evaluates and
    replaces the entry, unless the evaluation raises.  The entry records the
    order asked, which was within the chart's jet-order budget, so a memo
    never serves a request past it.  A JetArray result is made read-only,
    because every caller of the point shares it.  Memory stays one entry per
    memoised object, whatever the number of points.
    """

    def wrap(at):
        @wraps(at)
        def memo_at(self, point, order=0):
            memo = self._memo
            if memo is not None and memo[0] == point.key and order <= memo[1]:
                return memo[2] if order == memo[1] else cut(memo[2], order)
            self.chart.context(order)  # raises InsufficientJetOrder past the budget
            value = at(self, point, order)
            if isinstance(value, JetArray):
                value.coeffs.flags.writeable = False
            self._memo = (point.key, order, value)
            return value

        return memo_at

    return wrap if at is None else wrap(at)


class TensorField(Field):
    """An (r,s) tensor whose components are chart scalars: `expr` trees, or
    ints, floats or source text made into trees.  A (0,0) field is a scalar.

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
            arr[idx] = _as_expr(chart, comps[idx])
        self.comps = arr
        self.tape = Tape(arr.flat, arr.shape, chart.dim)

    @_memo_at
    def at(self, point, order=0) -> JetArray:
        """The components' tape run once for the point or the whole batch.
        Raises DomainError naming the first point where a component jet is
        not finite (so numpy's overflow warnings are off)."""
        with np.errstate(over="ignore", invalid="ignore"):
            out = eval_expr(self.tape, point.coords, order)
        bad = ~np.isfinite(out.coeffs.reshape(point.batch + (-1,))).all(axis=-1)
        if bad.any():
            raise DomainError(f"component jets are not finite at {point.first(bad)[1]}")
        return out


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
    """Coordinate exterior derivative of an antisymmetric (0,k) field; of a
    (0,0) field, its differential."""
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


def scalar_pairing(T: Field, fields) -> Field:
    """Full contraction of a (0,k) field with k vector fields, each into the
    first remaining slot of T, as a (0,0) field."""

    def fn(p, k):
        comps = T.at(p, k)
        for X in fields:
            comps = tdot(comps, X.at(p, k), ([0], [0]))
        return comps

    return DerivedField(T.chart, 0, 0, fn)


def lie_derivative(X: Field, T: Field) -> Field:
    """Cartan magic formula L_X = d iota_X + iota_X d on (0,k) forms; on a
    scalar (k = 0) it is iota_X d."""
    _want_vector(X)
    _want_form(T)
    if T.sym != "antisymmetric" and T.s > 1:
        raise NotAntisymmetric("Cartan formula needs an antisymmetric form")
    tagged = T if T.s == 0 or T.sym == "antisymmetric" else DerivedField(
        T.chart, 0, T.s, lambda p, k: T.at(p, k), sym="antisymmetric"
    )
    second = interior_product(X, exterior_derivative(tagged))
    if T.s == 0:
        return second
    inner = interior_product(X, T)
    inner.sym = "antisymmetric"
    return exterior_derivative(inner) + second


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
    points = list(points)
    if not points:
        return 0.0
    vals = T.at(stack_points(points), order).values()
    return float(np.max([
        np.max(np.abs(np.transpose(vals, (0, *(a + 1 for a in perm))) - _perm_sign(perm) * vals))
        for perm in permutations(range(T.r + T.s))]))


# --------------------------------------------------------------------------
# Metric machinery
# --------------------------------------------------------------------------

# Largest condition number of the value matrix that `invert_matrix_jets`
# accepts.  The test is relative, so it does not depend on the overall scale.
MAX_CONDITION = 1e12


def invert_matrix_jets(M: JetArray, point=None) -> JetArray:
    """Inverse of a square matrix of jets, at one point or a batch.

    Raises SingularMetric when the condition number of the value matrix
    exceeds MAX_CONDITION at some point; when `point` (the point or batch
    M was evaluated at) is given, the message names the first such point.
    Starting from the inverse of the values, each Newton step
    X <- X (2 - M X) doubles the number of correct orders.
    """
    vals = M.values()
    require_within(point, np.linalg.cond(vals), MAX_CONDITION, SingularMetric, "condition number")
    X = constant_jets(M.ctx, np.linalg.inv(vals), M.nb)
    two = constant_jets(M.ctx, 2.0 * np.eye(vals.shape[-1]))
    for _ in range(max(1, math.ceil(math.log2(M.ctx.order + 1)))):
        X = tdot(X, two - tdot(M, X, ([1], [0])), ([1], [0]))
    return X


def metric_inverse_at(eta: Field, point, order) -> tuple[JetArray, JetArray]:
    """(eta, eta^{-1}) jets at a point; raises SingularMetric as
    `invert_matrix_jets` does."""
    ej = eta.at(point, order)
    return ej, invert_matrix_jets(ej, point)


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
