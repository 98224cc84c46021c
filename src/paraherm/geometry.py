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
products over the tensor axes, carried over the batch: a zero operand gives
zeros, and every other contraction is one batched matrix product of
coefficient pairs (a constant's value with each coefficient of the other
operand, or the truncated Cauchy product's pairs, summed down the one
table `*` sums too).  Partials, truncation and values are index operations
on that axis.  Outside `jets`, only code here reads jet coefficients, and the
other modules go through the helpers next to `tdot` and `jets_gradient`.
A scalar is the (0,0) field, and a scalar jet is a 0-d JetArray: indexing
down to one component, contracting fully and a (0,0) field's `at` give one.
The elementwise arithmetic (`+`, `-`, `*`, `/`, integer powers, `sin`,
`cos`, `exp`, `sqrt`) works on JetArrays of any shape: each operation is
one array kernel on (coefficients, degree bound) pairs, in one table,
`_KERNELS`, which the JetArray operators and methods call.  A `TensorField`
compiles the `expr` trees of its components once, at construction, into
one of two evaluators (`compile_components`).  Components that are all
sums of monomials (`expr.monomial_terms`, quotients by nonzero sums of
constants included), in a field that reads a coordinate, become a
`RecentringTable`: the Taylor coefficients of a polynomial at p have a
closed form, so a run is one power table, one gather and product of each
entry's powers and one sum per coefficient, with no node-by-node
propagation.  Every other field becomes a `Tape`: equal subtrees share a
slot of one buffer, and each other node is one step, its kernel of
`_KERNELS` on its operands' slots, in post-order.  So `const` fields, the
transcendental and rational functions (a division by zero too, which the
tape reports at the point), and products of sums such as (x - 1000)^2,
whose expansion could cancel, stay on the tape.  Each component gets the
bits it gets evaluated alone.
`eval_expr` runs either evaluator (or one tree, on a tape) for a point or
a whole batch, and `TensorField.at` calls it once per evaluation.

`Field` is the one memoised object; the structure's eta^{-1}, omega and P+-,
a connection's Christoffel symbols and the Nijenhuis gate are fields too.
`Field.at` keeps its result at the last point or batch, at the highest order
asked, and serves a request there at that order or lower as a prefix slice,
so the nested operators, which ask their inputs for orders k, k+1 and k+2,
evaluate each input once.  A new point or batch is evaluated at the order
the entry it replaces had reached, so a stream of fresh points evaluates
each field once per point.  A field's jets are a function of (point, order),
bit for bit: every kernel is order-stable (its result at order k is its
result at order k + 1 truncated to k), as `*` and `tdot` sum each
coefficient's pairs in the fixed order of their one table, and 1/x and the
inverse are series, one order a step.
A field is `const` when it reads no coordinate (a `TensorField` whose tape
reads none, or a `DerivedField` whose declared inputs are all `const`): its
one entry ignores the point, is evaluated at the first point asked (so its
errors name the first point of a batch) and has no batch axis, which the
kernels broadcast; the readers that promise one entry per point go through
`per_point`.  One entry per field keeps memory flat in the number of points,
and the jets `at` returns are read-only, since callers share them.
A tiled point (`tile_points`) repeats a batch, its `base`, n times, one
block after another, and `stack_fields` stacks n fields by blocks: at a
tiled point block i holds field i at the base.  A field is `blocked` when
it is such a stack or declares a blocked input, a structural flag set with
`const` and never inferred: a blocked field is evaluated at the tiled
point, and every other field is served there by its entry at the base,
repeated over the blocks, so the base entry stays.  A check over n cases
then runs its field graph once on n blocks, and since every kernel gives
each point of a batch its own bits, each block gets the bits of its case
alone, except that a stack's `deg` is its blocks' highest, so a constant
block takes the Cauchy product, whose added zeros can flip the sign of an
exact zero.  Only this module reads a tiled point's `base`.

Conventions (fixed once, used everywhere):
  - exterior derivative of a k-form: (dT)_{I0..Ik} = sum_j (-1)^j d_{Ij} T_{..omit j..},
    no 1/k! normalization; equivalently the cyclic Cartan formula for 2-forms;
  - wedge product: shuffle sum with unit coefficients, matching d above;
  - all identity checks are pointwise at sampled points, never symbolic.
"""

from __future__ import annotations

import math
from collections import namedtuple
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
    ParahermError,
    RankMismatch,
    SingularMetric,
)
from .jets import context

__all__ = [
    "Chart", "Point", "TensorField", "DerivedField", "JetArray",
    "lie_bracket", "exterior_derivative", "lie_derivative",
    "interior_product", "scalar_pairing", "wedge", "musical",
    "invert_matrix_jets", "require_within", "per_point", "stack_points", "as_batch",
    "tile_points", "stack_fields", "reduce_points", "Reduction",
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
    `batch` is () or (B,), and `Field.at` at a batch returns jets with that
    leading batch axis, unless the field is `const`.  `key` identifies the
    coordinates (and the batch shape) for the last-point memo of `Field.at`.
    `base` is None, or the batch this point tiles (`tile_points`).
    """

    __slots__ = ("chart", "coords", "batch", "key", "_head", "base")

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
        self._head = None
        self.base = None

    def head(self):
        """Where a `const` field is evaluated: a batch's first point, built once."""
        if not self.batch:
            return self
        if self._head is None:
            self._head = Point(self.chart, self.coords[0])
        return self._head

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


def tile_points(sample, n) -> Point:
    """The sample as a batch repeated n times, one block after another: a
    tiled point, whose `base` is that batch.  There a field that reads no
    field stacked by blocks (`stack_fields`) is served from its jets at the
    base, tiled, and a stacked field gives block i its i-th field's."""
    batch = as_batch(sample)
    tiled = Point(batch.chart, np.tile(batch.coords, (n, 1)))
    tiled.base = batch
    return tiled


def as_batch(sample) -> Point:
    """The sample of a check as a batch: a batch `Point` as it is, a single
    point as a batch of one.  A sample is always one `Point`, which cannot
    be empty; anything else, such as a list of points, raises TypeError."""
    if not isinstance(sample, Point):
        raise TypeError(f"a sample is one Point (see stack_points), not {type(sample).__name__}")
    return sample if sample.batch else Point(sample.chart, sample.coords[None])


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
# Jet arithmetic on coefficient arrays
# --------------------------------------------------------------------------

# Each kernel takes the jet context and its operands as coefficient arrays,
# each followed by its degree bound (see `JetArray`), and returns the
# result's (coeffs, deg).  `_KERNELS` names the kernel of each operation of
# an expression tree: a `Tape` runs it on the slots of its buffer, and the
# JetArray operators and methods call the same one.

def _add(ctx, ca, da, cb, db):
    return np.add(ca, cb), max(da, db)


def _subtract(ctx, ca, da, cb, db):
    return np.subtract(ca, cb), max(da, db)


def _negative(ctx, c, d):
    return np.negative(c), d


def _product(ctx, ca, da, cb, db):
    """The elementwise product, broadcast as numpy broadcasts.  A zero
    operand gives zeros and a constant one its value times the other; two
    non-constant operands run the truncated Cauchy product, each
    coefficient's pairs summed down its column of `_product_tables` from 0,
    as `tdot` sums them."""
    if da < 0 or db < 0:
        return np.zeros(np.broadcast_shapes(ca.shape, cb.shape)), -1
    if da == 0:
        out = ca[..., :1] * cb
    elif db == 0:
        out = ca * cb[..., :1]
    else:
        ga, gb, mask = _product_tables(ctx)
        out = (ca[..., ga] * cb[..., gb]).sum(axis=-2, where=mask)
    return out, min(da + db, ctx.order)


def _quotient(ctx, ca, da, cb, db):
    """The elementwise quotient: a times the reciprocal of b."""
    return _product(ctx, ca, da, *_reciprocal(ctx, cb, db))


def _power(ctx, c, d, n):
    """The elementwise power c ** n for an integer n, by squaring; a
    negative n inverts first."""
    if not isinstance(n, (int, np.integer)):
        raise DomainError("jet exponent must be an integer")
    n = int(n)
    if n < 0:
        return _power(ctx, *_reciprocal(ctx, c, d), -n)
    if n == 0:
        return _constant(ctx, np.ones(c.shape[:-1]))
    result, base = None, (c, d)
    while n:
        if n & 1:
            result = base if result is None else _product(ctx, *result, *base)
        n >>= 1
        if n:
            base = _product(ctx, *base, *base)
    return result


def _constant(ctx, values):
    """Constant jets of `values`, degree 0 even where the values vanish."""
    coeffs = np.zeros(np.shape(values) + (ctx.n,))
    coeffs[..., 0] = values
    return coeffs, 0


def _compose(ctx, c, d, derivs):
    """f(c), given derivs[m], the m-th derivative of f at the values (one
    per jet): the sum of derivs[m] / m! h^m, with h the nonconstant,
    nilpotent part of c.  The degree of the result and the path of each
    product follow d alone, never the values of f's derivatives."""
    h = c.copy()
    h[..., 0] = 0.0
    power, acc = (h, d), _constant(ctx, derivs[0])
    for m in range(1, ctx.order + 1):
        if m > 1:
            power = _product(ctx, *power, h, d)
        term = _product(ctx, *power, *_constant(ctx, derivs[m] / math.factorial(m)))
        acc = _add(ctx, *acc, *term)
    return acc


def _reciprocal(ctx, c, d):
    """Elementwise 1 / c, the series of 1/x about the values: its m-th
    derivative there is d_m = (-1)^m m! / x^(m+1) = d_(m-1) (-m / x),
    formed by products alone, so a batch gets each jet's own bits."""
    vals = c[..., 0]
    if not np.all(vals):
        raise DivisionByZero("division by a jet with zero value")
    derivs = [1.0 / vals]
    for m in range(1, ctx.order + 1):
        derivs.append(derivs[-1] * (-m * derivs[0]))
    return _compose(ctx, c, d, derivs)


def _sin(ctx, c, d):
    x = c[..., 0]
    cycle = [np.sin(x), np.cos(x), -np.sin(x), -np.cos(x)]
    return _compose(ctx, c, d, [cycle[m % 4] for m in range(ctx.order + 1)])


def _cos(ctx, c, d):
    x = c[..., 0]
    cycle = [np.cos(x), -np.sin(x), -np.cos(x), np.sin(x)]
    return _compose(ctx, c, d, [cycle[m % 4] for m in range(ctx.order + 1)])


def _exp(ctx, c, d):
    return _compose(ctx, c, d, [np.exp(c[..., 0])] * (ctx.order + 1))


def _sqrt(ctx, c, d):
    x = c[..., 0]
    bad = x <= 0.0
    if bad.any():
        raise DomainError(f"sqrt of non-positive value {x[bad].flat[0]}")
    derivs, coef = [], 1.0
    for m in range(ctx.order + 1):
        derivs.append(coef * x ** (0.5 - m))
        coef *= 0.5 - m
    return _compose(ctx, c, d, derivs)


_KERNELS = {ex.Neg: _negative, ex.Add: _add, ex.Sub: _subtract, ex.Mul: _product,
            ex.Div: _quotient, ex.Pow: _power, ex.Sin: _sin, ex.Cos: _cos, ex.Exp: _exp,
            ex.Sqrt: _sqrt}


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------

def eval_expr(e, coords, order) -> JetArray:
    """Truncated Taylor expansion at `coords` of an expression tree, or of
    the components a `Tape` or a `RecentringTable` was compiled from, exact
    to rounding.

    Coords of shape (dim,) give one point and (B, dim) a batch, all B points
    in one pass.  A tree gives a 0-d JetArray (one axis for the batch); a
    tape gives its tensor shape.  The coefficients are C-contiguous and
    `deg` is the exact degree of their highest nonzero block.  A DomainError
    or DivisionByZero names the first point where some component cannot be
    evaluated."""
    coords = np.asarray(coords, dtype=float)
    ctx = context(coords.shape[-1], order)
    tape = e if isinstance(e, (Tape, RecentringTable)) else Tape([e], (), ctx.dim)
    try:
        return tape.run(coords, ctx)
    except (DomainError, DivisionByZero) as exc:
        if coords.ndim == 1:
            raise type(exc)(f"{exc} at Point({coords.tolist()})") from None
        for row in coords:  # raises at the first failing point
            eval_expr(tape, row, order)
        raise


class Tape:
    """A forest of expression trees compiled once into an evaluation tape
    (the Taylor-propagation tape of Griewank & Walther, Evaluating
    Derivatives, 2008).  A field takes a tape when some component is not a
    monomial sum, or when it reads no coordinate (see `compile_components`);
    a monomial sum's coefficients have a closed form that `RecentringTable`
    computes without a tape.

    Each distinct node has one slot of a buffer of shape (*batch, slots,
    ncoef): structurally equal subtrees share it, and constants are keyed
    by the type and the bits of their float value, so 0.0 and -0.0 stay
    apart.  A run fills the leaves' slots, then takes the other nodes in
    post-order, one step each: its operation's kernel in `_KERNELS` on its
    operands' slots.  It carries each slot's degree bound as the kernel
    returns it, so every product takes the zero, constant or Cauchy path
    its tree alone takes, and each slot gets the bits its tree alone gets.
    """

    def __init__(self, trees, shape, dim):
        index, seen = {}, {}  # structural key -> slot; id(tree) -> slot
        consts, coords, self.steps = [], [], []  # (slot, value), (slot, coordinate), steps

        def visit(e):  # post-order: a node's slot comes after its operands'
            i = seen.get(id(e))
            if i is not None:
                return i
            t = type(e)
            if t is ex.Const:
                key = (t, type(e.value), float(e.value).hex())
            elif t is ex.Coord:
                if e.index >= dim:
                    raise DimensionMismatch(
                        f"expression coordinate {e.index} out of range for dim {dim}")
                key = (t, e.index)
            elif t in _KERNELS:
                extra = (e.exponent,) if t is ex.Pow else ()
                args = tuple(visit(getattr(e, f)) for f in e.__match_args__ if f != "exponent")
                key = (t, args, extra, tuple(map(type, extra)))
            else:
                raise TypeError(f"not an expression node: {e!r}")
            i = index.get(key)
            if i is None:
                i = index[key] = len(index)
                if t is ex.Const:
                    consts.append((i, float(e.value)))
                elif t is ex.Coord:
                    coords.append((i, e.index))
                else:
                    self.steps.append((i, _KERNELS[t], args, extra))
            seen[id(e)] = i
            return i

        self.out = np.array([visit(e) for e in trees], dtype=int)
        del visit  # which its own closure holds: a cycle the collector would have to free
        self.shape = tuple(shape)
        self.size = len(index)
        self.const_slots = np.array([i for i, _ in consts], dtype=int)
        self.const_values = np.array([v for _, v in consts])
        self.coord_slots = np.array([i for i, _ in coords], dtype=int)
        self.coord_index = np.array([v for _, v in coords], dtype=int)
        self.reads = bool(coords)  # whether the forest reads a coordinate
        self.degrees = [0] * self.size  # each leaf's degree bound at orders >= 1
        for i, v in consts:
            self.degrees[i] = 0 if v else -1
        for i, _ in coords:
            self.degrees[i] = 1

    def run(self, coords, ctx) -> JetArray:
        """The forest's jets at coords of shape (*batch, dim); see `eval_expr`."""
        batch = coords.shape[:-1]
        buf = np.zeros(batch + (self.size, ctx.n))
        buf[..., self.const_slots, 0] = self.const_values
        buf[..., self.coord_slots, 0] = coords[..., self.coord_index]
        if ctx.order:
            buf[..., self.coord_slots, 1 + self.coord_index] = 1.0
        deg = [min(d, ctx.order) for d in self.degrees]  # a step sets its own from its kernel
        for i, kernel, args, extra in self.steps:
            operands = [x for a in args for x in (buf[..., a, :], deg[a])]
            buf[..., i, :], deg[i] = kernel(ctx, *operands, *extra)
        out = buf.take(self.out, axis=-2).reshape(batch + self.shape + (ctx.n,))
        return _exact_jets(ctx, out, len(batch))


def _exact_jets(ctx, out, nb) -> JetArray:
    """The coefficients `out` as jets whose `deg` is the exact degree of
    their highest nonzero block."""
    nonzero = np.flatnonzero(out.reshape(-1, ctx.n).any(axis=0))
    return JetArray(ctx, out, int(ctx.degree[nonzero[-1]]) if nonzero.size else -1, nb)


class RecentringTable:
    """The components of a field that are sums of monomial terms (see
    `expr.monomial_terms`), evaluated in closed form instead of by a `Tape`.

    A term c x^beta has at p the stored coefficient of alpha
    c prod_v C(beta_v, alpha_v) p_v^(beta_v - alpha_v): the polynomial
    re-centred at p needs no node-by-node propagation.  Per jet order, a
    table built once lists the entries of each target (component, alpha):
    the terms with alpha <= beta, in the order the tree lists them, each
    with its weight c prod_v C(beta_v, alpha_v) and the powers its monomial
    reads.  A run builds one power table p_v^j by repeated multiplication,
    gathers each entry's powers and multiplies them in coordinate order and
    then by its weight, and sums each target's entries down its column of
    the padded table, as `*` sums its pairs.  So a target's bits do not
    depend on the order asked or the batch, and the field is order-stable.
    Terms with a zero coefficient are dropped, as a tape's product by an
    exact zero drops them.
    """

    reads = True  # a coordinate, which `compile_components` requires

    def __init__(self, terms, shape, dim):
        comp, coef, beta = [], [], []
        for c, comp_terms in enumerate(terms):
            for w, powers in comp_terms:
                if w:
                    comp.append(c)
                    coef.append(float(w))
                    beta.append([powers.get(v, 0) for v in range(dim)])
        self.shape = tuple(shape)
        self.size = len(terms)
        self.comp = np.array(comp, dtype=int)
        self.coef = np.array(coef)
        self.beta = np.array(beta, dtype=int).reshape(len(coef), dim)
        self.top = int(self.beta.max(initial=0))  # the highest power read
        # Each term's coordinates, those it reads first, in coordinate order:
        # an entry multiplies its powers in this order, p_v^0 = 1 for the rest.
        k = max(1, int(np.count_nonzero(self.beta, axis=1).max(initial=0)))
        self.factors = np.argsort(self.beta == 0, axis=1, kind="stable")[:, :k]
        self._tables = {}  # order -> (index, weights, mask, live), see _table

    def _table(self, ctx):
        """The padded column table of `ctx`, shape (R, L) with L >= 2 columns,
        one per live target (flat index `live` into (component, alpha)), its
        entries down the rows: the power-table `index` (k, R, L) of each
        entry's monomial, its `weights` and the `mask` of real entries."""
        alphas = _exponents(ctx)
        t, a = np.nonzero((alphas <= self.beta[:, None, :]).all(axis=-1))
        target = self.comp[t] * ctx.n + a
        by = np.argsort(target, kind="stable")  # target-major, terms in tree order
        t, a, target = t[by], a[by], target[by]
        new = np.ones(len(target), dtype=bool)
        new[1:] = target[1:] != target[:-1]
        col = np.cumsum(new) - 1
        start = np.flatnonzero(new)
        rank = np.arange(len(target)) - start[col]
        beta, gamma = self.beta[t], self.beta[t] - alphas[a]
        weight = self.coef[t] * _binomials(self.top, ctx.order)[beta, alphas[a]].prod(axis=-1)
        v = self.factors[t]
        reads = v * (self.top + 1) + np.take_along_axis(gamma, v, axis=1)
        # Two columns at least: numpy sums a single column pairwise.
        shape = (int(rank.max(initial=-1)) + 1, max(len(start), 2))
        index, weights = np.zeros((v.shape[1],) + shape, dtype=int), np.zeros(shape)
        mask = np.zeros(shape, dtype=bool)
        index[:, rank, col], weights[rank, col], mask[rank, col] = reads.T, weight, True
        return index, weights, mask, target[start]

    def run(self, coords, ctx) -> JetArray:
        """The components' jets at coords of shape (*batch, dim); see `eval_expr`."""
        table = self._tables.get(ctx.order)
        if table is None:
            table = self._tables[ctx.order] = self._table(ctx)
        index, weights, mask, live = table
        batch = coords.shape[:-1]
        powers = np.empty(batch + (ctx.dim, self.top + 1))
        powers[..., 0] = 1.0
        powers[..., 1:] = coords[..., None]
        powers = np.multiply.accumulate(powers, axis=-1).reshape(batch + (-1,))
        terms = np.multiply.reduce(powers.take(index, axis=-1), axis=-3) * weights
        out = np.zeros(batch + (self.size * ctx.n,))
        out[..., live] = terms.sum(axis=-2, where=mask)[..., : len(live)]
        return _exact_jets(ctx, out.reshape(batch + self.shape + (ctx.n,)), len(batch))


@lru_cache(maxsize=None)
def _exponents(ctx):
    """The multi-indices of `ctx` as an (n, dim) integer array."""
    return np.array(ctx.alphas, dtype=int).reshape(ctx.n, ctx.dim)


@lru_cache(maxsize=None)
def _binomials(top, order):
    """C(b, a) for b <= top and a <= order, as floats, zero for a > b."""
    return np.array([[math.comb(b, a) for a in range(order + 1)] for b in range(top + 1)],
                    dtype=float)


# A re-centring table holds every power of a coordinate up to the highest one
# its terms read, one multiplication each; a tape squares.  So a higher
# power, which a spec may give, stays on the tape.
MAX_TABLE_POWER = 64


def compile_components(trees, shape, dim):
    """A field's evaluator: a `RecentringTable` when every component tree is
    a monomial sum, one reads a coordinate and no power exceeds
    MAX_TABLE_POWER, else a `Tape`.  So `const` fields, division
    by a subtree that reads a coordinate or is zero, negative powers, sin,
    cos, exp, sqrt and products of sums stay on the tape; a coordinate out
    of range goes there too, which raises on it."""
    trees = list(trees)
    terms = [ex.monomial_terms(e) for e in trees]
    if all(t is not None for t in terms):
        powers = [p for comp in terms for _, p in comp]
        read = {v for p in powers for v in p}
        if (read and max(read) < dim
                and max(n for p in powers for n in p.values()) <= MAX_TABLE_POWER):
            return RecentringTable(terms, shape, dim)
    return Tape(trees, shape, dim)


def _as_expr(chart, source):
    """A chart scalar (an int, a float, source text or an `expr` tree) as a
    tree over the chart's coordinates.  A bool is not one (JSON's `true`
    would read as 1)."""
    if isinstance(source, (int, np.integer)) and not isinstance(source, bool):
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
        return self._combine(other, _add)

    def __sub__(self, other):
        return self._combine(other, _subtract)

    def _combine(self, other, kernel):
        if not isinstance(other, JetArray):
            return NotImplemented
        a, b = self, other
        ca, cb = a.coeffs, b.coeffs
        if ca.shape[a.nb:-1] != cb.shape[b.nb:-1]:
            raise RankMismatch(f"tensor shapes differ: {a.shape} vs {b.shape}")
        if a.ctx is not b.ctx:
            a, b = _common(a, b)
            ca, cb = a.coeffs, b.coeffs
        return JetArray(a.ctx, *kernel(a.ctx, ca, a.deg, cb, b.deg), max(a.nb, b.nb))

    def __neg__(self):
        return self._apply(_negative)

    def _apply(self, kernel, *extra):
        """This array's image under an elementwise kernel of `_KERNELS`."""
        return JetArray(self.ctx, *kernel(self.ctx, self.coeffs, self.deg, *extra), self.nb)

    def __mul__(self, other):
        """Elementwise product: with a float, or with a JetArray broadcast
        against this one over the tensor axes as numpy broadcasts (and over
        the batch).  A zero or constant operand takes the degree rule of
        `tdot`; two non-constant operands run the truncated Cauchy product,
        each coefficient's pairs summed down its column of `_product_tables`
        from 0, as `tdot` sums them, so the result does not depend on the
        shapes."""
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
        try:
            out, deg = _product(a.ctx, ca, a.deg, cb, b.deg)
        except ValueError:
            raise RankMismatch(f"tensor shapes {a.shape} and {b.shape} do not broadcast") from None
        return JetArray(a.ctx, out, deg, max(a.nb, b.nb))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * other.reciprocal() if isinstance(other, JetArray) else NotImplemented

    def reciprocal(self) -> "JetArray":
        """Elementwise 1 / self; raises DivisionByZero at a zero value."""
        return self._apply(_reciprocal)

    def __pow__(self, n):
        """Elementwise integer power, by squaring; a negative n inverts first."""
        return self._apply(_power, n)

    def sin(self):
        return self._apply(_sin)

    def cos(self):
        return self._apply(_cos)

    def exp(self):
        return self._apply(_exp)

    def sqrt(self):
        return self._apply(_sqrt)

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


def per_point_max(arr, nb=1):
    """max |arr| over all but its `nb` (0 or 1) leading batch axes, 0 where
    there is nothing: a float for nb = 0, one value per point for nb = 1."""
    if not nb:
        return float(np.max(np.abs(arr))) if arr.size else 0.0
    flat = np.abs(arr.reshape(arr.shape[0], -1))
    return flat.max(axis=1) if flat.shape[1] else np.zeros(arr.shape[0])


def project_slots(arr, *frames):
    """out[p, k_1, ..., k_n] = arr[p, a_1, ..., a_n] frames[0][p, a_1, k_1] ...
    frames[n-1][p, a_n, k_n], plain values with a leading point axis: a chain
    of n batched `matmul`s, each contracting the last axis and moving its
    new axis to the front.  A frame of None leaves its axis as it is."""
    for frame in reversed(frames):
        if frame is not None:
            lead = arr.shape[:-1]
            arr = (arr.reshape(lead[0], -1, arr.shape[-1]) @ frame).reshape(
                lead + frame.shape[-1:])
        arr = arr.transpose((0, arr.ndim - 1, *range(1, arr.ndim - 1)))
    return arr


Reduction = namedtuple("Reduction", "maxima passed witnesses max_residual")


def reduce_points(arrays, tol=0.0, coords=None, limits=None, witness=None) -> Reduction:
    """The one reduction of a check's per-point arrays: each maximum, the
    verdict, the witnesses and the largest, NaN if one is.  Arrays computed
    on consecutive blocks of a sample and concatenated reduce as the whole's.

    `arrays` maps a name to an array of shape (B,), or (B, k) with an index
    such as a triple or a condition; a 0-d array is a value of the whole
    sample.  `limits` maps a name to its (kind, bound): a "gate" passes where
    every entry is <= bound, a "defect" where its maximum is > bound, and a
    "measurement" is not judged; an array it does not name is a gate at
    `tol`.  Each array has one maximum, under its name.

    `witness` is None or (rule, value key, index key, array key).  Gates and
    defects give the witnesses, each with its point (a row of `coords`) and
    its value under the value key:
    - "worst": one per array with a nonzero entry, at its first maximum in
      point-major order, with its index from 0 and the array's number in
      declaration order (from 1, a string) under the array key; ordered by
      the array's first positive entry, then by that number;
    - "failures": every entry of a gate that is not <= its bound, array by
      array in point-major order, with its index from 1.  Here an array with
      an index has one maximum per index entry: its name and that number.
    """
    rule, value, index, label = (*(witness or ()), None, None, None, None)[:4]
    maxima, passed, found = {}, True, []
    for number, (name, arr) in enumerate(arrays.items(), 1):
        kind, bound = (limits or {}).get(name, ("gate", tol))
        rows = np.atleast_1d(np.asarray(arr, dtype=float))
        indexed, rows = rows.ndim == 2, rows.reshape(len(rows), -1)
        split = rule == "failures" and indexed
        for j, col in enumerate(rows.T if split else [rows]):
            worst = float(col.max()) if col.size else 0.0
            maxima[f"{name}{j + 1}" if split else name] = worst
            if kind != "measurement":
                passed &= worst <= bound if kind == "gate" else worst > bound
        if kind == "measurement":
            continue
        if rule == "worst" and rows.any():
            p, j = divmod(i := int(rows.argmax()), rows.shape[1])
            wit = {"point": coords[p].tolist(), value: float(rows.flat[i])}
            wit |= ({index: j} if indexed else {}) | ({label: str(number)} if label else {})
            found.append(((int(np.argmax(rows > 0.0)), number), wit))
        elif rule == "failures" and kind == "gate":
            found += [((0, 0), {"point": coords[p].tolist(), value: float(rows[p, j])}
                       | ({index: int(j) + 1} if indexed else {}))
                      for p, j in zip(*np.nonzero(~(rows <= bound)))]
    witnesses = [wit for _, wit in sorted(found, key=lambda f: f[0])]
    return Reduction(maxima, passed, witnesses, float(np.max([0.0, *maxima.values()])))


def per_point(point, x: JetArray) -> JetArray:
    """`x`, jets evaluated at `point`, with one entry per point: jets of a
    `const` field carry no batch axis, so at a batch they are broadcast to it
    (a read-only view).  Every reader that promises one entry per point does."""
    if x.nb or not point.batch:
        return x
    return JetArray(x.ctx, np.broadcast_to(x.coeffs, point.batch + x.coeffs.shape), x.deg, 1)


def _common(a: JetArray, b: JetArray):
    """The two operands at the lower of their orders."""
    if a.ctx.dim != b.ctx.dim:
        raise DimensionMismatch(f"jet dims differ: {a.ctx.dim} vs {b.ctx.dim}")
    if a.ctx.order == b.ctx.order:
        return a, b
    k = min(a.ctx.order, b.ctx.order)
    return truncate_jets(a, k), truncate_jets(b, k)


@lru_cache(maxsize=None)
def _product_tables(ctx):
    """The truncated Cauchy product of `ctx` as (ga, gb, mask), each of shape
    (R, ctx.n): column t lists the pairs (ga, gb) of coefficient t in pair
    order, padded with mask False to the largest count R.  `*` and `tdot`
    both sum each column down, from 0 and skipping the padding, so a
    coefficient's sum is the same at every order (order-stable) and in
    either kernel.
    """
    ia, ib, it = ctx._mul_a, ctx._mul_b, ctx._mul_t
    by_target = np.argsort(it, kind="stable")
    t = it[by_target]
    rank = np.arange(len(t)) - np.searchsorted(t, t)  # place among t's pairs
    ga, gb = (np.zeros((rank.max() + 1, ctx.n), dtype=int) for _ in range(2))
    mask = np.zeros(ga.shape, dtype=bool)
    ga[rank, t], gb[rank, t], mask[rank, t] = ia[by_target], ib[by_target], True
    return ga, gb, mask


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
def _tdot_plan(shape_a, shape_b, nb_a, nb_b, ctx, const_a, const_b, *axes):
    """The layout of `tdot` for the operands' tensor shapes, batch ranks, jet
    context and constancy (deg 0), and `axes`: a's axes, None, then b's.

    Returns ((ka, pa, sa), (kb, pb, sb), po, so).  Operand a is
    a.coeffs[ka].transpose(pa).reshape(sa), one (m, c) matrix per
    coefficient after its batch axes; b the same, with (c, q) matrices.  A
    constant operand (a if both are) is its value alone, one matrix, which
    broadcasts over the other's coefficients.  `po` moves the coefficient
    axis of the products last; `so` is the result's coefficient-array shape,
    with a -1 batch size.
    """
    na, nb, cut = len(shape_a), len(shape_b), axes.index(None)
    ax_a = tuple(x % na for x in axes[:cut])
    ax_b = tuple(x % nb for x in axes[cut + 1:])
    free_a = tuple(i for i in range(na) if i not in ax_a)
    free_b = tuple(i for i in range(nb) if i not in ax_b)
    m = math.prod(shape_a[i] for i in free_a)
    c = math.prod(shape_a[i] for i in ax_a)
    q = math.prod(shape_b[i] for i in free_b)
    lead = (-1,) * max(nb_a, nb_b)

    def operand(nbo, coef, axes_, rows, cols, const):
        count = 1 if const else ctx.n
        return ((..., slice(count)), (*range(nbo), *(x + nbo for x in (coef, *axes_))),
                (-1,) * nbo + (count, rows, cols))

    return (
        operand(nb_a, na, free_a + ax_a, m, c, const_a),
        operand(nb_b, nb, ax_b + free_b, c, q, const_b and not const_a),
        (*range(len(lead)), *(x + len(lead) for x in (1, 2, 0))),
        lead + tuple(shape_a[i] for i in free_a) + tuple(shape_b[i] for i in free_b) + (ctx.n,),
    )


def tdot(a, b, axes) -> JetArray:
    """np.tensordot for tensors of jets; a full contraction gives a 0-d array.

    The batch axes are carried: a batched and an unbatched operand broadcast
    as numpy's matmul does.  A zero operand gives zeros.  Every other
    contraction is one batched matrix product of coefficient pairs, a[i] @
    b[j] over the tensor axes for each pair (i, j) (and each point).  With a
    constant operand the pairs are its value times each coefficient of the
    other, one per coefficient of the result; otherwise they are the pairs
    of the truncated Cauchy product, summed down the table of
    `_product_tables` as `*` sums them: an outer product is the broadcast `*`.

    The result is order-stable (at order k, bit for bit, the result at
    order k + 1 truncated to k), and a batch gives each point its own bits,
    for any contraction.  Each coefficient sums its own pairs in a fixed
    order, and each pair product is a matrix product of C-contiguous
    matrices (`take` or `np.ascontiguousarray` copies them) whose shapes do
    not depend on the order or the batch, so BLAS computes it with the same
    kernel, on the same strides, wherever it is asked.
    """
    if a.ctx is not b.ctx:
        a, b = _common(a, b)
    ca, cb, ctx, nb = a.coeffs, b.coeffs, a.ctx, a.nb or b.nb
    (ka, pa, sa), (kb, pb, sb), po, so = _tdot_plan(
        ca.shape[a.nb:-1], cb.shape[b.nb:-1], a.nb, b.nb, ctx, a.deg == 0, b.deg == 0,
        *axes[0], None, *axes[1])
    if a.deg < 0 or b.deg < 0:
        return JetArray(ctx, np.zeros((ca.shape[:a.nb] or cb.shape[:b.nb]) + so[nb:]), -1, nb)
    x, y = ca[ka].transpose(pa).reshape(sa), cb[kb].transpose(pb).reshape(sb)
    if a.deg == 0 or b.deg == 0:
        out = np.ascontiguousarray(x) @ np.ascontiguousarray(y)
    else:  # (*batch, R, n, m, q) pair products, each coefficient's summed down its column
        ga, gb, mask = _product_tables(ctx)
        out = (x.take(ga, axis=a.nb) @ y.take(gb, axis=b.nb)).sum(
            axis=nb, where=mask[:, :, None, None])
    return JetArray(ctx, out.transpose(po).reshape(so), min(a.deg + b.deg, ctx.order), nb)


def contract_value(point, t, *vectors):
    """Value of t with each vector contracted, in turn, into its first axis,
    all evaluated at `point`: a float for one point, one per point for a
    batch."""
    for v in vectors:
        t = tdot(t, v, ([0], [0]))
    vals = per_point(point, t).values()
    return vals if point.batch else float(vals)


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


def concat_jets(parts) -> JetArray:
    """Tensors joined along their first tensor axis, at the lowest of their
    orders; unbatched parts are broadcast to the batch of the others."""
    k = min(x.ctx.order for x in parts)
    parts = [truncate_jets(x, k) for x in parts]
    batch = max((x.batch for x in parts), key=len)
    coeffs = [np.broadcast_to(x.coeffs, batch + x.coeffs.shape[x.nb:]) for x in parts]
    return JetArray(parts[0].ctx, np.concatenate(coeffs, axis=len(batch)),
                    max(x.deg for x in parts), len(batch))


def stack_fields(fields) -> Field:
    """The fields, all of one rank, stacked by blocks: at a point that tiles
    a batch len(fields) times (`tile_points`), block i holds fields[i] at
    that batch, each point with the bits it gets there; the `deg` is the
    highest of the blocks'.  It and every field that reads it are `blocked`,
    and it evaluates only at such a point."""
    fields = tuple(fields)
    first = fields[0]
    for f in fields:
        _same_rank(first, f)
    sym = first.sym if all(f.sym == first.sym for f in fields) else None

    def fn(p, k):
        base = p.base
        if base is None or len(p.coords) != len(fields) * len(base.coords):
            raise DimensionMismatch(f"a stack of {len(fields)} fields evaluates only at a "
                                    f"point tiling a batch {len(fields)} times")
        parts = [per_point(base, f.at(base, k)) for f in fields]
        return JetArray(parts[0].ctx, np.concatenate([x.coeffs for x in parts]),
                        max(x.deg for x in parts), 1)

    return DerivedField(first.chart, first.r, first.s, fn, sym, fields, blocks=True)


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
    """Base: anything producing component jets at a point.  `const` (set
    only by the constructors here) marks a field that reads no coordinate,
    and `blocked` (set there too) one that reads a field stacked by blocks
    (`stack_fields`), whose jets differ from block to block of a tiled
    point."""

    def __init__(self, chart, r, s, sym=None, const=False, blocked=False):
        self.chart = chart
        self.r = r
        self.s = s
        self.sym = sym
        self.const = const
        self.blocked = blocked
        self._memo = None  # (point.key or None if const, order, JetArray), see _memo_at

    @property
    def rank(self):
        return (self.r, self.s)

    def at(self, point, order=0) -> JetArray:
        """Jets of the components at `point`, tensor shape (dim,)*(r+s); at a
        batch of points the JetArray carries the batch axis too, unless the
        field is `const`: then it has none, at every point and batch.

        The subclasses memoise this with `_memo_at`: the jets of the most
        recent point or batch (of any point, for a `const` field) are kept
        at the highest order asked there, and a request there at that order
        or lower is their prefix slice; a new point or batch is evaluated
        at that order too, if it is higher than the one asked.  So a field's
        jets must be a function of (point, order), as the order-stable
        kernels make them (see the module docstring).  The caller gets a
        read-only array it may share with other callers.
        """
        raise NotImplementedError

    def values(self, point) -> np.ndarray:
        """The components' values, one entry per point of a batch."""
        return per_point(point, self.at(point, 0)).values()

    def max_abs(self, point):
        """Largest |value| over the components, one per point of a batch."""
        return per_point(point, self.at(point, 0)).max_abs()

    def __add__(self, other):
        _same_rank(self, other)
        sym = self.sym if self.sym == other.sym else None
        return DerivedField(self.chart, self.r, self.s,
                            lambda p, k: self.at(p, k) + other.at(p, k), sym, (self, other))

    def __sub__(self, other):
        _same_rank(self, other)
        sym = self.sym if self.sym == other.sym else None
        return DerivedField(self.chart, self.r, self.s,
                            lambda p, k: self.at(p, k) - other.at(p, k), sym, (self, other))

    def __mul__(self, c):
        if isinstance(c, (int, float)):
            return DerivedField(self.chart, self.r, self.s,
                                lambda p, k: self.at(p, k) * float(c), self.sym, (self,))
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)


def _memo_at(at):
    """Give `Field.at` its one-entry memo: the most recent point (or batch)
    and its result at the highest order asked there.

    A request at that point for the same order or lower is served by a
    prefix slice, bit for bit the jets that order gives; a higher order
    evaluates and replaces the entry, unless it raises.  A new point or
    batch is evaluated at the higher of the order asked and the entry's, and
    served by the slice, so fresh points read at the same orders evaluate
    the field once each; the price is that a field once read at order k
    evaluates every later point at k.  If that raises a ParahermError, the
    order asked is evaluated instead, so a request returns or raises what
    it would on an empty memo: a retry only on an error path, once per
    nesting level.  A `const` field's entry ignores the point: it is
    evaluated at the first point asked, so without a batch axis, and serves
    every point and batch.  A field that is not `blocked` is served at a
    tiled point (`tile_points`) by its jets at the base, tiled, and keeps
    its entry there: every block reads the same jets, and the entry stays
    for the readers of the base.  The entry records the order it was
    evaluated at, which was within the chart's jet-order budget, so a memo
    never serves a request past it.  The result is made read-only, because every
    caller shares it.  Memory stays one entry per field, whatever the
    number of points.
    """

    @wraps(at)
    def memo_at(self, point, order=0):
        memo = self._memo  # (key, order, jets); the key of a `const` field is None
        if memo is not None and order <= memo[1] and (memo[0] is None or memo[0] == point.key):
            return memo[2] if order == memo[1] else truncate_jets(memo[2], order)
        if point.base is not None and not (self.blocked or self.const):
            return _tiled(memo_at(self, point.base, order), point)
        self.chart.context(order)  # raises InsufficientJetOrder past the budget
        key = None if self.const else point.key
        point = point if key is not None else point.head()
        top = order if memo is None else max(order, memo[1])  # memo[1] < order at its key
        try:
            value = at(self, point, top)
        except ParahermError:
            if top == order:
                raise
            top, value = order, at(self, point, order)
        value.coeffs.flags.writeable = False
        self._memo = (key, top, value)
        return value if top == order else truncate_jets(value, order)

    return memo_at


def _tiled(x: JetArray, point) -> JetArray:
    """Jets evaluated at the base of the tiled `point`, repeated over its
    blocks (read-only); jets without a batch axis are kept as they are."""
    if not x.nb:
        return x
    coeffs = np.tile(x.coeffs, (len(point.coords) // len(x.coeffs),) + (1,) * (x.coeffs.ndim - 1))
    coeffs.flags.writeable = False
    return JetArray(x.ctx, coeffs, x.deg, 1)


class TensorField(Field):
    """An (r,s) tensor whose components are chart scalars: `expr` trees, or
    ints, floats or source text made into trees.  A (0,0) field is a scalar.

    The component array is dense, shape (dim,)**(r+s), upper indices first.
    A symmetry tag is an assertion checked numerically by validation suites,
    not a storage scheme.  The field is `const` when its tape reads no
    coordinate.
    """

    def __init__(self, chart, r, s, comps, sym=None):
        arr = np.empty((chart.dim,) * (r + s), dtype=object)
        comps = np.asarray(comps, dtype=object)
        if comps.shape != arr.shape:
            raise RankMismatch(
                f"component array has shape {comps.shape}, expected {arr.shape}"
            )
        for idx in np.ndindex(arr.shape):
            arr[idx] = _as_expr(chart, comps[idx])
        self.comps = arr
        self.tape = compile_components(arr.flat, arr.shape, chart.dim)
        super().__init__(chart, r, s, sym=sym, const=not self.tape.reads)

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
    """A field backed by a procedure (point, order) -> JetArray.  It is
    `const` when it declares the fields its procedure reads, as `inputs`,
    and all of them are `const`; a procedure that declares none is not.  It
    is `blocked` when one of its inputs is, or when it stacks them by blocks
    itself (`blocks`, which only `stack_fields` sets; such a field is never
    `const`)."""

    def __init__(self, chart, r, s, fn, sym=None, inputs=(), blocks=False):
        const, blocked = bool(inputs) and not blocks, blocks
        for f in inputs:
            const = const and f.const
            blocked = blocked or f.blocked
        super().__init__(chart, r, s, sym, const, blocked)
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

    return DerivedField(X.chart, 1, 0, fn, inputs=(X, Y))


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

    return DerivedField(T.chart, 0, T.s + 1, fn, sym="antisymmetric", inputs=(T,))


def interior_product(X: Field, T: Field) -> Field:
    """iota_X T: contract X into the first covariant slot."""
    _want_vector(X)
    _want_form(T)
    if T.s < 1:
        raise RankMismatch("interior product needs at least one covariant slot")

    def fn(p, k):
        return tdot(X.at(p, k), T.at(p, k), ([0], [0]))

    sym = "antisymmetric" if T.s > 2 else None
    return DerivedField(X.chart, 0, T.s - 1, fn, sym=sym, inputs=(X, T))


def scalar_pairing(T: Field, fields) -> Field:
    """Full contraction of a (0,k) field with k vector fields, each into the
    first remaining slot of T, as a (0,0) field."""

    def fn(p, k):
        comps = T.at(p, k)
        for X in fields:
            comps = tdot(comps, X.at(p, k), ([0], [0]))
        return comps

    return DerivedField(T.chart, 0, 0, fn, inputs=(T, *fields))


def lie_derivative(X: Field, T: Field) -> Field:
    """Cartan magic formula L_X = d iota_X + iota_X d on (0,k) forms; on a
    scalar (k = 0) it is iota_X d."""
    _want_vector(X)
    _want_form(T)
    if T.sym != "antisymmetric" and T.s > 1:
        raise NotAntisymmetric("Cartan formula needs an antisymmetric form")
    tagged = T if T.s == 0 or T.sym == "antisymmetric" else DerivedField(
        T.chart, 0, T.s, lambda p, k: T.at(p, k), sym="antisymmetric", inputs=(T,)
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

    return DerivedField(a.chart, 0, ka + kb, fn, sym="antisymmetric", inputs=(a, b))


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


def antisymmetry_residual(T: Field, sample, order=0) -> float:
    """Max violation of the full sign rule over the sample."""
    batch = as_batch(sample)
    vals = per_point(batch, T.at(batch, order)).values()
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
    With X0 the inverse of the values and H = M - M(value), step d of the
    Neumann series X <- X0 - (X0 H) X fixes the coefficients of degree d,
    so the result is order-stable.  A constant M takes no step.
    """
    vals = M.values()
    require_within(point, np.linalg.cond(vals), MAX_CONDITION, SingularMetric, "condition number")
    X0 = X = constant_jets(M.ctx, np.linalg.inv(vals), M.nb)
    if M.deg > 0:
        X0H = tdot(X0, M - constant_jets(M.ctx, vals, M.nb), ([1], [0]))
        for _ in range(M.ctx.order):
            X = X0 - tdot(X0H, X, ([1], [0]))
    return X


def musical(eta: Field, T: Field, slots, point, order=0) -> JetArray:
    """Raise or lower the given axes of T with eta at a point.

    Axes in T's contravariant range (below T.r) are lowered with eta and
    covariant axes are raised with eta^{-1}; axis positions are preserved.
    """
    ej = eta.at(point, order)
    inv = invert_matrix_jets(ej, point)
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

    return DerivedField(X.chart, 1, 0, fn, inputs=(E, X))
