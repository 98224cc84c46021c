"""Bracket operations: connection-associated brackets, projected brackets,
the D- and C-brackets, leafwise Dorfman brackets, the Schouten bracket and
the Courant-axiom test harness.

Brackets of fields return fields again (closures over jets), so nested
brackets for Jacobi-defect measurements come for free; each nesting level
pulls jets of one order higher from its inputs, against the chart budget.

The flat coordinate D-bracket at the bottom is an oracle: it is coded
directly from the index formula and shares nothing with the connection path
it is used to check.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .connections import (Connection, covariant_differential, covd_jets, nabla_jets,
                          require_torsionless)
from .errors import NotIntegrable, RankMismatch
from .geometry import (
    DerivedField,
    Field,
    apply_endomorphism,
    concat_jets,
    constant_jets,
    contract_value,
    exterior_derivative,
    interior_product,
    jets_gradient,
    lie_bracket,
    lie_derivative,
    require_within,
    scalar_pairing,
    stack_fields,
    tdot,
    tile_points,
)
from .parastructure import GeneralizedVector, bigraded_part_at

__all__ = [
    "GeneralizedVectorField", "pairing", "standard_dorfman",
    "dorfman_via_connection", "associated_bracket", "projected_bracket",
    "d_bracket", "c_bracket", "dorfman_leafwise", "leafwise_d",
    "jacobi_defect", "schouten_self", "schouten_scalar", "eta_pairing", "projected_anchor",
    "cyclic_triples", "courant_axiom_suite",
    "flat_coordinate_dbracket",
]


# --------------------------------------------------------------------------
# Generalized vectors as fields
# --------------------------------------------------------------------------

@dataclass
class GeneralizedVectorField:
    """Section X + alpha of (T + T*) over a chart (or a foliation of it)."""

    vec: Field
    cov: Field
    side: int = 0

    @property
    def chart(self):
        return self.vec.chart

    def at(self, point, order=0) -> GeneralizedVector:
        return GeneralizedVector(
            self.vec.at(point, order), self.cov.at(point, order), self.side
        )

    def __sub__(self, other):
        return GeneralizedVectorField(
            self.vec - other.vec, self.cov - other.cov, self.side
        )

    def __add__(self, other):
        return GeneralizedVectorField(
            self.vec + other.vec, self.cov + other.cov, self.side
        )


def pairing(e1: GeneralizedVectorField, e2: GeneralizedVectorField) -> Field:
    """<X + a, Y + b> = a(Y) + b(X), a (0,0) field."""
    return scalar_pairing(e1.cov, [e2.vec]) + scalar_pairing(e2.cov, [e1.vec])


def standard_dorfman(e1, e2) -> GeneralizedVectorField:
    """[X,Y] + L_X beta - L_Y alpha + d(alpha(Y)) on the full chart."""
    vec = lie_bracket(e1.vec, e2.vec)
    inner = scalar_pairing(e1.cov, [e2.vec])
    cov = (lie_derivative(e1.vec, e2.cov) - lie_derivative(e2.vec, e1.cov)
           + exterior_derivative(inner))
    return GeneralizedVectorField(vec, cov)


def dorfman_via_connection(C: Connection, e1, e2, check=False) -> GeneralizedVectorField:
    """Standard Dorfman via a torsionless connection:

    <[e1,e2], e3> = <nabla_{X1} e2 - nabla_{X2} e1, e3> + <nabla_{X3} e1, e2>.
    """
    chart = e1.chart

    def both(p, k):
        if check:
            require_torsionless(C, p)
        gamma = C.christoffels.at(p, k)
        x1 = e1.vec.at(p, k + 1)
        x2 = e2.vec.at(p, k + 1)
        a1 = e1.cov.at(p, k + 1)
        a2 = e2.cov.at(p, k + 1)
        nx1, na1 = nabla_jets(gamma, x1, 1, 0), nabla_jets(gamma, a1, 0, 1)
        vec = covd_jets(gamma, x1, x2, 1, 0) - tdot(x2, nx1, ([0], [0]))
        cov = covd_jets(gamma, x1, a2, 0, 1) - tdot(x2, na1, ([0], [0]))
        # + <nabla_Z e1, e2> as a covector in Z:
        #   alpha2(nabla_Z X1) + (nabla_Z alpha1)(X2)
        covX = tdot(nx1, a2, ([1], [0]))
        covA = tdot(na1, x2, ([1], [0]))
        return concat_jets([vec, cov + covX + covA])

    # One field of [vec; cov], so an evaluation computes both parts once.
    comps = DerivedField(chart, 1, 0, both,
                         inputs=(C.christoffels, e1.vec, e1.cov, e2.vec, e2.cov))
    n = chart.dim
    vecf = DerivedField(chart, 1, 0, lambda p, k: comps.at(p, k)[:n], inputs=(comps,))
    covf = DerivedField(chart, 0, 1, lambda p, k: comps.at(p, k)[n:], inputs=(comps,))
    return GeneralizedVectorField(vecf, covf)


# --------------------------------------------------------------------------
# Brackets associated to a connection on an almost para-Hermitian manifold
# --------------------------------------------------------------------------

def _bracket_core(C, S, X, Y, project, operands):
    """The one builder of bracket fields, which callers reach through S's
    table (`_shared_bracket`), apart from `maurer_cartan_sides` and `f_flux`,
    which bracket fields they build per call and share with no one:

        eta([X,Y], Z) = eta(nabla_X Y - nabla_Y X, Z) + eta(nabla_Z X, Y),

    with all three connection arguments projected by P_project when
    `project` is a sign (+1 or -1), none when it is None.  Only the second
    term needs raising, so the bracket is

        [X,Y]^J = w^J + R_X[J, A] eta(Y, .)_A,  w = P X . nabla Y - P Y . nabla X,

    with R_X[J, A] = M[J, I] nabla_I X^A, M = eta^-1 P^T (eta^-1 when
    unprojected): three contractions a point.  The body reads its operands,
    nabla X, nabla Y, eta(Y, .), P X, P Y and R_X, as fields of the table
    `operands` (S.operand_table, or a per-call dict), so brackets that share
    an operand evaluate it once per point; M is an operand there too, one
    per (eta^-1, P).  It reads nabla X and nabla Y first: they read X and Y
    one order above P X and P Y, so X's and Y's memos never climb."""
    P = None if project is None else S.projector(project)
    # NV[A, I] = nabla_I V^A
    NX, NY = (_operand(operands, covariant_differential, C, V) for V in (X, Y))
    EY = _operand(operands, _lowered, S.eta, Y)
    DX, DY = (X, Y) if P is None else (_operand(operands, apply_endomorphism, P, V)
                                       for V in (X, Y))
    M = S.eta_inv if P is None else _operand(operands, _raiser, S.eta_inv, P)
    RX = _operand(operands, _raised, M, NX)

    def fn(p, k):
        nx, ny = NX.at(p, k), NY.at(p, k)
        w = tdot(DX.at(p, k), ny, ([0], [1])) - tdot(DY.at(p, k), nx, ([0], [1]))
        return w + tdot(RX.at(p, k), EY.at(p, k), ([1], [0]))

    return DerivedField(S.chart, 1, 0, fn, inputs=(NX, NY, EY, DX, DY, RX))


def _lowered(eta, Y):
    """eta(Y, .), the covector Y^A eta_AB."""
    return DerivedField(Y.chart, 0, 1, lambda p, k: tdot(eta.at(p, k), Y.at(p, k), ([0], [0])),
                        inputs=(eta, Y))


def _raiser(eta_inv, P):
    """eta^-1 P^T, the (2,0) field eta^{JB} P^I_B."""
    return DerivedField(P.chart, 2, 0, lambda p, k: tdot(eta_inv.at(p, k), P.at(p, k), ([1], [1])),
                        inputs=(eta_inv, P))


def _raised(M, NX):
    """R_X[J, A] = M[J, I] nabla_I X^A, from NX[A, I] = nabla_I X^A."""
    return DerivedField(NX.chart, 2, 0, lambda p, k: tdot(M.at(p, k), NX.at(p, k), ([1], [1])),
                        inputs=(M, NX))


def _operand(table, build, a, b):
    """`table`'s field build(a, b), built on first request."""
    return _table_field(table, (id(a), id(b)), lambda: build(a, b), a, b)


def _table_field(table, key, build, *alive):
    """`table`'s field under `key`, built by `build()` on first request, so
    every caller shares its memo.  The entry holds `alive`, the objects
    whose ids are in `key`, so no id in its key is reused while it lives."""
    entry = table.get(key)
    if entry is None:
        entry = table[key] = (build(), *alive)
    return entry[0]


def _shared_bracket(C, S, X, Y, project):
    """S's one bracket field of (C, X, Y, project), built by `_bracket_core`
    on first request from S's shared operands."""
    return _table_field(S.bracket_table, (id(C), id(X), id(Y), project),
                        lambda: _bracket_core(C, S, X, Y, project, S.operand_table), C, X, Y)


def eta_pairing(S, X: Field, Y: Field) -> Field:
    """eta(X, Y) as a (0,0) field of S's operand table: the lowered operand
    eta(X, .), which the brackets read, contracted with Y.  So it has the
    bits of scalar_pairing(S.eta, [X, Y]), and is built once per (X, Y)."""
    EX = _operand(S.operand_table, _lowered, S.eta, X)
    return _operand(S.operand_table, lambda E, V: scalar_pairing(E, [V]), EX, Y)


def projected_anchor(S, sign, X: Field) -> Field:
    """The anchor P_sign X, from S's operand table, where the projected
    brackets read it; X itself for sign 0."""
    return _operand(S.operand_table, apply_endomorphism, S.projector(sign), X) if sign else X


def associated_bracket(C: Connection, S, X: Field, Y: Field) -> Field:
    """The bracket associated to a connection, returned as a vector field."""
    return _shared_bracket(C, S, X, Y, None)


def projected_bracket(C: Connection, S, sign, X: Field, Y: Field) -> Field:
    """P+- projected bracket: all three connection directions projected."""
    return _shared_bracket(C, S, X, Y, sign)


def d_bracket(S, X: Field, Y: Field) -> Field:
    """D-bracket: the bracket associated to the canonical connection of S."""
    return associated_bracket(S.canonical, S, X, Y)


def c_bracket(S, X: Field, Y: Field) -> Field:
    """Skew part of the D-bracket."""
    return (d_bracket(S, X, Y) - d_bracket(S, Y, X)) * 0.5


# --------------------------------------------------------------------------
# Leafwise Dorfman bracket through rho
# --------------------------------------------------------------------------

def leafwise_d(S, side, obj):
    """Foliation-algebroid exterior derivative: all derivative slots projected.

    For scalars and one-forms this reduces to projecting every slot of the
    full coordinate d, which is what is implemented.
    """
    if obj.rank == (0, 0):
        P = S.projector(side)
        df = exterior_derivative(obj)

        def fn(p, k):
            return tdot(P.at(p, k), df.at(p, k), ([0], [0]))

        return DerivedField(S.chart, 0, 1, fn, sym="antisymmetric", inputs=(P, df))
    if obj.rank == (0, 1):
        tagged = DerivedField(obj.chart, 0, 1, lambda p, k: obj.at(p, k),
                              sym="antisymmetric", inputs=(obj,))
        dxi = exterior_derivative(tagged)

        def fn2(p, k):
            return bigraded_part_at(dxi.at(p, k), 2 if side > 0 else 0,
                                    S.P_plus.at(p, k), S.P_minus.at(p, k))

        return DerivedField(S.chart, 0, 2, fn2, sym="antisymmetric",
                            inputs=(dxi, S.P_plus, S.P_minus))
    raise RankMismatch("leafwise_d handles scalars and one-forms")


def leafwise_lie(S, side, X: Field, xi: Field) -> Field:
    """L^E_X xi = d_E(xi(X)) + iota_X d_E xi on the foliation algebroid."""
    inner = scalar_pairing(xi, [X])
    return leafwise_d(S, side, inner) + interior_product(X, leafwise_d(S, side, xi))


def dorfman_leafwise(S, side, e1: GeneralizedVectorField,
                     e2: GeneralizedVectorField) -> GeneralizedVectorField:
    """Dorfman bracket of the foliation Courant algebroid on the `side` leaf.

    Raises NotIntegrable at evaluation points where the corresponding
    Nijenhuis residual exceeds 1e-8.
    """
    vec = lie_bracket(e1.vec, e2.vec)
    cov = (
        leafwise_lie(S, side, e1.vec, e2.cov)
        - leafwise_lie(S, side, e2.vec, e1.cov)
        + leafwise_d(S, side, scalar_pairing(e1.cov, [e2.vec]))
    )

    def checked_vec(p, k):
        require_within(p, S.integrability_residual(side, p), 1e-8, NotIntegrable,
                       f"side {side:+d} Nijenhuis residual")
        return vec.at(p, k)

    return GeneralizedVectorField(
        DerivedField(S.chart, 1, 0, checked_vec, inputs=(vec, S.eta, S.K)), cov, side
    )


# --------------------------------------------------------------------------
# Jacobi defect and Schouten bracket
# --------------------------------------------------------------------------

def jacobi_defect(bracket, X, Y, Z, point):
    """Max-abs of [X,[Y,Z]] - [Y,[X,Z]] - [[X,Y],Z] at a point (a float), or
    at a batch (one per point).  The inner brackets are evaluated first, at
    the order 1 the outer ones read, so the operands they share with the
    outer ones are not first evaluated at order 0."""
    yz, xz, xy = bracket(Y, Z), bracket(X, Z), bracket(X, Y)
    for inner in (yz, xz, xy):
        inner.at(point, 1)
    defect = bracket(X, yz) - bracket(Y, xz) - bracket(xy, Z)
    return defect.max_abs(point)


def schouten_self(beta: Field, C: Connection, check_torsion=True) -> Field:
    """[beta, beta] of a bivector via a torsionless connection:

    [beta,beta](l,m,n) = sum_cycl (nabla_{beta(l)} beta)(m,n),
    returned as a (3,0) field.  No 1/2 normalization.
    """
    if beta.rank != (2, 0):
        raise RankMismatch("schouten_self expects a (2,0) bivector")

    def fn(p, k):
        if check_torsion:
            require_torsionless(C, p)
        gamma = C.christoffels.at(p, k)
        bj = beta.at(p, k + 1)
        D = nabla_jets(gamma, bj, 2, 0)  # D[M, J, K] = (nabla_M beta)^{JK}
        # S1[I, J, K] = beta^{IM} (nabla_M beta)^{JK}: the direction slot of
        # beta(lambda) is the second one, lambda contracts the first.
        S1 = tdot(bj, D, ([1], [0]))
        return S1 + S1.transpose((1, 2, 0)) + S1.transpose((2, 0, 1))

    return DerivedField(beta.chart, 3, 0, fn, inputs=(C.christoffels, beta))


def schouten_scalar(beta, C, lam, mu, nu, point, order=0, check_torsion=True):
    """[beta,beta](lam, mu, nu) for float covectors at a point (or batch)."""
    t = schouten_self(beta, C, check_torsion=check_torsion).at(point, order)
    return contract_value(point, t, *(constant_jets(t.ctx, c) for c in (lam, mu, nu)))


# --------------------------------------------------------------------------
# Courant axiom suite
# --------------------------------------------------------------------------

# The cyclic triples of a pool on its tiled sample: `point` tiles the sample
# `blocks` times, and `fields` are X, Y and Z, stacked so that block i holds
# triple i.
CyclicTriples = namedtuple("CyclicTriples", "point blocks fields")


def cyclic_triples(elements, sample) -> CyclicTriples:
    """The ordered triples drawn deterministically from a pool of n test
    sections, the cyclic shifts (e_i, e_i+1, e_i+2) of (e0, e1, e2, ...),
    as three fields stacked by blocks (`geometry.stack_fields`) on the
    sample tiled n times (`geometry.tile_points`)."""
    n = len(elements)
    fields = tuple(stack_fields([elements[(i + shift) % n] for i in range(n)])
                   for shift in range(3))
    return CyclicTriples(tile_points(sample, n), n, fields)


def courant_axiom_suite(bracket, anchor, pair, triples: CyclicTriples, skip_pairing=False,
                        scale=None):
    """Residuals of the three Courant axioms for a bracket/anchor/pairing
    triple on the stacked triples of `cyclic_triples`: `{"axiom1": r1,
    "axiom2": r2, "axiom3": r3}`, with r[point, triple] the |residual| at a
    sample point for one triple.

    One Jacobi defect (axiom 3) and one pass of axioms 1 and 2 serve all n
    triples, each point of each block with the bits its triple gets alone,
    but for the sign of an exact zero (a stack's `deg` is its blocks'
    highest, so a constant block takes the Cauchy product, which adds
    zeros).  Each point's residuals of axioms 1 and 2, which are linear in
    the pairing, are divided by its entry of `scale` (one per sample point,
    1 when None), so a caller can make them relative to the size of the
    metric; the Jacobi defect of axiom 3 is a vector field's and stays
    absolute.  `skip_pairing` leaves axioms 1 and 2 at zero (for the plain
    Lie bracket, whose pairing is degenerate).

    The defect is evaluated first: with a bracket that returns one shared
    field per pair (`d_bracket`, `projected_bracket`), its inner brackets
    and their operands are evaluated once, at order 1, and axioms 1 and 2
    read them from the memo, so a pool builds 7 brackets; with
    `eta_pairing` and `projected_anchor`, the pairings and anchors are
    operands of S's table too, shared with the brackets and with every
    caller of the same triples, so a second call on them builds no field.
    Axiom 2's Lie derivative reads eta(X, X) at order 1 before its bracket
    term reads eta(X, .) at 0.
    """
    tiled, n, (X, Y, Z) = triples
    scale = 1.0 if scale is None else np.asarray(scale, dtype=float)

    def by_triple(values, scale=1.0):  # (point, triple) from one value per tiled point
        return (np.abs(values).reshape(n, -1) / scale).T

    axiom3 = by_triple(jacobi_defect(bracket, X, Y, Z, tiled))
    if skip_pairing:
        return {"axiom1": np.zeros(axiom3.shape), "axiom2": np.zeros(axiom3.shape),
                "axiom3": axiom3}
    lhs = lie_derivative(anchor(X), pair(Y, Z)).values(tiled)
    r1 = lhs - pair(bracket(X, Y), Z).values(tiled) - pair(Y, bracket(X, Z)).values(tiled)
    half = 0.5 * lie_derivative(anchor(Y), pair(X, X)).values(tiled)
    r2 = pair(bracket(X, X), Y).values(tiled) - half
    return {"axiom1": by_triple(r1, scale), "axiom2": by_triple(r2, scale), "axiom3": axiom3}


# --------------------------------------------------------------------------
# Flat coordinate oracle (test-only routine, independently coded)
# --------------------------------------------------------------------------

def flat_coordinate_dbracket(chart, eta_matrix, X: Field, Y: Field) -> Field:
    """The coordinate D-bracket on a flat chart with constant metric:

    [X,Y]^J = X^I d_I Y^J - Y^I d_I X^J + eta_{IL} eta^{KJ} Y^I d_K X^L.

    Deliberately written from the raw index formula with an explicit constant
    metric matrix, sharing no code with the connection-based path: it takes
    elementwise jet products broadcast over the index axes, sums and axis
    sums, and no contraction kernel.  It evaluates a point or a batch.
    """
    eta = np.asarray(eta_matrix, dtype=float)
    eta_inv = np.linalg.inv(eta)

    def fn(p, k):
        ctx = chart.context(k)
        xj, yj = X.at(p, k + 1), Y.at(p, k + 1)       # [I]
        dx, dy = jets_gradient(xj), jets_gradient(yj)  # [K, L] = d_K X^L
        # X^I d_I Y^J - Y^I d_I X^J, summed over I.
        out = (xj[:, None] * dy - yj[:, None] * dx).sum(0)
        # eta_{IL} eta^{KJ} Y^I d_K X^L, summed over I, then L, then K.
        y_low = (yj[:, None] * constant_jets(ctx, eta)).sum(0)     # [L]
        w = (dx * y_low[None, :]).sum(1)                           # [K]
        return out + (w[:, None] * constant_jets(ctx, eta_inv)).sum(0)

    return DerivedField(chart, 1, 0, fn, inputs=(X, Y))
