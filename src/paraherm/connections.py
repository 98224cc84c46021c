"""Affine connections on a chart: Levi-Civita, canonical, torsion, curvature.

A connection carries an evaluation procedure for its Christoffel symbols
rather than closed-form expressions: Levi-Civita needs the pointwise inverse
metric and the canonical connection needs projector insertions, both of which
are rational in the inputs and exact under jet arithmetic.

Index conventions: gamma[k, i, j] = Gamma^k_{ij} with i the differentiation
direction and j the argument, nabla_{d_i} d_j = Gamma^k_{ij} d_k.  The
curvature sign is fixed so that on the tangent-bundle model the horizontal
frame satisfies [H_i, H_j] = R^k_{ijl} v^l V_k.
"""

from __future__ import annotations

import numpy as np

from .errors import NotTorsionless
from .geometry import (
    DerivedField,
    Field,
    TensorField,
    as_batch,
    invert_matrix_jets,
    jets_gradient,
    per_point,
    per_point_max,
    project_slots,
    require_within,
    tdot,
    truncate_jets,
)

__all__ = [
    "Connection", "flat_connection", "inverse_metric", "levi_civita", "from_christoffels",
    "canonical_connection", "canonical_connection_contorsion",
    "covariant_derivative", "covariant_differential", "torsion", "curvature",
    "check_adapted",
]

# The largest torsion component a torsionless connection may have.
TORSION_TOL = 1e-10


class Connection:
    """Christoffel symbols as an evaluation procedure over jets, at a point or
    a batch: `christoffels`, a rank-(1,2) `DerivedField` reading the fields
    `inputs`, which callers read as `C.christoffels.at(point, order)`.  The
    class keeps the symbols apart from (1,2) tensors: they are not a
    tensor, so no tensor operator is applied to them."""

    def __init__(self, chart, fn, provenance="user_supplied", inputs=()):
        self.chart = chart
        self.provenance = provenance
        self.christoffels = DerivedField(chart, 1, 2, fn, inputs=inputs)

    def __repr__(self):
        return f"Connection({self.provenance}, chart={self.chart.coord_names})"


def flat_connection(chart) -> Connection:
    return from_christoffels(chart, np.zeros((chart.dim,) * 3), provenance="flat")


def from_christoffels(chart, comps, provenance="user_supplied") -> Connection:
    """Connection from an explicit Gamma^k_{ij} array of chart scalars."""
    tf = TensorField(chart, 1, 2, comps)
    return Connection(chart, tf.at, provenance=provenance, inputs=(tf,))


def christoffel_jets(inv, de):
    """Gamma^k_{ij} = 1/2 g^{kl} (d_i g_{jl} + d_j g_{il} - d_l g_{ij}) from the
    inverse metric jets and de[a, b, c] = d_a g_{bc}."""
    # bracket[i, j, l] = d_i g_{jl} + d_j g_{il} - d_l g_{ij}
    bracket = de + de.transpose((1, 0, 2)) - de.transpose((1, 2, 0))
    return 0.5 * tdot(inv, bracket, ([1], [2]))  # (k, i, j)


def inverse_metric(eta: Field) -> Field:
    """eta^{-1} as a (2,0) field: the inverse of eta's matrix of jets, at the
    order asked."""
    return DerivedField(eta.chart, 2, 0, lambda p, k: invert_matrix_jets(eta.at(p, k), p),
                        inputs=(eta,))


def levi_civita(eta: Field, eta_inv: Field = None) -> Connection:
    """The Levi-Civita connection of eta.  It reads eta's inverse from
    `eta_inv`, such as a structure's, so that eta is inverted once, or from
    an `inverse_metric` of its own."""
    inv = inverse_metric(eta) if eta_inv is None else eta_inv

    def fn(point, order):
        ej = eta.at(point, order + 1)
        return christoffel_jets(inv.at(point, order), jets_gradient(ej))

    return Connection(eta.chart, fn, provenance="levi_civita", inputs=(eta, inv))


def canonical_connection(S) -> Connection:
    """Projector form: nabla^c_X Y = P+ nablao_X (P+ Y) + P- nablao_X (P- Y)."""
    gamma, projectors = S.levi_civita.christoffels, (S.P_plus, S.P_minus)

    def fn(point, order):
        g0 = gamma.at(point, order)
        out = None
        for P in (f.at(point, order + 1) for f in projectors):
            dP = jets_gradient(P)  # dP[i, m, j] = d_i P^m_j
            first = tdot(P, dP, ([1], [1]))                        # (k, i, j)
            second = tdot(tdot(P, g0, ([1], [0])), P, ([2], [0]))  # (k, i, j)
            term = first + second
            out = term if out is None else out + term
        return out

    return Connection(S.chart, fn, provenance="canonical", inputs=(gamma, *projectors))


def canonical_connection_contorsion(S) -> Connection:
    """Contorsion form: eta(nabla^c_X Y, Z) = eta(nablao_X Y, Z) - 1/2 nablao_X omega(Y, KZ).

    Independent of the projector form; the two are compared in tests.
    """
    lc = S.levi_civita

    def fn(point, order):
        g0 = lc.christoffels.at(point, order)
        phi = nabla_jets(g0, S.omega.at(point, order + 1), 0, 2)  # Phi_ijl = (nablao_i omega)_jl
        corr = tdot(phi, S.K.at(point, order), ([2], [0]))  # corr[i, j, l] = Phi_{ijm} K^m_l
        return g0 - 0.5 * tdot(S.eta_inv.at(point, order), corr, ([0], [2]))  # (k, i, j)

    return Connection(S.chart, fn, provenance="canonical",
                      inputs=(lc.christoffels, S.omega, S.K, S.eta_inv))


# --------------------------------------------------------------------------
# Derivatives, torsion, curvature
# --------------------------------------------------------------------------

def nabla_jets(gamma, tj, r, s):
    """nabla T at a point (or batch) from the jets of an (r,s) tensor, one order lower,
    with the derivative index first: out[I, ...] = d_I T + Gamma corrections.

    Symbols that are exactly zero (deg -1, which never under-reports) give
    the partials alone, truncated to Gamma's order where that is lower, as
    the corrections would: each correction is out +- 0, so this skips r + s
    contractions and sums with the same bits, except that -0.0 + 0.0 is
    +0.0, so the sign of an exact zero may differ.  A scalar has no
    correction, so it keeps the gradient's order; a batched zero Gamma with
    an unbatched T takes the general path, which gives the batch axis.
    """
    out = jets_gradient(tj)
    if r + s and gamma.deg < 0 and gamma.nb <= tj.nb:
        return truncate_jets(out, gamma.ctx.order)
    for axis in range(r):
        # + Gamma^A_{IM} T^{..M..}
        corr = tdot(gamma, tj, ([2], [axis])).moveaxis(1, 0)  # (I, A, rest)
        out = out + corr.moveaxis(1, axis + 1)
    for axis in range(r, r + s):
        # - Gamma^M_{IB} T_{..M..}
        corr = tdot(gamma, tj, ([0], [axis]))                 # (I, B, rest)
        out = out - corr.moveaxis(1, axis + 1)
    return out


def covariant_derivative(C: Connection, X: Field, T: Field) -> Field:
    """nabla_X T = X^I nabla_I T as a derived field of the same rank."""

    def fn(p, k):
        gamma = C.christoffels.at(p, k)
        return tdot(X.at(p, k), nabla_jets(gamma, T.at(p, k + 1), T.r, T.s), ([0], [0]))

    return DerivedField(T.chart, T.r, T.s, fn, inputs=(C.christoffels, X, T))


def covariant_differential(C: Connection, T: Field) -> Field:
    """Total nabla T, rank (r, s+1); the derivative slot is the first covariant axis."""

    def fn(p, k):
        out = nabla_jets(C.christoffels.at(p, k), T.at(p, k + 1), T.r, T.s)
        return out.moveaxis(0, T.r)

    return DerivedField(T.chart, T.r, T.s + 1, fn, inputs=(C.christoffels, T))


def torsion(C: Connection) -> Field:
    """T^k_{ij} = Gamma^k_{ij} - Gamma^k_{ji}, a (1,2) tensor field."""

    def fn(p, k):
        g = C.christoffels.at(p, k)
        return g - g.transpose((0, 2, 1))

    return DerivedField(C.chart, 1, 2, fn, inputs=(C.christoffels,))


def require_torsionless(C: Connection, point):
    """Raise NotTorsionless naming the first point (of a batch) where C's
    largest |torsion| component exceeds TORSION_TOL."""
    require_within(point, per_point(point, torsion(C).at(point, 0)).max_abs(), TORSION_TOL,
                   NotTorsionless, "torsion residual")


def riemann_jets(g, dg):
    """R^k_{ijl} from Gamma^k_{ij} jets and dg[a, k, i, j] = d_a Gamma^k_{ij},
    with the sign fixed by [H_i,H_j] = R^k_{ijl} v^l V_k."""
    gg = tdot(g, g, ([2], [0]))  # gg[k, a, b, c] = Gamma^k_{am} Gamma^m_{bc}
    # R^k_{ijl} = d_j Gamma^k_{il} - d_i Gamma^k_{jl}
    #           + Gamma^k_{jm} Gamma^m_{il} - Gamma^k_{im} Gamma^m_{jl}
    term1 = dg.transpose((1, 2, 0, 3))   # out[k,i,j,l] = dg[j,k,i,l]
    term2 = dg.transpose((1, 0, 2, 3))   # out[k,i,j,l] = dg[i,k,j,l]
    term3 = gg.transpose((0, 2, 1, 3))   # out[k,i,j,l] = gg[k,j,i,l]
    return term1 - term2 + term3 - gg


def curvature(C: Connection) -> Field:
    """The curvature R^k_{ijl} of C as a (1,3) field."""

    def fn(p, k):
        g = C.christoffels.at(p, k + 1)
        return riemann_jets(truncate_jets(g, k), jets_gradient(g))

    return DerivedField(C.chart, 1, 3, fn, inputs=(C.christoffels,))


# --------------------------------------------------------------------------
# Adapted-connection checker (four conditions, per side)
# --------------------------------------------------------------------------

def check_adapted(C: Connection, S, side, sample):
    """Residuals of the four adapted-connection conditions, `{side + "_cond": r}`:
    r[point, condition - 1], the largest component of the condition's tensor
    projected onto the eigenbundles (its slots take x+ = P+ e_k, and so on),
    scaled by max(1, max |eta|, max |Gamma|).  Conditions (1)-(3) are
    tensorial and (4) is extension-independent on isotropic eigenbundles, so
    the sections they differentiate are projector images of constant
    vectors, jet-extended, and a condition holds exactly where its tensor
    vanishes.  The jets are evaluated once, on the sample as one batch, and
    each tensor is a chain of batched `matmul`s on their values
    (`project_slots`), so each point's residuals are its own."""
    batch = as_batch(sample)
    eta, Pp, Pm = (f.at(batch, 1) for f in (S.eta, S.P_plus, S.P_minus))
    if side == "n":
        Pp, Pm = Pm, Pp
    gamma = C.christoffels.at(batch, 0)
    values = lambda x: per_point(batch, x).values()  # noqa: E731
    P, etav, gv = values(Pp), values(eta), values(gamma)  # (point, a, b), Gamma (point, k, i, j)
    tors = gv - np.swapaxes(gv, -1, -2)
    etaP = etav @ P  # eta(., P e_m) as the columns of (point, a, m)
    # along(F)[point, a, i, l] = (nabla_{e_i} F e_l)^a = d_i F^a_l + Gamma^a_{id} F^d_l
    along = lambda F: (np.swapaxes(values(jets_gradient(F)), 1, 2)  # noqa: E731
                       + project_slots(gv, None, None, values(F)))
    conditions = (
        # (1) nabla_{x+} eta = 0: [k, a, b]
        project_slots(values(nabla_jets(gamma, eta, 0, 2)), P, None, None),
        # (2) P+ nabla_{x+} (P- v) = 0: [c, k, l]
        project_slots(along(Pm), np.swapaxes(P, 1, 2), P, None),
        # (3) eta(T(x+, y+), z-) = 0: [m, k, l]
        project_slots(tors, etav @ values(Pm), P, P),
        # (4) eta(T(x+, y+), z+) + eta(nabla_{z+} x+, y+) = 0: [m, k, l], the
        # second term [l, m, k] before its move, with x+ = P+ e_k extended
        project_slots(tors, etaP, P, P)
        + np.moveaxis(project_slots(along(Pp), etaP, P, None), 1, 3),
    )
    scale = np.maximum(1.0, np.maximum(per_point_max(etav), per_point_max(gv)))
    return {f"{side}_cond": np.stack([per_point_max(r) for r in conditions], 1) / scale[:, None]}
