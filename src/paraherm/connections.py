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
    lc = S.levi_civita

    def fn(point, order):
        g0 = lc.christoffels.at(point, order)
        out = None
        for P in (S.P_plus.at(point, order + 1), S.P_minus.at(point, order + 1)):
            dP = jets_gradient(P)  # dP[i, m, j] = d_i P^m_j
            first = tdot(P, dP, ([1], [1]))                        # (k, i, j)
            second = tdot(tdot(P, g0, ([1], [0])), P, ([2], [0]))  # (k, i, j)
            term = first + second
            out = term if out is None else out + term
        return out

    return Connection(S.chart, fn, provenance="canonical",
                      inputs=(lc.christoffels, S.P_plus, S.P_minus))


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


def covd_jets(gamma, direction, tj, r, s):
    """nabla_V T at a point (or batch): V^I nabla_I T."""
    return tdot(direction, nabla_jets(gamma, tj, r, s), ([0], [0]))


def covariant_derivative(C: Connection, X: Field, T: Field) -> Field:
    """nabla_X T as a derived field of the same rank."""

    def fn(p, k):
        gamma = C.christoffels.at(p, k)
        xj = X.at(p, k)
        tj = T.at(p, k + 1)
        return covd_jets(gamma, xj, tj, T.r, T.s)

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


def torsion_residual(C: Connection, point, order=0):
    """Largest |torsion| component: a float at a point, one per point at a batch."""
    return per_point(point, torsion(C).at(point, order)).max_abs()


def require_torsionless(C: Connection, point, tol=1e-10):
    require_within(point, torsion_residual(C, point), tol, NotTorsionless, "torsion residual")


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

def check_adapted(C: Connection, S, side, sample, n_vectors=20, seed=2024):
    """Residuals of the four adapted-connection conditions over random frames,
    `{side + "_cond": r}`: r[point, condition - 1], the worst triple's, scaled.

    Sections of the eigenbundles are realized as projector images of
    constant-coefficient vectors, jet-extended; conditions (1)-(3) are
    tensorial and condition (4) is extension-independent on isotropic
    eigenbundles, so this quantification is exhaustive for multilinear
    conditions.  The jets are evaluated once, on the sample as one batch;
    the `n_vectors` triples of each point come from one draw, in the same
    order as one draw per triple.
    """
    batch = as_batch(sample)
    dim = S.chart.dim
    eta, Pp, Pm = (f.at(batch, 1) for f in (S.eta, S.P_plus, S.P_minus))
    if side == "n":
        Pp, Pm = Pm, Pp
    gamma = C.christoffels.at(batch, 0)
    values = lambda x: per_point(batch, x).values()  # noqa: E731
    Ppv = values(Pp)  # (point, a, b)
    Pmv = values(Pm)
    etav = values(eta)
    gv = values(gamma)
    nabla_eta = values(nabla_jets(gamma, eta, 0, 2))
    tors = gv - np.swapaxes(gv, -1, -2)
    dPp = values(jets_gradient(Pp))  # dPp[point, i, a, b]
    dPm = values(jets_gradient(Pm))
    scale = np.maximum(1.0, np.maximum(per_point_max(etav), per_point_max(gv)))
    rng = np.random.default_rng(seed)
    npts = len(batch.coords)
    uvw = rng.uniform(-1.0, 1.0, (npts * n_vectors, 3, dim)).reshape(npts, n_vectors, 3, dim)
    u, v, w = np.moveaxis(uvw, 2, 0)  # (point, vec, a)
    xp, yp, zp = np.moveaxis(np.einsum("pab,pvkb->pvka", Ppv, uvw), 2, 0)
    ym, zm = np.moveaxis(np.einsum("pab,pvkb->pvka", Pmv, uvw[:, :, 1:]), 2, 0)
    # (1) nabla_{x+} eta = 0
    r1 = _contract(nabla_eta, xp, v, w)
    # (2) P+ nabla_{x+} (P- v) = 0
    dy = np.einsum("piab,pvb->pvia", dPm, v)  # d_i (P- v)^a
    w2 = np.einsum("pvi,pvia->pva", xp, dy) + _contract(gv, xp, ym)
    r2 = np.abs(np.einsum("pab,pvb->pva", Ppv, w2)).max(axis=2)
    # (3) eta(T(x+, y+), z-) = 0
    tv = _contract(tors, xp, yp)
    r3 = _contract(etav, tv, zm)
    # (4) eta(T(x+, y+), z+) + eta(nabla_{z+} x+, y+) = 0
    dx = np.einsum("piab,pvb->pvia", dPp, u)
    nz = np.einsum("pvi,pvia->pva", zp, dx) + _contract(gv, zp, xp)
    r4 = _contract(etav, tv, zp) + _contract(etav, nz, yp)
    point_worst = np.stack([np.abs(r).max(axis=1) for r in (r1, r2, r3, r4)], axis=1)
    return {f"{side}_cond": point_worst / scale[:, None]}


def _contract(T, *vectors):
    """T[p, ..., i, j] evaluated on the vectors (..., x, y), which fill its
    trailing axes: [p, v, ...], for each point p and vector v.  The
    vectors' outer product x[p, v, i] y[p, v, j] ... is formed first, by
    elementwise products, then contracted with T by one two-operand
    `einsum`."""
    outer = vectors[0]
    for x in vectors[1:]:
        outer = (outer[:, :, :, None] * x[:, :, None, :]).reshape(outer.shape[:2] + (-1,))
    flat = T.reshape(T.shape[:T.ndim - len(vectors)] + (-1,))
    return np.einsum("p...I,pvI->pv...", flat, outer)
