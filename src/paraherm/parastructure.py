"""Almost para-Hermitian structures: projections, rho maps, Nijenhuis tensor,
the Phi tensor and the classification predicates.

Eigenbundles are never materialized as bases; everything routes through the
projectors P+ and P-, which avoids eigenvector ordering problems and matches
the operator-level formulas the checks are written in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np

from .connections import (
    canonical_connection,
    covariant_differential,
    levi_civita,
)
from .errors import DomainError, RankMismatch
from .geometry import (
    DerivedField,
    Field,
    JetArray,
    apply_endomorphism,
    as_batch,
    coeff_max,
    constant_jets,
    contract_value,
    exterior_derivative,
    invert_matrix_jets,
    jets_gradient,
    lie_bracket,
    per_point,
    per_point_max,
    tdot,
)

__all__ = [
    "ParaHermitianStructure", "GeneralizedVector", "validate_structure",
    "ValidationReport", "rho", "rho_field", "rho_inverse", "nijenhuis", "nijenhuis_tensor",
    "nijenhuis_projector_form", "nijenhuis_connection_form", "n_scalar",
    "phi_field", "phi_scalar", "bigraded_part_at",
    "classify", "ClassificationReport",
]


class ParaHermitianStructure:
    """The pair (eta, K) with the fields derived from it: eta^{-1}, omega =
    eta K and the projections (1 +- K)/2.  Each is one memoised `Field`,
    `const` where eta and K are, and callers read the ones they need
    (`S.eta.at(point, order)`); `fields` lists all six.  `bracket_table`
    holds the brackets built on it, one field per (connection, X, Y,
    projection) (`brackets.associated_bracket`), and `operand_table` the
    fields their bodies read, one per (connection, X) for nabla X, per
    (projector, X) for P X and per (eta, Y) for eta(Y, .)."""

    def __init__(self, chart, eta: Field, K: Field):
        if eta.rank != (0, 2) or K.rank != (1, 1):
            raise RankMismatch("eta must be (0,2) and K must be (1,1)")
        self.chart = chart
        self.eta = eta
        self.K = K

        def eye(k):
            return constant_jets(chart.context(k), np.eye(chart.dim))

        def omega(p, k):  # omega(d_A, d_B) = eta(K d_A, d_B) = K^m_A eta_{mB}
            return tdot(K.at(p, k), eta.at(p, k), ([0], [0]))

        self.eta_inv = DerivedField(chart, 2, 0, lambda p, k: invert_matrix_jets(eta.at(p, k), p),
                                    inputs=(eta,))
        self.omega = DerivedField(chart, 0, 2, omega, sym="antisymmetric", inputs=(eta, K))
        self.P_plus = DerivedField(chart, 1, 1, lambda p, k: (eye(k) + K.at(p, k)) * 0.5,
                                   inputs=(K,))
        self.P_minus = DerivedField(chart, 1, 1, lambda p, k: (eye(k) - K.at(p, k)) * 0.5,
                                    inputs=(K,))
        self.fields = (eta, K, self.eta_inv, self.omega, self.P_plus, self.P_minus)
        self.bracket_table = {}
        self.operand_table = {}

    def projector(self, sign) -> Field:
        return self.P_plus if sign > 0 else self.P_minus

    @cached_property
    def levi_civita(self):
        return levi_civita(self.eta)

    @cached_property
    def canonical(self):
        return canonical_connection(self)

    @cached_property
    def nijenhuis_tensor(self):
        return nijenhuis_tensor(self)

    def integrability_residual(self, sign, point):
        """Scale-normalized Nijenhuis residual on the `sign` eigenbundle, the
        worst over six seeded random vector triples: a float at a point, one
        per point at a batch."""
        return self._nijenhuis_gates[sign].max_abs(point)

    @cached_property
    def _nijenhuis_gates(self):
        return {sign: _nijenhuis_gate(self, sign) for sign in (+1, -1)}


def _nijenhuis_gate(S, sign):
    """`integrability_residual` of one side: a (0,0) field at order 0, N_K
    contracted with six seeded vector triples projected to the eigenbundle,
    `const` where eta and K are."""
    draws = np.random.default_rng(7).uniform(-1.0, 1.0, (6, 3, S.chart.dim))
    proj = S.P_plus if sign > 0 else S.P_minus

    def fn(point, order):
        eta, K = S.eta.at(point, 0), S.K.at(point, 0)
        scale = np.maximum(1.0, np.maximum(K.max_abs(), eta.max_abs()))
        P = proj.at(point, 0).values()
        x, y, z = np.moveaxis(np.einsum("...ab,tvb->...tva", P, draws), -2, 0)
        N = S.nijenhuis_tensor.values(point)
        nv = np.einsum("...tak,...tk->...ta", np.einsum("...ajk,...tj->...tak", N, x), y)
        r = np.einsum("...tb,...tb->...t", np.einsum("...ab,...ta->...tb", eta.values(), nv), z)
        worst = np.abs(r).max(axis=-1) / scale
        return constant_jets(S.chart.context(0), worst, np.ndim(worst))

    return DerivedField(S.chart, 0, 0, fn, inputs=(S.eta, S.K, proj, S.nijenhuis_tensor))


# --------------------------------------------------------------------------
# Validation
# --------------------------------------------------------------------------

@dataclass
class ValidationReport:
    residuals: dict
    tol: float

    @property
    def passed(self) -> bool:
        return all(v <= self.tol for v in self.residuals.values())


@np.errstate(over="ignore", invalid="ignore")
def validate_structure(S: ParaHermitianStructure, sample, tol=1e-10) -> ValidationReport:
    """Pointwise residuals for every defining invariant of (eta, K), on the
    sample as one batch.  Raises DomainError naming the first point where
    one is not finite (finite values whose products overflow)."""
    batch = as_batch(sample)
    K, eta, omega, Pp, Pm = (f.values(batch)  # (point, a, b) each
                             for f in (S.K, S.eta, S.omega, S.P_plus, S.P_minus))
    eye = np.eye(S.chart.dim)
    scale = np.maximum(1.0, np.maximum(per_point_max(eta), per_point_max(K)))
    T = lambda m: np.swapaxes(m, -1, -2)  # noqa: E731
    worst = {
        "K_squared": per_point_max(K @ K - eye) / scale,
        "eta_symmetric": per_point_max(eta - T(eta)) / scale,
        "eta_anticompat": per_point_max(T(K) @ eta @ K + eta) / scale,
        "trace_K": np.abs(np.trace(K, axis1=-2, axis2=-1)) / scale,
        "omega_antisymmetric": per_point_max(omega + T(omega)) / scale,
        "projectors": np.maximum(per_point_max(Pp @ Pp - Pp), per_point_max(Pm @ Pm - Pm)),
        "partition": per_point_max(Pp + Pm - eye),
        "isotropy_plus": per_point_max(T(Pp) @ eta @ Pp) / scale,
        "isotropy_minus": per_point_max(T(Pm) @ eta @ Pm) / scale,
    }
    finite = np.all([np.isfinite(vals) for vals in worst.values()], axis=0)
    if not finite.all():
        raise DomainError(f"structure invariants are not finite at {batch.first(~finite)[1]}")
    return ValidationReport({key: float(vals.max()) for key, vals in worst.items()}, tol)


# --------------------------------------------------------------------------
# rho maps
# --------------------------------------------------------------------------

@dataclass
class GeneralizedVector:
    """Value of a leafwise generalized vector: tangent part plus covector part."""

    vec: JetArray
    cov: JetArray
    side: int = 0

    def __sub__(self, other):
        return GeneralizedVector(self.vec - other.vec, self.cov - other.cov, self.side)

    def max_abs(self):
        return np.maximum(self.vec.max_abs(), self.cov.max_abs())


def rho(S, sign, X: Field, point, order=0) -> GeneralizedVector:
    """rho_+-(X) = x_+- + eta(x_-+), pointwise: `rho_field` at the point."""
    vec, cov = rho_field(S, sign, X)
    return GeneralizedVector(vec.at(point, order), cov.at(point, order), sign)


def rho_field(S, sign, X: Field):
    """rho as a pair of fields (vector part, covector part)."""
    P = S.projector(sign)
    Q = S.projector(-sign)
    vec = apply_endomorphism(P, X)
    QX = apply_endomorphism(Q, X)

    def cov_fn(p, k):
        return tdot(S.eta.at(p, k), QX.at(p, k), ([0], [0]))

    return vec, DerivedField(S.chart, 0, 1, cov_fn, inputs=(S.eta, QX))


def rho_inverse(S, sign, vec: JetArray, cov: JetArray, point, order=0) -> JetArray:
    """Reassemble X from rho_sign(X) = (vec, cov): X = vec + eta^{-1} cov."""
    return vec + tdot(S.eta_inv.at(point, order), cov, ([1], [0]))


# --------------------------------------------------------------------------
# Nijenhuis tensor, four algebraic forms
# --------------------------------------------------------------------------

def nijenhuis(S, X: Field, Y: Field) -> Field:
    """Lie-bracket form: 4 N_K(X,Y) = [X,Y] + [KX,KY] - K([KX,Y] + [X,KY])."""
    KX = apply_endomorphism(S.K, X)
    KY = apply_endomorphism(S.K, Y)
    inner = lie_bracket(KX, Y) + lie_bracket(X, KY)
    out = lie_bracket(X, Y) + lie_bracket(KX, KY) - apply_endomorphism(S.K, inner)
    return out * 0.25


def nijenhuis_projector_form(S, X: Field, Y: Field) -> Field:
    """P+ [P- X, P- Y] + P- [P+ X, P+ Y]."""
    PpX = apply_endomorphism(S.P_plus, X)
    PpY = apply_endomorphism(S.P_plus, Y)
    PmX = apply_endomorphism(S.P_minus, X)
    PmY = apply_endomorphism(S.P_minus, Y)
    return apply_endomorphism(S.P_plus, lie_bracket(PmX, PmY)) + apply_endomorphism(
        S.P_minus, lie_bracket(PpX, PpY)
    )


def nijenhuis_connection_form(S, X: Field, Y: Field, C) -> Field:
    """4 N_K = (nabla_{KX} K) Y + (nabla_X K) KY - (nabla_{KY} K) X - (nabla_Y K) KX.

    Valid for any torsionless connection C.
    """
    dK = covariant_differential(C, S.K)  # (1,2): axes (A, I, B), derivative slot I

    def fn(p, k):
        d = dK.at(p, k)
        xj = X.at(p, k)
        yj = Y.at(p, k)
        Kv = S.K.at(p, k)
        kx = tdot(Kv, xj, ([1], [0]))
        ky = tdot(Kv, yj, ([1], [0]))
        t1 = tdot(tdot(d, kx, ([1], [0])), yj, ([1], [0]))
        t2 = tdot(tdot(d, xj, ([1], [0])), ky, ([1], [0]))
        t3 = tdot(tdot(d, ky, ([1], [0])), xj, ([1], [0]))
        t4 = tdot(tdot(d, yj, ([1], [0])), kx, ([1], [0]))
        return (t1 + t2 - t3 - t4) * 0.25

    return DerivedField(S.chart, 1, 0, fn, inputs=(dK, X, Y, S.K))


def n_scalar(S, sign, X, Y, Z, point, order=0) -> float:
    """N_+-(X,Y,Z) = eta(N_K(P+- X, P+- Y), P+- Z)."""
    P = S.projector(sign)
    N = nijenhuis(S, apply_endomorphism(P, X), apply_endomorphism(P, Y))
    pz = tdot(P.at(point, order), Z.at(point, order), ([1], [0]))
    return contract_value(point, S.eta.at(point, order), N.at(point, order), pz)


def nijenhuis_tensor(S) -> Field:
    """N_K as a (1,2) field from K and its first derivatives: 4 N^i_jk =
    K^l_j d_l K^i_k - K^l_k d_l K^i_j - K^i_l (d_j K^l_k - d_k K^l_j), so that
    N^i_jk X^j Y^k = nijenhuis(S, X, Y)^i, exactly antisymmetric in j, k; the
    gates and `classify` contract `S.nijenhuis_tensor`, built once."""

    def fn(p, k):
        Kv, dK = S.K.at(p, k), jets_gradient(S.K.at(p, k + 1))  # dK[l, i, j] = d_l K^i_j
        t = tdot(Kv, dK, ([0], [0])).transpose((1, 0, 2)) - tdot(Kv, dK, ([1], [1]))
        return (t - t.transpose((0, 2, 1))) * 0.25

    return DerivedField(S.chart, 1, 2, fn, inputs=(S.K,))


# --------------------------------------------------------------------------
# Phi tensor
# --------------------------------------------------------------------------

def phi_field(S) -> Field:
    """Phi(X,Y,Z) = eta((nablao_X K) Y, Z) = nablao_X omega (Y,Z), as a (0,3) field."""
    dOmega = covariant_differential(S.levi_civita, S.omega)  # axes (I, j, l)
    return dOmega


def phi_scalar(S, X, Y, Z, point, order=0) -> float:
    return contract_value(point, phi_field(S).at(point, order), X.at(point, order),
                          Y.at(point, order), Z.at(point, order))


# --------------------------------------------------------------------------
# Bigrading
# --------------------------------------------------------------------------

def bigraded_part_at(T: JetArray, m_plus: int, Pp: JetArray, Pm: JetArray) -> JetArray:
    """(+m,-n) part of a (0,k) tensor value, from the jets Pp and Pm of
    P+- at its point: sum over slot assignments."""
    k = T.ndim
    out = None
    for plus_slots in combinations(range(k), m_plus):
        comps = T
        for slot in range(k):
            P = Pp if slot in plus_slots else Pm
            comps = tdot(P, comps, ([0], [slot])).moveaxis(0, slot)
        out = comps if out is None else out + comps
    return out


# --------------------------------------------------------------------------
# Classification
# --------------------------------------------------------------------------

@dataclass
class ClassificationReport:
    flags: dict
    residuals: dict
    tol: float
    cross_checks: dict = field(default_factory=dict)


def classify(S: ParaHermitianStructure, sample, tol=1e-9) -> ClassificationReport:
    """Scale-normalized classification flags over the sampled points.

    p/n-integrability from the pure-type Nijenhuis parts, nearly para-Kahler
    from skewness of Phi in its first two slots, almost para-Kahler from
    d omega = 0; para-Kahler additionally cross-checked against nablao K = 0
    and the (3,0)/(0,3) formulas relating d omega to the Nijenhuis parts.
    """
    res, cross = _classify_batch(S, as_batch(sample))
    flags = {
        "p_integrable": res["n_plus"] <= tol,
        "n_integrable": res["n_minus"] <= tol,
        "nearly_para_kahler": res["phi_skew"] <= tol,
        "almost_para_kahler": res["domega"] <= tol,
    }
    flags["para_kahler"] = (
        flags["almost_para_kahler"] and res["n_plus"] <= tol and res["n_minus"] <= tol
    )
    # n(p)-para-Kahler: the half-integrable case with no mixed-down components,
    # the way the tangent-bundle construction comes out.
    flags["n_para_kahler"] = (
        flags["n_integrable"] and res["domega_12"] <= tol and res["domega_03"] <= tol
    )
    flags["p_para_kahler"] = (
        flags["p_integrable"] and res["domega_21"] <= tol and res["domega_30"] <= tol
    )
    # para-Kahler iff nablao K = 0 (Levi-Civita cross-check).
    cross["para_kahler_iff_nabla_K"] = (
        0.0 if flags["para_kahler"] == (res["nabla_K"] <= tol) else 1.0
    )
    return ClassificationReport(flags, res, tol, cross)


def _classify_batch(S, batch):
    """(residuals, cross checks) of the classification: the worst point of
    the batch."""
    Pp, Pm = (f.at(batch, 1) for f in (S.P_plus, S.P_minus))
    scale = np.maximum(1.0, np.maximum(S.eta.max_abs(batch), S.K.max_abs(batch)))
    dwj = per_point(batch, exterior_derivative(S.omega).at(batch, 0))
    dw_scale = np.maximum(1.0, coeff_max(per_point(batch, S.omega.at(batch, 1))))
    worst = {"domega": dwj.max_abs() / dw_scale}
    parts = {m: bigraded_part_at(dwj, m, Pp, Pm).values() for m in range(4)}
    for m, key in ((3, "domega_30"), (2, "domega_21"), (1, "domega_12"), (0, "domega_03")):
        worst[key] = per_point_max(parts[m]) / dw_scale
    phiv = phi_field(S).values(batch)
    worst["phi_skew"] = per_point_max(phiv + np.swapaxes(phiv, 1, 2)) / dw_scale
    dK = covariant_differential(S.levi_civita, S.K)
    worst["nabla_K"] = per_point_max(dK.values(batch)) / dw_scale
    n = _nijenhuis_parts(S, batch)
    worst["n_plus"] = per_point_max(n[+1]) / scale
    worst["n_minus"] = per_point_max(n[-1]) / scale
    # Identity: (d omega)^{(+3,-0)} = cyclic sum of N_+,
    # (d omega)^{(+0,-3)} = -cyclic sum of N_-.
    # N_+- are already fully projected, so the cyclic sums compare directly.
    cyc = {sign: t + np.transpose(t, (0, 2, 3, 1)) + np.transpose(t, (0, 3, 1, 2))
           for sign, t in n.items()}
    per_cross = {
        "d_omega_30_vs_cyclic_n_plus": per_point_max(parts[3] - cyc[+1]) / dw_scale,
        "d_omega_03_vs_cyclic_n_minus": per_point_max(parts[0] + cyc[-1]) / dw_scale,
    }
    return ({key: float(np.max(v)) for key, v in worst.items()},
            {key: float(np.max(v)) for key, v in per_cross.items()})


def _nijenhuis_parts(S, batch):
    """n[sign][point, i, j, c] = eta(N(P e_i, P e_j), P e_c), the pure-type
    Nijenhuis parts over the coordinate basis, one entry per point of `batch`."""
    Nv, etav = S.nijenhuis_tensor.values(batch), S.eta.values(batch)
    n = {}
    for sign in (+1, -1):
        P = S.projector(sign).values(batch)
        t = np.einsum("pail,plj->paij", np.einsum("pakl,pki->pail", Nv, P), P)
        n[sign] = np.einsum("pijb,pbc->pijc", np.einsum("pab,paij->pijb", etav, t), P)
    return n
