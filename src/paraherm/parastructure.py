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
from .errors import RankMismatch
from .geometry import (
    DerivedField,
    Field,
    JetArray,
    apply_endomorphism,
    coeff_max,
    constant_field,
    constant_jets,
    contract_value,
    exterior_derivative,
    invert_matrix_jets,
    lie_bracket,
    tdot,
)

__all__ = [
    "ParaHermitianStructure", "GeneralizedVector", "validate_structure",
    "ValidationReport", "rho", "rho_field", "rho_inverse", "nijenhuis",
    "nijenhuis_projector_form", "nijenhuis_connection_form", "n_scalar",
    "phi_field", "phi_scalar", "bigraded_part_at",
    "classify", "ClassificationReport",
]


@dataclass
class _Bundle:
    eta: JetArray
    eta_inv: JetArray
    K: JetArray
    omega: JetArray
    Pp: JetArray
    Pm: JetArray


class ParaHermitianStructure:
    """The pair (eta, K) with derived omega = eta K and projections (1 +- K)/2."""

    def __init__(self, chart, eta: Field, K: Field):
        if eta.rank != (0, 2) or K.rank != (1, 1):
            raise RankMismatch("eta must be (0,2) and K must be (1,1)")
        self.chart = chart
        self.eta = eta
        self.K = K
        self._cache = {}
        self._integ_cache = {}

        self.omega = DerivedField(chart, 0, 2, lambda p, k: self.at(p, k).omega,
                                  sym="antisymmetric")
        self.P_plus = DerivedField(chart, 1, 1, lambda p, k: self.at(p, k).Pp)
        self.P_minus = DerivedField(chart, 1, 1, lambda p, k: self.at(p, k).Pm)

    def at(self, point, order) -> _Bundle:
        key = (point.key, order)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        ej = self.eta.at(point, order)
        kj = self.K.at(point, order)
        inv = invert_matrix_jets(ej)
        # omega(d_A, d_B) = eta(K d_A, d_B) = K^m_A eta_{mB}
        omega = tdot(kj, ej, ([0], [0]))
        eye = constant_jets(self.chart.context(order), np.eye(self.chart.dim))
        Pp = (eye + kj) * 0.5
        Pm = (eye - kj) * 0.5
        bundle = _Bundle(ej, inv, kj, omega, Pp, Pm)
        self._cache[key] = bundle
        return bundle

    def projector(self, sign) -> Field:
        return self.P_plus if sign > 0 else self.P_minus

    @cached_property
    def levi_civita(self):
        return levi_civita(self.eta)

    @cached_property
    def canonical(self):
        return canonical_connection(self)

    def integrability_residual(self, sign, point):
        """Scale-normalized Nijenhuis residual on the `sign` eigenbundle at a
        point, the worst over six seeded random vector triples; cached per
        point (brackets consult it at every evaluation)."""
        key = (sign, point.key)
        hit = self._integ_cache.get(key)
        if hit is not None:
            return hit
        rng = np.random.default_rng(7)
        worst = 0.0
        b = self.at(point, 1)
        scale = max(1.0, b.K.max_abs(), b.eta.max_abs())
        for _ in range(6):
            u, v, w = rng.uniform(-1.0, 1.0, (3, self.chart.dim))
            val = n_scalar(self, sign, _const_vec(self.chart, u),
                           _const_vec(self.chart, v), _const_vec(self.chart, w), point)
            worst = max(worst, abs(val) / scale)
        self._integ_cache[key] = worst
        return worst


def _const_vec(chart, comps):
    return constant_field(chart, comps, 1, 0)


# --------------------------------------------------------------------------
# Validation
# --------------------------------------------------------------------------

@dataclass
class ValidationReport:
    residuals: dict
    tol: float
    n_points: int
    min_abs_det: float

    @property
    def passed(self) -> bool:
        return all(v <= self.tol for v in self.residuals.values())


def validate_structure(S: ParaHermitianStructure, sample, tol=1e-10) -> ValidationReport:
    """Pointwise residuals for every defining invariant of (eta, K)."""
    res = {
        "K_squared": 0.0, "eta_symmetric": 0.0, "eta_anticompat": 0.0,
        "trace_K": 0.0, "omega_antisymmetric": 0.0, "projectors": 0.0,
        "partition": 0.0, "isotropy_plus": 0.0, "isotropy_minus": 0.0,
    }
    sample = list(sample)
    min_det = np.inf
    dim = S.chart.dim
    eye = np.eye(dim)
    for p in sample:
        b = S.at(p, 0)
        K = b.K.values()
        eta = b.eta.values()
        omega = b.omega.values()
        Pp = b.Pp.values()
        Pm = b.Pm.values()
        scale = max(1.0, np.max(np.abs(eta)), np.max(np.abs(K)))
        min_det = min(min_det, abs(float(np.linalg.det(eta))))
        res["K_squared"] = max(res["K_squared"], _mx(K @ K - eye) / scale)
        res["eta_symmetric"] = max(res["eta_symmetric"], _mx(eta - eta.T) / scale)
        res["eta_anticompat"] = max(res["eta_anticompat"], _mx(K.T @ eta @ K + eta) / scale)
        res["trace_K"] = max(res["trace_K"], abs(float(np.trace(K))) / scale)
        res["omega_antisymmetric"] = max(res["omega_antisymmetric"], _mx(omega + omega.T) / scale)
        res["projectors"] = max(res["projectors"], _mx(Pp @ Pp - Pp), _mx(Pm @ Pm - Pm))
        res["partition"] = max(res["partition"], _mx(Pp + Pm - eye))
        res["isotropy_plus"] = max(res["isotropy_plus"], _mx(Pp.T @ eta @ Pp) / scale)
        res["isotropy_minus"] = max(res["isotropy_minus"], _mx(Pm.T @ eta @ Pm) / scale)
    return ValidationReport(res, tol, len(sample), float(min_det))


def _mx(arr):
    return float(np.max(np.abs(arr))) if arr.size else 0.0


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
        return max(self.vec.max_abs(), self.cov.max_abs())


def rho(S, sign, X: Field, point, order=0) -> GeneralizedVector:
    """rho_+-(X) = x_+- + eta(x_-+), pointwise."""
    b = S.at(point, order)
    xj = X.at(point, order)
    P = b.Pp if sign > 0 else b.Pm
    Q = b.Pm if sign > 0 else b.Pp
    vec = tdot(P, xj, ([1], [0]))
    cov = tdot(b.eta, tdot(Q, xj, ([1], [0])), ([0], [0]))
    return GeneralizedVector(vec, cov, sign)


def rho_field(S, sign, X: Field):
    """rho as a pair of fields (vector part, covector part)."""
    P = S.projector(sign)
    Q = S.projector(-sign)
    vec = apply_endomorphism(P, X)
    QX = apply_endomorphism(Q, X)

    def cov_fn(p, k):
        b = S.at(p, k)
        return tdot(b.eta, QX.at(p, k), ([0], [0]))

    return vec, DerivedField(S.chart, 0, 1, cov_fn)


def rho_inverse(S, sign, vec: JetArray, cov: JetArray, point, order=0) -> JetArray:
    """Reassemble X from rho_sign(X) = (vec, cov): X = vec + eta^{-1} cov."""
    b = S.at(point, order)
    other = tdot(b.eta_inv, cov, ([1], [0]))
    return vec + other


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
        Kv = S.at(p, k).K
        kx = tdot(Kv, xj, ([1], [0]))
        ky = tdot(Kv, yj, ([1], [0]))
        t1 = tdot(tdot(d, kx, ([1], [0])), yj, ([1], [0]))
        t2 = tdot(tdot(d, xj, ([1], [0])), ky, ([1], [0]))
        t3 = tdot(tdot(d, ky, ([1], [0])), xj, ([1], [0]))
        t4 = tdot(tdot(d, yj, ([1], [0])), kx, ([1], [0]))
        return (t1 + t2 - t3 - t4) * 0.25

    return DerivedField(S.chart, 1, 0, fn)


def n_scalar(S, sign, X, Y, Z, point, order=0) -> float:
    """N_+-(X,Y,Z) = eta(N_K(P+- X, P+- Y), P+- Z)."""
    P = S.projector(sign)
    N = nijenhuis(S, apply_endomorphism(P, X), apply_endomorphism(P, Y))
    b = S.at(point, order)
    nv = N.at(point, order)
    pz = tdot(
        (b.Pp if sign > 0 else b.Pm), Z.at(point, order), ([1], [0])
    )
    return contract_value(b.eta, nv, pz)


# --------------------------------------------------------------------------
# Phi tensor
# --------------------------------------------------------------------------

def phi_field(S) -> Field:
    """Phi(X,Y,Z) = eta((nablao_X K) Y, Z) = nablao_X omega (Y,Z), as a (0,3) field."""
    dOmega = covariant_differential(S.levi_civita, S.omega)  # axes (I, j, l)
    return dOmega


def phi_scalar(S, X, Y, Z, point, order=0) -> float:
    return contract_value(phi_field(S).at(point, order), X.at(point, order),
                          Y.at(point, order), Z.at(point, order))


# --------------------------------------------------------------------------
# Bigrading
# --------------------------------------------------------------------------

def bigraded_part_at(S, T: JetArray, m_plus: int, bundle) -> JetArray:
    """(+m,-n) part of a (0,k) tensor value: sum over slot assignments."""
    k = T.ndim
    out = None
    for plus_slots in combinations(range(k), m_plus):
        comps = T
        for slot in range(k):
            P = bundle.Pp if slot in plus_slots else bundle.Pm
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
    n_points: int
    cross_checks: dict = field(default_factory=dict)


def classify(S: ParaHermitianStructure, sample, tol=1e-9) -> ClassificationReport:
    """Scale-normalized classification flags over the sampled points.

    p/n-integrability from the pure-type Nijenhuis parts, nearly para-Kahler
    from skewness of Phi in its first two slots, almost para-Kahler from
    d omega = 0; para-Kahler additionally cross-checked against nablao K = 0
    and the (3,0)/(0,3) formulas relating d omega to the Nijenhuis parts.
    """
    sample = list(sample)
    chart = S.chart
    dim = chart.dim
    basis = [_const_vec(chart, row) for row in np.eye(dim)]
    domega = exterior_derivative(S.omega)
    dK = covariant_differential(S.levi_civita, S.K)
    res = {"n_plus": 0.0, "n_minus": 0.0, "phi_skew": 0.0, "domega": 0.0,
           "domega_30": 0.0, "domega_21": 0.0, "domega_12": 0.0, "domega_03": 0.0,
           "nabla_K": 0.0}
    cross = {"d_omega_30_vs_cyclic_n_plus": 0.0, "d_omega_03_vs_cyclic_n_minus": 0.0}
    for p in sample:
        b = S.at(p, 1)
        scale = max(1.0, b.eta.max_abs(), b.K.max_abs())
        dwj = domega.at(p, 0)
        dw_scale = max(1.0, coeff_max(S.omega.at(p, 1)))
        res["domega"] = max(res["domega"], dwj.max_abs() / dw_scale)
        parts = {m: bigraded_part_at(S, dwj, m, b).values() for m in range(4)}
        for m, key in ((3, "domega_30"), (2, "domega_21"), (1, "domega_12"), (0, "domega_03")):
            res[key] = max(res[key], _mx(parts[m]) / dw_scale)
        phiv = phi_field(S).at(p, 0).values()
        res["phi_skew"] = max(
            res["phi_skew"], _mx(phiv + np.transpose(phiv, (1, 0, 2))) / dw_scale
        )
        res["nabla_K"] = max(res["nabla_K"], _mx(dK.at(p, 0).values()) / dw_scale)
        # Pure-type Nijenhuis parts, as tensors over the coordinate basis.
        nplus = np.zeros((dim, dim, dim))
        nminus = np.zeros((dim, dim, dim))
        for i in range(dim):
            for j in range(i + 1, dim):
                for sign, store in ((+1, nplus), (-1, nminus)):
                    P = S.projector(sign)
                    N = nijenhuis(S, apply_endomorphism(P, basis[i]),
                                  apply_endomorphism(P, basis[j]))
                    nv = N.at(p, 0)
                    Pc = b.Pp if sign > 0 else b.Pm
                    etaN = tdot(tdot(b.eta, nv, ([0], [0])), Pc, ([0], [0]))
                    row = etaN.values()
                    store[i, j, :] = row
                    store[j, i, :] = -row
        res["n_plus"] = max(res["n_plus"], _mx(nplus) / scale)
        res["n_minus"] = max(res["n_minus"], _mx(nminus) / scale)
        # Identity: (d omega)^{(+3,-0)} = cyclic sum of N_+,
        # (d omega)^{(+0,-3)} = -cyclic sum of N_-.
        # N_+- are already fully projected, so the cyclic sums compare directly.
        cyc_p = nplus + np.transpose(nplus, (1, 2, 0)) + np.transpose(nplus, (2, 0, 1))
        cyc_m = nminus + np.transpose(nminus, (1, 2, 0)) + np.transpose(nminus, (2, 0, 1))
        cross["d_omega_30_vs_cyclic_n_plus"] = max(
            cross["d_omega_30_vs_cyclic_n_plus"], _mx(parts[3] - cyc_p) / dw_scale)
        cross["d_omega_03_vs_cyclic_n_minus"] = max(
            cross["d_omega_03_vs_cyclic_n_minus"], _mx(parts[0] + cyc_m) / dw_scale)
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
    return ClassificationReport(flags, res, tol, len(sample), cross)

