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
    _memo_at,
    apply_endomorphism,
    coeff_max,
    constant_field,
    constant_jets,
    contract_value,
    exterior_derivative,
    invert_matrix_jets,
    lie_bracket,
    per_point_max,
    stack_points,
    tdot,
    truncate_jets,
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

    def at_order(self, order):
        """The bundle with every member truncated to `order`."""
        if order == self.eta.ctx.order:
            return self
        return _Bundle(*(truncate_jets(x, order) for x in
                         (self.eta, self.eta_inv, self.K, self.omega, self.Pp, self.Pm)))


class ParaHermitianStructure:
    """The pair (eta, K) with derived omega = eta K and projections (1 +- K)/2."""

    def __init__(self, chart, eta: Field, K: Field):
        if eta.rank != (0, 2) or K.rank != (1, 1):
            raise RankMismatch("eta must be (0,2) and K must be (1,1)")
        self.chart = chart
        self.eta = eta
        self.K = K
        self._memo = None

        self.omega = DerivedField(chart, 0, 2, lambda p, k: self.at(p, k).omega,
                                  sym="antisymmetric")
        self.P_plus = DerivedField(chart, 1, 1, lambda p, k: self.at(p, k).Pp)
        self.P_minus = DerivedField(chart, 1, 1, lambda p, k: self.at(p, k).Pm)

    @_memo_at(cut=_Bundle.at_order)
    def at(self, point, order) -> _Bundle:
        """eta, its inverse, K, omega and P+- at a point or batch, with the
        one-entry memo of `Field.at`."""
        ej = self.eta.at(point, order)
        kj = self.K.at(point, order)
        inv = invert_matrix_jets(ej, point)
        # omega(d_A, d_B) = eta(K d_A, d_B) = K^m_A eta_{mB}
        omega = tdot(kj, ej, ([0], [0]))
        eye = constant_jets(self.chart.context(order), np.eye(self.chart.dim))
        Pp = (eye + kj) * 0.5
        Pm = (eye - kj) * 0.5
        return _Bundle(ej, inv, kj, omega, Pp, Pm)

    def projector(self, sign) -> Field:
        return self.P_plus if sign > 0 else self.P_minus

    @cached_property
    def levi_civita(self):
        return levi_civita(self.eta)

    @cached_property
    def canonical(self):
        return canonical_connection(self)

    def integrability_residual(self, sign, point):
        """Scale-normalized Nijenhuis residual on the `sign` eigenbundle, the
        worst over six seeded random vector triples: a float at a point, one
        per point at a batch."""
        return self._nijenhuis_gates[sign].at(point)

    @cached_property
    def _nijenhuis_gates(self):
        return {sign: _NijenhuisGate(self, sign) for sign in (+1, -1)}


class _NijenhuisGate:
    """`integrability_residual` of one side.  Its six Nijenhuis fields are
    built once, and the residual has the one-entry memo of `Field.at`, so a
    gate asked again at the same point or batch is not recomputed."""

    def __init__(self, S, sign):
        self.S, self.sign, self.chart = S, sign, S.chart
        self._memo = None
        rng = np.random.default_rng(7)
        P = S.projector(sign)
        self.triples = []
        for _ in range(6):
            u, v, w = (_const_vec(S.chart, c)
                       for c in rng.uniform(-1.0, 1.0, (3, S.chart.dim)))
            N = nijenhuis(S, apply_endomorphism(P, u), apply_endomorphism(P, v))
            self.triples.append((N, w))

    @_memo_at(cut=lambda value, order: value)
    def at(self, point, order=0):
        b = self.S.at(point, 1)
        scale = np.maximum(1.0, np.maximum(b.K.max_abs(), b.eta.max_abs()))
        worst = 0.0
        for N, Z in self.triples:
            val = _n_value(self.S, self.sign, N, Z, point, 0)
            worst = np.maximum(worst, np.abs(val) / scale)
        if not point.batch:
            return float(worst)
        worst.flags.writeable = False  # shared by every caller of the batch
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

    @property
    def passed(self) -> bool:
        return all(v <= self.tol for v in self.residuals.values())


def validate_structure(S: ParaHermitianStructure, sample, tol=1e-10) -> ValidationReport:
    """Pointwise residuals for every defining invariant of (eta, K), on the
    sample as one batch."""
    res = dict.fromkeys((
        "K_squared", "eta_symmetric", "eta_anticompat", "trace_K", "omega_antisymmetric",
        "projectors", "partition", "isotropy_plus", "isotropy_minus"), 0.0)
    sample = list(sample)
    if not sample:
        return ValidationReport(res, tol, 0)
    b = S.at(stack_points(sample), 0)
    K = b.K.values()  # (point, a, b)
    eta = b.eta.values()
    omega = b.omega.values()
    Pp = b.Pp.values()
    Pm = b.Pm.values()
    eye = np.eye(S.chart.dim)
    scale = np.maximum(1.0, np.maximum(per_point_max(eta), per_point_max(K)))
    T = lambda m: np.swapaxes(m, -1, -2)  # noqa: E731
    per_point = {
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
    for key, vals in per_point.items():
        res[key] = float(vals.max())
    return ValidationReport(res, tol, len(sample))




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
    return _n_value(S, sign, N, Z, point, order)


def _n_value(S, sign, N, Z, point, order):
    """eta(N, P+- Z) for N = N_K(P+- X, P+- Y) already built."""
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
    res = {"n_plus": 0.0, "n_minus": 0.0, "phi_skew": 0.0, "domega": 0.0,
           "domega_30": 0.0, "domega_21": 0.0, "domega_12": 0.0, "domega_03": 0.0,
           "nabla_K": 0.0}
    cross = {"d_omega_30_vs_cyclic_n_plus": 0.0, "d_omega_03_vs_cyclic_n_minus": 0.0}
    if sample:
        _classify_batch(S, stack_points(sample), res, cross)
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


def _classify_batch(S, batch, res, cross):
    """Fill the classification residuals: the worst point of the batch."""
    dim = S.chart.dim
    basis = [_const_vec(S.chart, row) for row in np.eye(dim)]
    b = S.at(batch, 1)
    scale = np.maximum(1.0, np.maximum(b.eta.max_abs(), b.K.max_abs()))
    dwj = exterior_derivative(S.omega).at(batch, 0)
    dw_scale = np.maximum(1.0, coeff_max(S.omega.at(batch, 1)))
    per_point = {"domega": dwj.max_abs() / dw_scale}
    parts = {m: bigraded_part_at(S, dwj, m, b).values() for m in range(4)}
    for m, key in ((3, "domega_30"), (2, "domega_21"), (1, "domega_12"), (0, "domega_03")):
        per_point[key] = per_point_max(parts[m]) / dw_scale
    phiv = phi_field(S).at(batch, 0).values()
    per_point["phi_skew"] = per_point_max(phiv + np.swapaxes(phiv, 1, 2)) / dw_scale
    dK = covariant_differential(S.levi_civita, S.K)
    per_point["nabla_K"] = per_point_max(dK.at(batch, 0).values()) / dw_scale
    # Pure-type Nijenhuis parts, as tensors over the coordinate basis:
    # n[sign][point, i, j, :] = eta(N(P e_i, P e_j), P .).
    n = {}
    for sign in (+1, -1):
        P = S.projector(sign)
        Pc = b.Pp if sign > 0 else b.Pm
        store = n[sign] = np.zeros(batch.batch + (dim, dim, dim))
        for i in range(dim):
            for j in range(i + 1, dim):
                N = nijenhuis(S, apply_endomorphism(P, basis[i]),
                              apply_endomorphism(P, basis[j]))
                etaN = tdot(tdot(b.eta, N.at(batch, 0), ([0], [0])), Pc, ([0], [0]))
                row = etaN.values()
                store[:, i, j, :] = row
                store[:, j, i, :] = -row
    per_point["n_plus"] = per_point_max(n[+1]) / scale
    per_point["n_minus"] = per_point_max(n[-1]) / scale
    # Identity: (d omega)^{(+3,-0)} = cyclic sum of N_+,
    # (d omega)^{(+0,-3)} = -cyclic sum of N_-.
    # N_+- are already fully projected, so the cyclic sums compare directly.
    cyc = {sign: t + np.transpose(t, (0, 2, 3, 1)) + np.transpose(t, (0, 3, 1, 2))
           for sign, t in n.items()}
    per_cross = {
        "d_omega_30_vs_cyclic_n_plus": per_point_max(parts[3] - cyc[+1]) / dw_scale,
        "d_omega_03_vs_cyclic_n_minus": per_point_max(parts[0] + cyc[-1]) / dw_scale,
    }
    for out, vals in ((res, per_point), (cross, per_cross)):
        for key, v in vals.items():
            out[key] = float(np.max(v))

