"""Almost para-Hermitian structures: projections, rho maps, Nijenhuis tensor,
the Phi tensor and the classification predicates.

Eigenbundles are never materialized as bases; everything routes through the
projectors P+ and P-, which avoids eigenvector ordering problems and matches
the operator-level formulas the checks are written in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations
from operator import add

import numpy as np

from .connections import (
    canonical_connection,
    covariant_differential,
    inverse_metric,
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
    jets_gradient,
    lie_bracket,
    per_point,
    per_point_max,
    project_slots,
    reduce_points,
    tdot,
)

__all__ = [
    "ParaHermitianStructure", "GeneralizedVector", "validate_structure",
    "rho", "rho_field", "rho_inverse", "nijenhuis", "nijenhuis_tensor",
    "nijenhuis_projector_form", "nijenhuis_connection_form", "n_scalar",
    "phi_field", "phi_scalar", "bigraded_parts", "bigraded_part_at",
    "classify",
]


class ParaHermitianStructure:
    """The pair (eta, K) with the fields derived from it: eta^{-1}, omega =
    eta K, d omega (`domega`) and the projections (1 +- K)/2; `fields` lists
    all but `domega`.  Each is one memoised `Field`, `const` where eta and K
    are, built once and closing over the fields it reads, never over the
    structure, as do the connections and Nijenhuis fields built on first
    use.  `bracket_table` holds the brackets built on it, one field per
    (connection, X, Y, projection) (`brackets.associated_bracket`), and
    `operand_table` the fields their bodies read, one per (connection, X)
    for nabla X, per (projector, X) for P X, per (eta, Y) for eta(Y, .), per
    (eta^-1, P) for eta^-1 P^T and per (M, nabla X) for the raised R_X =
    M nabla X."""

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

        self.eta_inv = inverse_metric(eta)
        self.omega = DerivedField(chart, 0, 2, omega, sym="antisymmetric", inputs=(eta, K))
        self.domega = exterior_derivative(self.omega)
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
        return levi_civita(self.eta, self.eta_inv)

    @cached_property
    def canonical(self):
        return canonical_connection(self)

    @cached_property
    def nijenhuis_tensor(self):
        return nijenhuis_tensor(self)

    def integrability_residual(self, sign, point):
        """Scale-normalized Nijenhuis residual on the `sign` eigenbundle, the
        largest component of its pure-type Nijenhuis part: a float at a
        point, one per point at a batch."""
        return self._nijenhuis_gates[sign].max_abs(point)

    @cached_property
    def _nijenhuis_gates(self):
        return {sign: _nijenhuis_gate(self.nijenhuis_tensor, self.eta, self.K, sign,
                                      self.projector(sign)) for sign in (+1, -1)}


def _nijenhuis_gate(N, eta, K, sign, P):
    """`integrability_residual` of the `sign` side, of projector P: a (0,0)
    field at order 0, the largest component of the side's `_nijenhuis_parts`
    over max(1, |eta|, |K|) at each point, which is `classify`'s `n_plus` or
    `n_minus`; `const` where eta and K are."""

    def fn(point, order):
        scale = np.maximum(1.0, np.maximum(eta.max_abs(point), K.max_abs(point)))
        worst = per_point_max(_nijenhuis_parts(N, eta, {sign: P}, point)[sign]) / scale
        return constant_jets(eta.chart.context(0), worst if point.batch else worst[0],
                             len(point.batch))

    return DerivedField(eta.chart, 0, 0, fn, inputs=(eta, K, P, N))


# --------------------------------------------------------------------------
# Validation
# --------------------------------------------------------------------------

@np.errstate(over="ignore", invalid="ignore")
def validate_structure(S: ParaHermitianStructure, sample):
    """The residual of every defining invariant of (eta, K) by name, one per
    point of the sample, evaluated as one batch.  Raises DomainError naming
    the first point where one is not finite (finite values whose products
    overflow)."""
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
    return worst


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
    K = S.K

    def fn(p, k):
        Kv, dK = K.at(p, k), jets_gradient(K.at(p, k + 1))  # dK[l, i, j] = d_l K^i_j
        t = tdot(Kv, dK, ([0], [0])).transpose((1, 0, 2)) - tdot(Kv, dK, ([1], [1]))
        return (t - t.transpose((0, 2, 1))) * 0.25

    return DerivedField(S.chart, 1, 2, fn, inputs=(K,))


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

def bigraded_parts(T: JetArray, Pp: JetArray, Pm: JetArray, parts) -> dict:
    """{m: (+m,-n) part} of a (0,k) tensor value for each m in `parts`, from
    the jets Pp and Pm of P+- at its point.  Part m sums, in `combinations`
    order, T with each slot assignment of m plus slots projected.  The
    assignments are one tree: slot 0, then 1, then 2 ... is projected, and
    assignments share the contractions of their common prefix, each branch
    grown only while it can still reach a part asked for."""
    k = T.ndim
    leaves = {(): T}  # plus slots so far -> T with the slots so far projected
    for slot in range(k):
        grown = {}
        for plus, comps in leaves.items():
            for P, then in ((Pp, plus + (slot,)), (Pm, plus)):
                if any(len(then) <= m <= len(then) + k - 1 - slot for m in parts):
                    grown[then] = tdot(P, comps, ([0], [slot])).moveaxis(0, slot)
        leaves = grown
    return {m: reduce(add, (leaves[c] for c in combinations(range(k), m)))
            for m in parts}


def bigraded_part_at(T: JetArray, m_plus: int, Pp: JetArray, Pm: JetArray) -> JetArray:
    """(+m,-n) part of a (0,k) tensor value, from the jets Pp and Pm of
    P+- at its point (`bigraded_parts` of the one part)."""
    return bigraded_parts(T, Pp, Pm, (m_plus,))[m_plus]


# --------------------------------------------------------------------------
# Classification
# --------------------------------------------------------------------------

def classify(S: ParaHermitianStructure, sample, tol=1e-9):
    """(flags, arrays): scale-normalized classification flags from the
    maxima of the per-point `arrays` of `_classify_batch`.

    p/n-integrability from the pure-type Nijenhuis parts, nearly para-Kahler
    from skewness of Phi in its first two slots, almost para-Kahler from
    d omega = 0; para-Kahler additionally cross-checked against nablao K = 0
    and the (3,0)/(0,3) formulas relating d omega to the Nijenhuis parts.
    That cross-check, `para_kahler_iff_nabla_K`, reads the flags of the
    whole sample, so it is a 0-d array.
    """
    arrays = _classify_batch(S, as_batch(sample))
    ok = {key: worst <= tol for key, worst in reduce_points(arrays).maxima.items()}
    flags = {"p_integrable": ok["n_plus"], "n_integrable": ok["n_minus"],
             "nearly_para_kahler": ok["phi_skew"], "almost_para_kahler": ok["domega"]}
    flags["para_kahler"] = ok["domega"] and ok["n_plus"] and ok["n_minus"]
    # n(p)-para-Kahler: the half-integrable case with no mixed-down components,
    # the way the tangent-bundle construction comes out.
    flags["n_para_kahler"] = ok["n_minus"] and ok["domega_12"] and ok["domega_03"]
    flags["p_para_kahler"] = ok["n_plus"] and ok["domega_21"] and ok["domega_30"]
    # para-Kahler iff nablao K = 0 (Levi-Civita cross-check).
    iff = 0.0 if flags["para_kahler"] == ok["nabla_K"] else 1.0
    return flags, arrays | {"para_kahler_iff_nabla_K": np.asarray(iff)}


def _classify_batch(S, batch):
    """The classification's residuals and the two cross checks of d omega
    against the Nijenhuis parts, by name, one per point of the batch."""
    Pp, Pm = (f.at(batch, 1) for f in (S.P_plus, S.P_minus))
    scale = np.maximum(1.0, np.maximum(S.eta.max_abs(batch), S.K.max_abs(batch)))
    dwj = per_point(batch, S.domega.at(batch, 0))
    dw_scale = np.maximum(1.0, coeff_max(per_point(batch, S.omega.at(batch, 1))))
    worst = {"domega": dwj.max_abs() / dw_scale}
    parts = {m: part.values() for m, part in bigraded_parts(dwj, Pp, Pm, range(4)).items()}
    for m, key in ((3, "domega_30"), (2, "domega_21"), (1, "domega_12"), (0, "domega_03")):
        worst[key] = per_point_max(parts[m]) / dw_scale
    phiv = phi_field(S).values(batch)
    worst["phi_skew"] = per_point_max(phiv + np.swapaxes(phiv, 1, 2)) / dw_scale
    dK = covariant_differential(S.levi_civita, S.K)
    worst["nabla_K"] = per_point_max(dK.values(batch)) / dw_scale
    n = _nijenhuis_parts(S.nijenhuis_tensor, S.eta, {+1: S.P_plus, -1: S.P_minus}, batch)
    worst["n_plus"] = per_point_max(n[+1]) / scale
    worst["n_minus"] = per_point_max(n[-1]) / scale
    # Identity: (d omega)^{(+3,-0)} = cyclic sum of N_+,
    # (d omega)^{(+0,-3)} = -cyclic sum of N_-.
    # N_+- are already fully projected, so the cyclic sums compare directly.
    cyc = {sign: t + np.transpose(t, (0, 2, 3, 1)) + np.transpose(t, (0, 3, 1, 2))
           for sign, t in n.items()}
    worst["d_omega_30_vs_cyclic_n_plus"] = per_point_max(parts[3] - cyc[+1]) / dw_scale
    worst["d_omega_03_vs_cyclic_n_minus"] = per_point_max(parts[0] + cyc[-1]) / dw_scale
    return worst


def _nijenhuis_parts(N, eta, projectors, point):
    """n[key][point, i, j, c] = eta(N(P e_i, P e_j), P e_c), the pure-type
    parts of the Nijenhuis tensor field N over the coordinate basis, for each
    projector field P in the dict `projectors`, with a leading point axis (of
    one, at a single point), each a chain of batched `matmul`s (`project_slots`)."""
    def values(f):
        v = f.values(point)
        return v if point.batch else v[None]

    # eta_{ab} N^a_{kl} P^k_i P^l_j P^b_c, with N's upper slot moved last
    Nv, etav = values(N).transpose(0, 2, 3, 1), values(eta)
    return {key: project_slots(Nv, P, P, etav @ P)
            for key, f in projectors.items() for P in [values(f)]}
