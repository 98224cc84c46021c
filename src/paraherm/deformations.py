"""B-transformations of para-Hermitian structures, weak-integrability and
compatibility checks, the twisted D-bracket and flux extraction.

Sign anchors, used consistently everywhere: omega_B = omega + 2b, and the
twist of the D-bracket is -(db)(X,Y,Z).  All flux signs inherit from these
two, and the two-way computations in `maurer_cartan_sides` and
`twisted_d_bracket_reference` are the tests that keep them honest.

Antisymmetrized component displays (H, Q, covariantized H) follow the global
unnormalized cyclic-sum convention of the geometry module.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, fields

import numpy as np

from .brackets import d_bracket, schouten_self
from .connections import flat_connection
from .errors import (
    MissingSplit,
    NotAntisymmetric,
    NotParaKahler,
    SingularFrame,
    Unsupported,
    WrongType,
)
from .geometry import (
    DerivedField,
    Field,
    MAX_CONDITION,
    TensorField,
    apply_endomorphism,
    coeff_max,
    concat_jets,
    constant_jets,
    contract_value,
    embed_block,
    exterior_derivative,
    invert_matrix_jets,
    per_point_max,
    require_within,
    stack_points,
    tdot,
)
from .parastructure import ParaHermitianStructure, bigraded_part_at

__all__ = [
    "BTransformation", "b_transform", "b_minus_transform",
    "simultaneous_transform", "MCSides", "maurer_cartan_sides",
    "mc_form", "compatibility_residual",
    "twisted_d_bracket", "twisted_d_bracket_reference",
    "extract_fluxes", "FluxReport", "f_flux",
]


class BTransformation:
    """A shear of T+ toward T- (side=+1) or the mirror (side=-1).

    Carries the base structure S, the two-form data, and the derived maps:
    B (1,1), e^B = 1 + B, K_B = K + 2 sign B, and the transformed structure
    (eta, K_B) with its own projections and canonical connection.
    """

    def __init__(self, S: ParaHermitianStructure, b: Field, side=+1):
        self.S = S
        self.b = b
        self.side = side
        chart = S.chart

        def B_fn(p, k):
            bundle = S.at(p, k)
            bj = b.at(p, k)
            # B^M_I = b_{IN} eta^{NM}
            return tdot(bj, bundle.eta_inv, ([1], [0])).transpose((1, 0))

        self.B = DerivedField(chart, 1, 1, B_fn)
        self.K_B = S.K + self.B * (2.0 * side)
        self.e_B = DerivedField(chart, 1, 1, self._eB_comps)
        self.structure_B = ParaHermitianStructure(chart, S.eta, self.K_B)
        # Bivector with both slots raised: b^{MN} = b_{IJ} eta^{IM} eta^{JN}.

        def bivec_fn(p, k):
            bundle = S.at(p, k)
            bj = b.at(p, k)
            up1 = tdot(bundle.eta_inv, bj, ([0], [0]))
            return tdot(up1, bundle.eta_inv, ([1], [0]))

        self.b_bivector = DerivedField(chart, 2, 0, bivec_fn, sym="antisymmetric")
        # [b,b] through the flat coordinate connection; any torsionless
        # connection gives the same bracket.
        self.schouten = schouten_self(self.b_bivector, flat_connection(chart),
                                      check_torsion=False)
        self._domega = exterior_derivative(S.omega)

    def _eB_comps(self, p, k):
        eye = constant_jets(self.S.chart.context(k), np.eye(self.S.chart.dim))
        return eye + self.B.at(p, k)

    @property
    def omega_B(self) -> Field:
        return self.S.omega + self.b * (2.0 * self.side)

    def sheared_projector(self) -> Field:
        """Projector onto the deformed eigenbundle (T+^B for side +1)."""
        return self.structure_B.projector(self.side)

    def base_parakahler_residual(self, point):
        """Para-Kahler residual of the base structure: a float at a point,
        one per point at a batch."""
        dw = self._domega.at(point, 0).max_abs()
        scale = np.maximum(1.0, self.S.at(point, 0).eta.max_abs())
        res = np.maximum(dw / scale, np.maximum(self.S.integrability_residual(+1, point),
                                                self.S.integrability_residual(-1, point)))
        return res if point.batch else float(res)

    def require_parakahler(self, point, tol=1e-8):
        """Raise NotParaKahler naming the first point (of a batch) where the
        base structure fails."""
        require_within(point, self.base_parakahler_residual(point), tol, NotParaKahler,
                       "base structure fails para-Kahler residual")


def _type_residuals(S, b, sample, side):
    """(antisymmetry, wrong-type) residuals of the two-form at the sample."""
    sample = list(sample)
    if not sample:
        return 0.0, 0.0
    batch = stack_points(sample)
    vals = b.at(batch, 0).values()  # (point, i, j)
    bundle = S.at(batch, 0)
    Q = (bundle.Pm if side > 0 else bundle.Pp).values()
    scale = np.maximum(1.0, per_point_max(vals))
    anti = per_point_max(vals + np.swapaxes(vals, 1, 2)) / scale
    wrong = np.maximum(per_point_max(np.swapaxes(Q, 1, 2) @ vals),
                       per_point_max(vals @ Q)) / scale
    return float(anti.max()), float(wrong.max())


def b_transform(S, b: Field, sample=(), tol=1e-10) -> BTransformation:
    """Validate the two-form and build the sheared structure (plus side)."""
    anti, wrong = _type_residuals(S, b, sample, +1)
    if not anti <= tol:
        raise NotAntisymmetric(f"b antisymmetry residual {anti:.3e}")
    if not wrong <= tol:
        raise WrongType(f"b has components off the (+2,-0) type, residual {wrong:.3e}")
    return BTransformation(S, b, side=+1)


def b_minus_transform(S, beta: Field, sample=(), tol=1e-10) -> BTransformation:
    """Mirror shear of T- toward T+, driven by a type (+0,-2) two-form."""
    anti, wrong = _type_residuals(S, beta, sample, -1)
    if not anti <= tol:
        raise NotAntisymmetric(f"beta antisymmetry residual {anti:.3e}")
    if not wrong <= tol:
        raise WrongType(f"beta has components off the (+0,-2) type, residual {wrong:.3e}")
    return BTransformation(S, beta, side=-1)


def simultaneous_transform(S, b, beta):
    raise Unsupported("simultaneous B+ and B- transformations are not supported")


# --------------------------------------------------------------------------
# Weak integrability and the Maurer-Cartan equation
# --------------------------------------------------------------------------

@dataclass
class MCSides:
    d_bracket_side: float
    form_side: float

    @property
    def agreement(self) -> float:
        return abs(self.d_bracket_side - self.form_side)


def maurer_cartan_sides(T: BTransformation, X, Y, Z, point) -> MCSides:
    """Both sides of the weak-integrability identity, by disjoint code paths.

    Left: eta([P^B X, P^B Y]^D, P^B Z) through the D-bracket machinery.
    Right: the projected exterior derivative of b plus the eta-lowered
    Schouten bracket of the associated bivector.
    """
    S = T.S
    PB = T.sheared_projector()
    PBX = apply_endomorphism(PB, X)
    PBY = apply_endomorphism(PB, Y)
    br = d_bracket(S, PBX, PBY).at(point, 0)
    bundle = S.at(point, 0)
    pbz = PB.at(point, 0)
    zj = tdot(pbz, Z.at(point, 0), ([1], [0]))
    lhs = contract_value(bundle.eta, br, zj)
    rhs = contract_value(mc_form(T).at(point, 0), X.at(point, 0),
                         Y.at(point, 0), Z.at(point, 0))
    return MCSides(lhs, rhs)


def _lowered_schouten(T: BTransformation, p, k):
    """(Lambda^3 eta)[b,b] at a point: the Schouten bracket with all three
    slots lowered, which is the dual R-flux."""
    eta = T.S.at(p, k).eta
    low = tdot(eta, T.schouten.at(p, k), ([1], [0]))
    low = tdot(eta, low, ([1], [1]))
    low = tdot(eta, low, ([1], [2]))
    return low.transpose((2, 1, 0))


def mc_form(T: BTransformation) -> Field:
    """d_side b + (Lambda^3 eta)[b,b]_other as a (0,3) tensor field."""
    S = T.S
    db = exterior_derivative(T.b)
    m_plus = 3 if T.side > 0 else 0

    def fn(p, k):
        proj = bigraded_part_at(S, db.at(p, k), m_plus, S.at(p, k))
        return proj + _lowered_schouten(T, p, k)

    return DerivedField(S.chart, 0, 3, fn, sym="antisymmetric")


def compatibility_residual(T: BTransformation, sample) -> float:
    """Max scale-normalized Maurer-Cartan component over the sample."""
    sample = list(sample)
    if not sample:
        return 0.0
    batch = stack_points(sample)
    scale = np.maximum(1.0, coeff_max(T.b.at(batch, 1)))
    return float(np.max(mc_form(T).at(batch, 0).max_abs() / scale))


# --------------------------------------------------------------------------
# Twisted D-bracket
# --------------------------------------------------------------------------

def twisted_d_bracket(T: BTransformation, X: Field, Y: Field, pk_tol=1e-8) -> Field:
    """D-bracket of (eta, K_B) via its own canonical connection.

    Only defined here over a para-Kahler base; the gate is checked at every
    evaluation point.
    """
    inner = d_bracket(T.structure_B, X, Y)

    def fn(p, k):
        T.require_parakahler(p, tol=pk_tol)
        return inner.at(p, k)

    return DerivedField(T.S.chart, 1, 0, fn)


def twisted_d_bracket_reference(T: BTransformation, X: Field, Y: Field) -> Field:
    """Independent route: base D-bracket minus the db contraction,

    eta([X,Y]^{D,B}, Z) = eta([X,Y]^D, Z) - db(X,Y,Z).
    """
    S = T.S
    base = d_bracket(S, X, Y)
    db = exterior_derivative(T.b)

    def fn(p, k):
        bundle = S.at(p, k)
        dbj = db.at(p, k)
        xi = tdot(tdot(dbj, X.at(p, k), ([0], [0])), Y.at(p, k), ([0], [0]))
        corr = tdot(bundle.eta_inv, xi, ([1], [0]))
        return base.at(p, k) - corr

    return DerivedField(S.chart, 1, 0, fn)


# --------------------------------------------------------------------------
# Fluxes
# --------------------------------------------------------------------------

@dataclass
class FluxReport:
    point: list
    h_flux: list
    r_flux: list
    q_flux: list
    covariantized_h: list
    h_frame: list
    q_frame: list
    reassembly_residual: float
    vanishing_residual: float
    cross_check_residual: float
    extras: dict = dc_field(default_factory=dict)

    def to_dict(self):
        """The fields as a dict sharing their values (no deep copy)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def extract_fluxes(T: BTransformation, point, pk_tol=1e-8):
    """Flux decomposition of db at a point, in both coframes: one FluxReport,
    or a list of them, one per point, at a batch.

    H is the (+3,-0) part of db with respect to the base structure, the dual
    R-flux is the triple-lowered Schouten bracket, the covariantized H-flux
    is their sum (equal to the (+3,-0)_B part), and the dual Q-flux is the
    (+2,-1)_B part read in the sheared frame.  The remaining bigraded parts
    of db must vanish, and the parts must reassemble db exactly.
    """
    if T.side != +1:
        raise Unsupported("flux extraction is defined for the plus-side shear")
    S = T.S
    chart = S.chart
    if chart.split is None:
        raise MissingSplit("flux extraction needs adapted (split) coordinates")
    T.require_parakahler(point, tol=pk_tol)
    n = chart.split
    dbj = exterior_derivative(T.b).at(point, 0)
    base_bundle = S.at(point, 0)
    b_bundle = T.structure_B.at(point, 0)

    H = bigraded_part_at(S, dbj, 3, base_bundle)
    R = _lowered_schouten(T, point, 0)
    covH = H + R

    parts = {m: bigraded_part_at(S, dbj, m, b_bundle) for m in range(4)}
    cross = (covH - parts[3]).max_abs()
    vanishing = np.maximum(parts[1].max_abs(), parts[0].max_abs())
    reassembly = (covH + parts[2] + parts[1] + parts[0] - dbj).max_abs()

    # Sheared frame: H'_i = (1 + B) e_i for the first n coordinates, V_j the rest.
    plus = T.e_B.at(point, 0).values()[..., :n]
    minus = np.eye(chart.dim)[:, n:]
    h_frame = np.einsum("...abc,...ai,...bj,...ck->...ijk", covH.values(), plus, plus, plus)
    q_frame = np.einsum("...abc,ai,...bj,...ck->...ijk", dbj.values(), minus, plus, plus)
    arrays = dict(h_flux=H.values(), r_flux=R.values(), q_flux=parts[2].values(),
                  covariantized_h=covH.values(), h_frame=h_frame, q_frame=q_frame)
    residuals = dict(reassembly_residual=reassembly, vanishing_residual=vanishing,
                     cross_check_residual=cross)

    def report(coords, i=()):
        """The FluxReport of the point at `coords`, entry `i` of the batch."""
        return FluxReport(point=[float(c) for c in coords],
                          **{k: v[i].tolist() for k, v in arrays.items()},
                          **{k: float(np.asarray(v)[i]) for k, v in residuals.items()})

    if not point.batch:
        return report(point.coords)
    return [report(coords, i) for i, coords in enumerate(point.coords)]


def f_flux(S, A_block, point, order=0) -> np.ndarray:
    """Frame structure constants f^c_{ab} = eta([e_a, e_b]^D, e^c).

    `A_block` is an n x n array of chart scalars defining the frame
    e_a = A^i_a d_i on the plus block; the dual frame uses the pointwise
    inverse transpose on the minus block.  At a batch, f has a leading
    batch axis and a singular frame names the first point where it is.
    """
    chart = S.chart
    if chart.split is None:
        raise MissingSplit("f-flux needs adapted (split) coordinates")
    n = chart.split
    A = TensorField(chart, 1, 1, embed_block(chart, A_block))

    require_within(point, np.linalg.cond(A.at(point, 0).values()[..., :n, :n]), MAX_CONDITION,
                   SingularFrame, "frame block condition number")

    # e_a is column a of A, which is zero below the plus block; the dual
    # coframe e^c is row c of the inverse block, on the minus block.
    frame = [DerivedField(chart, 1, 0, lambda p, k, a=a: A.at(p, k)[:, a])
             for a in range(n)]
    inv = invert_matrix_jets(A.at(point, order)[:n, :n], point)
    dual = concat_jets([constant_jets(inv.ctx, np.zeros((n, n))), inv.transpose()])
    eta = S.at(point, order).eta
    out = np.zeros(point.batch + (n, n, n))
    for a in range(n):
        for b in range(n):
            br = d_bracket(S, frame[a], frame[b]).at(point, order)
            out[..., :, a, b] = tdot(dual, tdot(eta, br, ([0], [0])), ([0], [0])).values()
    return out
