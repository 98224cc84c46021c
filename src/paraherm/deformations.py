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

from . import brackets
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
    as_batch,
    coeff_max,
    concat_jets,
    constant_jets,
    contract_value,
    embed_block,
    exterior_derivative,
    invert_matrix_jets,
    per_point,
    per_point_max,
    project_slots,
    require_within,
    tdot,
)
from .parastructure import ParaHermitianStructure, bigraded_parts

__all__ = [
    "BTransformation", "b_transform", "b_minus_transform",
    "MCSides", "maurer_cartan_sides",
    "compatibility_residual",
    "twisted_d_bracket", "twisted_d_bracket_reference",
    "extract_fluxes", "FluxReport", "f_flux",
]

# The base structure's para-Kahler residual above which fluxes are undefined.
PARAKAHLER_TOL = 1e-8

# The antisymmetry and type residual above which a two-form cannot shear.
TYPE_TOL = 1e-10


class BTransformation:
    """A shear of T+ toward T- (side=+1) or the mirror (side=-1) of the base
    structure S by the two-form b.  Its fields are built once, here, each
    closing over the fields it reads, never over the shear: B (1,1), e^B =
    1 + B, K_B = K + 2 sign B, the transformed structure (eta, K_B), the
    bivector b^{MN}, its Schouten bracket [b, b], `db`, the dual R-flux
    `lowered_schouten` = (Lambda^3 eta)[b, b], `db_part` = d_side b (the
    (+3,-0) part of db for side +1) and `mc_form`, their sum.
    """

    def __init__(self, S: ParaHermitianStructure, b: Field, side=+1):
        self.S = S
        self.b = b
        self.side = side
        chart = S.chart
        eta, eta_inv = S.eta, S.eta_inv

        def B_fn(p, k):
            # B^M_I = b_{IN} eta^{NM}
            return tdot(b.at(p, k), eta_inv.at(p, k), ([1], [0])).transpose((1, 0))

        B = self.B = DerivedField(chart, 1, 1, B_fn, inputs=(b, eta_inv))
        self.K_B = S.K + B * (2.0 * side)

        def eB_fn(p, k):
            return constant_jets(chart.context(k), np.eye(chart.dim)) + B.at(p, k)

        self.e_B = DerivedField(chart, 1, 1, eB_fn, inputs=(B,))
        self.structure_B = ParaHermitianStructure(chart, eta, self.K_B)
        # Bivector with both slots raised: b^{MN} = b_{IJ} eta^{IM} eta^{JN}.

        def bivec_fn(p, k):
            inv = eta_inv.at(p, k)
            return tdot(tdot(inv, b.at(p, k), ([0], [0])), inv, ([1], [0]))

        self.b_bivector = DerivedField(chart, 2, 0, bivec_fn, sym="antisymmetric",
                                       inputs=(b, eta_inv))
        # [b,b] through the flat coordinate connection, which passes the
        # torsion check; any torsionless connection gives the same bracket.
        schouten = self.schouten = schouten_self(self.b_bivector, flat_connection(chart))

        def lowered_fn(p, k):
            e = eta.at(p, k)
            low = tdot(e, schouten.at(p, k), ([1], [0]))
            low = tdot(e, low, ([1], [1]))
            return tdot(e, low, ([1], [2])).transpose((2, 1, 0))

        self.lowered_schouten = DerivedField(chart, 0, 3, lowered_fn, sym="antisymmetric",
                                             inputs=(eta, schouten))
        db = self.db = exterior_derivative(b)
        Pp, Pm, m_plus = S.P_plus, S.P_minus, 3 if side > 0 else 0

        def part_fn(p, k):
            return bigraded_parts(db.at(p, k), Pp.at(p, k), Pm.at(p, k), (m_plus,))[m_plus]

        self.db_part = DerivedField(chart, 0, 3, part_fn, sym="antisymmetric",
                                    inputs=(db, Pp, Pm))
        self.mc_form = self.db_part + self.lowered_schouten

    def base_parakahler_residual(self, point):
        """Para-Kahler residual of the base structure: a float at a point,
        one per point at a batch."""
        dw = self.S.domega.max_abs(point)
        scale = np.maximum(1.0, self.S.eta.max_abs(point))
        res = np.maximum(dw / scale, np.maximum(self.S.integrability_residual(+1, point),
                                                self.S.integrability_residual(-1, point)))
        return res if point.batch else float(res)

    def require_parakahler(self, point):
        """Raise NotParaKahler naming the first point (of a batch) where the
        base structure fails."""
        require_within(point, self.base_parakahler_residual(point), PARAKAHLER_TOL,
                       NotParaKahler, "base structure fails para-Kahler residual")


def _require_type(S, b, sample, side):
    """Raise NotAntisymmetric, then WrongType, naming the first point of the
    sample where the two-form is not antisymmetric or has components off
    the pure type of `side`; with no sample, check nothing."""
    if sample is None:
        return
    batch = as_batch(sample)
    vals = b.values(batch)  # (point, i, j)
    Q = S.projector(-side).values(batch)
    scale = np.maximum(1.0, per_point_max(vals))
    anti = per_point_max(vals + np.swapaxes(vals, 1, 2)) / scale
    wrong = np.maximum(per_point_max(np.swapaxes(Q, 1, 2) @ vals),
                       per_point_max(vals @ Q)) / scale
    name, kind = ("b", "(+2,-0)") if side > 0 else ("beta", "(+0,-2)")
    require_within(batch, anti, TYPE_TOL, NotAntisymmetric, f"{name} antisymmetry residual")
    require_within(batch, wrong, TYPE_TOL, WrongType,
                   f"{name} has components off the {kind} type, residual")


def b_transform(S, b: Field, sample=None) -> BTransformation:
    """Validate the two-form on the sample and build the sheared structure
    (plus side)."""
    _require_type(S, b, sample, +1)
    return BTransformation(S, b, side=+1)


def b_minus_transform(S, beta: Field, sample=None) -> BTransformation:
    """Mirror shear of T- toward T+, driven by a type (+0,-2) two-form."""
    _require_type(S, beta, sample, -1)
    return BTransformation(S, beta, side=-1)


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
    PB = T.structure_B.projector(T.side)  # onto the deformed eigenbundle, T+^B for side +1
    PBX = apply_endomorphism(PB, X)
    PBY = apply_endomorphism(PB, Y)
    # P^B X and P^B Y are built per call and shared with no other caller, so
    # their bracket and its operands are built outside S's tables, which
    # would keep them for S's life.
    br = brackets._bracket_core(S.canonical, S, PBX, PBY, None, {}).at(point, 0)
    zj = tdot(PB.at(point, 0), Z.at(point, 0), ([1], [0]))
    lhs = contract_value(point, S.eta.at(point, 0), br, zj)
    rhs = contract_value(point, T.mc_form.at(point, 0), X.at(point, 0),
                         Y.at(point, 0), Z.at(point, 0))
    return MCSides(lhs, rhs)


def compatibility_residual(T: BTransformation, sample):
    """The largest scale-normalized Maurer-Cartan component at each point."""
    batch = as_batch(sample)
    scale = np.maximum(1.0, coeff_max(per_point(batch, T.b.at(batch, 1))))
    return per_point(batch, T.mc_form.at(batch, 0)).max_abs() / scale


# --------------------------------------------------------------------------
# Twisted D-bracket
# --------------------------------------------------------------------------

def twisted_d_bracket(T: BTransformation, X: Field, Y: Field) -> Field:
    """D-bracket of (eta, K_B) via its own canonical connection.

    Only defined here over a para-Kahler base; the gate is checked at every
    evaluation point.
    """
    inner = d_bracket(T.structure_B, X, Y)

    def fn(p, k):
        T.require_parakahler(p)
        return inner.at(p, k)

    return DerivedField(T.S.chart, 1, 0, fn, inputs=(inner, T.S.eta, T.S.K))


def twisted_d_bracket_reference(T: BTransformation, X: Field, Y: Field) -> Field:
    """Independent route: base D-bracket minus the db contraction,

    eta([X,Y]^{D,B}, Z) = eta([X,Y]^D, Z) - db(X,Y,Z).
    """
    S = T.S
    base, db = d_bracket(S, X, Y), T.db

    def fn(p, k):
        eta_inv = S.eta_inv.at(p, k)
        dbj = db.at(p, k)
        xi = tdot(tdot(dbj, X.at(p, k), ([0], [0])), Y.at(p, k), ([0], [0]))
        corr = tdot(eta_inv, xi, ([1], [0]))
        return base.at(p, k) - corr

    return DerivedField(S.chart, 1, 0, fn, inputs=(base, db, X, Y, S.eta_inv))


# --------------------------------------------------------------------------
# Fluxes
# --------------------------------------------------------------------------

@dataclass
class FluxReport:
    """One point's flux tensors and residuals, the entry format of a report's
    `flux_reports`; `at` reads it from `extract_fluxes`' arrays."""

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

    @classmethod
    def at(cls, batch, residuals, tensors, i):
        """Point i of `batch`, from the (residuals, tensors) `extract_fluxes`
        returned there."""
        return cls(batch.coords[i].tolist(), **{name: t[i].tolist() for name, t in tensors.items()},
                   reassembly_residual=float(residuals["reassembly"][i]),
                   vanishing_residual=float(residuals["vanishing_parts"][i]),
                   cross_check_residual=float(residuals["h_plus_r_vs_B_part"][i]))

    def to_dict(self):
        """The fields as a dict sharing their values (no deep copy)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def extract_fluxes(T: BTransformation, sample):
    """Flux decomposition of db over the sample, in both coframes, as
    (residuals, tensors): the residuals `reassembly`, `vanishing_parts` and
    `h_plus_r_vs_B_part`, one per point, and the tensors `h_flux`, `r_flux`,
    `q_flux`, `covariantized_h`, `h_frame` and `q_frame`, each an array with
    a leading point axis (`FluxReport.at` reads one point of both).

    The shear's fields give H, the (+3,-0) part of db (`T.db_part`), the
    dual R-flux (`T.lowered_schouten`) and the covariantized H-flux, their
    sum `T.mc_form`, which must equal the (+3,-0)_B part.  The dual Q-flux
    is the (+2,-1)_B part read in the sheared frame.  The remaining bigraded
    parts of db must vanish, and the parts must reassemble db exactly.  The
    sheared-frame components are chains of batched `matmul`s (`project_slots`).
    """
    if T.side != +1:
        raise Unsupported("flux extraction is defined for the plus-side shear")
    chart = T.S.chart
    if chart.split is None:
        raise MissingSplit("flux extraction needs adapted (split) coordinates")
    point = as_batch(sample)
    T.require_parakahler(point)
    n = chart.split
    dbj, H, R, covH = (per_point(point, f.at(point, 0))
                       for f in (T.db, T.db_part, T.lowered_schouten, T.mc_form))

    PBp, PBm = (f.at(point, 0) for f in (T.structure_B.P_plus, T.structure_B.P_minus))
    parts = bigraded_parts(dbj, PBp, PBm, range(4))
    residuals = {
        "reassembly": (covH + parts[2] + parts[1] + parts[0] - dbj).max_abs(),
        "vanishing_parts": np.maximum(parts[1].max_abs(), parts[0].max_abs()),
        "h_plus_r_vs_B_part": (covH - parts[3]).max_abs(),
    }

    # Sheared frame: H'_i = (1 + B) e_i for i < n, and V_j = e_{n+j}, so a V slot is a slice.
    plus = T.e_B.values(point)[..., :n]
    h_frame = project_slots(covH.values(), plus, plus, plus)
    q_frame = project_slots(dbj.values()[:, n:], None, plus, plus)
    return residuals, {"h_flux": H.values(), "r_flux": R.values(), "q_flux": parts[2].values(),
                       "covariantized_h": covH.values(), "h_frame": h_frame, "q_frame": q_frame}


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
    frame = [DerivedField(chart, 1, 0, lambda p, k, a=a: A.at(p, k)[:, a], inputs=(A,))
             for a in range(n)]
    inv = invert_matrix_jets(A.at(point, order)[:n, :n], point)
    dual = concat_jets([constant_jets(inv.ctx, np.zeros((n, n))), inv.transpose()])
    eta = S.eta.at(point, order)
    out = np.zeros(point.batch + (n, n, n))
    operands = {}
    for a in range(n):
        for b in range(n):
            # The frame fields are built per call: see `maurer_cartan_sides`.
            br = brackets._bracket_core(S.canonical, S, frame[a], frame[b],
                                        None, operands).at(point, order)
            out[..., :, a, b] = tdot(dual, tdot(eta, br, ([0], [0])), ([0], [0])).values()
    return out
