"""Built-in example manifolds.

`build_flat(n)` is the constant-coefficient model on R^{2n} in adapted
coordinates (x^1..x^n, xt1..xtn): off-diagonal identity metric blocks and
K = diag(1, -1), a para-Kahler structure with vanishing Christoffels.

`build_tm(g, coords)` realizes the tangent bundle of an n-dimensional
Riemannian base (M, g) as a chart (x^i, v^i) with the horizontal frames of
the Levi-Civita connection of g:

    H_i = d_i - Gamma^k_{ij} v^j d_{v^k},   V_i = d_{v^i},
    eta(H_i, V_j) = g_ij,  eta(H,H) = eta(V,V) = 0,
    omega = g_ij H^i wedge V^j,  K = H_i (x) H^i - V_i (x) V^i.

The Christoffels of g are evaluation procedures over jets; the textbook
closed forms for specific metrics live in the tests as independent oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connections import christoffel_jets, riemann_jets
from .deformations import BTransformation, b_transform
from .errors import NotParaKahler, NotPositiveDefinite, RankMismatch
from .geometry import (
    Chart,
    DerivedField,
    TensorField,
    as_batch,
    concat_jets,
    constant_field,
    constant_jets,
    embed_block,
    invert_matrix_jets,
    jets_gradient,
    per_point,
    require_within,
    tdot,
    truncate_jets,
)
from .parastructure import ParaHermitianStructure

__all__ = [
    "Model", "FlatModel", "TangentBundleModel", "build_flat", "build_tm",
    "b_field_on_tm", "sphere_base",
]


class Model:
    """A structure `S` on a `chart`, with the box `default_box` to sample
    it in.  `jet_margin`: the jet orders beyond its own that evaluating eta
    and K consumes from the model's data."""

    jet_margin = 0

    def __init__(self, chart, S):
        self.chart = chart
        self.S = S

    def default_box(self):
        return [(-1.0, 1.0)] * self.chart.dim


@dataclass
class FlatModel(Model):
    n: int
    chart: Chart
    S: ParaHermitianStructure
    eta_matrix: np.ndarray
    K_matrix: np.ndarray


def build_flat(n: int, jet_order=3) -> FlatModel:
    coord_names = [f"x{i + 1}" for i in range(n)] + [f"xt{i + 1}" for i in range(n)]
    chart = Chart(coord_names, split=n, jet_order=jet_order)
    eye = np.eye(n)
    eta = np.block([[np.zeros((n, n)), eye], [eye, np.zeros((n, n))]])
    K = np.block([[eye, np.zeros((n, n))], [np.zeros((n, n)), -eye]])
    S = ParaHermitianStructure(
        chart,
        constant_field(chart, eta, 0, 2, sym="symmetric"),
        constant_field(chart, K, 1, 1),
    )
    return FlatModel(n=n, chart=chart, S=S, eta_matrix=eta, K_matrix=K)


class TangentBundleModel(Model):
    # eta and K at order k need the Christoffels of g, so g at order k + 1.
    jet_margin = 1

    def __init__(self, n, chart, g_field, S, frames_h, frames_v, coframes_h,
                 coframes_v, gamma_g, riemann_g):
        self.n = n
        self.chart = chart
        self.g = g_field
        self.S = S
        self.H = frames_h
        self.V = frames_v
        self.H_co = coframes_h
        self.V_co = coframes_v
        self.gamma_g = gamma_g
        self.riemann_g = riemann_g


def build_tm(g_sources, base_coords, jet_order=3, sample=None) -> TangentBundleModel:
    """Assemble the tangent-bundle model for a base metric g.

    `g_sources` is an n x n nested sequence of chart scalars in the base
    coordinates; g is checked positive definite at the `sample`, a `Point`
    on the full 2n chart, when one is given.  The model has no sampling
    filter: a caller keeps its sample where g is defined and positive
    definite (off the poles of `sphere_base`, say) by the box it draws in.
    """
    n = len(base_coords)
    coord_names = list(base_coords) + [f"v{i + 1}" for i in range(n)]
    chart = Chart(coord_names, split=n, jet_order=jet_order)
    g_arr = np.asarray(g_sources, dtype=object)
    if g_arr.shape != (n, n):
        raise RankMismatch(f"base metric must be {n} x {n}")
    g_field = TensorField(chart, 0, 2, embed_block(chart, g_arr), sym="symmetric")

    def base_christoffels(p, k):
        """Gamma^k_{ij} of g, base indices only, from d_a g_{bc} for a < n."""
        gj = g_field.at(p, k + 1)[:n, :n]
        return christoffel_jets(invert_matrix_jets(truncate_jets(gj, k), p), jets_gradient(gj)[:n])

    # Rank-tagged (1,2), of shape (n, n, n) on the 2n chart; not a tensor.
    gamma_g = DerivedField(chart, 1, 2, base_christoffels, inputs=(g_field,))

    def riemann_g(point, order=0):
        """R^k_{ijl} of g with the sign fixed by [H_i,H_j] = R^k_{ijl} v^l V_k."""
        g1 = gamma_g.at(point, order + 1)
        return riemann_jets(truncate_jets(g1, order), jets_gradient(g1)[:n])

    # The fibre coordinates v^j, as the vector (v1..vn, 0..0).
    fibre = TensorField(chart, 1, 0, coord_names[n:] + [0] * n)
    frame_inputs = (gamma_g, fibre)

    def frame_jets(p, k):
        """(H, V): row i of H is the frame H_i = d_i - Gamma^a_{ij} v^j d_{v^a},
        row i of V is the coframe V^i = dv^i + Gamma^i_{aj} v^j dx^a."""
        gv = tdot(gamma_g.at(p, k), fibre.at(p, k)[:n], ([2], [0]))  # gv[a, b] = Gamma^a_{bj} v^j
        unit = constant_jets(gv.ctx, np.eye(n))
        return (concat_jets([unit, -gv]).transpose(),
                concat_jets([gv.transpose(), unit]).transpose())

    eye = np.eye(2 * n)
    frames_h = [DerivedField(chart, 1, 0, lambda p, k, i=i: frame_jets(p, k)[0][i],
                             inputs=frame_inputs) for i in range(n)]
    frames_v = [constant_field(chart, eye[n + i], 1, 0) for i in range(n)]
    coframes_h = [constant_field(chart, eye[i], 0, 1) for i in range(n)]
    coframes_v = [DerivedField(chart, 0, 1, lambda p, k, i=i: frame_jets(p, k)[1][i],
                               inputs=frame_inputs) for i in range(n)]

    def eta_fn(p, k):
        # eta = g_ij (V^i (x) H^j + H^i (x) V^j), with H^j = dx^j.  The frames
        # read g at k + 1 first, so g at k is a memo slice.
        vco = frame_jets(p, k)[1]
        gj = g_field.at(p, k)[:n, :n]
        hco = constant_jets(vco.ctx, eye[:n])
        return (tdot(tdot(vco, gj, ([0], [0])), hco, ([1], [0]))
                + tdot(tdot(hco, gj, ([0], [0])), vco, ([1], [0])))

    def K_fn(p, k):
        # K = H_i (x) H^i - V_i (x) V^i, with H^i = dx^i and V_i = d_{v^i}
        h, vco = frame_jets(p, k)
        return (tdot(h, constant_jets(h.ctx, eye[:n]), ([0], [0]))
                - tdot(constant_jets(h.ctx, eye[n:]), vco, ([0], [0])))

    eta = DerivedField(chart, 0, 2, eta_fn, sym="symmetric", inputs=(g_field, *frame_inputs))
    K = DerivedField(chart, 1, 1, K_fn, inputs=frame_inputs)
    S = ParaHermitianStructure(chart, eta, K)
    model = TangentBundleModel(n, chart, g_field, S, frames_h, frames_v, coframes_h,
                               coframes_v, gamma_g, riemann_g)
    if sample is not None:
        batch = as_batch(sample)
        for coords, gv in zip(batch.coords, g_field.values(batch)[:, :n, :n]):
            try:
                np.linalg.cholesky(gv)
            except np.linalg.LinAlgError:
                raise NotPositiveDefinite(
                    f"base metric not positive definite at {chart.point(coords)}")
    return model


def flatness_residual(model: TangentBundleModel, sample) -> np.ndarray:
    """|Riemann of g| at each point of the sample (scale-normalized)."""
    batch = as_batch(sample)
    curv = per_point(batch, model.riemann_g(batch, 0)).max_abs()
    return curv / np.maximum(1.0, model.g.max_abs(batch))


def b_field_on_tm(model: TangentBundleModel, b_sources, sample) -> BTransformation:
    """B-transformation of the tangent-bundle model by b = b_ij dx^i ^ dx^j.

    Requires a flat base metric at every point of the sample (a curvature
    residual of at most 1e-9; NotParaKahler names the first point where it
    is not); `b_sources` is the n x n lower-block component array,
    functions of both x and v.
    """
    batch = as_batch(sample)
    require_within(batch, flatness_residual(model, batch), 1e-9, NotParaKahler,
                   "base metric is not flat: curvature residual")
    n = model.n
    arr = np.asarray(b_sources, dtype=object)
    if arr.shape != (n, n):
        raise RankMismatch(f"b block must be {n} x {n}")
    b = TensorField(model.chart, 0, 2, embed_block(model.chart, arr), sym="antisymmetric")
    return b_transform(model.S, b, sample=batch)


def sphere_base():
    """Base data (g, coords) for the round 2-sphere: g = diag(1, sin^2 th)
    in (th, ph), positive definite away from the poles sin th = 0, which
    `build_tm` rejects in a sample."""
    return [["1", "0"], ["0", "sin(th)^2"]], ["th", "ph"]
