"""The one reducer, `geometry.reduce_points`, and the per-point arrays it reads.

Every checker returns named arrays with one row per sample point, and one
function takes every maximum, verdict and witness of them.  The unit tests
pin the reducer's two witness rules (report v1's): "worst", one witness per
array at its first maximum in point-major order, and "failures", every
entry above its bound.  The property splits a shipped runspec's sample at
random into consecutive blocks: each checker's arrays, computed block by
block and concatenated, equal the whole sample's byte for byte, and so do
their reductions, which merge as maxima of the blocks' maxima.  That is what
running a sample in fixed-size blocks needs.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paraherm import brackets as br, cli, deformations as df
from paraherm.connections import check_adapted, curvature
from paraherm.geometry import apply_endomorphism, reduce_points, scalar_pairing
from paraherm.parastructure import classify, validate_structure
from helpers import ADAPTED_RULE, COURANT_RULE

RUNSPECS = Path(__file__).resolve().parent.parent / "runspecs"

# Arrays that are not a function of each point alone, and why; the
# property leaves them out of `_checkers`.
EXCEPTIONS = {
    "the curvature gate": "reads the first 3 points of the sample (its array, "
                          "`curvature`, is per point and is checked here)",
    "deform's Maurer-Cartan agreement": "reads the first 5 points (its array, "
                                        "`agreement`, is per point and is checked here)",
    "classify's para_kahler_iff_nabla_K": "compares the flags of the whole sample; each "
                                          "flag is the conjunction of the blocks' flags",
}


# -- the two witness rules --------------------------------------------------------

COORDS = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])


def test_worst_rule_orders_by_first_positive_entry_then_declaration():
    arrays = {
        "axiom1": np.array([[0.0, 0.0], [0.0, 2e-16], [0.0, 0.0]]),
        "axiom2": np.zeros((3, 2)),
        "axiom3": np.array([[0.0, 5.0], [7.0, 7.0], [0.0, 0.0]]),
    }
    red = reduce_points(arrays, 1e-9, COORDS, {"axiom3": ("defect", 1e-4)}, COURANT_RULE)
    assert red.maxima == {"axiom1": 2e-16, "axiom2": 0.0, "axiom3": 7.0}
    assert red.passed and red.max_residual == 7.0
    # axiom3's first positive entry (flat index 1) comes before axiom1's (3);
    # its witness is its first maximum, point 1 and triple 0.
    assert red.witnesses == [
        {"point": [2.0, 3.0], "triple": 0, "residual": 7.0, "axiom": "3"},
        {"point": [2.0, 3.0], "triple": 1, "residual": 2e-16, "axiom": "1"},
    ]


def test_failures_rule_lists_every_entry_point_major_array_by_array():
    arrays = {"p_cond": np.array([[0.0, 1.0, 0.0, 0.0], [2.0, 0.0, 0.0, 3.0], [0.0] * 4]),
              "n_cond": np.array([[0.0, 0.0, 4.0, 0.0], [0.0] * 4, [np.nan, 0.0, 0.0, 0.0]])}
    red = reduce_points(arrays, 0.5, COORDS, witness=ADAPTED_RULE)
    assert list(red.maxima) == [f"{side}_cond{c}" for side in "pn" for c in range(1, 5)]
    assert red.maxima["p_cond4"] == 3.0 and np.isnan(red.maxima["n_cond1"])
    assert not red.passed
    assert [(w["condition"], w["point"], w["residual"]) for w in red.witnesses[:4]] == [
        (2, [0.0, 1.0], 1.0), (1, [2.0, 3.0], 2.0), (4, [2.0, 3.0], 3.0), (3, [0.0, 1.0], 4.0)]
    assert red.witnesses[4]["condition"] == 1 and np.isnan(red.witnesses[4]["residual"])


def test_kinds_decide_the_verdict_and_measurements_give_no_witness():
    arrays = {"gate": np.array([1e-12, 0.0, 0.0]), "defect": np.array([0.0, 0.5, 0.0]),
              "note": np.array([9.0, 0.0, 0.0]), "whole": np.asarray(0.0)}
    limits = {"defect": ("defect", 0.1), "note": ("measurement", None)}
    red = reduce_points(arrays, 1e-9, COORDS, limits, ("worst", "defect"))
    assert red.passed and red.max_residual == 9.0
    assert red.maxima == {"gate": 1e-12, "defect": 0.5, "note": 9.0, "whole": 0.0}
    assert red.witnesses == [{"point": [0.0, 1.0], "defect": 1e-12},
                             {"point": [2.0, 3.0], "defect": 0.5}]
    assert not reduce_points(arrays, 1e-13, COORDS, limits).passed
    assert not reduce_points(arrays, 1e-9, COORDS, {"defect": ("defect", 0.5)}).passed


def test_largest_maximum_keeps_a_nan_in_any_place():
    for arrays in ({"a": np.array([1.0, 0.0, 0.0]), "b": np.array([0.0, np.nan, 0.0])},
                   {"a": np.array([np.nan, 0.0, 0.0]), "b": np.array([2.0, 0.0, 0.0])}):
        red = reduce_points(arrays, 1e-9)
        assert np.isnan(red.max_residual) and not red.passed
    assert reduce_points({}).max_residual == 0.0


# -- block by block equals the whole sample -------------------------------------

def _checkers(ctx):
    """Each position-free checker of the run, as batch -> named arrays."""
    S, pool = ctx.model.S, ctx.pool
    d_bracket = lambda X, Y: br.d_bracket(S, X, Y)  # noqa: E731
    minus = lambda X, Y: br.projected_bracket(S.canonical, S, -1, X, Y)  # noqa: E731
    pair = lambda X, Y: scalar_pairing(S.eta, [X, Y])  # noqa: E731
    checkers = {
        "validate_structure": lambda b: validate_structure(S, b),
        "classify": lambda b: {k: v for k, v in classify(S, b)[1].items() if np.ndim(v)},
        "check_adapted": lambda b: {name: r for side in "pn" for name, r in check_adapted(
            S.canonical, S, side, b).items()},
        "integrability_residual": lambda b: {
            f"side{sign:+d}": S.integrability_residual(sign, b) for sign in (+1, -1)},
        "curvature": lambda b: {"curvature": curvature(S.levi_civita).max_abs(b)},
        "courant_axiom_suite": lambda b: br.courant_axiom_suite(
            minus, lambda X: apply_endomorphism(S.P_minus, X), pair, br.cyclic_triples(pool, b),
            scale=np.maximum(1.0, S.eta.max_abs(b))),
        "jacobi_defect": lambda b: {"d": br.jacobi_defect(d_bracket, *pool, b),
                                    "minus": minus(*pool[:2]).max_abs(b)},
    }
    if ctx.b_field is not None:
        T = ctx.transformation
        checkers["deform"] = lambda b: validate_structure(T.structure_B, b) | {
            "agreement": df.maurer_cartan_sides(T, *pool, b).agreement,
            "mc_residual": df.compatibility_residual(T, b),
            "para_kahler": T.base_parakahler_residual(b)}
    if ctx.b_field is not None and not np.max(T.base_parakahler_residual(ctx.batch)) > 1e-8:
        def fluxes(b):
            residuals, tensors = df.extract_fluxes(T, b)
            return residuals | {name: t.reshape(len(t), -1) for name, t in tensors.items()}

        checkers["extract_fluxes"] = fluxes
    return checkers


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module", params=["flat.json", "tangent_bundle.json",
                                        "drinfeld_double.json"])
def whole_run(request):
    """A shipped runspec's context, its checkers and their arrays on its
    whole sample."""
    ctx = cli._RunContext(json.loads((RUNSPECS / request.param).read_text()))
    checkers = _checkers(ctx)
    return ctx, checkers, {name: check(ctx.batch) for name, check in checkers.items()}


@settings(max_examples=8, deadline=None)
@given(cuts=st.lists(st.integers(1, 11), unique=True, max_size=3).map(sorted))
def test_blocks_concatenate_to_the_whole_sample(whole_run, cuts):
    ctx, checkers, whole = whole_run
    coords = ctx.batch.coords
    bounds = [0, *cuts, len(coords)]
    blocks = [ctx.batch.chart.point(coords[a:b]) for a, b in zip(bounds, bounds[1:])]
    for name, check in checkers.items():
        parts = [check(block) for block in blocks]
        merged = {key: np.concatenate([part[key] for part in parts]) for key in whole[name]}
        for key, arr in whole[name].items():
            assert _same(merged[key], arr), (name, key, cuts)
        for rule in (COURANT_RULE, ADAPTED_RULE):
            red = reduce_points(whole[name], 1e-9, coords, witness=rule)
            assert reduce_points(merged, 1e-9, coords, witness=rule) == red, (name, cuts)
            per_block = [reduce_points(p, 1e-9, block.coords, witness=rule)
                         for p, block in zip(parts, blocks)]
            assert red.maxima == {k: max(r.maxima[k] for r in per_block) for k in red.maxima}
            assert red.passed == all(r.passed for r in per_block)
    flags = classify(ctx.model.S, ctx.batch)[0]
    block_flags = [classify(ctx.model.S, block)[0] for block in blocks]
    assert flags == {k: all(f[k] for f in block_flags) for k in flags}
