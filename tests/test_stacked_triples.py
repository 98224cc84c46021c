"""The Courant suite's triples stacked by blocks on a tiled sample.

`brackets.courant_axiom_suite` evaluates the n cyclic triples of a pool as
one triple of fields stacked by blocks (`geometry.stack_fields`) on the
sample tiled n times (`geometry.tile_points`).  Every kernel gives each
point of a batch its own bits, so each residual equals, bit for bit, the
one of the per-triple loop it replaced, kept here as the reference
(`per_triple_courant_axioms`).  The one exception is the sign of an exact
zero, which compares equal: a stack's `deg` is the highest of its blocks',
so a constant or zero block takes the Cauchy product, which adds zeros.
The pairing and the anchor the CLI passes (`eta_pairing`,
`projected_anchor`, from S's operand table) are compared against the ones
the loop was given (`scalar_pairing`, `apply_endomorphism`, built per
call).
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from paraherm import cli
from paraherm.brackets import (
    courant_axiom_suite,
    cyclic_triples,
    d_bracket,
    eta_pairing,
    jacobi_defect,
    projected_anchor,
    projected_bracket,
)
from paraherm.errors import DimensionMismatch
from paraherm.geometry import (
    DerivedField,
    apply_endomorphism,
    as_batch,
    constant_field,
    lie_bracket,
    lie_derivative,
    scalar_pairing,
    stack_fields,
    stack_points,
    tile_points,
)
from paraherm.models import build_flat, build_tm, sphere_base
from paraherm.randfields import random_vector_field

RUNSPECS = Path(__file__).resolve().parent.parent / "runspecs"


def per_triple_courant_axioms(bracket, anchor, pair, elements, sample, skip_pairing=False,
                              scale=None):
    """The Courant suite as a loop over the cyclic triples, each on the
    sample alone: every triple's Jacobi defect, then every triple's axioms
    1 and 2."""
    batch = as_batch(sample)
    n = len(elements)
    triples = [(elements[i], elements[(i + 1) % n], elements[(i + 2) % n]) for i in range(n)]
    res = {f"axiom{axiom}": np.zeros((len(batch.coords), n)) for axiom in (1, 2, 3)}
    scale = 1.0 if scale is None else np.asarray(scale, dtype=float)
    for ti, (X, Y, Z) in enumerate(triples):
        res["axiom3"][:, ti] = np.abs(jacobi_defect(bracket, X, Y, Z, batch))
    if not skip_pairing:
        for ti, (X, Y, Z) in enumerate(triples):
            lhs = lie_derivative(anchor(X), pair(Y, Z)).values(batch)
            r1 = (lhs - pair(bracket(X, Y), Z).values(batch)
                  - pair(Y, bracket(X, Z)).values(batch))
            r2 = pair(bracket(X, X), Y).values(batch) - 0.5 * lie_derivative(
                anchor(Y), pair(X, X)
            ).values(batch)
            res["axiom1"][:, ti] = np.abs(r1) / scale
            res["axiom2"][:, ti] = np.abs(r2) / scale
    return res


@pytest.fixture(scope="module")
def models():
    """The three structures of the shipped runspecs: flat, the tangent
    bundle of the sphere and the Drinfel'd double, with a sampler each."""
    g, coords, ok = sphere_base()
    sphere = build_tm(g, coords)
    sphere._point_ok = ok
    double = cli._RunContext(cli.load_spec(RUNSPECS / "drinfeld_double.json")).model
    return {"flat": (build_flat(2), None), "tm": (sphere, [(0.4, 2.7), (-3, 3), (-1, 1), (-1, 1)]),
            "double": (double, None)}


def _sample(model, box, count, rng):
    lo, hi = np.array(box or model.default_box(), dtype=float).T
    pts = []
    while len(pts) < count:
        c = rng.uniform(lo, hi)
        if model.point_ok(c):
            pts.append(model.chart.point(c))
    return stack_points(pts)


def _pool(chart, size, member, rng):
    """`size` random vector fields, one of them constant or zero if
    `member` says so."""
    pool = [random_vector_field(chart, rng, degree=int(rng.integers(1, 3))) for _ in range(size)]
    if member != "random":
        values = rng.uniform(-1.0, 1.0, chart.dim) if member == "constant" else np.zeros(chart.dim)
        pool[int(rng.integers(size))] = constant_field(chart, values, 1, 0)
    return pool


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(model=st.sampled_from(["flat", "tm", "double"]),
       kind=st.sampled_from(["d", "plus", "minus", "lie"]),
       size=st.integers(2, 4), count=st.integers(1, 6),
       member=st.sampled_from(["random", "constant", "zero"]),
       skip_pairing=st.booleans(), shared=st.booleans(), scaled=st.booleans(),
       seed=st.integers(0, 2**16))
def test_stacked_suite_equals_the_per_triple_loop(models, model, kind, size, count, member,
                                                  skip_pairing, shared, scaled, seed):
    """`courant_axiom_suite` gives every residual of the per-triple loop,
    bit for bit but for the sign of an exact zero, on flat, tm and the
    double, with pools of 2-4 fields (one possibly constant or zero),
    batches of 1-6 points, with or without the pairing axioms and a scale,
    and with the CLI's pairing and anchor or the ones built per call."""
    m, box = models[model]
    S = m.S
    rng = np.random.default_rng(seed)
    pool = _pool(m.chart, size, member, rng)
    sample = _sample(m, box, count, rng)
    sign = {"d": 0, "plus": +1, "minus": -1, "lie": 0}[kind]
    if kind == "lie":
        bracket, anchor, pair, skip_pairing = lie_bracket, lambda X: X, None, True
    else:
        bracket = ((lambda X, Y: projected_bracket(S.canonical, S, sign, X, Y)) if sign
                   else (lambda X, Y: d_bracket(S, X, Y)))
        anchor = (lambda X: apply_endomorphism(S.projector(sign), X)) if sign else (lambda X: X)
        pair = lambda X, Y: scalar_pairing(S.eta, [X, Y])  # noqa: E731
    scale = np.maximum(1.0, S.eta.max_abs(sample)) if scaled else None
    want = per_triple_courant_axioms(bracket, anchor, pair, pool, sample, skip_pairing, scale)
    if shared and kind != "lie":
        anchor = lambda X: projected_anchor(S, sign, X)  # noqa: E731
        pair = lambda X, Y: eta_pairing(S, X, Y)  # noqa: E731
    got = courant_axiom_suite(bracket, anchor, pair, cyclic_triples(pool, sample), skip_pairing,
                              scale)
    assert list(got) == list(want)
    for name in want:
        assert got[name].shape == want[name].shape == (count, size)
        assert np.array_equal(got[name], want[name]), name


def test_a_tiled_point_serves_unstacked_fields_from_their_base_entry(flat2):
    """At a tiled point, a field that reads no stacked field gives its jets
    at the base, tiled, and keeps its memo entry there; a stacked field
    gives block i its i-th field's jets and keeps an entry of its own."""
    rng = np.random.default_rng(5)
    chart = flat2.chart
    X, Y = (random_vector_field(chart, rng) for _ in range(2))
    batch = stack_points([chart.point(c) for c in rng.uniform(-1, 1, (3, chart.dim))])
    tiled = tile_points(batch, 2)
    assert tiled.base is batch and len(tiled.coords) == 6
    base = X.at(batch, 2)
    got = X.at(tiled, 1)
    assert X._memo[0] == batch.key and X._memo[1] == 2
    assert got.coeffs.tobytes() == np.tile(base.coeffs[..., : got.ctx.n], (2, 1, 1)).tobytes()
    assert not got.coeffs.flags.writeable
    stack = stack_fields([X, Y])
    both = stack.at(tiled, 1)
    assert stack._memo[0] == tiled.key
    assert both.coeffs.tobytes() == np.concatenate(
        [X.at(batch, 1).coeffs, Y.at(batch, 1).coeffs]).tobytes()


def test_blocked_is_structural(flat2):
    """A stack is `blocked` and never `const`, even of constant fields; a
    field that declares a blocked input is blocked, and one that does not
    is not; a stack evaluates only at a point tiling a batch once per
    field."""
    chart = flat2.chart
    ones, twos = (constant_field(chart, np.full(chart.dim, v), 1, 0) for v in (1.0, 2.0))
    stack = stack_fields([ones, twos])
    assert stack.blocked and not stack.const
    reader = lie_bracket(stack, ones)
    assert reader.blocked and not reader.const
    assert not lie_bracket(ones, twos).blocked
    assert not DerivedField(chart, 1, 0, lambda p, k: ones.at(p, k), inputs=(ones,)).blocked
    batch = as_batch(chart.point(np.zeros(chart.dim)))
    values = stack.values(tile_points(batch, 2))
    assert values.tolist() == [[1.0] * chart.dim, [2.0] * chart.dim]
    for point in (batch, tile_points(batch, 3)):
        with pytest.raises(DimensionMismatch):
            stack.at(point, 0)


@pytest.mark.parametrize("sign", [0, +1])
def test_a_second_call_on_the_same_triples_adds_no_table_entry(sign):
    """The triples are built once, by `cyclic_triples`, so a second suite
    call on them finds every bracket, pairing and anchor it reads in S's
    tables and adds none, and gives the same residuals."""
    model = build_flat(2)
    S, rng = model.S, np.random.default_rng(11)
    pool = [random_vector_field(S.chart, rng) for _ in range(3)]
    triples = cyclic_triples(pool, _sample(model, None, 4, rng))
    bracket = ((lambda X, Y: projected_bracket(S.canonical, S, sign, X, Y)) if sign
               else (lambda X, Y: d_bracket(S, X, Y)))

    def suite():
        return courant_axiom_suite(bracket, lambda X: projected_anchor(S, sign, X),
                                   lambda X, Y: eta_pairing(S, X, Y), triples)

    first = suite()
    sizes = len(S.bracket_table), len(S.operand_table)
    second = suite()
    assert (len(S.bracket_table), len(S.operand_table)) == sizes
    for name in first:
        assert second[name].tobytes() == first[name].tobytes()
