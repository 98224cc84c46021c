"""Batch front end: read a run-spec file, build the model, run suites, emit JSON.

The spec file is JSON and is the whole experiment record: model, optional
b-field, sampling (explicit points or a seeded uniform box), jet order,
tolerances and the list of suites.  Reports are versioned and deterministic:
the same spec and seed give byte-identical JSON up to the wall-time field,
which is excluded from the determinism hash stored in the report.  The
report file is compact JSON with sorted keys on one line, encoded as the
hash is (`python3 -m json.tool` indents it).

Each suite is a `Suite` record in `SUITES`: its jet order, tolerance key,
gates, integrable sides and connections, and a body that measures.  Calling
a record runs the shared part: it evaluates the gates once per run, writes
the skip row (or, for a structure that is not para-Hermitian, the failure
row), reads the declared connections, calls the body and builds the row.

Exit codes: 0 all requested suites pass, 1 at least one suite fails (every
suite but `validate` fails where the structure does), 2 the spec itself is
invalid or the report cannot be written.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import brackets as br
from . import deformations as df
from .connections import check_adapted, curvature
from .errors import DomainError, InsufficientJetOrder, ParahermError, SpecParseError
from .expr import Coord, parse_expr
from .geometry import (
    Chart,
    Point,
    TensorField,
    embed_block,
    per_point_max,
    reduce_points,
    stack_points,
)
from .models import Model, build_flat, build_tm
from .parastructure import ParaHermitianStructure, classify, validate_structure
from .randfields import random_vector_field

REPORT_VERSION = 1

DEFAULT_TOLERANCES = {
    "validate": 1e-10,
    "classify": 1e-9,
    "adapted": 1e-9,
    "courant": 1e-9,
    "deform": 1e-9,
    "fluxes": 1e-10,
    "section": 1e-9,
    "witness_floor": 1e-4,
}


# --------------------------------------------------------------------------
# Spec loading
# --------------------------------------------------------------------------

def load_spec(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise SpecParseError(f"cannot read spec file: {exc}", path)
    try:
        spec = json.loads(raw, parse_constant=_NonFinite)
    except json.JSONDecodeError as exc:
        raise SpecParseError(f"invalid JSON: {exc.msg}", f"offset {exc.pos}")
    if not isinstance(spec, dict):
        raise SpecParseError("spec must be a JSON object", path)
    for key, section in spec.items():
        if key not in {"model", "b_field", "sample", "jet_order", "tolerances", "suites"}:
            raise SpecParseError(f"unknown key {key!r}", "spec")
        if _has_non_finite(section):
            raise SpecParseError("NaN and Infinity are not numbers here", key)
    if "model" not in spec or "suites" not in spec:
        raise SpecParseError("spec needs 'model' and 'suites'", "spec")
    return spec


class _NonFinite(str):
    """A NaN, Infinity or -Infinity literal, which strict JSON does not allow."""


def _has_non_finite(obj):
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return any(_has_non_finite(x) for x in obj)
    return isinstance(obj, _NonFinite)


@contextlib.contextmanager
def _spec_section(section):
    """Report an error raised while reading `section` of the spec as a
    SpecParseError naming that section."""
    try:
        yield
    except SpecParseError:
        raise
    except ParahermError as exc:
        raise SpecParseError(f"{section} error: {exc}", section)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SpecParseError(f"bad {section} spec: {exc}", section)


def _spec_int(obj, key, default, section):
    """`obj[key]` (or `default`) as a JSON integer.  A bool or any other
    non-integer is a SpecParseError naming `section`, never truncated."""
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecParseError(f"{key} must be an integer, got {value!r}", section)
    return value


def _spec_names(mspec, key):
    """`mspec[key]` as a JSON list of coordinate names, never a string split
    into one-letter names, each of which an expression reads as its
    coordinate (one identifier, not a function name such as `sin`):
    anything else is a `[model]` SpecParseError."""
    value = mspec[key]
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise SpecParseError(f"{key} must be a list of names, got {value!r}", "model")
    for name in value:
        with contextlib.suppress(ParahermError):
            if parse_expr(name, [name]) == Coord(0):
                continue
        raise SpecParseError(f"{key} name {name!r} is not an identifier an expression "
                             "can read", "model")
    return value


def _numbers(seq):
    """Whether `seq` is a list of JSON numbers; a bool is not one."""
    return isinstance(seq, (list, tuple)) and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in seq)


class _RunContext:
    def __init__(self, spec):
        self.spec = spec
        self.jet_order = _spec_int(spec, "jet_order", 3, "jet_order")
        tol = spec.get("tolerances", {})
        if not isinstance(tol, dict):
            raise SpecParseError("tolerances must be a JSON object", "tolerances")
        for k, v in tol.items():
            if k not in DEFAULT_TOLERANCES:
                raise SpecParseError(f"unknown tolerance {k!r}", "tolerances")
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0 < v < math.inf:
                raise SpecParseError(f"tolerance {k!r} must be a finite positive number, "
                                     f"got {v!r}", "tolerances")
        self.tol = {**DEFAULT_TOLERANCES, **tol}
        self.model = self._build_model(spec["model"])
        self.b_field = self._build_b_field(spec.get("b_field"))
        with _spec_section("sample"):
            # Every suite evaluates its fields on the whole sample as this batch.
            self.batch, self.seed = self._sample(spec.get("sample", {}))
        self.suites = spec["suites"]
        if not isinstance(self.suites, list) or not all(isinstance(n, str) for n in self.suites):
            raise SpecParseError(f"suites must be a JSON list of names, got {self.suites!r}",
                                 "suites")
        for i, name in enumerate(self.suites):
            if name not in SUITES:
                raise SpecParseError(f"unknown suite {name!r}", "suites")
            if name in self.suites[:i]:
                raise SpecParseError(f"suite {name!r} is listed twice", "suites")
        # The highest order the run's suites read the structure at.
        self.order = max((SUITES[name].order for name in self.suites), default=0)

    def check_domain(self):
        """Evaluate the structure's six fields and the run's suites' field
        pools on the sample at the highest order the run's suites read (their
        records' `order`; 0 for `validate` alone), and the b-field at the
        highest order of the suites its gate admits, so that a sample point
        outside an expression's domain, where eta is singular (its inverse
        raises SingularMetric) or where the jets overflow at that order, is a
        spec error naming the point before any suite runs.  Every suite then
        reads the fields' lower orders as memo slices, so each is evaluated
        once per run.  Then it computes the structure's invariants, which
        every run reads, so that one that overflows is a spec error too, and
        the B-transformation of a para-Hermitian structure that a suite
        reads, so that a b-field off its type, or one whose shear products
        overflow (see `check_shear`), is a `[b_field]` spec error."""
        readers = [SUITES[name].order for name in self.suites if "b_field" in SUITES[name].gates]
        # Overflow is reported as the DomainError of non-finite jets or
        # invariants, so numpy's warnings are off.
        with _spec_section("sample"), np.errstate(over="ignore", invalid="ignore"):
            pools = dict.fromkeys(SUITES[name].pool for name in self.suites)
            for f in [*self.model.S.fields, *(X for p in pools if p for X in getattr(self, p))]:
                f.at(self.batch, self.order)
            if self.b_field is not None:
                self.b_field.at(self.batch, max(readers, default=0))
            self.structure
        if self.b_field is not None and readers and not self.failing:
            with _spec_section("b_field"):
                self.check_shear()

    def check_shear(self):
        """Raise DomainError naming the first sample point where a product of
        the shear that a suite writes is not finite: the Schouten bracket
        [b, b], quadratic in b, which `deform` and `fluxes` read, and, for
        `deform`, the two Maurer-Cartan sides, cubic in the shear.  The b-field's
        own jets can be finite where these overflow.  Both are computed
        once per run, and the suites read them from here.  The connections
        the sides read are evaluated first at the highest order any suite
        reads them, so that no later suite evaluates them again."""
        with np.errstate(over="ignore", invalid="ignore"):
            values = [self.transformation.schouten.values(self.batch)]
            if "deform" in self.suites:
                self.read_connections(SUITES["deform"].reads)
                values += [self.mc_sides.d_bracket_side, self.mc_sides.form_side]
        finite = np.logical_and.reduce(
            [np.isfinite(v.reshape(len(self.batch.coords), -1)).all(axis=1) for v in values])
        if not finite.all():
            raise DomainError(f"the shear's products are not finite at "
                              f"{self.batch.first(~finite)[1]}")

    def read_connections(self, names):
        """Evaluate the structure's connections `names` on the sample at one
        below the run's order, the highest any suite reads them at, so that
        each is evaluated once per run."""
        for name in names:
            getattr(self.model.S, name).christoffels.at(self.batch, self.order - 1)

    # -- gates, each computed once per run ------------------------------------

    def shut(self, gate, tol):
        """None if `gate` lets a suite of tolerance `tol` run, else the
        (reason, per-point arrays or their maxima) of the row it writes
        instead."""
        if gate == "split":
            split = self.model.chart.split
            return ("needs adapted (split) coordinates", {}) if split is None else None
        if gate == "b_field":
            return ("no b_field in spec", {}) if self.b_field is None else None
        if gate == "structure":
            reason = "structure is not para-Hermitian at tolerance"
            return (reason, self.failing) if self.failing else None
        if gate == "flat":
            reason, arrays, bound = "eta is not flat", self.curvature, tol
        elif gate == "para_kahler":
            reason, arrays, bound = "base is not para-Kähler", self.parakahler, df.PARAKAHLER_TOL
        else:
            raise ValueError(f"unknown gate {gate!r}")
        return None if reduce_points(arrays, bound).passed else (reason, arrays)

    @functools.cached_property
    def structure(self):
        """`validate_structure` on the sample from the order-0 slices of the
        fields `check_domain` evaluated, so it evaluates none: what `validate`
        reports, the `structure` gate, and the verdict of a run of no suite."""
        return validate_structure(self.model.S, self.batch)

    @functools.cached_property
    def failing(self):
        """The maxima of the structure's invariants above `tolerances.validate`,
        by name."""
        maxima = reduce_points(self.structure).maxima
        return {k: v for k, v in maxima.items() if not v <= self.tol["validate"]}

    @functools.cached_property
    def curvature(self):
        """The flatness gate: the largest curvature component of eta's
        Levi-Civita connection at each of the first three points.  It
        evaluates the whole batch: it shares the other suites' jets, and the
        work does not depend on the sample size."""
        return {"curvature": curvature(self.model.S.levi_civita).max_abs(self.batch)[:3]}

    @functools.cached_property
    def parakahler(self):
        """The para-Kahler gate of `fluxes`, which needs a para-Kahler base:
        the base structure's residual at each point."""
        return {"para_kahler": self.transformation.base_parakahler_residual(self.batch)}

    @functools.cached_property
    def transformation(self):
        """The B-transformation by `b_field`, validated at the sample;
        `check_domain` builds it for the runs that read it."""
        return df.b_transform(self.model.S, self.b_field, sample=self.batch)

    @functools.cached_property
    def mc_sides(self):
        """Both Maurer-Cartan sides of the B-transformation on the pool, at
        every point: what `deform` writes, and `check_shear` checks."""
        return df.maurer_cartan_sides(self.transformation, *self.pool, self.batch)

    @functools.cached_property
    def pool(self):
        """The random vector fields of the Courant, Jacobi-witness and deform
        suites, built once per run."""
        return self.field_pool()

    @functools.cached_property
    def section_pool(self):
        """`section_condition`'s pool, reading only the plus coordinates (none
        without a split, where the suite skips at its gate), built once per run."""
        split = self.model.chart.split
        return [] if split is None else self.field_pool(vars_subset=list(range(split)))

    @functools.cached_property
    def triples(self):
        """The pool's cyclic triples, stacked by blocks on the sample tiled
        three times (`brackets.cyclic_triples`), built once per run: the
        Courant suites and the Jacobi witness share their brackets and
        operands."""
        return br.cyclic_triples(self.pool, self.batch)

    def field_pool(self, vars_subset=None):
        """Three random vector fields from the run's "fields" stream, reading
        only the coordinates `vars_subset` when it is given."""
        rng = self.rng_for("fields")
        return [random_vector_field(self.model.chart, rng, vars_subset=vars_subset)
                for _ in range(3)]

    # -- model ---------------------------------------------------------------

    def _build_model(self, mspec):
        try:
            name = mspec["name"]
        except (TypeError, KeyError):
            raise SpecParseError("model needs a 'name'", "model")
        with _spec_section("model"):
            if name == "flat":
                n = _spec_int(mspec, "n", 2, "model")
                return build_flat(n, jet_order=self.jet_order)
            if name == "tangent_bundle":
                return build_tm(mspec["metric"], _spec_names(mspec, "base_coords"),
                                jet_order=self.jet_order)
            if name == "explicit":
                split = mspec.get("split")  # absent or null: no split
                if split is not None:
                    split = _spec_int(mspec, "split", None, "model")
                chart = Chart(_spec_names(mspec, "coords"), split=split, jet_order=self.jet_order)
                eta = TensorField(chart, 0, 2, np.asarray(mspec["eta"], dtype=object),
                                  sym="symmetric")
                K = TensorField(chart, 1, 1, np.asarray(mspec["K"], dtype=object))
                return Model(chart, ParaHermitianStructure(chart, eta, K))
        raise SpecParseError(f"unknown model {name!r}", "model")

    def _build_b_field(self, bspec):
        if bspec is None:
            return None
        chart = self.model.chart
        n = chart.split
        with _spec_section("b_field"):
            arr = np.asarray(bspec, dtype=object)
            if arr.shape == (chart.dim, chart.dim):
                comps = arr
            elif n is not None and arr.shape == (n, n):
                comps = embed_block(chart, arr)
            else:
                raise SpecParseError(
                    f"b_field must be {n} x {n} or {chart.dim} x {chart.dim}", "b_field"
                )
            return TensorField(chart, 0, 2, comps, sym="antisymmetric")

    # -- sampling -------------------------------------------------------------

    def _sample(self, sspec):
        if not isinstance(sspec, dict):
            raise SpecParseError("sample must be a JSON object", "sample")
        mode = sspec.get("mode", "uniform")
        chart = self.model.chart
        if mode == "explicit":
            pts = sspec.get("points", [])
            if not pts:
                raise SpecParseError("explicit sampling needs at least one point", "sample")
            if not isinstance(pts, list) or not all(map(_numbers, pts)):
                raise SpecParseError(f"points must be lists of numbers, got {pts!r}", "sample")
            return (stack_points([chart.point(p) for p in pts]),
                    _spec_int(sspec, "seed", 0, "sample"))
        if mode != "uniform":
            raise SpecParseError(f"unknown sample mode {mode!r}", "sample")
        count = _spec_int(sspec, "count", 20, "sample")
        if count < 1:
            raise SpecParseError("sample count must be >= 1", "sample")
        seed = _spec_int(sspec, "seed", 2024, "sample")
        box = sspec.get("box") or self.model.default_box()
        if not (isinstance(box, (list, tuple)) and len(box) == chart.dim
                and all(_numbers(b) and len(b) == 2 for b in box)):
            raise SpecParseError(f"box must be {chart.dim} intervals, each a pair of numbers, "
                                 f"got {box!r}", "sample")
        lo, hi = np.array(box, dtype=float).T
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(hi - lo)):
                raise SpecParseError("box intervals must have a finite width", "sample")
        # One draw of the whole sample: the stream of one draw per point.
        return Point(chart, np.random.default_rng(seed).uniform(lo, hi, (count, chart.dim))), seed

    def rng_for(self, tag):
        digest = int.from_bytes(hashlib.sha256(tag.encode()).digest()[:4], "big")
        return np.random.default_rng([self.seed, digest])


# --------------------------------------------------------------------------
# Suites
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Suite:
    """One check suite as data: its name, jet order (the depth of its deepest
    bracket nesting on a model whose eta and K are given directly, which
    `tests/test_cli.py` checks), tolerance key, `gates` (as `_RunContext.shut`
    names them), the eigenbundle `sides` it needs integrable, the
    connections of the structure it `reads`, the run's field `pool` it
    reads (a `_RunContext` attribute, which `check_domain` evaluates), and a
    body `(ctx, tol, *open sides) -> dict` of its named per-point `arrays`
    and its own report keys; an array is a gate at the suite's tolerance
    unless `limits` gives its (kind, tolerance key), and `witness` is its
    rule in `reduce_points`.  Calling it runs it: a shut gate writes its row
    (a failure for `structure`, a skip for the others), as do all sides
    shut; past them, the declared connections are evaluated at one below the
    run's order (the symbols at order k read eta at k + 1), so each is
    evaluated once per run and only if read; then the body runs."""

    name: str
    order: int
    tol: str
    body: object
    gates: tuple = ("structure",)
    sides: tuple = ()
    reads: tuple = ()
    pool: str = None
    expected_fail: bool = False
    limits: dict = field(default_factory=dict)
    witness: tuple = None

    def __call__(self, ctx):
        tol = ctx.tol[self.tol]
        for gate in self.gates:
            if shut := ctx.shut(gate, tol):
                reason, arrays = shut
                return self._row(ctx, tol, {}, arrays, gate != "structure", reason)
        S = ctx.model.S  # its Nijenhuis gates are memoised fields: a second read is a memo hit
        closed = {sign: g for sign in self.sides if not reduce_points(
            {"nijenhuis": (g := S.integrability_residual(sign, ctx.batch))}, tol).passed}
        one = len(self.sides) == 1  # v1 names a one-sided suite's gate apart
        noted = {"nijenhuis" if one else f"{_SIDE[sign]}_side_skipped_nijenhuis": g
                 for sign, g in closed.items()}
        if self.sides and len(closed) == len(self.sides):
            reason = ("eigenbundle not integrable at tolerance" if one
                      else "no integrable side at tolerance")
            return self._row(ctx, tol, {}, noted, True, reason)
        ctx.read_connections(self.reads)
        out = self.body(ctx, tol, *(sign for sign in self.sides if sign not in closed))
        return self._row(ctx, tol, out.pop("arrays"), noted, **out)

    def _row(self, ctx, tol, arrays, measured, skipped=None, reason=None, **extra):
        """The report v1 row of `reduce_points` of `arrays` and the `measured`
        ones, and the body's own keys (`validate`'s replace the `witnesses`);
        a gate's row is `skipped` (True) or failed (False)."""
        limits = {name: (kind, key and ctx.tol[key]) for name, (kind, key) in self.limits.items()}
        red = reduce_points(arrays | measured, tol, ctx.batch.coords,
                            limits | dict.fromkeys(measured, _MEASURED), self.witness)
        return {"name": self.name, "passed": bool(red.passed if skipped is None else skipped),
                "expected_fail": self.expected_fail, "skipped": bool(skipped), "reason": reason,
                "max_residual": red.max_residual, "residuals": red.maxima,
                "witnesses": red.witnesses, **extra}


_SIDE = {+1: "p", -1: "n"}
_MEASURED, _DEFECT = ("measurement", None), ("defect", "witness_floor")
_WORST_AXIOM = ("worst", "residual", "triple", "axiom")


def _validate(ctx, tol):
    return {"arrays": ctx.structure,
            "witnesses": [{"residual": v, "invariant": k} for k, v in ctx.failing.items()]}


def _classify(ctx, tol):
    flags, arrays = classify(ctx.model.S, ctx.batch, tol=tol)
    return {"arrays": arrays, "flags": flags}


def _adapted(ctx, tol, *signs):
    """Canonical-connection adapted check, per integrable side."""
    S = ctx.model.S
    return {"arrays": {name: r for sign in signs for name, r in check_adapted(
        S.canonical, S, _SIDE[sign], ctx.batch).items()}}


def _courant(ctx, tol, sign=0):
    """The Courant axioms on the run's stacked triples of the bracket
    projected to the `sign` eigenbundle with its projector as anchor, or
    for sign 0 of the full D-bracket with the identity anchor (whose axiom
    3 is a defect), with the pairing eta; the residuals of the pairing
    axioms are divided by max(1, max |eta|) at each sample point, as
    `validate` divides its own."""
    S = ctx.model.S
    bracket = lambda X, Y: (br.projected_bracket(S.canonical, S, sign, X, Y)  # noqa: E731
                            if sign else br.d_bracket(S, X, Y))
    arrays = br.courant_axiom_suite(bracket, lambda X: br.projected_anchor(S, sign, X),
                                    lambda X, Y: br.eta_pairing(S, X, Y), ctx.triples,
                                    scale=np.maximum(1.0, S.eta.max_abs(ctx.batch)))
    if not sign:
        arrays["axiom3_defect"] = arrays.pop("axiom3")
    return {"arrays": arrays}


def _jacobi_defect_witness(ctx, floor):
    """A concrete Jacobi-defect witness for the full D-bracket: the pool's
    own, block 0 of the defect of the run's stacked triples, which
    `courant_d_full` evaluates too."""
    S = ctx.model.S
    tiled, _, triple = ctx.triples
    defect = br.jacobi_defect(lambda X, Y: br.d_bracket(S, X, Y), *triple, tiled)
    return {"arrays": {"max_defect": defect[:len(ctx.batch.coords)]}}


def _section_condition(ctx, tol):
    """Fields depending only on the plus coordinates: minus bracket and
    Jacobi defect must vanish.  Needs a flat model in adapted coordinates.
    The defect reads the pool's brackets at order 1 first, so the minus
    bracket reads their order-0 slices."""
    S = ctx.model.S
    X, Y, Z = ctx.section_pool
    jac = br.jacobi_defect(lambda U, V: br.d_bracket(S, U, V), X, Y, Z, ctx.batch)
    return {"arrays": {"jacobi_defect": jac, "minus_bracket": br.projected_bracket(
        S.canonical, S, -1, X, Y).max_abs(ctx.batch)}}


def _deform(ctx, tol):
    """The B-transformed structure: valid, and its Maurer-Cartan sides agree.
    The two-sided check reads the first five points of the whole batch, for
    the reason given at `_RunContext.curvature`, and reads the sheared
    fields at order 1 before the validation reads their order-0 slices."""
    T = ctx.transformation
    agree = ctx.mc_sides.agreement[:5]
    invariants = validate_structure(T.structure_B, ctx.batch)
    compat = df.compatibility_residual(T, ctx.batch)
    return {"arrays": {"structure_validation": np.max(list(invariants.values()), axis=0),
                       "mc_two_sides_agreement": agree, "mc_residual": compat},
            "compatible": reduce_points({"mc_residual": compat}, tol).passed}


def _fluxes(ctx, tol):
    """The three flux residuals at every point, and a summary whose size does
    not depend on the sample: `flux_reports` holds one `FluxReport`, at the
    worst point, the first where the largest of the three residuals is their
    sample maximum (a NaN first; the first point where all are 0), and
    `flux_max_abs` each tensor's largest |component| over the sample."""
    arrays, tensors = df.extract_fluxes(ctx.transformation, ctx.batch)
    worst = np.max(list(arrays.values()), axis=0)
    i, _ = ctx.batch.first(np.isnan(worst) | (worst == reduce_points(arrays).max_residual))
    return {"arrays": arrays,
            "flux_reports": [df.FluxReport.at(ctx.batch, arrays, tensors, i).to_dict()],
            "flux_max_abs": reduce_points({name: per_point_max(t)
                                           for name, t in tensors.items()}).maxima}


_CANONICAL = ("canonical",)

# Every suite by name; `validate` alone has no structure gate, since it
# reports the structure's invariants itself.
SUITES = {suite.name: suite for suite in (
    Suite("validate", 0, "validate", _validate, gates=()),
    # classify's flags read these arrays; its three cross checks are gates.
    Suite("classify", 1, "classify", _classify, reads=("levi_civita",),
          limits=dict.fromkeys(("domega", "domega_30", "domega_21", "domega_12", "domega_03",
                                "phi_skew", "nabla_K", "n_plus", "n_minus"), _MEASURED)),
    Suite("adapted", 1, "adapted", _adapted, sides=(+1, -1), reads=_CANONICAL,
          witness=("failures", "residual", "condition")),
    Suite("courant_plus", 2, "courant", _courant, sides=(+1,), reads=_CANONICAL,
          pool="pool", witness=_WORST_AXIOM),
    Suite("courant_minus", 2, "courant", _courant, sides=(-1,), reads=_CANONICAL,
          pool="pool", witness=_WORST_AXIOM),
    Suite("courant_d_full", 2, "courant", _courant, reads=_CANONICAL, pool="pool",
          expected_fail=True, limits={"axiom3_defect": _DEFECT}, witness=_WORST_AXIOM),
    Suite("jacobi_defect_witness", 2, "witness_floor", _jacobi_defect_witness,
          reads=_CANONICAL, pool="pool", expected_fail=True, limits={"max_defect": _DEFECT},
          witness=("worst", "defect")),
    Suite("section_condition", 2, "section", _section_condition,
          gates=("structure", "split", "flat"), reads=_CANONICAL, pool="section_pool"),
    Suite("deform", 1, "deform", _deform, gates=("structure", "b_field"), reads=_CANONICAL,
          pool="pool",
          limits={"structure_validation": ("gate", "validate"), "mc_residual": _MEASURED}),
    Suite("fluxes", 1, "fluxes", _fluxes, gates=("structure", "b_field", "split", "para_kahler")),
)}


# --------------------------------------------------------------------------
# Run, report, print
# --------------------------------------------------------------------------

def check_jet_order(ctx):
    """Raise InsufficientJetOrder naming the first of the run's suites whose
    jet order (its record's `order`, plus the orders the model's eta and K
    consume) exceeds the spec's `jet_order`."""
    for name in ctx.suites:
        need = SUITES[name].order + ctx.model.jet_margin
        if need > ctx.jet_order:
            raise InsufficientJetOrder(
                f"suite {name!r} needs jet order {need}, the spec gives {ctx.jet_order}")


def check_output(path):
    """Raise SpecParseError unless `path` is a file name in a writable directory."""
    path = Path(path)
    if path.is_dir() or not path.parent.is_dir() or not os.access(path.parent, os.W_OK):
        raise SpecParseError(f"cannot write report {str(path)!r}: not a file in a writable "
                             "directory", "output")


def run(spec_path, output_path=None, verbose=False) -> int:
    t0 = time.monotonic()
    try:
        if output_path:
            check_output(output_path)
        spec = load_spec(spec_path)
        ctx = _RunContext(spec)
        check_jet_order(ctx)
        ctx.check_domain()
    except ParahermError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    results = []
    for name in ctx.suites:
        try:
            results.append(SUITES[name](ctx))
        except ParahermError as exc:
            print(f"spec error in suite {name!r}: {exc}", file=sys.stderr)
            return 2
    # The structure gate holds for the whole run, so a run of no suite
    # passes only on a para-Hermitian structure too.
    passed = all(r["passed"] for r in results) and not ctx.failing
    report = {
        "report_version": REPORT_VERSION,
        "spec": spec,
        "seed": ctx.seed,
        "jet_order": ctx.jet_order,
        "n_points": len(ctx.batch.coords),
        "suites": results,
        "passed": passed,
    }
    encoded = json.dumps(report, sort_keys=True)
    digest = hashlib.sha256(encoded.encode("utf-8")).hexdigest()
    report["determinism_hash"] = digest
    report["wall_time_s"] = time.monotonic() - t0
    if output_path:
        # The file is the hash's encoding of the whole report, on one line:
        # "determinism_hash" sorts before every other key and "wall_time_s"
        # after, so it is the hashed encoding with the two spliced in.
        head = json.dumps({"determinism_hash": digest})[:-1]
        tail = json.dumps({"wall_time_s": report["wall_time_s"]})[1:]
        Path(output_path).write_text(f"{head}, {encoded[1:-1]}, {tail}\n", encoding="utf-8")
    if verbose or not output_path:
        print_report(report)
    return 0 if passed else 1


def print_report(report):
    """Human-readable table, deterministically ordered by suite name."""
    print(f"report v{report['report_version']}  seed={report['seed']} "
          f"jet_order={report['jet_order']} points={report['n_points']}")
    header = f"{'suite':24} {'status':10} {'max residual':14} witness"
    print(header)
    print("-" * len(header))
    for r in sorted(report["suites"], key=lambda x: x["name"]):
        if r["skipped"]:
            status = "SKIP"
        elif r["passed"]:
            status = "OK" if not r["expected_fail"] else "OK(xfail)"
        else:
            status = "FAIL"
        wit = ""
        if r["witnesses"]:
            w = min(r["witnesses"], key=lambda x: x.get("point", []))
            if "point" in w:
                wit = "@ " + ", ".join(f"{c:+.3f}" for c in w["point"])
            if r["reason"]:
                wit += f" ({r['reason']})"
        elif r["reason"]:
            wit = f"({r['reason']})"
        print(f"{r['name']:24} {status:10} {r['max_residual']:<14.3e} {wit}")
    print(f"overall: {'PASS' if report['passed'] else 'FAIL'} "
          f"(hash {report['determinism_hash'][:16]})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="paraherm",
        description="Run para-Hermitian geometry check suites from a spec file.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run the suites in a spec file")
    runp.add_argument("spec", help="path to the JSON run-spec")
    runp.add_argument("-o", "--output", help="write the JSON report here")
    runp.add_argument("-v", "--verbose", action="store_true",
                      help="print the report table even when writing a file")
    args = parser.parse_args(argv)
    return run(args.spec, args.output, args.verbose)


if __name__ == "__main__":
    sys.exit(main())
