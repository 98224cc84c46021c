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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import brackets as br
from . import deformations as df
from .connections import check_adapted, curvature
from .errors import InsufficientJetOrder, ParahermError, SpecParseError
from .expr import Coord, parse_expr
from .geometry import (
    Chart,
    TensorField,
    apply_endomorphism,
    embed_block,
    scalar_pairing,
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
        for name in self.suites:
            if name not in SUITES:
                raise SpecParseError(f"unknown suite {name!r}", "suites")
        # The highest order the run's suites read the structure at.
        self.order = max((SUITES[name].order for name in self.suites), default=0)
        self._nijenhuis = {}

    def check_domain(self):
        """Evaluate the structure's six fields on the sample at the highest
        order the run's suites read (their records' `order`; 0 for
        `validate` alone), and the b-field at order 0, so that a sample
        point outside an expression's domain, where eta is singular (its
        inverse raises SingularMetric) or where the jets overflow at that
        order, is a spec error naming the point before any suite runs.
        Every suite then reads the six fields' lower orders as memo slices,
        so each is evaluated once per run.  Last it computes the structure's
        invariants, which every run reads, so that one that overflows is a
        spec error too."""
        with _spec_section("sample"):
            for f in self.model.S.fields:
                f.at(self.batch, self.order)
            if self.b_field is not None:
                self.b_field.at(self.batch, 0)
            self.structure

    # -- gates, each computed once per run ------------------------------------

    def shut(self, gate, tol):
        """None if `gate` lets a suite of tolerance `tol` run, else the
        (reason, residuals) of the row it writes instead."""
        if gate == "structure":
            failing = self.failing
            return ("structure is not para-Hermitian at tolerance", failing) if failing else None
        if gate == "split":
            split = self.model.chart.split
            return ("needs adapted (split) coordinates", {}) if split is None else None
        if gate == "b_field":
            return ("no b_field in spec", {}) if self.b_field is None else None
        if gate == "flat":
            curv = self.curvature
            return None if curv <= tol else ("eta is not flat", {"curvature": curv})
        raise ValueError(f"unknown gate {gate!r}")

    @functools.cached_property
    def structure(self):
        """`validate_structure` on the sample from the order-0 slices of the
        fields `check_domain` evaluated, so it evaluates none: what `validate`
        reports, the `structure` gate, and the verdict of a run of no suite."""
        return validate_structure(self.model.S, self.batch, tol=self.tol["validate"])

    @functools.cached_property
    def failing(self):
        """The structure's invariants above `tolerances.validate`, by name."""
        return {k: v for k, v in self.structure.residuals.items() if not v <= self.tol["validate"]}

    @functools.cached_property
    def curvature(self):
        """The flatness gate: the largest curvature component of eta's
        Levi-Civita connection at the first three points.  It evaluates the
        whole batch: it shares the other suites' jets, and the work does
        not depend on the sample size."""
        return float(np.max(curvature(self.model.S.levi_civita).max_abs(self.batch)[:3]))

    def nijenhuis(self, sign):
        """The Nijenhuis gate of the `sign` eigenbundle: its largest
        residual over the sample (`integrability_residual`)."""
        if sign not in self._nijenhuis:
            self._nijenhuis[sign] = float(np.max(
                self.model.S.integrability_residual(sign, self.batch)))
        return self._nijenhuis[sign]

    @functools.cached_property
    def transformation(self):
        """The B-transformation by `b_field`, validated at the sample on first
        use, so that its errors surface in the first suite that needs it."""
        return df.b_transform(self.model.S, self.b_field, sample=self.batch)

    @functools.cached_property
    def pool(self):
        """The random vector fields of the Courant, Jacobi-witness and deform
        suites, built once per run."""
        return self.field_pool()

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
        rng = np.random.default_rng(seed)
        pts = []
        guard = 0
        lo, hi = np.array(box, dtype=float).T
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(hi - lo)):
                raise SpecParseError("box intervals must have a finite width", "sample")
        while len(pts) < count:
            c = rng.uniform(lo, hi)
            guard += 1
            if guard > 1000 * count:
                raise SpecParseError("sampling rejected too many points", "sample")
            if self.model.point_ok(c):
                pts.append(chart.point(c))
        return stack_points(pts), seed

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
    connections of the structure it `reads`, and a body `(ctx, tol, *open
    sides) -> dict` of `passed`, `residuals`, and optionally `witnesses` and
    the suite's own report keys.  Calling it runs it: a shut gate writes its
    row (a failure for `structure`, a skip for the others), as do all sides
    shut; past them, the declared connections are evaluated at one below
    the run's order (the symbols at order k read eta at k + 1), so each is
    evaluated once per run and only if read; then the body runs."""

    name: str
    order: int
    tol: str
    body: object
    gates: tuple = ("structure",)
    sides: tuple = ()
    reads: tuple = ()
    expected_fail: bool = False

    def __call__(self, ctx):
        tol = ctx.tol[self.tol]
        for gate in self.gates:
            if shut := ctx.shut(gate, tol):
                reason, residuals = shut
                failed = gate == "structure"
                return self._result(not failed, residuals, skipped=not failed, reason=reason)
        closed = {sign: g for sign in self.sides if not (g := ctx.nijenhuis(sign)) <= tol}
        one = len(self.sides) == 1  # v1 names a one-sided suite's gate apart
        noted = {"nijenhuis" if one else f"{_SIDE[sign]}_side_skipped_nijenhuis": g
                 for sign, g in closed.items()}
        if self.sides and len(closed) == len(self.sides):
            reason = ("eigenbundle not integrable at tolerance" if one
                      else "no integrable side at tolerance")
            return self._result(True, noted, skipped=True, reason=reason)
        for name in self.reads:
            getattr(ctx.model.S, name).christoffels.at(ctx.batch, ctx.order - 1)
        out = self.body(ctx, tol, *(sign for sign in self.sides if sign not in closed))
        return self._result(out.pop("passed"), noted | out.pop("residuals"), **out)

    def _result(self, passed, residuals, witnesses=(), skipped=False, reason=None, **extra):
        """The suite's report v1 row; `max_residual` folds in every residual."""
        return {"name": self.name, "passed": bool(passed), "expected_fail": self.expected_fail,
                "skipped": skipped, "reason": reason,
                "max_residual": float(max(residuals.values(), default=0.0)),
                "residuals": {k: float(v) for k, v in residuals.items()},
                "witnesses": list(witnesses), **extra}


_SIDE = {+1: "p", -1: "n"}


def _validate(ctx, tol):
    failing = ctx.failing
    return {"passed": not failing, "residuals": ctx.structure.residuals,
            "witnesses": [{"residual": v, "invariant": k} for k, v in failing.items()]}


def _classify(ctx, tol):
    rep = classify(ctx.model.S, ctx.batch, tol=tol)
    ok = all(v <= tol for v in rep.cross_checks.values())
    return {"passed": ok, "residuals": rep.residuals | rep.cross_checks, "flags": rep.flags}


def _adapted(ctx, tol, *signs):
    """Canonical-connection adapted check, per integrable side."""
    S = ctx.model.S
    residuals, witnesses, ok = {}, [], True
    for sign in signs:
        rep = check_adapted(S.canonical, S, _SIDE[sign], ctx.batch, seed=ctx.seed, tol=tol)
        residuals.update({f"{_SIDE[sign]}_cond{c}": v for c, v in rep.conditions.items()})
        witnesses.extend(rep.witnesses)
        ok = ok and rep.passed
    return {"passed": ok, "residuals": residuals, "witnesses": witnesses}


def _courant(ctx, tol, bracket, anchor):
    """The Courant axioms of `bracket` with `anchor` and the pairing eta on
    the run's pool; the residuals of the pairing axioms are divided by
    max(1, max |eta|) at each sample point, as `validate` divides its own."""
    S = ctx.model.S
    pair = lambda X, Y: scalar_pairing(S.eta, [X, Y])
    rep = br.courant_axiom_suite(bracket, anchor, pair, ctx.pool, ctx.batch, tol=tol,
                                 scale=np.maximum(1.0, S.eta.max_abs(ctx.batch)))
    return rep, [w | {"axiom": k} for k, w in rep.witnesses.items()]


def _courant_projected(ctx, tol, sign):
    S = ctx.model.S
    rep, witnesses = _courant(
        ctx, tol, lambda X, Y: br.projected_bracket(S.canonical, S, sign, X, Y),
        lambda X: apply_endomorphism(S.projector(sign), X))
    return {"passed": rep.passed(), "witnesses": witnesses,
            "residuals": {"axiom1": rep.axiom1, "axiom2": rep.axiom2, "axiom3": rep.axiom3}}


def _courant_d_full(ctx, tol):
    """Full D-bracket: axioms 1-2 must pass, axiom 3 must fail with a witness."""
    S = ctx.model.S
    rep, witnesses = _courant(ctx, tol, lambda X, Y: br.d_bracket(S, X, Y), lambda X: X)
    ok = rep.axiom1 <= tol and rep.axiom2 <= tol and rep.axiom3 > ctx.tol["witness_floor"]
    return {"passed": ok, "witnesses": witnesses, "residuals": {
        "axiom1": rep.axiom1, "axiom2": rep.axiom2, "axiom3_defect": rep.axiom3}}


def _jacobi_defect_witness(ctx, floor):
    """Record a concrete Jacobi-defect witness for the full D-bracket."""
    S = ctx.model.S
    defects = br.jacobi_defect(lambda X, Y: br.d_bracket(S, X, Y), *ctx.pool, ctx.batch)
    i = int(np.argmax(defects))  # the first worst point
    worst = float(defects[i])
    wit = [{"point": ctx.batch.coords[i].tolist(), "defect": worst}] if worst > 0.0 else []
    return {"passed": worst > floor, "residuals": {"max_defect": worst}, "witnesses": wit}


def _section_condition(ctx, tol):
    """Fields depending only on the plus coordinates: minus bracket and
    Jacobi defect must vanish.  Needs a flat model in adapted coordinates.
    The defect reads the pool's brackets at order 1 first, so the minus
    bracket reads their order-0 slices."""
    S = ctx.model.S
    X, Y, Z = ctx.field_pool(vars_subset=list(range(ctx.model.chart.split)))
    jac = float(np.max(br.jacobi_defect(lambda U, V: br.d_bracket(S, U, V), X, Y, Z,
                                        ctx.batch)))
    minus = float(np.max(br.projected_bracket(S.canonical, S, -1, X, Y).max_abs(ctx.batch)))
    return {"passed": minus <= tol and jac <= tol,
            "residuals": {"minus_bracket": minus, "jacobi_defect": jac}}


def _deform(ctx, tol):
    """The B-transformed structure: valid, and its Maurer-Cartan sides agree.
    The two-sided check reads the first five points of the whole batch, for
    the reason given at `_RunContext.curvature`, and reads the sheared
    fields at order 1 before the validation reads their order-0 slices."""
    T = ctx.transformation
    agree = float(np.max(df.maurer_cartan_sides(T, *ctx.pool, ctx.batch).agreement[:5]))
    vrep = validate_structure(T.structure_B, ctx.batch, tol=ctx.tol["validate"])
    compat = df.compatibility_residual(T, ctx.batch)
    return {"passed": vrep.passed and agree <= tol, "compatible": bool(compat <= tol),
            "residuals": {"structure_validation": max(vrep.residuals.values()),
                          "mc_two_sides_agreement": agree, "mc_residual": compat}}


def _fluxes(ctx, tol):
    reports = df.extract_fluxes(ctx.transformation, ctx.batch)
    res = {"reassembly": max(r.reassembly_residual for r in reports),
           "vanishing_parts": max(r.vanishing_residual for r in reports),
           "h_plus_r_vs_B_part": max(r.cross_check_residual for r in reports)}
    return {"passed": all(v <= tol for v in res.values()), "residuals": res,
            "flux_reports": [r.to_dict() for r in reports]}


_CANONICAL = ("canonical",)

# Every suite by name; `validate` alone has no structure gate, since it
# reports the structure's invariants itself.
SUITES = {suite.name: suite for suite in (
    Suite("validate", 0, "validate", _validate, gates=()),
    Suite("classify", 1, "classify", _classify, reads=("levi_civita",)),
    Suite("adapted", 1, "adapted", _adapted, sides=(+1, -1), reads=_CANONICAL),
    Suite("courant_plus", 2, "courant", _courant_projected, sides=(+1,), reads=_CANONICAL),
    Suite("courant_minus", 2, "courant", _courant_projected, sides=(-1,), reads=_CANONICAL),
    Suite("courant_d_full", 2, "courant", _courant_d_full, reads=_CANONICAL,
          expected_fail=True),
    Suite("jacobi_defect_witness", 2, "witness_floor", _jacobi_defect_witness,
          reads=_CANONICAL, expected_fail=True),
    Suite("section_condition", 2, "section", _section_condition,
          gates=("structure", "split", "flat"), reads=_CANONICAL),
    Suite("deform", 1, "deform", _deform, gates=("structure", "b_field"), reads=_CANONICAL),
    Suite("fluxes", 1, "fluxes", _fluxes, gates=("structure", "b_field")),
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
    digest = hashlib.sha256(
        json.dumps(report, sort_keys=True).encode("utf-8")
    ).hexdigest()
    report["determinism_hash"] = digest
    report["wall_time_s"] = time.monotonic() - t0
    if output_path:
        # The file is the hash's encoding of the whole report, on one line.
        Path(output_path).write_text(json.dumps(report, sort_keys=True) + "\n",
                                     encoding="utf-8")
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
    if args.command == "run":
        return run(args.spec, args.output, args.verbose)
    return 2


if __name__ == "__main__":
    sys.exit(main())
