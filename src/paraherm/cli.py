"""Batch front end: read a run-spec file, build the model, run suites, emit JSON.

The spec file is JSON and is the whole experiment record: model, optional
b-field, sampling (explicit points or a seeded uniform box), jet order,
tolerances and the list of suites.  Reports are versioned and deterministic:
the same spec and seed give byte-identical JSON up to the wall-time field,
which is excluded from the determinism hash stored in the report.

Exit codes: 0 all requested suites pass, 1 at least one suite fails,
2 the spec itself is invalid.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import sys
import time

import numpy as np

from . import brackets as br
from . import deformations as df
from .connections import check_adapted
from .errors import InsufficientJetOrder, ParahermError, SpecParseError
from .geometry import (
    Chart,
    TensorField,
    apply_endomorphism,
    embed_block,
    scalar_pairing,
    stack_points,
)
from .models import build_flat, build_tm
from .parastructure import ParaHermitianStructure, classify, validate_structure
from .randfields import random_vector_field

REPORT_VERSION = 1

DEFAULT_TOLERANCES = {
    "default": 1e-9,
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
            self.points, self.seed = self._sample(spec.get("sample", {}))
        # Every suite evaluates its fields on the whole sample as this batch.
        self.batch = stack_points(self.points)
        self._gates = {}

    def check_domain(self):
        """Evaluate eta, K (and the b-field) at order 0 on the sample, so that
        a sample point outside an expression's domain, or where eta is
        singular, is a spec error naming the point before any suite runs."""
        with _spec_section("sample"):
            self.model.S.at(self.batch, 0)
            if self.b_field is not None:
                self.b_field.at(self.batch, 0)

    def nijenhuis_gate(self, sign):
        """Largest Nijenhuis residual of the `sign` eigenbundle over the sample.

        The single skip rule: `adapted` (per side) and `courant_plus` /
        `courant_minus` skip a side whose gate exceeds the suite's tolerance.
        Evaluated once per side and run.
        """
        if sign not in self._gates:
            res = self.model.S.integrability_residual(sign, self.batch)
            self._gates[sign] = float(np.max(res))
        return self._gates[sign]

    @functools.cached_property
    def transformation(self):
        """The B-transformation by `b_field`, validated at the sample on first
        use, so that its errors surface in the first suite that needs it."""
        return df.b_transform(self.model.S, self.b_field, sample=self.points)

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
                return build_tm(
                    mspec["metric"], mspec["base_coords"], jet_order=self.jet_order,
                )
            if name == "explicit":
                chart = Chart(
                    mspec["coords"], split=mspec.get("split"), jet_order=self.jet_order
                )
                eta = TensorField(chart, 0, 2, np.asarray(mspec["eta"], dtype=object),
                                  sym="symmetric")
                K = TensorField(chart, 1, 1, np.asarray(mspec["K"], dtype=object))
                S = ParaHermitianStructure(chart, eta, K)
                return _ExplicitModel(chart, S)
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
            return [chart.point(p) for p in pts], _spec_int(sspec, "seed", 0, "sample")
        if mode != "uniform":
            raise SpecParseError(f"unknown sample mode {mode!r}", "sample")
        count = _spec_int(sspec, "count", 20, "sample")
        if count < 1:
            raise SpecParseError("sample count must be >= 1", "sample")
        seed = _spec_int(sspec, "seed", 2024, "sample")
        box = sspec.get("box") or self.model.default_box()
        if len(box) != chart.dim:
            raise SpecParseError(f"box must have {chart.dim} intervals", "sample")
        rng = np.random.default_rng(seed)
        pts = []
        guard = 0
        lo = np.array([b[0] for b in box])
        hi = np.array([b[1] for b in box])
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
        return pts, seed

    def rng_for(self, tag):
        digest = int.from_bytes(hashlib.sha256(tag.encode()).digest()[:4], "big")
        return np.random.default_rng([self.seed, digest])


class _ExplicitModel:
    jet_margin = 0

    def __init__(self, chart, S):
        self.chart = chart
        self.S = S

    def default_box(self):
        return [(-1.0, 1.0)] * self.chart.dim

    def point_ok(self, coords):
        return True


# --------------------------------------------------------------------------
# Suites
# --------------------------------------------------------------------------

def _suite_result(name, passed, residuals, witnesses=(), expected_fail=False,
                  skipped=False, reason=None):
    finite = [v for v in residuals.values() if isinstance(v, (int, float))]
    return {
        "name": name,
        "passed": bool(passed),
        "expected_fail": bool(expected_fail),
        "skipped": bool(skipped),
        "reason": reason,
        "max_residual": float(max(finite)) if finite else 0.0,
        "residuals": {k: float(v) for k, v in residuals.items()},
        "witnesses": list(witnesses),
    }


def suite_validate(ctx):
    rep = validate_structure(ctx.model.S, ctx.points, tol=ctx.tol["validate"])
    wit = [
        {"residual": v, "invariant": k}
        for k, v in rep.residuals.items() if not v <= ctx.tol["validate"]
    ]
    return _suite_result("validate", rep.passed, rep.residuals, wit)


def suite_classify(ctx):
    rep = classify(ctx.model.S, ctx.points, tol=ctx.tol["classify"])
    residuals = dict(rep.residuals)
    residuals.update(rep.cross_checks)
    ok = all(v <= ctx.tol["classify"] for v in rep.cross_checks.values())
    out = _suite_result("classify", ok, residuals)
    out["flags"] = rep.flags
    return out


def suite_adapted(ctx):
    """Canonical-connection adapted check, per integrable side."""
    S = ctx.model.S
    tol = ctx.tol["adapted"]
    residuals = {}
    witnesses = []
    checked = False
    ok = True
    for side, sign in (("p", +1), ("n", -1)):
        integ = ctx.nijenhuis_gate(sign)
        if not integ <= tol:
            residuals[f"{side}_side_skipped_nijenhuis"] = integ
            continue
        checked = True
        rep = check_adapted(S.canonical, S, side, ctx.points,
                            seed=ctx.seed, tol=tol)
        for cond, val in rep.conditions.items():
            residuals[f"{side}_cond{cond}"] = val
        witnesses.extend(rep.witnesses)
        ok = ok and rep.passed
    if not checked:
        return _suite_result("adapted", True, residuals, skipped=True,
                             reason="no integrable side at tolerance")
    return _suite_result("adapted", ok, residuals, witnesses)


def _field_pool(ctx, count=3, vars_subset=None):
    rng = ctx.rng_for("fields")
    return [random_vector_field(ctx.model.chart, rng, vars_subset=vars_subset)
            for _ in range(count)]


def _eta_scale(ctx):
    """max(1, max |eta|) at each sample point: the Courant suites divide the
    residuals of the pairing axioms by it, as `validate` divides its own."""
    return np.maximum(1.0, ctx.model.S.eta.at(ctx.batch, 0).max_abs())


def _courant_projected(ctx, sign, name):
    S = ctx.model.S
    tol = ctx.tol["courant"]
    integ = ctx.nijenhuis_gate(sign)
    if not integ <= tol:
        return _suite_result(name, True, {"nijenhuis": integ}, skipped=True,
                             reason="eigenbundle not integrable at tolerance")
    pool = _field_pool(ctx)
    bracket = lambda X, Y: br.projected_bracket(S.canonical, S, sign, X, Y)
    anchor = lambda X: apply_endomorphism(S.projector(sign), X)
    pair = lambda X, Y: scalar_pairing(S.eta, [X, Y])
    rep = br.courant_axiom_suite(bracket, anchor, pair, pool, ctx.points, tol=tol,
                                 seed=ctx.seed, scale=_eta_scale(ctx))
    res = {"axiom1": rep.axiom1, "axiom2": rep.axiom2, "axiom3": rep.axiom3}
    return _suite_result(name, rep.passed(), res,
                         [w | {"axiom": k} for k, w in rep.witnesses.items()])


def suite_courant_plus(ctx):
    return _courant_projected(ctx, +1, "courant_plus")


def suite_courant_minus(ctx):
    return _courant_projected(ctx, -1, "courant_minus")


def suite_courant_d_full(ctx):
    """Full D-bracket: axioms 1-2 must pass, axiom 3 must fail with a witness."""
    S = ctx.model.S
    tol = ctx.tol["courant"]
    pool = _field_pool(ctx)
    bracket = lambda X, Y: br.d_bracket(S, X, Y)
    anchor = lambda X: X
    pair = lambda X, Y: scalar_pairing(S.eta, [X, Y])
    rep = br.courant_axiom_suite(bracket, anchor, pair, pool, ctx.points, tol=tol,
                                 seed=ctx.seed, scale=_eta_scale(ctx))
    res = {"axiom1": rep.axiom1, "axiom2": rep.axiom2, "axiom3_defect": rep.axiom3}
    ok = rep.axiom1 <= tol and rep.axiom2 <= tol and rep.axiom3 > ctx.tol["witness_floor"]
    return _suite_result("courant_d_full", ok, res,
                         [w | {"axiom": k} for k, w in rep.witnesses.items()],
                         expected_fail=True)


def suite_jacobi_defect_witness(ctx):
    """Record a concrete Jacobi-defect witness for the full D-bracket."""
    S = ctx.model.S
    pool = _field_pool(ctx)
    bracket = lambda X, Y: br.d_bracket(S, X, Y)
    defects = br.jacobi_defect(bracket, pool[0], pool[1], pool[2], ctx.batch)
    i = int(np.argmax(defects))  # the first worst point
    worst = float(defects[i])
    ok = worst > ctx.tol["witness_floor"]
    wit = []
    if worst > 0.0:
        wit = [{"point": [float(c) for c in ctx.points[i].coords], "defect": worst}]
    return _suite_result("jacobi_defect_witness", ok, {"max_defect": worst}, wit,
                         expected_fail=True)


def suite_section_condition(ctx):
    """Fields depending only on the plus coordinates: minus bracket and
    Jacobi defect must vanish.  Needs a flat model in adapted coordinates."""
    S = ctx.model.S
    chart = ctx.model.chart
    tol = ctx.tol["section"]
    if chart.split is None:
        return _suite_result("section_condition", True, {}, skipped=True,
                             reason="needs adapted (split) coordinates")
    from .connections import curvature

    # The flatness gate reads the first three points, but evaluates the whole
    # batch: it shares the other suites' jets, and the work does not depend
    # on the sample size.
    curv = float(np.max(curvature(S.levi_civita).at(ctx.batch, 0).max_abs()[:3]))
    if not curv <= tol:
        return _suite_result("section_condition", True, {"curvature": curv},
                             skipped=True, reason="eta is not flat")
    pool = _field_pool(ctx, vars_subset=list(range(chart.split)))
    bracket = lambda X, Y: br.d_bracket(S, X, Y)
    minus = br.projected_bracket(S.canonical, S, -1, pool[0], pool[1]).at(ctx.batch, 0)
    worst_minus = float(np.max(minus.max_abs()))
    jac = br.jacobi_defect(bracket, pool[0], pool[1], pool[2], ctx.batch)
    worst_jac = float(np.max(jac))
    res = {"minus_bracket": worst_minus, "jacobi_defect": worst_jac}
    ok = worst_minus <= tol and worst_jac <= tol
    return _suite_result("section_condition", ok, res)


def suite_deform(ctx):
    if ctx.b_field is None:
        return _suite_result("deform", True, {}, skipped=True,
                             reason="no b_field in spec")
    tol = ctx.tol["deform"]
    T = ctx.transformation
    vrep = validate_structure(T.structure_B, ctx.points, tol=ctx.tol["validate"])
    compat = df.compatibility_residual(T, ctx.points)
    pool = _field_pool(ctx)
    # The two-sided check reads the first five points of the whole batch,
    # for the reason given in `suite_section_condition`.
    sides = df.maurer_cartan_sides(T, pool[0], pool[1], pool[2], ctx.batch)
    agree = float(np.max(sides.agreement[:5]))
    res = {"structure_validation": max(vrep.residuals.values()),
           "mc_two_sides_agreement": agree, "mc_residual": compat}
    ok = vrep.passed and agree <= tol
    out = _suite_result("deform", ok, res)
    out["compatible"] = bool(compat <= tol)
    return out


def suite_fluxes(ctx):
    if ctx.b_field is None:
        return _suite_result("fluxes", True, {}, skipped=True,
                             reason="no b_field in spec")
    tol = ctx.tol["fluxes"]
    reports = df.extract_fluxes(ctx.transformation, ctx.batch)
    res = {
        "reassembly": max(r.reassembly_residual for r in reports),
        "vanishing_parts": max(r.vanishing_residual for r in reports),
        "h_plus_r_vs_B_part": max(r.cross_check_residual for r in reports),
    }
    ok = all(v <= tol for v in res.values())
    out = _suite_result("fluxes", ok, res)
    out["flux_reports"] = [r.to_dict() for r in reports]
    return out


# The jet order each suite evaluates its fields at, on a model whose eta and
# K are given directly (`jet_margin` 0): the depth of its deepest bracket
# nesting.  `tests/test_cli.py` runs each suite one order below this and
# expects InsufficientJetOrder, so the table cannot drift.
SUITE_JET_ORDERS = {
    "validate": 0,
    "classify": 1,
    "adapted": 1,
    "courant_plus": 2,
    "courant_minus": 2,
    "courant_d_full": 2,
    "jacobi_defect_witness": 2,
    "section_condition": 2,
    "deform": 1,
    "fluxes": 1,
}

SUITES = {
    "validate": suite_validate,
    "classify": suite_classify,
    "adapted": suite_adapted,
    "courant_plus": suite_courant_plus,
    "courant_minus": suite_courant_minus,
    "courant_d_full": suite_courant_d_full,
    "jacobi_defect_witness": suite_jacobi_defect_witness,
    "section_condition": suite_section_condition,
    "deform": suite_deform,
    "fluxes": suite_fluxes,
}


# --------------------------------------------------------------------------
# Run, report, print
# --------------------------------------------------------------------------

def check_jet_order(ctx, suite_names):
    """Raise InsufficientJetOrder naming the first suite whose jet order
    (SUITE_JET_ORDERS, plus the orders the model's eta and K consume) exceeds
    the spec's `jet_order`."""
    for name in suite_names:
        need = SUITE_JET_ORDERS[name] + ctx.model.jet_margin
        if need > ctx.jet_order:
            raise InsufficientJetOrder(
                f"suite {name!r} needs jet order {need}, the spec gives {ctx.jet_order}")


def run(spec_path, output_path=None, verbose=False) -> int:
    t0 = time.monotonic()
    try:
        spec = load_spec(spec_path)
        ctx = _RunContext(spec)
        suite_names = spec["suites"]
        for name in suite_names:
            if name not in SUITES:
                raise SpecParseError(f"unknown suite {name!r}", "suites")
        check_jet_order(ctx, suite_names)
        ctx.check_domain()
    except ParahermError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    results = []
    for name in suite_names:
        try:
            results.append(SUITES[name](ctx))
        except ParahermError as exc:
            print(f"spec error in suite {name!r}: {exc}", file=sys.stderr)
            return 2
    passed = all(r["passed"] for r in results)
    report = {
        "report_version": REPORT_VERSION,
        "spec": spec,
        "seed": ctx.seed,
        "jet_order": ctx.jet_order,
        "n_points": len(ctx.points),
        "suites": results,
        "passed": passed,
    }
    digest = hashlib.sha256(
        json.dumps(report, sort_keys=True).encode("utf-8")
    ).hexdigest()
    report["determinism_hash"] = digest
    report["wall_time_s"] = time.monotonic() - t0
    if output_path:
        with open(output_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
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
            w = sorted(
                r["witnesses"],
                key=lambda x: x.get("point", []),
            )[0]
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
