"""The three workloads and the correctness gate of each.

A workload turns the benchmark seed into the program's inputs, runs one
operation at a time in this process and thread (a closed loop: the next
operation starts when the previous one has returned), and checks every
output.  An operation is one spec run for the runspec workloads and one
block of fresh points for the stream.

paraherm is imported lazily, after `run.py` has put the checkout's `src/`
first on the path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class Op:
    """One operation, in `Sampler.clock()` seconds: it ran over [start, end]
    and `seconds` of that is the measured work."""

    start: float
    end: float
    seconds: float
    points: list            # (start, end, points checked in that span)
    attempted: int
    failures: list
    info: dict = field(default_factory=dict)


# --------------------------------------------------------------------------
# Runspec workloads: a shipped spec through the public CLI entry point
# --------------------------------------------------------------------------

def _le(tol):
    return ("<=", tol)


def _gt(floor):
    return (">", floor)


_VALIDATE = {k: _le(1e-10) for k in (
    "K_squared", "eta_anticompat", "eta_symmetric", "isotropy_minus", "isotropy_plus",
    "omega_antisymmetric", "partition", "projectors", "trace_K")}
_CLASSIFY = {k: _le(1e-9) for k in (
    "d_omega_30_vs_cyclic_n_plus", "d_omega_03_vs_cyclic_n_minus", "para_kahler_iff_nabla_K")}
_ADAPTED_N = {f"n_cond{c}": _le(1e-9) for c in range(1, 5)}
_ADAPTED_P = {f"p_cond{c}": _le(1e-9) for c in range(1, 5)}
_COURANT = {f"axiom{a}": _le(1e-9) for a in range(1, 4)}

# suite -> ((passed, expected_fail, skipped), {gate residual: (relation, bound)}).
# The bounds are the CLI's default tolerances, frozen here so that loosening
# them in the program shows up as a failure.
FLAT_EXPECTED = {
    "validate": ((True, False, False), _VALIDATE),
    "classify": ((True, False, False), _CLASSIFY),
    "adapted": ((True, False, False), _ADAPTED_P | _ADAPTED_N),
    "courant_plus": ((True, False, False), _COURANT),
    "courant_minus": ((True, False, False), _COURANT),
    "courant_d_full": ((True, True, False), {
        "axiom1": _le(1e-9), "axiom2": _le(1e-9), "axiom3_defect": _gt(1e-4)}),
    "jacobi_defect_witness": ((True, True, False), {"max_defect": _gt(1e-4)}),
    "section_condition": ((True, False, False), {
        "minus_bracket": _le(1e-9), "jacobi_defect": _le(1e-9)}),
    "deform": ((True, False, False), {
        "structure_validation": _le(1e-10), "mc_two_sides_agreement": _le(1e-9)}),
    "fluxes": ((True, False, False), {
        "reassembly": _le(1e-10), "vanishing_parts": _le(1e-10),
        "h_plus_r_vs_B_part": _le(1e-10)}),
}
TM_EXPECTED = {
    "validate": ((True, False, False), _VALIDATE),
    "classify": ((True, False, False), _CLASSIFY),
    "adapted": ((True, False, False), _ADAPTED_N),
    "courant_minus": ((True, False, False), _COURANT),
}


def _gate_value(suite, key):
    """A named residual of a suite report, wherever the report keeps it."""
    for value in suite.values():
        if isinstance(value, dict) and key in value:
            return value[key]
    return None


def check_report(report, exit_code, expected):
    """Failed suites of one CLI report, as strings; empty when all is as expected."""
    failures = []
    by_name = {s.get("name"): s for s in report.get("suites", [])}
    for name, (status, gates) in expected.items():
        suite = by_name.get(name)
        if suite is None:
            failures.append(f"{name}: missing from the report")
            continue
        got = (suite.get("passed"), suite.get("expected_fail"), suite.get("skipped"))
        bad = [] if got == status else [f"status {got} != {status}"]
        for key, (rel, bound) in gates.items():
            v = _gate_value(suite, key)
            ok = isinstance(v, (int, float)) and math.isfinite(v) and (
                v <= bound if rel == "<=" else v > bound)
            if not ok:
                bad.append(f"{key}={v} not {rel} {bound}")
        if bad:
            failures.append(f"{name}: " + "; ".join(bad))
    want_pass = all(status[0] for status, _ in expected.values())
    if not failures and (report.get("passed") is not want_pass or
                         exit_code != (0 if want_pass else 1)):
        failures.append(f"verdict: passed={report.get('passed')} exit={exit_code}")
    return failures


class RunspecWorkload:
    """A shipped runspec with its sample seed replaced by the benchmark seed."""

    root_layer = "cli"

    def __init__(self, spec, expected):
        self.spec = spec
        self.expected = expected

    def prepare(self, root, work, tag, seed, count=None):
        """Write the seeded spec and an empty-suite twin for the set-up probe."""
        spec = json.loads((root / self.spec).read_text())
        spec["sample"]["seed"] = int(seed)
        if count is not None:
            spec["sample"]["count"] = int(count)
        paths = {}
        for kind, suites in (("run", spec["suites"]), ("setup", [])):
            path = work / f"{tag}-{kind}.json"
            path.write_text(json.dumps(dict(spec, suites=suites)))
            paths[kind] = path
        return {"spec": paths["run"], "setup_spec": paths["setup"],
                "report": work / f"{tag}-report.json", "points": spec["sample"]["count"]}

    def setup(self, state):
        """Set-up as a fresh process pays it: import, spec load, model, sampling."""
        from paraherm import cli

        code = cli.main(["run", str(state["setup_spec"]), "-o", str(state["report"])])
        if code != 0:
            raise RuntimeError(f"set-up run exited with {code}")

    def run_op(self, state, clock):
        from paraherm import cli

        start = clock()
        code = cli.main(["run", str(state["spec"]), "-o", str(state["report"])])
        end = clock()
        report = json.loads(Path(state["report"]).read_text())
        return Op(start, end, end - start, [(start, end, state["points"])], len(self.expected),
                  check_report(report, code, self.expected),
                  {"determinism_hash": report.get("determinism_hash"),
                   "wall_time_s": report.get("wall_time_s")})


# --------------------------------------------------------------------------
# Stream workload: D-bracket checks at fresh points, library path only
# --------------------------------------------------------------------------

class StreamWorkload:
    """Flat model with n=3 (dim 6).  Each check, at a point never seen before:
    the D-bracket through the canonical connection, the flat coordinate
    oracle, and one D-bracket Jacobi defect.  An operation is a block of
    `block` points on a freshly built model, so the caches start empty and
    grow by the same amount in every block."""

    tol = 1e-10
    root_layer = None

    def __init__(self, n, block):
        self.n = n
        self.block = block

    def prepare(self, root, work, tag, seed, count=None):
        return {"seed": int(seed), "block": int(count or self.block),
                "points": np.random.default_rng([int(seed), 1])}

    def _model(self, seed):
        from paraherm.models import build_flat
        from paraherm.randfields import random_vector_field

        model = build_flat(self.n)
        rng = np.random.default_rng([seed, 0])
        fields = [random_vector_field(model.chart, rng) for _ in range(3)]
        return model, fields

    def setup(self, state):
        """Set-up as a fresh process pays it: import, model, field pool, a point."""
        model, _ = self._model(state["seed"])
        rng = np.random.default_rng([state["seed"], 1])
        model.chart.point(rng.uniform(-1.0, 1.0, model.chart.dim))

    def run_op(self, state, clock):
        from paraherm import brackets as br

        model, (X, Y, Z) = self._model(state["seed"])
        S, chart, eta = model.S, model.chart, model.eta_matrix
        dbracket = lambda A, B: br.d_bracket(S, A, B)
        oracle = lambda A, B: br.flat_coordinate_dbracket(chart, eta, A, B)
        spans, failures, worst = [], [], 0.0
        start = clock()
        for _ in range(state["block"]):
            p = chart.point(state["points"].uniform(-1.0, 1.0, chart.dim))
            t0 = clock()
            got = dbracket(X, Y).values(p)
            want = oracle(X, Y).values(p)
            jac = br.jacobi_defect(dbracket, X, Y, Z, p)
            t1 = clock()
            spans.append((t0, t1, 1))
            # Outside the timed span: the oracle's own Jacobi defect.
            jac_oracle = br.jacobi_defect(oracle, X, Y, Z, p)
            err = max(float(np.max(np.abs(got - want))), abs(jac - jac_oracle))
            worst = max(worst, err)
            if not err <= self.tol:
                failures.append(f"point {list(p.coords)}: error {err:.3e}")
        end = clock()
        timed = sum(t1 - t0 for t0, t1, _ in spans)
        return Op(start, end, timed, spans, len(spans), failures, {"max_error": worst})


WORKLOADS = {
    "flat_runspec": RunspecWorkload("runspecs/flat.json", FLAT_EXPECTED),
    "tm_sphere_runspec": RunspecWorkload("runspecs/tangent_bundle.json", TM_EXPECTED),
    "dbracket_stream_dim6": StreamWorkload(n=3, block=25),
}
