import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import paraherm
from paraherm import brackets as br, cli, connections, geometry
from paraherm.cli import load_spec, main, print_report, run
from paraherm.errors import InsufficientJetOrder, SpecParseError

RUNSPECS = Path(__file__).resolve().parent.parent / "runspecs"


def write_spec(tmp_path, name, spec):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


FLAT_SPEC = {
    "model": {"name": "flat", "n": 2},
    "sample": {"mode": "uniform", "count": 6, "seed": 42},
    "suites": ["validate", "classify", "courant_plus",
               "jacobi_defect_witness", "section_condition"],
}


def test_full_pipeline_exit_zero(tmp_path, capsys):
    spec = write_spec(tmp_path, "flat.json", FLAT_SPEC)
    out = tmp_path / "report.json"
    assert run(spec, str(out)) == 0
    report = json.loads(out.read_text())
    assert report["report_version"] == 1
    names = {r["name"]: r for r in report["suites"]}
    assert names["validate"]["passed"]
    assert names["jacobi_defect_witness"]["expected_fail"]
    assert names["jacobi_defect_witness"]["passed"]
    assert names["jacobi_defect_witness"]["witnesses"]
    assert report["passed"]


def test_syntax_error_in_model_exits_two(tmp_path, capsys):
    spec = write_spec(tmp_path, "bad.json", {
        "model": {"name": "explicit", "coords": ["x1", "xt1"], "split": 1,
                  "eta": [["0", "x1 +* 2"], ["1", "0"]],
                  "K": [["1", "0"], ["0", "-1"]]},
        "suites": ["validate"],
    })
    assert run(spec) == 2
    err = capsys.readouterr().err
    assert "offset 4" in err


def test_malformed_json_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run(str(path)) == 2


def test_unknown_suite_exits_two(tmp_path):
    spec = write_spec(tmp_path, "s.json", {
        "model": {"name": "flat", "n": 2}, "suites": ["nope"],
    })
    assert run(spec) == 2


@pytest.mark.parametrize("section, value", [
    ("sample", {"count": "many"}),
    ("jet_order", "three"),
    ("sample", [1, 2]),
    ("sample", {"mode": "explicit", "points": [[0.1, 0.2, 0.3]]}),
    ("tolerances", [1, 2]),
    # Integers are never truncated: a bool or a fraction is a spec error.
    ("sample", {"count": 2.7}),
    ("sample", {"count": True}),
    ("sample", {"count": 3, "seed": 1.9}),
    ("sample", {"mode": "explicit", "points": [[0.1, 0.2, 0.3, 0.4]], "seed": 0.5}),
    ("jet_order", 3.5),
    ("jet_order", True),
    ("model", {"name": "flat", "n": 1.5}),
    # Non-finite numbers, tolerances that are not finite positive numbers or
    # not known by name, and a box too wide to sample from.
    ("tolerances", {"validate": float("inf")}),
    ("tolerances", {"validate": True}),
    ("tolerances", {"courrant": 1e-9}),
    ("sample", {"count": 2, "box": [[0, float("inf")]] + [[0, 1]] * 3}),
    ("sample", {"count": 2, "box": [[-1e308, 1e308]] + [[0, 1]] * 3}),
    ("tolerances", {"validate": float("nan")}),
    # `suites` is a JSON list of names; `split` an integer, absent or null.
    ("suites", 5),
    ("suites", [["validate"]]),
    ("suites", {"validate": 1}),
    ("model", {"name": "explicit", "coords": ["x1", "xt1"], "split": 1.0,
               "eta": [["0", "1"], ["1", "0"]], "K": [["1", "0"], ["0", "-1"]]}),
    ("model", {"name": "explicit", "coords": ["x1", "xt1"], "split": True,
               "eta": [["0", "1"], ["1", "0"]], "K": [["1", "0"], ["0", "-1"]]}),
    # No tolerance key goes unread; a box interval is a pair of numbers; the
    # coordinate names are a JSON list of strings, not one string of letters.
    ("tolerances", {"default": 1e-30}),
    ("sample", {"count": 2, "box": [[0]] * 4}),
    ("sample", {"count": 2, "box": "abcd"}),
    ("sample", {"count": 2, "box": [[0, 1, 5]] * 4}),
    ("model", {"name": "explicit", "coords": "ab", "split": 1,
               "eta": [["0", "1"], ["1", "0"]], "K": [["1", "0"], ["0", "-1"]]}),
    ("model", {"name": "tangent_bundle", "base_coords": "th",
               "metric": [["1", "0"], ["0", "2"]]}),
    # Explicit points are lists of JSON numbers: neither a bool nor a string.
    ("sample", {"mode": "explicit", "points": [[True, 0, 0, 0]]}),
    ("sample", {"mode": "explicit", "points": [["0.5", 0, 0, 0]]}),
    # Each coordinate name is one identifier an expression can read: not an
    # expression, and not a function name, which always parses as the function.
    ("model", {"name": "explicit", "coords": ["x", "x^-1"], "split": 1,
               "eta": [["0", "1"], ["1", "0"]], "K": [["1", "0"], ["0", "-1"]]}),
    ("model", {"name": "explicit", "coords": ["x", "sin"], "split": 1,
               "eta": [["0", "1"], ["1", "0"]], "K": [["1", "0"], ["0", "-1"]]}),
    ("model", {"name": "tangent_bundle", "base_coords": ["th", "cos"],
               "metric": [["1", "0"], ["0", "2"]]}),
])
@pytest.mark.filterwarnings("error")
def test_malformed_spec_section_exits_two(tmp_path, capsys, section, value):
    """A bad value in a spec section is a spec error (exit 2) naming the
    section, not a traceback (exit 1, the code for a failed suite)."""
    spec = write_spec(tmp_path, "s.json", {
        "model": {"name": "flat", "n": 2}, "suites": ["validate"], section: value,
    })
    assert run(spec) == 2
    err = capsys.readouterr().err
    assert err.startswith("spec error: ") and f"[{section}]" in err


def test_failing_suite_exits_one(tmp_path):
    """A rank-skewed K makes validation fail: exit code 1."""
    spec = write_spec(tmp_path, "fail.json", {
        "model": {"name": "explicit", "coords": ["x1", "xt1"], "split": 1,
                  "eta": [["0", "1"], ["1", "0"]],
                  "K": [["1", "0"], ["0", "1"]]},
        "sample": {"mode": "uniform", "count": 3, "seed": 1},
        "suites": ["validate"],
    })
    out = tmp_path / "r.json"
    assert run(spec, str(out)) == 1
    report = json.loads(out.read_text())
    assert not report["passed"]
    row = report["suites"][0]
    assert not row["passed"]
    assert row["witnesses"]


def test_determinism_hash(tmp_path):
    spec = write_spec(tmp_path, "flat.json", FLAT_SPEC)
    o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run(spec, str(o1)) == 0
    assert run(spec, str(o2)) == 0
    r1 = json.loads(o1.read_text())
    r2 = json.loads(o2.read_text())
    assert r1["determinism_hash"] == r2["determinism_hash"]
    s1 = {k: v for k, v in r1.items() if k != "wall_time_s"}
    s2 = {k: v for k, v in r2.items() if k != "wall_time_s"}
    assert json.dumps(s1, sort_keys=True) == json.dumps(s2, sort_keys=True)


def test_explicit_points_and_deform(tmp_path):
    spec = write_spec(tmp_path, "deform.json", {
        "model": {"name": "flat", "n": 2},
        "b_field": [["0", "xt1"], ["-xt1", "0"]],
        "sample": {"mode": "explicit",
                   "points": [[0.1, 0.2, 0.3, 0.4], [-0.5, 0.1, 0.0, 0.7]]},
        "suites": ["deform", "fluxes"],
    })
    out = tmp_path / "r.json"
    assert run(spec, str(out)) == 0
    report = json.loads(out.read_text())
    rows = {r["name"]: r for r in report["suites"]}
    assert rows["deform"]["compatible"] is True
    assert rows["fluxes"]["flux_reports"]


def test_tangent_bundle_spec(tmp_path):
    spec = write_spec(tmp_path, "tm.json", {
        "model": {"name": "tangent_bundle", "base_coords": ["th", "ph"],
                  "metric": [["1", "0"], ["0", "sin(th)^2"]]},
        "sample": {"mode": "uniform", "count": 4, "seed": 3,
                   "box": [[0.4, 2.7], [-3, 3], [-1, 1], [-1, 1]]},
        "suites": ["validate", "classify"],
    })
    out = tmp_path / "r.json"
    assert run(spec, str(out)) == 0
    report = json.loads(out.read_text())
    rows = {r["name"]: r for r in report["suites"]}
    assert rows["classify"]["flags"]["n_para_kahler"] is True
    assert rows["classify"]["flags"]["p_integrable"] is False


def test_print_report_table(tmp_path, capsys):
    spec = write_spec(tmp_path, "flat.json", {
        "model": {"name": "flat", "n": 2},
        "sample": {"mode": "uniform", "count": 3, "seed": 5},
        "suites": ["validate"],
    })
    assert run(spec) == 0
    out = capsys.readouterr().out
    assert "validate" in out
    assert "OK" in out
    assert "overall: PASS" in out


def test_print_report_empty_suites(capsys):
    report = {
        "report_version": 1, "seed": 0, "jet_order": 3, "n_points": 0,
        "suites": [], "passed": True, "determinism_hash": "0" * 64,
    }
    print_report(report)
    out = capsys.readouterr().out
    assert "suite" in out  # header only


def test_load_spec_rejects_unknown_key(tmp_path):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"model": {}, "suites": [], "bogus": 1}))
    with pytest.raises(SpecParseError):
        load_spec(str(path))


def test_main_entrypoint(tmp_path):
    spec = write_spec(tmp_path, "flat.json", {
        "model": {"name": "flat", "n": 1},
        "sample": {"mode": "uniform", "count": 2, "seed": 8},
        "suites": ["validate"],
    })
    assert main(["run", spec, "-o", str(tmp_path / "r.json")]) == 0


def test_nijenhuis_gate_is_shared(tmp_path, monkeypatch):
    """`adapted` and `courant_minus` skip a side by one rule: its Nijenhuis
    residual over the sample exceeds the suite tolerance (1e-9 for both)."""
    from paraherm.parastructure import ParaHermitianStructure

    monkeypatch.setattr(ParaHermitianStructure, "integrability_residual",
                        lambda self, sign, point: 5e-9 if sign < 0 else 0.0)
    spec = write_spec(tmp_path, "gate.json", {
        "model": {"name": "flat", "n": 1},
        "sample": {"mode": "uniform", "count": 2, "seed": 3},
        "suites": ["adapted", "courant_minus"],
    })
    out = tmp_path / "r.json"
    run(spec, str(out))
    suites = {r["name"]: r for r in json.loads(out.read_text())["suites"]}
    adapted, courant = suites["adapted"], suites["courant_minus"]
    assert adapted["residuals"]["n_side_skipped_nijenhuis"] == 5e-9
    assert "p_cond1" in adapted["residuals"]
    assert courant["skipped"]
    assert courant["residuals"] == {"nijenhuis": 5e-9}


def _skip(name, reason, residuals):
    """The report v1 row of a suite that one of its gates skipped."""
    return {"name": name, "passed": True, "expected_fail": False, "skipped": True,
            "reason": reason, "max_residual": max(residuals.values(), default=0.0),
            "residuals": residuals, "witnesses": []}


def _tm_gates():
    """The tangent-bundle runspec's flatness gate (curvature over the first
    three points) and its plus-side Nijenhuis gate, from a fresh context."""
    from paraherm.connections import curvature

    ctx = cli._RunContext(_spec_from("tangent_bundle.json"))
    S = ctx.model.S
    return (float(np.max(curvature(S.levi_civita).max_abs(ctx.batch)[:3])),
            float(np.max(S.integrability_residual(+1, ctx.batch))))


SPLITLESS = {"name": "explicit", "coords": ["x", "y"],
             "eta": [["0", "1"], ["1", "0"]], "K": [["1", "0"], ["0", "-1"]]}


@pytest.mark.parametrize("case", ["no_b_field", "no_split", "curved", "not_integrable",
                                  "both_sides"])
def test_each_gate_writes_the_v1_skip_result(tmp_path, monkeypatch, case):
    """Every gate a suite declares skips it with report v1's exact row: its
    reason, and the gate's residuals under their v1 names."""
    curv, nij = _tm_gates() if case in ("curved", "not_integrable") else (None, None)
    spec, expected = {
        "no_b_field": (_spec_from("flat.json", b_field=None, suites=["deform", "fluxes"]),
                       [_skip("deform", "no b_field in spec", {}),
                        _skip("fluxes", "no b_field in spec", {})]),
        "no_split": (dict(_spec_from("flat.json", suites=["section_condition"]),
                          model=SPLITLESS, b_field=None),
                     [_skip("section_condition", "needs adapted (split) coordinates", {})]),
        "curved": (_spec_from("tangent_bundle.json", suites=["section_condition"]),
                   [_skip("section_condition", "eta is not flat", {"curvature": curv})]),
        "not_integrable": (_spec_from("tangent_bundle.json", suites=["courant_plus"]),
                           [_skip("courant_plus", "eigenbundle not integrable at tolerance",
                                  {"nijenhuis": nij})]),
        "both_sides": (_spec_from("flat.json", suites=["adapted"]),
                       [_skip("adapted", "no integrable side at tolerance",
                              {"p_side_skipped_nijenhuis": 5e-9,
                               "n_side_skipped_nijenhuis": 5e-9})]),
    }[case]
    if case == "both_sides":
        from paraherm.parastructure import ParaHermitianStructure

        monkeypatch.setattr(ParaHermitianStructure, "integrability_residual",
                            lambda self, sign, point: 5e-9)
    spec = {k: v for k, v in spec.items() if v is not None}
    out = tmp_path / "r.json"
    assert run(write_spec(tmp_path, "s.json", spec), str(out)) == 0
    assert json.loads(out.read_text())["suites"] == expected
    assert curv is None or curv > 1e-9 and nij > 1e-9



@pytest.mark.parametrize("eta, K, suites, failing", [
    # eta = identity is not anti-preserved by K: eta(K., K.) = eta.
    ([["1", "0"], ["0", "1"]], [["1", "0"], ["0", "-1"]], ["classify", "adapted"],
     {"eta_anticompat", "omega_antisymmetric", "isotropy_plus", "isotropy_minus"}),
    # K^2 != 1 and tr K != 0, where courant_plus alone once read 2.2e-16.
    ([["0", "1"], ["1", "0"]], [["0.5", "0"], ["0", "-1"]], ["courant_plus"],
     {"K_squared", "trace_K", "eta_anticompat", "omega_antisymmetric", "projectors",
      "isotropy_minus"}),
])
def test_a_structure_that_is_not_para_hermitian_fails_every_suite(tmp_path, capsys, eta, K,
                                                                  suites, failing):
    """Every suite but `validate` reads (eta, K) as an almost para-Hermitian
    structure, so where `validate` fails, each of them fails too (exit 1),
    naming the failing invariants as its residuals; so does a run of no
    suite, which passes on a para-Hermitian structure."""
    base = {
        "model": {"name": "explicit", "coords": ["x", "y"], "split": 1, "eta": eta, "K": K},
        "sample": {"mode": "explicit", "points": [[0.1, 0.2], [-0.3, 0.5]]},
    }
    assert run(write_spec(tmp_path, "none.json", dict(base, suites=[]))) == 1
    assert run(write_spec(tmp_path, "flat.json", _spec_from("flat.json", suites=[]))) == 0
    spec = write_spec(tmp_path, "s.json", dict(base, suites=suites + ["validate"]))
    out = tmp_path / "r.json"
    assert run(spec, str(out)) == 1
    rows = {r["name"]: r for r in json.loads(out.read_text())["suites"]}
    invariants = {k: v for k, v in rows.pop("validate")["residuals"].items() if v > 1e-10}
    assert set(invariants) == failing
    for name in suites:
        assert rows[name] == {
            "name": name, "passed": False, "expected_fail": False, "skipped": False,
            "reason": "structure is not para-Hermitian at tolerance",
            "max_residual": max(invariants.values()), "residuals": invariants,
            "witnesses": []}
    assert run(spec) == 1
    assert "overall: FAIL" in capsys.readouterr().out

# -- pre-flight: a spec that cannot be evaluated is rejected before any suite ------

def _spec_from(name, **changes):
    spec = json.loads((RUNSPECS / name).read_text())
    sample = dict(spec["sample"], **changes.pop("sample", {}))
    return dict(spec, sample=sample, **changes)


PREFLIGHT_CASES = (
    [("flat.json", name) for name in cli.SUITES]
    # The tangent-bundle suites that run on its sample (the others skip).
    + [("tangent_bundle.json", name)
       for name in ("validate", "classify", "adapted", "courant_minus")]
)


@pytest.mark.parametrize("runspec, suite", PREFLIGHT_CASES)
def test_suite_jet_order_table(runspec, suite):
    """Each suite's body runs at its record's jet order (plus the model's
    margin) and raises InsufficientJetOrder one order below, so the order
    used by the pre-flight cannot drift from what the suites evaluate.  The
    runner reads the connections at the run's order before the body, so it
    would raise one order below whatever the body reads: the body is called
    without it, on all of the record's sides, and its own reads decide."""
    record = cli.SUITES[suite]
    spec = _spec_from(runspec, sample={"count": 2})
    need = record.order + cli._RunContext(spec).model.jet_margin

    def body(jet_order):
        ctx = cli._RunContext(dict(spec, jet_order=jet_order))
        return record.body(ctx, ctx.tol[record.tol], *record.sides)

    body(need)
    with pytest.raises(InsufficientJetOrder):
        body(need - 1)


def test_jet_order_preflight_runs_no_suite(tmp_path, capsys):
    spec = write_spec(tmp_path, "s.json", {
        "model": {"name": "flat", "n": 2}, "jet_order": 1,
        "sample": {"mode": "uniform", "count": 2, "seed": 1},
        "suites": ["validate", "courant_d_full"],
    })
    out = tmp_path / "r.json"
    assert run(spec, str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("spec error: ") and "in suite" not in err
    assert "suite 'courant_d_full' needs jet order 2, the spec gives 1" in err
    assert not out.exists()


def test_sample_point_outside_a_domain_is_a_spec_error(tmp_path, capsys):
    """sqrt(1 - x1) at x1 = 2: rejected while sampling, naming the point."""
    spec = write_spec(tmp_path, "s.json", {
        "model": {"name": "explicit", "coords": ["x1", "xt1"], "split": 1,
                  "eta": [["0", "sqrt(1 - x1)"], ["sqrt(1 - x1)", "0"]],
                  "K": [["1", "0"], ["0", "-1"]]},
        "sample": {"mode": "explicit", "points": [[0.5, 0.0], [2.0, 0.25], [0.0, 0.5]]},
        "suites": ["validate"],
    })
    out = tmp_path / "r.json"
    assert run(spec, str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("spec error: ") and "[sample]" in err
    assert "at Point([2.0, 0.25])" in err
    assert not out.exists()


@pytest.mark.parametrize("eta, message", [
    ([["1", "1"], ["1", "1"]], "condition number"),
    ([["0", "sqrt(-1)"], ["sqrt(-1)", "0"]], "sqrt of non-positive value"),
    ([["0", "1/0"], ["1/0", "0"]], "division by a jet with zero value"),
])
def test_coordinate_free_spec_fails_preflight(tmp_path, capsys, eta, message):
    """An eta that reads no coordinate is evaluated once, not per point; it
    still fails the pre-flight with exit 2, naming the first sample point."""
    spec = write_spec(tmp_path, "s.json", {
        "model": {"name": "explicit", "coords": ["x1", "xt1"], "split": 1,
                  "eta": eta, "K": [["1", "0"], ["0", "-1"]]},
        "sample": {"mode": "explicit", "points": [[0.5, 0.0], [2.0, 0.25]]},
        "suites": ["validate", "courant_d_full"],
    })
    out = tmp_path / "r.json"
    assert run(spec, str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("spec error: ") and "[sample]" in err and "in suite" not in err
    assert message in err and "at Point([0.5, 0.0])" in err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_invariants_that_overflow_are_a_spec_error(tmp_path, capsys):
    """K = diag(1e308, -1) has finite jets, but K K overflows: the pre-flight
    names the point (exit 2) rather than report an infinite residual."""
    spec = write_spec(tmp_path, "s.json", {
        "model": {"name": "explicit", "coords": ["x", "y"], "split": 1,
                  "eta": [["0", "1"], ["1", "0"]], "K": [[1e308, "0"], ["0", "-1"]]},
        "sample": {"mode": "explicit", "points": [[0.5, 0.0], [2.0, 0.25]]},
        "suites": [],
    })
    assert run(spec, str(tmp_path / "r.json")) == 2
    err = capsys.readouterr().err
    assert err == ("spec error: sample error: structure invariants are not finite at "
                   "Point([0.5, 0.0]) [sample]\n")


@pytest.mark.parametrize("where", ["missing/r.json", "."])
def test_unwritable_report_path_is_a_spec_error(tmp_path, capsys, monkeypatch, where):
    """A report path in a missing directory, or a directory itself, is a
    spec error (exit 2) before any suite runs, and no file is written."""
    def boom(ctx):
        raise AssertionError("a suite ran")

    monkeypatch.setitem(cli.SUITES, "validate", boom)
    spec = write_spec(tmp_path, "s.json", {
        "model": {"name": "flat", "n": 1}, "sample": {"count": 2}, "suites": ["validate"],
    })
    out = tmp_path / where
    assert run(spec, str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"spec error: cannot write report '{out}'") and "[output]" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]


def _exp_spec(rate):
    """An explicit model whose eta grows as exp(rate * x), at x = 1 and 0.5."""
    eta = f"exp({rate}*x)"
    return {
        "model": {"name": "explicit", "coords": ["x", "xt"], "split": 1,
                  "eta": [["0", eta], [eta, "0"]], "K": [["1", "0"], ["0", "-1"]]},
        "sample": {"mode": "explicit", "points": [[1.0, 0.0], [0.5, 0.2]]},
        "jet_order": 3,
        "suites": ["validate", "classify", "adapted", "courant_plus", "courant_minus",
                   "courant_d_full"],
    }


@pytest.mark.parametrize("rate, code", [(700, 2), (400, 0)])
@pytest.mark.filterwarnings("error")
def test_non_finite_jets_are_a_spec_error(tmp_path, capsys, rate, code):
    """exp(700 x) has finite values at the sample but its jets overflow at
    order 2 and above, the order the Courant suites read: a spec error
    naming the first such point before any suite runs, with no report
    (whose NaN tokens strict JSON would reject).  exp(400 x) has
    finite jets, values up to 5e173, and every suite passes: the Courant
    pairing residuals are relative to max |eta|, as validate's are."""
    spec = write_spec(tmp_path, "s.json", _exp_spec(rate))
    out = tmp_path / "r.json"
    assert run(spec, str(out)) == code
    err = capsys.readouterr().err
    if code == 2:
        assert ("spec error: sample error: component jets are not finite "
                "at Point([1.0, 0.0]) [sample]") in err
        assert not out.exists()
    else:
        assert "NaN" not in out.read_text()
        courant = [s for s in json.loads(out.read_text())["suites"]
                   if s["name"].startswith("courant")]
        assert len(courant) == 3
        for suite in courant:
            assert suite["residuals"]["axiom1"] <= 1e-9 and suite["residuals"]["axiom2"] <= 1e-9


def _courant_residuals(tmp_path, c):
    """The Courant suites' residuals with the constant eta c * [[0, I], [I, 0]]."""
    eta = [["0", "0", c, "0"], ["0", "0", "0", c], [c, "0", "0", "0"], ["0", c, "0", "0"]]
    K = [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]]
    spec = write_spec(tmp_path, f"eta{c}.json", {
        "model": {"name": "explicit", "coords": ["x", "y", "xt", "yt"], "split": 2,
                  "eta": eta, "K": K},
        "sample": {"mode": "uniform", "count": 4, "seed": 3},
        "suites": ["courant_plus", "courant_minus", "courant_d_full"],
    })
    out = tmp_path / f"r{c}.json"
    assert run(spec, str(out)) == 0
    return {s["name"]: s["residuals"] for s in json.loads(out.read_text())["suites"]}


def test_courant_residuals_are_relative_to_eta(tmp_path):
    """Scaling a constant eta by 1e6 leaves the Courant residuals the same up
    to rounding (absolute pairing residuals would grow to about 1e-9)."""
    unit, big = _courant_residuals(tmp_path, "1"), _courant_residuals(tmp_path, "1000000")
    for name, residuals in unit.items():
        for axiom, r in residuals.items():
            if axiom == "axiom3_defect":
                assert big[name][axiom] == pytest.approx(r, rel=1e-9)
            else:
                assert big[name][axiom] == pytest.approx(r, abs=1e-14)


# -- per-point work does not creep back ------------------------------------------

def _count_calls(monkeypatch, runs=None):
    """Count `geometry.tdot` calls (in every module that imported it), those
    of them with an all-zero operand (deg < 0) and `Field.at` calls (both
    subclasses' own methods); with a Counter `runs`, also count into it each
    field's evaluations, the calls its memo does not serve."""
    counts = Counter()
    tdot = geometry.tdot

    def counted_tdot(a, b, axes):
        counts["tdot"] += 1
        counts["zero tdot"] += a.deg < 0 or b.deg < 0
        return tdot(a, b, axes)

    for name, module in vars(paraherm).items():
        if getattr(module, "tdot", None) is tdot:
            monkeypatch.setattr(module, "tdot", counted_tdot)
    for cls in (geometry.TensorField, geometry.DerivedField):
        def counted_at(self, *args, _at=cls.at, **kwargs):
            counts["Field.at"] += 1
            memo = self._memo
            out = _at(self, *args, **kwargs)
            if runs is not None and self._memo is not memo:
                runs[self] += 1
            return out
        monkeypatch.setattr(cls, "at", counted_at)
    return counts


@pytest.mark.parametrize("runspec", ["flat.json", "tangent_bundle.json"])
def test_call_counts_do_not_grow_with_the_sample(tmp_path, monkeypatch, runspec):
    """Every suite evaluates its fields on the sample as one batch: 4 and 8
    points make the same number of contractions and field evaluations."""
    counts = _count_calls(monkeypatch)
    seen = []
    for count in (4, 8):
        spec = write_spec(tmp_path, f"{count}.json", _spec_from(runspec, sample={"count": count}))
        counts.clear()
        assert run(spec, str(tmp_path / f"{count}-report.json")) == 0
        seen.append(dict(counts))
    assert seen[0]["tdot"] > 0 and seen[0]["Field.at"] > 0
    assert seen[0] == seen[1]


# Contractions with an all-zero operand per flat run (73 while nabla_jets
# added a zero correction per tensor slot for the flat structure's canonical
# symbols, which are exactly zero).
ZERO_TDOTS = 34


def test_zero_symbols_are_not_contracted(tmp_path, monkeypatch):
    """The flat runspec's canonical symbols are exactly zero, and nabla_jets
    contracts nothing with them: a run makes at most ZERO_TDOTS contractions
    with an all-zero operand."""
    counts = _count_calls(monkeypatch)
    assert run(str(RUNSPECS / "flat.json"), str(tmp_path / "report.json")) == 0
    assert 0 < counts["tdot"] and counts["zero tdot"] <= ZERO_TDOTS, counts


def _run_structure(monkeypatch, spec, tmp_path):
    """Run `spec`, which must pass, and return the run's structure."""
    contexts = []
    check_domain = cli._RunContext.check_domain
    monkeypatch.setattr(cli._RunContext, "check_domain",
                        lambda ctx: contexts.append(ctx) or check_domain(ctx))
    assert run(spec, str(tmp_path / "report.json")) == 0
    return contexts[0].model.S


# Evaluations per run of either shipped runspec.  `check_domain` evaluates the
# structure's six fields at the highest order the suites read, and
# `_RunContext.prepare` each connection's Christoffel symbols at the highest
# order the suites read them, so once each.
FIELD_RUNS = {"eta": 1, "K": 1, "eta_inv": 1, "omega": 1, "P_plus": 1, "P_minus": 1,
              "levi_civita": 1, "canonical": 1, "nijenhuis": 1}


@pytest.mark.parametrize("runspec", ["flat.json", "tangent_bundle.json"])
def test_structure_fields_are_evaluated_once_per_order(tmp_path, monkeypatch, runspec):
    """One run evaluates the structure's six fields, the Christoffel symbols
    of both its connections and its Nijenhuis tensor at most FIELD_RUNS
    times: the pre-flight read serves the suites the structure's highest
    order first, so its memos never climb the orders."""
    runs = Counter()
    _count_calls(monkeypatch, runs)
    S = _run_structure(monkeypatch, str(RUNSPECS / runspec), tmp_path)
    fields = dict(zip(("eta", "K", "eta_inv", "omega", "P_plus", "P_minus"), S.fields),
                  levi_civita=S.levi_civita.christoffels, canonical=S.canonical.christoffels,
                  nijenhuis=S.nijenhuis_tensor)
    got = {name: runs[f] for name, f in fields.items()}
    assert all(1 <= got[name] <= most for name, most in FIELD_RUNS.items()), got


# Christoffel evaluations [Levi-Civita, canonical] of each suite run alone: a
# suite that skips reads no connection, and the canonical symbols read the
# Levi-Civita ones.
_READS_BOTH = dict.fromkeys(cli.SUITES, [1, 1])
CONNECTION_RUNS = {
    "flat.json": _READS_BOTH | {"validate": [0, 0], "classify": [1, 0], "fluxes": [0, 0]},
    # courant_plus skips the non-integrable side, section_condition stops at
    # its flatness gate, and deform and fluxes have no b-field.
    "tangent_bundle.json": _READS_BOTH | {
        "validate": [0, 0], "classify": [1, 0], "courant_plus": [0, 0],
        "section_condition": [1, 0], "deform": [0, 0], "fluxes": [0, 0]},
}


@pytest.mark.parametrize("runspec, suites",
                         [(r, [s]) for r in CONNECTION_RUNS for s in cli.SUITES]
                         + [(r, list(cli.SUITES)[::-1]) for r in CONNECTION_RUNS])
def test_each_connection_a_suite_reads_is_evaluated_once(tmp_path, monkeypatch, runspec,
                                                         suites):
    """Each suite of a shipped runspec, run alone, evaluates the Christoffel
    symbols of each connection it reads once, and a suite that reads none,
    or skips before reading one, evaluates none.  So do all suites in
    reverse order, where `deform` reads the canonical connection first, at
    the lowest order of the run's readers."""
    runs = Counter()
    _count_calls(monkeypatch, runs)
    spec = write_spec(tmp_path, "s.json", _spec_from(runspec, suites=suites))
    S = _run_structure(monkeypatch, spec, tmp_path)
    got = [runs[C.christoffels] for C in (S.levi_civita, S.canonical)]
    assert got == (CONNECTION_RUNS[runspec][suites[0]] if len(suites) == 1 else [1, 1])


@pytest.mark.parametrize("runspec", ["flat.json", "tangent_bundle.json"])
def test_report_file_is_the_hashed_encoding(tmp_path, runspec):
    """The report file is the compact sorted JSON of the whole report on one
    line, and its determinism hash is the SHA-256 of that encoding of the
    report without the hash and the wall time (the README's contract),
    recomputed here from the file alone."""
    import hashlib

    out = tmp_path / "report.json"
    assert run(str(RUNSPECS / runspec), str(out)) == 0
    text = out.read_text(encoding="utf-8")
    report = json.loads(text)
    assert text == json.dumps(report, sort_keys=True) + "\n"
    body = {k: v for k, v in report.items() if k not in ("determinism_hash", "wall_time_s")}
    digest = hashlib.sha256(json.dumps(body, sort_keys=True).encode("utf-8")).hexdigest()
    assert report["determinism_hash"] == digest


@pytest.mark.parametrize("runspec, suites, built", [
    ("tangent_bundle.json", ["courant_minus"], 18),
    ("flat.json", None, 62),
])
def test_each_bracket_is_built_once_per_structure(tmp_path, monkeypatch, runspec, suites,
                                                  built):
    """A Courant suite on a pool of three fields asks 27 brackets, of which
    18 are distinct, and builds only those; the flat runspec's suites share
    their brackets too (27 and 95 at one field per request).  Each bracket's
    body runs once: the Jacobi defects ask the inner brackets at order 1
    before axiom 1 reads their order-0 slice."""
    runs = Counter()
    _count_calls(monkeypatch, runs)
    fields = []
    core = br._bracket_core

    def counted_core(*args):
        fields.append(core(*args))
        return fields[-1]

    monkeypatch.setattr(br, "_bracket_core", counted_core)
    spec = write_spec(tmp_path, "s.json", _spec_from(runspec, **(
        {"suites": suites} if suites else {})))
    assert run(spec, str(tmp_path / "report.json")) == 0
    assert len(fields) == built
    assert [runs[f] for f in fields] == [1] * built


# nabla_jets calls per run of each shipped runspec: one per nabla X of S's
# operand table at each order it is read, and the few calls outside brackets.
NABLA_RUNS = {"flat.json": 36, "tangent_bundle.json": 12}


@pytest.mark.parametrize("runspec", sorted(NABLA_RUNS))
def test_each_covariant_derivative_is_computed_once_per_order(tmp_path, monkeypatch,
                                                             runspec):
    """The brackets of a run read nabla X, P X and eta(Y, .) from S's
    operand table, so each operand's body runs once per (point, order) it
    is read at, and a run calls `nabla_jets` at most NABLA_RUNS times (191
    and 57 when each bracket body computed its own, 37 and 13 when a Jacobi
    defect read its inner brackets' operands at order 0 first)."""
    calls, runs = [], Counter()
    nabla_jets = connections.nabla_jets
    for module in vars(paraherm).values():
        if getattr(module, "nabla_jets", None) is nabla_jets:
            monkeypatch.setattr(module, "nabla_jets",
                                lambda *args: calls.append(1) or nabla_jets(*args))
    at = geometry.DerivedField.at

    def recorded_at(self, point, order=0):
        memo = self._memo
        out = at(self, point, order)
        if self._memo is not memo:
            runs[self, self._memo[0], order] += 1
        return out

    monkeypatch.setattr(geometry.DerivedField, "at", recorded_at)
    S = _run_structure(monkeypatch, str(RUNSPECS / runspec), tmp_path)
    assert 0 < len(calls) <= NABLA_RUNS[runspec]
    operands = {entry[0] for entry in S.operand_table.values()}
    got = [n for (field, _, _), n in runs.items() if field in operands]
    assert len(got) >= len(operands) > 0
    assert set(got) == {1}



# Fields evaluated twice at one batch per run of each shipped runspec.  Flat
# made 8 while `section_condition` read its minus bracket before its defect
# and `deform` validated the sheared structure before its Maurer-Cartan
# sides, and flat and tm made 1 each while `courant_axiom_suite` read one
# operand at order 0 by a triple's axioms 1-2 and at order 1 by the next
# triple's Jacobi defect.
CLIMBS = {"flat.json": 0, "tangent_bundle.json": 0}


@pytest.mark.parametrize("runspec", sorted(CLIMBS))
def test_suites_read_each_field_at_its_highest_order_first(tmp_path, monkeypatch, runspec):
    """A suite that reads a field at two orders on one batch reads the higher
    first, so the lower is a memo slice and not a second evaluation."""
    runs = Counter()
    at = geometry.DerivedField.at

    def recorded_at(self, point, order=0):
        memo = self._memo
        out = at(self, point, order)
        if self._memo is not memo:
            runs[self, self._memo[0]] += 1
        return out

    monkeypatch.setattr(geometry.DerivedField, "at", recorded_at)
    assert run(str(RUNSPECS / runspec), str(tmp_path / "report.json")) == 0
    assert sum(n > 1 for n in runs.values()) == CLIMBS[runspec]

def _suite_residuals(tmp_path, spec, tag):
    path = write_spec(tmp_path, f"{tag}.json", spec)
    run(path, str(tmp_path / f"{tag}-report.json"))
    report = json.loads((tmp_path / f"{tag}-report.json").read_text())
    return {s["name"]: json.dumps(s["residuals"], sort_keys=True) for s in report["suites"]}


@pytest.mark.parametrize("runspec", ["flat.json", "tangent_bundle.json"])
def test_suite_residuals_do_not_depend_on_the_suite_order(tmp_path, runspec):
    """A field's jets are a function of (point, order), bit for bit, so a
    suite reports the same residuals whichever suites ran before it on the
    shared fields: in the shipped order, reversed, or alone."""
    spec = json.loads((RUNSPECS / runspec).read_text())
    shipped = _suite_residuals(tmp_path, spec, "shipped")
    assert set(shipped) == set(spec["suites"])
    reverse = _suite_residuals(tmp_path, dict(spec, suites=spec["suites"][::-1]), "reversed")
    assert reverse == shipped
    for name in spec["suites"]:
        alone = _suite_residuals(tmp_path, dict(spec, suites=[name]), name)
        assert alone == {name: shipped[name]}
