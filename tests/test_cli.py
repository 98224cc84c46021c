import json
from collections import Counter
from pathlib import Path

import pytest

import paraherm
from paraherm import cli, geometry
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
])
@pytest.mark.filterwarnings("error")
def test_malformed_spec_section_exits_two(tmp_path, capsys, section, value):
    """A bad value in a spec section is a spec error (exit 2) naming the
    section, not a traceback (exit 1, the code for a failed suite)."""
    spec = write_spec(tmp_path, "s.json", {
        "model": {"name": "flat", "n": 2}, section: value, "suites": ["validate"],
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
    """Each suite runs at its declared jet order (plus the model's margin)
    and raises InsufficientJetOrder one order below, so the table used by
    the pre-flight cannot drift from what the suites evaluate."""
    spec = _spec_from(runspec, sample={"count": 2})
    ctx = cli._RunContext(spec)
    need = cli.SUITE_JET_ORDERS[suite] + ctx.model.jet_margin
    cli.SUITES[suite](cli._RunContext(dict(spec, jet_order=need)))
    with pytest.raises(InsufficientJetOrder):
        cli.SUITES[suite](cli._RunContext(dict(spec, jet_order=need - 1)))


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
    order 2 and above: a spec error naming the first such point, with no
    report (whose NaN tokens strict JSON would reject).  exp(400 x) has
    finite jets, values up to 5e173, and every suite passes: the Courant
    pairing residuals are relative to max |eta|, as validate's are."""
    spec = write_spec(tmp_path, "s.json", _exp_spec(rate))
    out = tmp_path / "r.json"
    assert run(spec, str(out)) == code
    err = capsys.readouterr().err
    if code == 2:
        assert ("spec error in suite 'courant_plus': component jets are not finite "
                "at Point([1.0, 0.0])") in err
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

def _count_calls(monkeypatch):
    """Count `geometry.tdot` calls (in every module that imported it) and
    `Field.at` calls (both subclasses' own methods)."""
    counts = Counter()
    tdot = geometry.tdot

    def counted_tdot(*args, **kwargs):
        counts["tdot"] += 1
        return tdot(*args, **kwargs)

    for name, module in vars(paraherm).items():
        if getattr(module, "tdot", None) is tdot:
            monkeypatch.setattr(module, "tdot", counted_tdot)
    for cls in (geometry.TensorField, geometry.DerivedField):
        def counted_at(self, *args, _at=cls.at, **kwargs):
            counts["Field.at"] += 1
            return _at(self, *args, **kwargs)
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
