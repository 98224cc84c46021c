import json

import pytest

from paraherm.cli import load_spec, main, print_report, run
from paraherm.errors import SpecParseError


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
])
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
