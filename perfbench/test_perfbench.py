"""Self-test of the benchmark at a tiny size.

    python3 -m pytest perfbench -q

Each workload runs once with a handful of points, which checks that every
metric named in BENCHMARK.json comes out with its unit; the gate is shown
able to fail; and two traced runs with one seed give the same counts.
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from layertrace import leftover_wrappers  # noqa: E402
from workloads import FLAT_EXPECTED, WORKLOADS, RunspecWorkload  # noqa: E402

run.load_program()
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {"flat_runspec": 2, "tm_sphere_runspec": 2, "dbracket_stream_dim6": 2}


def _units(kind):
    return {m["name"]: m["unit"] for m in BENCH[kind]}


def _check_metrics(result, kind):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _units(kind)
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in BENCH["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_end_to_end_metrics_emitted(name):
    result, record = run.measure(name, seed=3, seconds=0.0, trace=False, count=TINY[name])
    _check_metrics(result, "end_to_end")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(result["metrics"][k]["value"] > 0 for k in run.END_TO_END_UNITS)
    assert record["src_lines"] > 0 and record["ref_samples"] >= 2


@pytest.mark.parametrize("name", sorted(TINY))
def test_per_layer_metrics_emitted_and_unwrapped_after(name):
    result, record = run.measure(name, seed=3, seconds=0.0, trace=True, count=TINY[name])
    _check_metrics(result, "per_layer")
    assert result["correct"]
    assert record["unwrapped"] == []
    assert leftover_wrappers() == []
    assert result["metrics"]["jets.mul_calls"]["value"] > 0


def test_traced_counts_repeat():
    counts = []
    for _ in range(2):
        result, _ = run.measure("dbracket_stream_dim6", seed=5, seconds=0.0, trace=True, count=2)
        counts.append({k: m["value"] for k, m in result["metrics"].items()
                       if m["unit"] == "count"})
    assert counts[0] == counts[1]


def test_gate_fails_on_wrong_expected_status(tmp_path):
    wrong = dict(FLAT_EXPECTED)
    status, gates = wrong["courant_d_full"]
    wrong["courant_d_full"] = ((True, False, False), gates)   # it is an expected failure
    wl = RunspecWorkload("runspecs/flat.json", wrong)
    state = wl.prepare(run.ROOT, tmp_path, "gate", seed=3, count=2)
    op = wl.run_op(state, clock=lambda: 0.0)
    assert op.failures and op.failures[0].startswith("courant_d_full: status")

    right = RunspecWorkload("runspecs/flat.json", FLAT_EXPECTED)
    assert right.run_op(state, clock=lambda: 0.0).failures == []
