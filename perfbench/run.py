"""The paraherm benchmark: end-to-end times of three workloads, and a traced
run that splits them by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the program from `src/` there
and reads the shipped `runspecs/`.  It prints one run record (metadata, the
reference kernel, failures, everything measured) and, as the last line, the
result: `{"correct", "attempted", "failed", "metrics"}`.  With `--trace 0`
the metrics are the end-to-end ones, measured for S seconds with no
wrapper installed; with `--trace 1` they are the per-layer ones, from one
untraced and one traced operation.

Workloads (see `workloads.py`):
  flat_runspec          runspecs/flat.json through `paraherm.cli.main`
  tm_sphere_runspec     runspecs/tangent_bundle.json the same way
  dbracket_stream_dim6  D-bracket, flat oracle and Jacobi defect at fresh
                        points of the dim-6 flat model, library calls only

End-to-end metrics, medians over the run's operations:
  setup_s        set-up in a fresh interpreter (import, spec load or model
                 build, sampling, field pool), each probe divided by a bare
                 interpreter's `import numpy` next to it and scaled by
                 BARE_S; median of probes spread over the run
  run_ref        one operation: a whole spec run, or a block of 25 points
  point_ref_p50  one point check; for a runspec, its spec run divided by its
  point_ref_p90  sample count (one value per spec run)
  peak_rss_mb    peak resident memory of this process

Times in `ref` are multiples of the reference kernel (`refkernel.py`) timed
next to the work, which cancels the host's drifting speed.  The same times
in raw seconds (`run_s`, `point_ms_p50`) and the share of failed operations
are in the run record; raw times vary too much from run to run to carry a
bound.  All load comes from this one thread, one operation at a time.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from refkernel import ReferenceKernel, Sampler
from layertrace import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SETUP_REPEATS = 15
# A fresh interpreter that only imports numpy: run next to every set-up probe,
# it takes the host's slow and fast spells with it.  `setup_s` is set-up time
# rescaled to a host on which this takes BARE_S seconds; changing either
# redefines `setup_s`.
BARE_PROBE = [sys.executable, "-c", "import numpy"]
BARE_S = 0.25

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_ref": "ref",
    "point_ref_p50": "ref",
    "point_ref_p90": "ref",
    "peak_rss_mb": "MB",
}


class MissingProgram(Exception):
    pass


def load_program():
    """Import paraherm from this checkout's `src/`, and nowhere else."""
    init = ROOT / "src" / "paraherm" / "__init__.py"
    if not init.is_file():
        raise MissingProgram(f"no paraherm sources at {init.relative_to(ROOT)}")
    sys.path.insert(0, str(ROOT / "src"))
    import paraherm
    import paraherm.cli  # loads every layer, so the tracer finds them all

    if Path(paraherm.__file__).resolve() != init.resolve():
        raise MissingProgram(f"paraherm was imported from {paraherm.__file__}")
    return paraherm


def per_layer_unit(name):
    return "count" if name.endswith(("_calls", "_entries")) else "ratio"


def metadata(seed):
    src = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src:
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "commit": commit, "src_sha256": digest.hexdigest(),
            "src_lines": lines, "seed": seed}


def setup_probe(name, seed, tag):
    """Command that runs the workload's set-up in a fresh interpreter."""
    return [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), tag]


def _traced_op(wl, state, sampler):
    tracer = Tracer(sampler.clock)
    tracer.install()
    try:
        st = tracer.state()
        if wl.root_layer:
            st.enter(wl.root_layer)
        try:
            op = wl.run_op(state, sampler.clock)
        finally:
            if wl.root_layer:
                st.leave()
    finally:
        tracer.uninstall()
    return op, tracer


def measure(name, seed, seconds, trace, count=None):
    """Run one workload; returns (result line, run record).  `count` shrinks
    the work of one operation (sample points, or points per block)."""
    wl = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    tag = f"{name}-{seed}-{os.getpid()}"
    try:
        state = wl.prepare(ROOT, WORK, tag, seed, count)
        return _measure(name, wl, seed, seconds, trace, state, setup_probe(name, seed, tag))
    finally:
        for path in WORK.glob(tag + "-*"):
            path.unlink()


def _measure(name, wl, seed, seconds, trace, state, probe_cmd):
    record = {"workload": name, "seconds": seconds, "trace": int(trace)} | metadata(seed)
    wl.setup(state)
    sampler = Sampler(ReferenceKernel())
    setup_runs, bare_runs = [], []
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def wall(cmd):
        # No `timeout=`: waiting with one polls every 50 ms, which would round
        # the time up.  Both commands end on their own.
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0

    def probe():
        with sampler.paused():
            bare_runs.append(wall(BARE_PROBE))
            setup_runs.append(wall(probe_cmd))

    ops, traced, tracer = [], None, None
    with sampler:
        sampler.take()
        start, probing = time.perf_counter(), 0.0
        while True:
            ops.append(wl.run_op(state, sampler.clock))
            # Free the finished operation's reference cycles, so that peak
            # memory is that of one operation.
            gc.collect()
            if not trace:
                # Set-up time drifts in phases of its own: pace the probes
                # over the run, and keep their time out of the window.
                t0 = time.perf_counter()
                share = min(1.0, (t0 - start - probing) / seconds) if seconds > 0 else 1.0
                while len(setup_runs) < SETUP_REPEATS * share:
                    probe()
                probing += time.perf_counter() - t0
            sampler.take()
            if trace or time.perf_counter() - start - probing >= seconds:
                break
        while not trace and len(setup_runs) < SETUP_REPEATS:
            probe()
        if trace:
            traced, tracer = _traced_op(wl, state, sampler)
            sampler.take()

    def in_ref(op):
        return sum(sampler.in_ref(start, end) for start, end, _ in op.points)

    run_ref = [in_ref(op) for op in ops]
    point_ref, point_ms = [], []
    for op in ops:
        for start, end, n in op.points:
            point_ref.append(sampler.in_ref(start, end) / n)
            point_ms.append((end - start) / n * 1e3)
    done = ops + ([traced] if traced else [])
    attempted = sum(op.attempted for op in done)
    failures = [f for op in done for f in op.failures]
    e2e = {
        "run_ref": statistics.median(run_ref),
        "point_ref_p50": statistics.median(point_ref),
        "point_ref_p90": float(np.percentile(point_ref, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record |= sampler.summary() | {
        "ops": len(ops), "points": len(point_ref), "attempted": attempted,
        "failed": len(failures), "failed_share": len(failures) / attempted,
        "failures": failures[:20], "op_infos": [op.info for op in done],
        "run_s": statistics.median(op.seconds for op in ops),
        "point_ms_p50": statistics.median(point_ms),
    }
    if trace:
        layers = tracer.metrics(traced.end - traced.start)
        layers["trace.overhead"] = in_ref(traced) / run_ref[0]
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in layers.items()}
        record |= {"untraced": e2e, "suite_wall_s": dict(tracer.suite_s),
                   "traced_wall_s": traced.end - traced.start, "unwrapped": tracer.missing}
    else:
        e2e["setup_s"] = BARE_S * statistics.median(
            s / b for s, b in zip(setup_runs, bare_runs))
        record |= {"setup_raw_s": statistics.median(setup_runs), "setup_runs_s": setup_runs,
                   "bare_runs_s": bare_runs}
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    record["metrics"] = metrics
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        load_program()
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
