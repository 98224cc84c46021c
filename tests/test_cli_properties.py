"""Property test of the whole command line: random specs, valid or not.

The strategy draws flat, tangent-bundle and explicit models with small
polynomial or trigonometric entries (n <= 2), at times a b-field (of its
pure type or not), a `jet_order` of at most 3, 1-4 sample points (a seeded
uniform box or explicit points), a random list of suites, and at times one
leaf of the spec replaced by a malformed value.  Whatever it draws, `main`
returns 0, 1 or 2 and raises nothing; exit 0 means `validate_structure`
passes on the run's sample; a written report is strict JSON (no NaN or
Infinity token), its own hash's encoding and carries no NaN; exit 2 writes
no report and comes before any suite's body runs.
"""

import dataclasses
import hashlib
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from paraherm import cli
from paraherm.geometry import reduce_points
from paraherm.parastructure import validate_structure

from helpers import strict_json

ENTRIES = ["0", "1", "-1", "2", "0.5", "{x}", "{y}", "{x}*{y}", "1 + {x}^2/4", "sin({x})",
           "cos({y})^2", "exp({x}/2)"]
JUNK = [None, True, -1, 0, 2.5, "", "nope", "1/0", [], {}, [[1]], 1e308, float("nan")]


def _entry(draw, x, y):
    return draw(st.sampled_from(ENTRIES)).format(x=x, y=y)


@st.composite
def _model(draw):
    kind = draw(st.sampled_from(["flat", "tangent_bundle", "explicit"]))
    n = draw(st.integers(1, 2))
    if kind == "flat":
        return {"name": "flat", "n": n}
    names = ["u", "v"][:n]
    if kind == "tangent_bundle":
        diag = [draw(st.sampled_from(["1", "2", "1 + {x}^2/4", "2 + sin({x})"])).format(
            x=draw(st.sampled_from(names))) for _ in range(n)]
        metric = [[diag[i] if i == j else "0" for j in range(n)] for i in range(n)]
        return {"name": "tangent_bundle", "base_coords": names, "metric": metric}
    coords = names + [c + "t" for c in names]
    dim = 2 * n
    x, y = coords[0], coords[-1]
    eta = [["0"] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            eta[i][j] = eta[j][i] = _entry(draw, x, y) if draw(st.booleans()) else "0"
    if draw(st.booleans()):  # the hyperbolic metric, with one entry drawn
        eta = [["1" if abs(i - j) == n else "0" for j in range(dim)] for i in range(dim)]
        eta[0][n] = eta[n][0] = _entry(draw, x, y)
    K = [[("1" if i < n else "-1") if i == j else "0" for j in range(dim)] for i in range(dim)]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        K[i][j] = _entry(draw, x, y)
    return {"name": "explicit", "coords": coords, "split": n, "eta": eta, "K": K}


def _dim(model):
    if model["name"] == "flat":
        return 2 * model["n"]
    return 2 * len(model.get("base_coords", [])) or len(model["coords"])


@st.composite
def _spec(draw):
    model = draw(_model())
    dim = _dim(model)
    count = draw(st.integers(1, 4))
    if draw(st.booleans()):
        point = st.lists(st.floats(-1, 1, allow_nan=False).map(lambda v: round(v, 3)),
                         min_size=dim, max_size=dim)
        sample = {"mode": "explicit", "points": draw(st.lists(point, min_size=count,
                                                              max_size=count))}
    else:
        sample = {"mode": "uniform", "count": count, "seed": draw(st.integers(0, 99))}
        if model["name"] == "tangent_bundle":
            sample["box"] = [[0.4, 1.2]] * (dim // 2) + [[-1, 1]] * (dim // 2)
    spec = {"model": model, "sample": sample,
            "suites": draw(st.lists(st.sampled_from(sorted(cli.SUITES)), max_size=4))}
    if draw(st.booleans()):
        spec["jet_order"] = draw(st.integers(0, 3))
    if draw(st.booleans()):
        # The n x n block of the plus type at n = 2, the whole 2 x 2 matrix,
        # which mixes the two types, at n = 1.
        # A numeric entry of 1e300 has finite jets but overflowing shear
        # products.
        entry = {"flat": "xt1", "explicit": "1"}.get(model["name"])
        entry = entry or draw(st.sampled_from(["v1", "1", model.get("base_coords", ["u"])[0]]))
        entry = draw(st.sampled_from([entry, 1e300]))
        minus = -entry if isinstance(entry, float) else f"-({entry})"
        spec["b_field"] = [["0", entry], [minus, "0"]]
    if draw(st.booleans()):
        leaves = list(_leaves(spec))
        path = draw(st.sampled_from(leaves))
        _set(spec, path, draw(st.sampled_from(JUNK)))
    return spec


def _leaves(obj, path=()):
    """The paths of every value inside `obj`, containers included."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _leaves(value, path + (key,))


def _set(obj, path, value):
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(spec=_spec())
def test_any_spec_exits_with_a_code_and_a_sound_report(tmp_path_factory, spec):
    tmp = tmp_path_factory.mktemp("cli")
    path, out = tmp / "spec.json", tmp / "report.json"
    path.write_text(json.dumps(spec))
    ran = []
    with pytest.MonkeyPatch.context() as mp:
        for name, suite in cli.SUITES.items():
            mp.setitem(cli.SUITES, name, dataclasses.replace(suite, body=_recorded(suite, ran)))
        code = cli.main(["run", str(path), "-o", str(out)])
    assert code in (0, 1, 2)
    if code == 2:
        assert not out.exists()
        assert not ran, f"exit 2 after the bodies of {ran} ran"
        return
    text = out.read_text(encoding="utf-8")
    report = strict_json(text)
    assert text == json.dumps(report, sort_keys=True) + "\n"
    body = {k: v for k, v in report.items() if k not in ("determinism_hash", "wall_time_s")}
    digest = hashlib.sha256(json.dumps(body, sort_keys=True).encode("utf-8")).hexdigest()
    assert report["determinism_hash"] == digest
    for row in report["suites"]:
        assert not any(map(math.isnan, [row["max_residual"], *row["residuals"].values()])), row
    if code == 0:
        ctx = cli._RunContext(spec)
        invariants = validate_structure(ctx.model.S, ctx.batch)
        assert reduce_points(invariants, ctx.tol["validate"]).passed


def _recorded(suite, ran):
    """`suite`'s body, noting its name in `ran` when it is called."""
    def body(*args):
        ran.append(suite.name)
        return suite.body(*args)
    return body
