"""The tensor-of-jets layout stays inside `geometry` (and `jets`).

A tensor of jets is a `geometry.JetArray`: one jet context and one float
array of shape (*tensor_shape, ncoef), the graded coefficient layout of
`jets` on the last axis.  `Field.at` returns one, and the modules above
`geometry` reach its components and coefficients only through its methods
(`values`, `max_abs`, `transpose`, ...) and the helpers next to it (`tdot`,
`jets_gradient`, `coeff_max`, `truncate_jets`, `constant_jets`, ...), so
that the storage format can be replaced in one module.  These tests parse
them and reject component loops (`np.ndindex`), direct coefficient access
(`.coeffs`, `.truncate`), `np.tensordot`, and object arrays built with
`np.empty` / `np.zeros(..., dtype=object)`.  The one exception to the last
two is `brackets.flat_coordinate_dbracket`, the independent oracle, which
keeps its scalar-`Jet` route on purpose.  Only that oracle may convert
scalar `Jet`s with `as_jets`, so that the conversion surface does not grow
back.  Only `geometry` constructs a `JetArray` or sets its carried jet
degree `deg`, so the degree bound that `tdot` relies on is kept in one
module.  No module keeps results keyed by a point: only `Point` and the
one-entry `_memo_at` of `geometry` read `point.key`, so memory does not grow
with the number of points evaluated.
"""

import ast
from pathlib import Path

import pytest

import paraherm

SRC = Path(paraherm.__file__).resolve().parent
MODULES = ("connections", "parastructure", "brackets", "deformations", "models", "cli")
FORBIDDEN = {"ndindex", "coeffs", "truncate"}
SCALAR_ROUTES = {("brackets", "flat_coordinate_dbracket")}
KEY_READERS = {("geometry", "Point"), ("geometry", "_memo_at")}
ALL_MODULES = sorted(path.stem for path in SRC.glob("*.py"))


def _tree(module):
    path = SRC / f"{module}.py"
    return ast.parse(path.read_text(), filename=str(path))


def _uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in FORBIDDEN:
            yield node.lineno, node.attr
        elif isinstance(node, ast.Name) and node.id in FORBIDDEN:
            yield node.lineno, node.id


def _object_dtype(call):
    dtypes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "dtype"]
    return any(isinstance(d, ast.Name) and d.id == "object" for d in dtypes)


def _outside_scalar_routes(tree, module):
    """Every node of `module` outside the allow-listed scalar routes."""
    for top in tree.body:
        if (module, getattr(top, "name", None)) not in SCALAR_ROUTES:
            yield from ast.walk(top)


def _object_array_calls(tree, module):
    for node in _outside_scalar_routes(tree, module):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        attr = node.func.attr
        if attr == "tensordot" or (attr in ("empty", "zeros") and _object_dtype(node)):
            yield node.lineno, attr


@pytest.mark.parametrize("module", MODULES)
def test_jet_layout_stays_in_geometry(module):
    found = sorted(_uses(_tree(module)))
    assert not found, f"{module}.py touches the jet layout at (line, name): {found}"


@pytest.mark.parametrize("module", MODULES)
def test_no_object_arrays_of_jets_above_geometry(module):
    found = sorted(_object_array_calls(_tree(module), module))
    assert not found, (
        f"{module}.py builds or contracts object arrays at (line, call): {found}"
    )


def _degree_writes(tree):
    """(line, what) of each `JetArray(...)` call and each assignment to `.deg`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "JetArray":
                yield node.lineno, "JetArray("
            elif (name == "setattr" and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant) and node.args[1].value == "deg"):
                yield node.lineno, "setattr deg"
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                   else [])
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Attribute) and sub.attr == "deg":
                    yield node.lineno, ".deg ="


@pytest.mark.parametrize("module", MODULES)
def test_only_geometry_builds_jet_arrays(module):
    found = sorted(_degree_writes(_tree(module)))
    assert not found, f"{module}.py builds a JetArray or sets its degree at: {found}"


def test_degree_guard_catches_each_form():
    source = (
        "out = JetArray(ctx, coeffs)\n"
        "out = geometry.JetArray(ctx, coeffs, 0)\n"
        "out.deg = 0\n"
        "a.deg, b = 1, 2\n"
        "out.deg += 1\n"
        "setattr(out, 'deg', 0)\n"
        "n = out.deg + 1\n"
    )
    assert sorted(line for line, _ in _degree_writes(ast.parse(source))) == [1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("module", MODULES)
def test_as_jets_only_at_scalar_routes(module):
    found = sorted(
        node.lineno for node in _outside_scalar_routes(_tree(module), module)
        if isinstance(node, ast.Name) and node.id == "as_jets"
        or isinstance(node, ast.Attribute) and node.attr == "as_jets"
    )
    assert not found, f"{module}.py converts scalar jets with as_jets at lines {found}"


def test_the_oracle_keeps_its_scalar_route():
    """The allow-list names a function that still exists and still needs it."""
    tree = _tree("brackets")
    oracle = next(node for node in tree.body
                  if getattr(node, "name", None) == "flat_coordinate_dbracket")
    calls = [node.func.attr for node in ast.walk(oracle)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)]
    assert "empty" in calls and "partial" in calls


@pytest.mark.parametrize("cls, name", [
    ("TensorField", "at"), ("DerivedField", "at"), ("ScalarField", "jet"),
])
def test_traced_field_methods_stay_on_their_classes(cls, name):
    """The benchmark's layer tracer (`perfbench/layertrace.py`) wraps these
    methods in each class's own namespace: one inherited from a base class
    would run untraced and be reported missing."""
    from paraherm import geometry

    assert name in vars(getattr(geometry, cls))


def _key_reads(tree, module):
    """Lines reading a `.key` attribute outside the allowed readers."""
    for top in tree.body:
        if (module, getattr(top, "name", None)) in KEY_READERS:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr == "key":
                yield node.lineno


@pytest.mark.parametrize("module", ALL_MODULES)
def test_no_cache_keyed_by_point(module):
    found = sorted(_key_reads(_tree(module), module))
    assert not found, f"{module}.py reads point.key outside the last-point memo at {found}"


def test_point_key_guard_catches_each_form():
    source = (
        "cache[point.key] = value\n"
        "hit = cache.get((point.key, order))\n"
        "def at(self, p):\n"
        "    return self._cache.setdefault(p.key, 0)\n"
        "key = p.coords\n"
    )
    assert sorted(_key_reads(ast.parse(source), "cli")) == [1, 2, 4]
