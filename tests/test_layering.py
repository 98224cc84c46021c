"""The tensor-of-jets layout stays inside `geometry` (and `jets`).

A tensor of jets is a `geometry.JetArray`: one jet context and one float
array of shape (*batch, *tensor_shape, ncoef), the graded coefficient layout
of `jets` on the last axis, and a scalar jet is its 0-d case.  `Field.at`
returns one, and the modules above `geometry` reach its components and
coefficients only through its methods (`values`, `max_abs`, `transpose`,
...) and the helpers next to it (`tdot`, `jets_gradient`, `coeff_max`,
`truncate_jets`, `constant_jets`, ...), so that the storage format can be
replaced in one module.  These tests parse them and reject component loops
(`np.ndindex`), direct coefficient access (`.coeffs`, `.truncate`),
`np.tensordot`, and object arrays built with `np.empty` /
`np.zeros(..., dtype=object)`.  There is one jet type and one product
kernel: no module defines or names a scalar `Jet`, `as_jets` or `eval_jet`
or calls `np.bincount`, only `geometry._product_tables` reads the product
targets `_mul_t`, and `expr`, the syntax of expressions, imports neither
`jets` nor `geometry`.  The flat coordinate oracle
`brackets.flat_coordinate_dbracket` stays independent of the path it
checks: it calls no `tdot` and no connection or structure code.  Only
`geometry` constructs a `JetArray` or sets its carried jet degree `deg`, so
the degree bound that `tdot` and `*` rely on is kept in one module.  There
is one field protocol: a scalar is the (0,0) `Field`, so no module names a
scalar field type or its operators (`ScalarField`, `scalar_field`,
`d_scalar`, `lie_derivative_scalar`, `_as_scalar`, `_covector_on`), and no
class defines a `jet` or `value` method beside `Field.at`.  No
module keeps results keyed by a point: only `Point` and the one-entry
`_memo_at` of `geometry` read `point.key`, so memory does not grow with the
number of points evaluated.
"""

import ast
from pathlib import Path

import pytest

import paraherm

SRC = Path(paraherm.__file__).resolve().parent
MODULES = ("connections", "parastructure", "brackets", "deformations", "models", "cli")
FORBIDDEN = {"ndindex", "coeffs", "truncate"}
SECOND_JET_TYPE = {"Jet", "as_jets", "_scalar_jets", "eval_jet", "bincount"}
SECOND_FIELD_PROTOCOL = {"ScalarField", "scalar_field", "d_scalar", "lie_derivative_scalar",
                         "_as_scalar", "_covector_on"}
SECOND_FIELD_METHODS = {"jet", "value"}
PRODUCT_TABLE_READERS = {("geometry", "_product_tables")}
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


def _object_array_calls(tree):
    for node in ast.walk(tree):
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
    found = sorted(_object_array_calls(_tree(module)))
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


def _name(node):
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.alias)):
        return node.name
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _second_jet_type(tree, module):
    """(line, name) of each trace of a second jet type or product kernel: a
    class, function, import or name in SECOND_JET_TYPE, or a read of
    `_mul_t` outside `geometry._product_tables`."""
    for top in tree.body:
        reader = (module, getattr(top, "name", None)) in PRODUCT_TABLE_READERS
        for node in ast.walk(top):
            name = _name(node)
            if name in SECOND_JET_TYPE:
                yield node.lineno, name
            elif name == "_mul_t" and isinstance(node.ctx, ast.Load) and not reader:
                yield node.lineno, name


@pytest.mark.parametrize("module", ALL_MODULES)
def test_one_jet_type(module):
    found = sorted(_second_jet_type(_tree(module), module))
    assert not found, f"{module}.py has a second jet type or product kernel at {found}"


def test_one_jet_type_guard_catches_a_scalar_jet():
    """The guard flags a scalar jet class with its own product kernel."""
    source = (
        "from .jets import Jet\n"
        "class Jet:\n"
        "    def __mul__(self, other):\n"
        "        ctx = self.ctx\n"
        "        prod = self.coeffs[ctx._mul_a] * other.coeffs[ctx._mul_b]\n"
        "        return Jet(ctx, np.bincount(ctx._mul_t, weights=prod, minlength=ctx.n))\n"
        "def _product_tables(ctx):\n"
        "    return ctx._mul_t\n"
    )
    found = sorted(_second_jet_type(ast.parse(source), "jets"))
    assert found == [(1, "Jet"), (2, "Jet"), (6, "Jet"), (6, "_mul_t"), (6, "bincount"),
                     (8, "_mul_t")]


def test_expr_is_syntax_only():
    imported = {node.module for node in ast.walk(_tree("expr"))
                if isinstance(node, ast.ImportFrom)}
    assert not imported & {"jets", "geometry"}, imported


def _oracle(tree):
    return next(node for node in tree.body
                if getattr(node, "name", None) == "flat_coordinate_dbracket")


def _oracle_dependencies(tree):
    """(line, name) of each name the flat oracle takes from the contraction
    kernel `tdot`, from `connections` or from `parastructure`."""
    shared = {"tdot", "connections", "parastructure"}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module in ("connections", "parastructure"):
            shared |= {alias.asname or alias.name for alias in node.names}
    for node in ast.walk(_oracle(tree)):
        if isinstance(node, (ast.Name, ast.Attribute)) and _name(node) in shared:
            yield node.lineno, _name(node)


def test_the_oracle_shares_no_code_with_the_connection_path():
    """No `tdot`, `nabla_jets`, `covd_jets`, connection or structure code in
    the oracle; a copy of it that calls `tdot` fails the check."""
    tree = _tree("brackets")
    found = sorted(_oracle_dependencies(tree))
    assert not found, f"the flat oracle uses the checked path at {found}"
    _oracle(tree).body.insert(0, ast.parse("tdot(a, b, ([0], [0]))").body[0])
    assert [name for _, name in _oracle_dependencies(tree)] == ["tdot"]


def _second_field_protocol(tree):
    """(line, name) of each trace of a scalar field type beside `Field`: a
    class, function, import or name in SECOND_FIELD_PROTOCOL, or a method
    of a class named in SECOND_FIELD_METHODS."""
    for node in ast.walk(tree):
        if _name(node) in SECOND_FIELD_PROTOCOL:
            yield node.lineno, _name(node)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name in SECOND_FIELD_METHODS:
                    yield item.lineno, f"{node.name}.{item.name}"


@pytest.mark.parametrize("module", ALL_MODULES)
def test_one_field_protocol(module):
    found = sorted(_second_field_protocol(_tree(module)))
    assert not found, f"{module}.py has a second scalar field protocol at {found}"


def test_one_field_protocol_guard_catches_a_scalar_field():
    """The guard flags a scalar field class with its own `jet` and `value`
    methods, its imports and its scalar-only operators."""
    source = (
        "from .geometry import ScalarField, d_scalar\n"
        "class ScalarField:\n"
        "    def jet(self, point, order):\n"
        "        return eval_expr(self.source, point.coords, order)\n"
        "    def value(self, point):\n"
        "        return self.jet(point, 0).values()\n"
        "def lie_derivative_scalar(X, f):\n"
        "    return geometry._as_scalar(X.chart, f)\n"
    )
    found = sorted(_second_field_protocol(ast.parse(source)))
    assert found == [
        (1, "ScalarField"), (1, "d_scalar"), (2, "ScalarField"), (3, "ScalarField.jet"),
        (5, "ScalarField.value"), (7, "lie_derivative_scalar"), (8, "_as_scalar"),
    ]


@pytest.mark.parametrize("cls, name", [("TensorField", "at"), ("DerivedField", "at")])
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
