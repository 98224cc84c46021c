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
`_memo_at` of `geometry` (the memo of `Field.at`, its one client) read
`point.key`, so memory does not grow with the number of points evaluated.
Only `geometry` reads a tiled point's `base` or stacks fields by blocks
(`tile_points`, `stack_fields`, `_memo_at`): no other module reads a
`.base` attribute or passes `blocks` to a field, so a field that reads no
stacked field is served from its jets at the base in one place.
A `const` field's memo ignores the point and serves its one entry at every
point, so the flag is structural: only the field constructors of
`geometry` assign `.const` (no assignment, augmented assignment or
`setattr` elsewhere), from a tape that reads no coordinate or from the
declared inputs of a procedure.  A sample is one `Point`, a batch: only
`geometry`, which defines `stack_points`, and `cli`, which draws the sample,
build one from single points, so no other module calls `stack_points`,
turns a sample into a list or tuple, or iterates over it.  Every procedure
declares every field it reads: each `DerivedField(...)` and `Connection(...)`
built in `src/` passes its `inputs`, by keyword or by position, since a
procedure that declares none reads fields the `const` rule cannot see.
A check reduces its per-point arrays in one place, `geometry.reduce_points`:
no other function builds a witness (a dict naming a `"point"`) or takes an
argmax or argmin, except `Point.first` and `require_within`, which name the
first point where a mask holds, so a witness rule cannot fork.
A field's components are compiled in one place: only `geometry` builds a
`Tape` or a `RecentringTable` or calls `compile_components` (or imports
them), so every evaluator runs behind `TensorField` and `eval_expr`.
No `einsum` call in `src/` takes more than two operands: a contraction of
more is written as a chain of two-operand products (`project_slots`, or
`tdot` on jets), since numpy's multi-operand path is slower on these sizes.
Every module's `__all__` names only what the module binds, each name once,
so a deleted function leaves no stale export behind.
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
CONST_WRITERS = {("geometry", "Field"), ("geometry", "TensorField"), ("geometry", "DerivedField")}
ALL_MODULES = sorted(path.stem for path in SRC.glob("*.py"))
BATCHING_MODULES = {"geometry", "cli"}
REDUCERS = {("geometry", "reduce_points"), ("geometry", "Point"), ("geometry", "require_within")}
ARG_EXTREMA = {"argmax", "argmin", "nanargmax", "nanargmin"}
SAMPLE_NAMES = {"sample", "points", "pts"}
EVALUATORS = {"Tape", "RecentringTable", "compile_components"}


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
    """No `tdot`, `nabla_jets`, connection or structure code in
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


def _tiling_reads(tree):
    """Lines reading a `.base` attribute or passing `blocks=` to a call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "base":
            yield node.lineno
        elif isinstance(node, ast.Call) and any(kw.arg == "blocks" for kw in node.keywords):
            yield node.lineno


@pytest.mark.parametrize("module", [m for m in ALL_MODULES if m != "geometry"])
def test_only_geometry_reads_a_tiled_points_base(module):
    found = sorted(_tiling_reads(_tree(module)))
    assert not found, f"{module}.py reads a tiled point's base or stacks by blocks at {found}"


def test_tiling_guard_catches_each_form():
    source = (
        "batch = tiled.base\n"
        "n = len(p.coords) // len(p.base.coords)\n"
        "X = DerivedField(chart, 1, 0, fn, inputs=(A,), blocks=True)\n"
        "base = tiled\n"
        "match e:\n"
        "    case Pow(base=b):\n"
        "        pass\n"
    )
    assert sorted(_tiling_reads(ast.parse(source))) == [1, 2, 3]


def _const_writes(tree, module):
    """(line, form) of each write of a `.const` attribute outside the
    `__init__` of the field classes of `geometry`."""
    for top in tree.body:
        allowed = (module, getattr(top, "name", None)) in CONST_WRITERS
        skip = {id(item) for item in getattr(top, "body", ())
                if allowed and isinstance(item, ast.FunctionDef) and item.name == "__init__"}
        stack = [top]
        while stack:
            node = stack.pop()
            if id(node) in skip:
                continue
            stack.extend(ast.iter_child_nodes(node))
            if (isinstance(node, ast.Call) and _name(node.func) == "setattr"
                    and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value == "const"):
                yield node.lineno, "setattr const"
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                       else [])
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Attribute) and sub.attr == "const":
                        yield node.lineno, ".const ="


@pytest.mark.parametrize("module", ALL_MODULES)
def test_only_field_constructors_set_const(module):
    found = sorted(_const_writes(_tree(module), module))
    assert not found, f"{module}.py sets a field's const flag outside its constructor at {found}"


def test_const_guard_catches_each_form():
    source = (
        "f.const = True\n"
        "a.const, b = True, 1\n"
        "f.const |= g.const\n"
        "setattr(f, 'const', True)\n"
        "ok = f.const and g.const\n"
        "class Field:\n"
        "    def __init__(self, const):\n"
        "        self.const = const\n"
        "    def freeze(self):\n"
        "        self.const: bool = True\n"
    )
    tree = ast.parse(source)
    assert sorted(line for line, _ in _const_writes(tree, "geometry")) == [1, 2, 3, 4, 10]
    assert sorted(line for line, _ in _const_writes(tree, "cli")) == [1, 2, 3, 4, 8, 10]


def _sample_lists(tree):
    """(line, form) of each `stack_points` call, and of each `list(...)` or
    `tuple(...)` of, or loop or comprehension over, a name in SAMPLE_NAMES."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _name(node.func)
            if name == "stack_points":
                yield node.lineno, name
            elif name in ("list", "tuple") and node.args and _name(node.args[0]) in SAMPLE_NAMES:
                yield node.lineno, f"{name}(sample)"
        elif isinstance(node, (ast.For, ast.comprehension)):
            if isinstance(node.iter, ast.Name) and node.iter.id in SAMPLE_NAMES:
                yield getattr(node, "lineno", node.iter.lineno), "iterates sample"


@pytest.mark.parametrize("module", sorted(set(ALL_MODULES) - BATCHING_MODULES))
def test_a_sample_is_one_point(module):
    found = sorted(_sample_lists(_tree(module)))
    assert not found, f"{module}.py builds a batch or lists a sample at {found}"


def test_sample_guard_catches_each_form():
    source = (
        "batch = stack_points(sample)\n"
        "batch = geometry.stack_points(pts)\n"
        "sample = list(sample)\n"
        "pts = tuple(points)\n"
        "coords = [p.coords for p in sample]\n"
        "for p in points:\n"
        "    pass\n"
        "batch = as_batch(sample)\n"
        "n = len(sample.coords)\n"
    )
    assert sorted(line for line, _ in _sample_lists(ast.parse(source))) == [1, 2, 3, 4, 5, 6]


# Position of `inputs` among the positional arguments of each procedure type.
INPUTS_POSITION = {"DerivedField": 5, "Connection": 3}


def _undeclared_inputs(tree):
    """(line, name) of each `DerivedField(...)` or `Connection(...)` call that
    passes no `inputs`, by keyword or by position."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _name(node.func) in INPUTS_POSITION:
            name = _name(node.func)
            if (not any(k.arg == "inputs" for k in node.keywords)
                    and len(node.args) <= INPUTS_POSITION[name]):
                yield node.lineno, name


@pytest.mark.parametrize("module", ALL_MODULES)
def test_every_procedure_declares_inputs(module):
    found = sorted(_undeclared_inputs(_tree(module)))
    assert not found, f"{module}.py builds a procedure that declares no inputs at {found}"


def test_inputs_guard_catches_a_missing_declaration():
    source = (
        "eta = DerivedField(chart, 0, 2, eta_fn, sym='symmetric')\n"
        "K = geometry.DerivedField(chart, 1, 1, K_fn)\n"
        "flat = Connection(chart, fn, provenance='flat')\n"
        "ok = DerivedField(chart, 0, 2, eta_fn, inputs=(g,))\n"
        "ok = DerivedField(chart, 1, 0, fn, None, (X, Y))\n"
        "ok = Connection(chart, fn, 'canonical', (P,))\n"
    )
    assert sorted(_undeclared_inputs(ast.parse(source))) == [
        (1, "DerivedField"), (2, "DerivedField"), (3, "Connection")]


def _reductions(tree, module):
    """(line, form) of each argmax or argmin, and of each dict with a
    `"point"` key (a display or a `dict(point=...)` call), outside REDUCERS."""
    for top in tree.body:
        if (module, getattr(top, "name", None)) in REDUCERS:
            continue
        for node in ast.walk(top):
            if isinstance(node, (ast.Name, ast.Attribute)) and _name(node) in ARG_EXTREMA:
                yield node.lineno, _name(node)
            elif isinstance(node, ast.Dict) and any(
                    isinstance(k, ast.Constant) and k.value == "point" for k in node.keys):
                yield node.lineno, "witness dict"
            elif (isinstance(node, ast.Call) and _name(node.func) == "dict"
                  and any(k.arg == "point" for k in node.keywords)):
                yield node.lineno, "witness dict"


@pytest.mark.parametrize("module", ALL_MODULES)
def test_one_reducer_builds_every_witness(module):
    found = sorted(_reductions(_tree(module), module))
    assert not found, f"{module}.py reduces per-point arrays outside reduce_points at {found}"


def test_reducer_guard_catches_each_form():
    """The guard flags the per-suite witness code that `reduce_points`
    replaced: an argmax over points, a witness dict, `dict(point=...)`."""
    source = (
        "i = int(np.argmax(defects))\n"
        "wit = [{'point': batch.coords[i].tolist(), 'defect': float(defects[i])}]\n"
        "j = res.argmin()\n"
        "w = dict(point=coords, residual=val)\n"
        "k = argmax(x)\n"
        "row = {'name': name, 'witnesses': []}\n"
        "def reduce_points(arrays):\n"
        "    return {'point': int(np.argmax(arrays))}\n"
    )
    tree = ast.parse(source)
    assert sorted(line for line, _ in _reductions(tree, "cli")) == [1, 2, 3, 4, 5, 8, 8]
    assert sorted(line for line, _ in _reductions(tree, "geometry")) == [1, 2, 3, 4, 5]


def _evaluator_builds(tree):
    """(line, name) of each call or import of a name in EVALUATORS."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _name(node.func) in EVALUATORS:
            yield node.lineno, _name(node.func)
        elif isinstance(node, ast.alias) and node.name in EVALUATORS:
            yield node.lineno, node.name


@pytest.mark.parametrize("module", [m for m in ALL_MODULES if m != "geometry"])
def test_only_geometry_compiles_components(module):
    found = sorted(_evaluator_builds(_tree(module)))
    assert not found, f"{module}.py builds an expression evaluator at {found}"


def test_evaluator_guard_catches_each_form():
    source = (
        "tape = Tape(trees, shape, dim)\n"
        "table = geometry.RecentringTable(terms, shape, dim)\n"
        "ev = compile_components(trees, shape, dim)\n"
        "from .geometry import Tape as T\n"
        "out = self.tape.run(coords, ctx)\n"
        "jets = eval_expr(e, coords, order)\n"
    )
    assert sorted(line for line, _ in _evaluator_builds(ast.parse(source))) == [1, 2, 3, 4]


def _long_einsums(tree):
    """(line, operands) of each `einsum` call given more than two operands;
    operands passed with `*` count as more."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _name(node.func) == "einsum":
            operands = len(node.args) - 1
            if operands > 2 or any(isinstance(a, ast.Starred) for a in node.args):
                yield node.lineno, operands


@pytest.mark.parametrize("module", ALL_MODULES)
def test_every_einsum_takes_at_most_two_operands(module):
    found = sorted(_long_einsums(_tree(module)))
    assert not found, f"{module}.py calls einsum on more than two operands at {found}"


def test_einsum_guard_catches_each_form():
    source = (
        "a = np.einsum('ij,jk,kl->il', x, y, z)\n"
        "b = einsum('i,i,i->', x, y, z)\n"
        "c = np.einsum(subscripts, *operands)\n"
        "d = np.einsum('ij,jk->ik', x, y)\n"
        "e = x @ y @ z\n"
    )
    assert sorted(_long_einsums(ast.parse(source))) == [(1, 3), (2, 3), (3, 1)]


def _bound_names(body):
    """The names the statements `body` bind at module level, through the
    bodies of their `if`, `try` and `with` blocks."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from ((a.asname or a.name).split(".")[0] for a in node.names)
        if isinstance(node, (ast.If, ast.Try, ast.With, ast.ExceptHandler)):
            for block in ("body", "orelse", "finalbody", "handlers"):
                yield from _bound_names(getattr(node, block, []))


def _stale_exports(tree):
    """(line, name) of each `__all__` entry the module does not bind, and of
    each entry after its first."""
    bound, listed = set(_bound_names(tree.body)), set()
    for node in tree.body:
        targets = getattr(node, "targets", [getattr(node, "target", None)])
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            continue
        for entry in ast.walk(node.value):
            if isinstance(entry, ast.Constant) and isinstance(entry.value, str):
                if entry.value not in bound or entry.value in listed:
                    yield entry.lineno, entry.value
                listed.add(entry.value)


@pytest.mark.parametrize("module", ALL_MODULES)
def test_every_export_is_defined_once(module):
    found = sorted(_stale_exports(_tree(module)))
    assert not found, f"{module}.py exports names it does not define, or twice, at {found}"


def test_export_guard_catches_each_form():
    source = (
        "from .geometry import tdot, Chart as C\n"
        "import numpy as np\n"
        "X = 1\n"
        "def f(): pass\n"
        "class K: pass\n"
        "try:\n"
        "    from .jets import context\n"
        "except ImportError:\n"
        "    fallback = None\n"
        "__all__ = ['tdot', 'C', 'np', 'X', 'f', 'K', 'context', 'fallback',\n"
        "           'gone', 'Chart']\n"
        "__all__ += ['f', 'mc_form']\n"
    )
    assert sorted(_stale_exports(ast.parse(source))) == [
        (11, "Chart"), (11, "gone"), (12, "f"), (12, "mc_form")]
