"""Per-layer tracing of paraherm from outside the program.

`Tracer.install()` wraps the public entry points of each layer (the names in
`Tracer.install`) and `uninstall()` puts the originals back; nothing under
`src/` is edited.  A function that other modules imported by name (`from
.geometry import tdot`) is replaced in every module that holds it.

Each wrapper is a span: it pushes a frame on its thread's stack and, on
exit, adds its duration to its layer's self time (minus the frames nested in
it) and, for the outermost frame of a layer, to that layer's inclusive time.
Everything is folded into per-thread accumulators as it happens, so memory
does not grow with the number of spans.  Jet operations (about a million per
run) are too many for frames: they only bump counters and add their time to
`jets` busy time and to the enclosing frame's nested time.

Threads: the main thread times spans with the caller's clock (wall time with
the reference-kernel pauses removed).  `_pmap` worker threads time theirs
with their own user CPU time, because under the interpreter lock a worker's
wall time is mostly waiting for the other workers.  A worker's root span
inherits the layers open in the thread that called `_pmap`, so it hangs
under that suite; the `_pmap` frame keeps as its self time the part of its
wall time in which no worker was executing (waiting on locks, handing the
lock over, starting threads), which is `cli.pmap_share`.
"""

from __future__ import annotations

import functools
import resource
import sys
import threading
from collections import Counter

import numpy as np

LAYERS = ("jets", "expr", "geometry", "connections", "parastructure",
          "brackets", "deformations", "models", "cli")
SUITES = ("validate", "classify", "adapted", "courant_plus", "courant_minus",
          "courant_d_full", "jacobi_defect_witness", "section_condition",
          "deform", "fluxes")
PMAP = "cli.pmap"
_KIND_COUNTERS = ("jets.mul_zero", "jets.mul_const", "jets.mul_full")
_MARK = "__perfbench_original__"


def layer_of(fn, default):
    """The paraherm layer whose module defined `fn`."""
    mod = getattr(fn, "__module__", None) or ""
    parts = mod.split(".")
    if len(parts) == 2 and parts[0] == "paraherm" and parts[1] in LAYERS:
        return parts[1]
    return default


_count_nonzero = np.count_nonzero


def _user_cpu():
    """User CPU seconds of the calling thread: time it executed, not time it
    spent in the kernel handing the interpreter lock back and forth."""
    return resource.getrusage(resource.RUSAGE_THREAD).ru_utime


def _operand_kind(x):
    """0 for an all-zero operand, 1 for a constant one, 2 otherwise; None if
    the operand is neither a jet nor a number (the call returns NotImplemented)."""
    coeffs = getattr(x, "coeffs", None)
    if coeffs is not None:
        nonzero = _count_nonzero(coeffs)
        if not nonzero:
            return 0
        return 1 if nonzero == 1 and coeffs[0] else 2
    if isinstance(x, (int, float, np.integer, np.floating)):
        return 0 if x == 0 else 1
    return None


class _ThreadState:
    """Span stack and accumulators of one thread."""

    def __init__(self, clock):
        self.clock = clock
        self.stack = []            # frames: [layer, start, nested time]
        self.depth = Counter()     # open frames per layer, inherited ones included
        self.incl_start = {}
        self.self_t = Counter()
        self.incl_t = Counter()
        self.counts = Counter()
        self.jet_busy = 0.0
        self.in_jet = False

    def enter(self, layer):
        now = self.clock()
        if not self.depth[layer]:
            self.incl_start[layer] = now
        self.depth[layer] += 1
        self.stack.append([layer, now, 0.0])

    def leave(self):
        now = self.clock()
        layer, start, nested = self.stack.pop()
        d = now - start
        self.self_t[layer] += d - nested
        if self.stack:
            self.stack[-1][2] += d
        self.depth[layer] -= 1
        if not self.depth[layer]:
            self.incl_t[layer] += now - self.incl_start[layer]
        return d


class Tracer:
    """Installs the layer wrappers and turns what they saw into shares and counts."""

    def __init__(self, clock):
        self._main_clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._patches = []         # (container, key, original)
        self._seen = {"connections.gamma": set(), "parastructure.bundle": set()}
        self._modules = {}
        self.suite_s = Counter()
        self.missing = []

    # -- per-thread state ------------------------------------------------------

    def state(self):
        try:
            return self._local.st
        except AttributeError:
            main = threading.current_thread() is threading.main_thread()
            st = _ThreadState(self._main_clock if main else _user_cpu)
            with self._lock:
                self._states.append(st)
            self._local.st = st
            return st

    # -- wrappers --------------------------------------------------------------

    def _span(self, layer, count=None):
        def make(orig):
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                st = self.state()
                if count:
                    st.counts[count] += 1
                st.enter(layer)
                try:
                    return orig(*args, **kwargs)
                finally:
                    st.leave()
            return wrapper
        return make

    def _cached_span(self, layer, prefix):
        """Span for a cached per-point lookup; a miss is a key not seen before."""
        seen = self._seen[prefix]

        def make(orig):
            @functools.wraps(orig)
            def wrapper(obj, point, order, *args, **kwargs):
                st = self.state()
                st.counts[prefix + "_calls"] += 1
                key = (obj, getattr(point, "key", id(point)), order)
                if key not in seen:
                    seen.add(key)
                    st.counts[prefix + "_misses"] += 1
                st.enter(layer)
                try:
                    return orig(obj, point, order, *args, **kwargs)
                finally:
                    st.leave()
            return wrapper
        return make

    def _jet_op(self, count, classify=False):
        def make(orig):
            @functools.wraps(orig)
            def wrapper(a, b):
                st = self.state()
                if classify:
                    kind = _operand_kind(b)
                    if kind is None:
                        return orig(a, b)
                    if kind:
                        kind = min(kind, _operand_kind(a))
                    st.counts[_KIND_COUNTERS[kind]] += 1
                st.counts[count] += 1
                if st.in_jet:
                    return orig(a, b)
                st.in_jet = True
                t0 = st.clock()
                try:
                    return orig(a, b)
                finally:
                    d = st.clock() - t0
                    st.in_jet = False
                    st.jet_busy += d
                    if st.stack:
                        st.stack[-1][2] += d
            return wrapper
        return make

    def _field_at(self, default):
        def make(orig):
            @functools.wraps(orig)
            def wrapper(field, *args, **kwargs):
                st = self.state()
                st.counts["geometry.field_at_calls"] += 1
                st.enter(layer_of(getattr(field, "fn", None), default))
                try:
                    return orig(field, *args, **kwargs)
                finally:
                    st.leave()
            return wrapper
        return make

    def _scalar_jet(self, orig):
        @functools.wraps(orig)
        def wrapper(scalar, *args, **kwargs):
            st = self.state()
            source = scalar.source
            if callable(source):
                layer = layer_of(source, "geometry")
            else:
                layer = "expr"
                st.counts["expr.eval_calls"] += 1
            st.enter(layer)
            try:
                return orig(scalar, *args, **kwargs)
            finally:
                st.leave()
        return wrapper

    def _suite(self, name):
        def make(orig):
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                st = self.state()
                st.enter("cli")
                try:
                    return orig(*args, **kwargs)
                finally:
                    self.suite_s[name] += st.leave()
            return wrapper
        return make

    def _pmap(self, orig):
        @functools.wraps(orig)
        def wrapper(fn, items, *args, **kwargs):
            st = self.state()
            inherited = [layer for layer, n in st.depth.items() if n]
            root_layer = layer_of(fn, "cli")
            worker_s = []

            def root(item):
                ws = self.state()
                if ws is st:
                    ws.enter(root_layer)
                    try:
                        return fn(item)
                    finally:
                        ws.leave()
                for layer in inherited:
                    ws.depth[layer] += 1
                ws.enter(root_layer)
                try:
                    return fn(item)
                finally:
                    worker_s.append(ws.leave())
                    for layer in inherited:
                        ws.depth[layer] -= 1

            st.enter(PMAP)
            try:
                return orig(root, items, *args, **kwargs)
            finally:
                st.stack[-1][2] += sum(worker_s)
                st.leave()
        return wrapper

    # -- install / uninstall ---------------------------------------------------

    def _set(self, container, key, orig, make):
        wrapper = make(orig)
        setattr(wrapper, _MARK, orig)
        self._patches.append((container, key, orig))
        if isinstance(container, dict):
            container[key] = wrapper
        else:
            setattr(container, key, wrapper)

    def _method(self, module, cls_name, name, make):
        cls = getattr(self._modules.get("paraherm." + module), cls_name, None)
        orig = vars(cls).get(name) if cls is not None else None
        if orig is None:
            self.missing.append(f"{module}.{cls_name}.{name}")
            return
        self._set(cls, name, orig, make)

    def _function(self, module, name, make):
        """Wrap `module.name` and every module-level binding of the same object."""
        orig = getattr(self._modules.get("paraherm." + module), name, None)
        if orig is None:
            self.missing.append(f"{module}.{name}")
            return
        wrapper = make(orig)
        setattr(wrapper, _MARK, orig)
        for mod in self._modules.values():
            if vars(mod).get(name) is orig:
                self._patches.append((mod, name, orig))
                setattr(mod, name, wrapper)

    def install(self):
        self._modules = _paraherm_modules()
        method, func = self._method, self._function

        for name in ("__mul__", "__rmul__"):
            method("jets", "Jet", name, self._jet_op("jets.mul_calls", classify=True))
        for name in ("__add__", "__radd__"):
            method("jets", "Jet", name, self._jet_op("jets.add_calls"))
        method("jets", "Jet", "truncate", self._jet_op("jets.truncate_calls"))
        method("jets", "Jet", "partial", self._jet_op("jets.partial_calls"))

        method("geometry", "ScalarField", "jet", self._scalar_jet)
        method("geometry", "TensorField", "at", self._field_at("geometry"))
        method("geometry", "DerivedField", "at", self._field_at("geometry"))
        func("geometry", "tdot", self._span("geometry", "geometry.tdot_calls"))
        func("geometry", "jets_gradient", self._span("geometry", "geometry.gradient_calls"))
        func("geometry", "invert_matrix_jets", self._span("geometry", "geometry.invert_calls"))

        method("connections", "Connection", "gamma",
               self._cached_span("connections", "connections.gamma"))
        method("parastructure", "ParaHermitianStructure", "at",
               self._cached_span("parastructure", "parastructure.bundle"))
        method("parastructure", "ParaHermitianStructure", "integrability_residual",
               self._span("parastructure", "parastructure.integrability_calls"))

        func("brackets", "jacobi_defect", self._span("brackets", "brackets.jacobi_defect_calls"))
        func("brackets", "courant_axiom_suite", self._span("brackets"))
        func("deformations", "b_transform",
             self._span("deformations", "deformations.b_transform_calls"))
        func("deformations", "extract_fluxes",
             self._span("deformations", "deformations.extract_fluxes_calls"))
        func("deformations", "maurer_cartan_sides", self._span("deformations"))

        suites = getattr(self._modules.get("paraherm.cli"), "SUITES", {})
        for name in SUITES:
            if name in suites:
                self._set(suites, name, suites[name], self._suite(name))
            else:
                self.missing.append(f"cli.SUITES[{name!r}]")
        func("cli", "_pmap", self._pmap)

    def uninstall(self):
        """Restore every original and check that no wrapper is left anywhere."""
        while self._patches:
            container, key, orig = self._patches.pop()
            if isinstance(container, dict):
                container[key] = orig
            else:
                setattr(container, key, orig)
        left = leftover_wrappers()
        if left:
            raise RuntimeError(f"trace wrappers left installed: {left}")

    # -- results ---------------------------------------------------------------

    def metrics(self, wall_s):
        """Per-layer metrics for a traced interval of `wall_s` main-thread seconds."""
        self_t, incl_t, counts = Counter(), Counter(), Counter()
        busy = 0.0
        for st in self._states:
            self_t.update(st.self_t)
            incl_t.update(st.incl_t)
            counts.update(st.counts)
            busy += st.jet_busy
        share = lambda t: max(t, 0.0) / wall_s
        ratio = lambda a, b: counts[a] / counts[b] if counts[b] else 0.0
        m = {
            "jets.mul_calls": counts["jets.mul_calls"],
            "jets.mul_zero_share": ratio("jets.mul_zero", "jets.mul_calls"),
            "jets.mul_const_share": ratio("jets.mul_const", "jets.mul_calls"),
            "jets.add_calls": counts["jets.add_calls"],
            "jets.truncate_calls": counts["jets.truncate_calls"],
            "jets.partial_calls": counts["jets.partial_calls"],
            "jets.busy_share": share(busy),
            "expr.eval_calls": counts["expr.eval_calls"],
            "expr.self_share": share(self_t["expr"]),
            "geometry.field_at_calls": counts["geometry.field_at_calls"],
            "geometry.tdot_calls": counts["geometry.tdot_calls"],
            "geometry.gradient_calls": counts["geometry.gradient_calls"],
            "geometry.invert_calls": counts["geometry.invert_calls"],
            "geometry.self_share": share(self_t["geometry"]),
            "connections.gamma_calls": counts["connections.gamma_calls"],
            "connections.gamma_miss_share": ratio("connections.gamma_misses",
                                                  "connections.gamma_calls"),
            "connections.gamma_entries": len(self._seen["connections.gamma"]),
            "connections.incl_share": share(incl_t["connections"]),
            "parastructure.bundle_calls": counts["parastructure.bundle_calls"],
            "parastructure.bundle_miss_share": ratio("parastructure.bundle_misses",
                                                     "parastructure.bundle_calls"),
            "parastructure.bundle_entries": len(self._seen["parastructure.bundle"]),
            "parastructure.integrability_calls": counts["parastructure.integrability_calls"],
            "parastructure.incl_share": share(incl_t["parastructure"]),
            "brackets.jacobi_defect_calls": counts["brackets.jacobi_defect_calls"],
            "brackets.self_share": share(self_t["brackets"]),
            "brackets.incl_share": share(incl_t["brackets"]),
            "deformations.b_transform_calls": counts["deformations.b_transform_calls"],
            "deformations.extract_fluxes_calls": counts["deformations.extract_fluxes_calls"],
            "deformations.incl_share": share(incl_t["deformations"]),
            "models.self_share": share(self_t["models"]),
            "models.incl_share": share(incl_t["models"]),
        }
        for name in SUITES:
            m[f"cli.suite_share.{name}"] = share(self.suite_s[name])
        m["cli.pmap_share"] = share(self_t[PMAP])
        m["cli.self_share"] = share(self_t["cli"])
        return m


def _paraherm_modules():
    return {name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "paraherm" or name.startswith("paraherm."))}


def leftover_wrappers():
    """Names in paraherm's modules, classes and suite table that are still wrappers."""
    found = []
    for modname, mod in _paraherm_modules().items():
        for name, value in list(vars(mod).items()):
            if hasattr(value, _MARK):
                found.append(f"{modname}.{name}")
            if isinstance(value, type) and value.__module__ == modname:
                found += [f"{modname}.{name}.{k}" for k, v in vars(value).items()
                          if hasattr(v, _MARK)]
            if isinstance(value, dict):
                found += [f"{modname}.{name}[{k!r}]" for k, v in value.items()
                          if hasattr(v, _MARK)]
    return found
