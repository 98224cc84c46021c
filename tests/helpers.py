"""Shared test-side constructions (not part of the library)."""

import gc
import json
import weakref
from collections import Counter

import numpy as np

import paraherm
from paraherm import geometry
from paraherm.cli import SUITES
from paraherm.connections import Connection, check_adapted
from paraherm.deformations import FluxReport, extract_fluxes
from paraherm.geometry import as_batch, constant_jets, reduce_points, tdot


def shear_adapted_connection(S, scale=0.35):
    """A second adapted connection, distinct from the canonical one:

    nabla' = nabla^c + E,  E(X)Y = eta(u-, X) [eta(u-, Y) v+ - eta(v+, Y) u-]

    for constant-coefficient u- in Gamma(T-), v+ in Gamma(T+).  E preserves
    both eigenbundles, is eta-antisymmetric in its last two slots, and is
    symmetric on pure eigenbundle pairs; all four adapted-connection
    conditions then hold on both sides, for any valid structure.
    """
    chart = S.chart
    u = np.zeros(chart.dim)
    u[chart.dim - 1] = 1.0
    v = np.zeros(chart.dim)
    v[0] = 1.0

    def fn(point, order):
        g0 = S.canonical.christoffels.at(point, order)
        eta, Pp, Pm = (f.at(point, order) for f in (S.eta, S.P_plus, S.P_minus))
        uc = tdot(Pm, constant_jets(eta.ctx, u), ([1], [0]))
        vc = tdot(Pp, constant_jets(eta.ctx, v), ([1], [0]))
        eta_u = tdot(eta, uc, ([0], [0]))
        eta_v = tdot(eta, vc, ([0], [0]))
        # E[k, i, j] = eta_u[i] (eta_u[j] vc[k] - eta_v[j] uc[k])
        outer = lambda x, y, z: tdot(x, tdot(y, z, ([], [])), ([], []))  # noqa: E731
        E = outer(vc, eta_u, eta_u) - outer(uc, eta_u, eta_v)
        return g0 + E * scale

    return Connection(chart, fn, provenance="user_supplied")


# The witness rules the `adapted` and Courant suites declare.
ADAPTED_RULE = SUITES["adapted"].witness
COURANT_RULE = SUITES["courant_plus"].witness


def flux_report(T, point):
    """The `FluxReport` of one point, read from `extract_fluxes`' arrays."""
    batch = as_batch(point)
    return FluxReport.at(batch, *extract_fluxes(T, batch), 0)


def reduce_adapted(C, S, side, sample, tol=1e-9):
    """`check_adapted` reduced as the `adapted` suite reduces it: the
    `Reduction`, and the maximum of each condition by its number."""
    arrays = check_adapted(C, S, side, sample)
    red = reduce_points(arrays, tol, as_batch(sample).coords, witness=ADAPTED_RULE)
    return red, {c: red.maxima[f"{side}_cond{c}"] for c in range(1, 5)}


def reduce_courant(arrays, sample, tol=1e-9, limits=None):
    """`courant_axiom_suite`'s arrays reduced as the Courant suites reduce
    them, every axiom a gate at `tol` unless `limits` says otherwise."""
    return reduce_points(arrays, tol, as_batch(sample).coords, limits, COURANT_RULE)


def count_calls(monkeypatch, runs=None):
    """Count `geometry.tdot` calls (in every module that imported it), those
    of them with an all-zero operand (deg < 0), the `+` and `-` of two jet
    arrays with an all-zero operand and `Field.at` calls (both subclasses'
    own methods), as "tdot", "zero tdot", "zero +-" and "Field.at"; with a
    Counter `runs`, also count into it each field's evaluations, the calls
    its memo does not serve."""
    counts = Counter()
    tdot, combine = geometry.tdot, geometry.JetArray._combine

    def counted_tdot(a, b, axes):
        counts["tdot"] += 1
        counts["zero tdot"] += a.deg < 0 or b.deg < 0
        return tdot(a, b, axes)

    def counted_combine(self, other, kernel):
        counts["zero +-"] += isinstance(other, geometry.JetArray) and min(self.deg, other.deg) < 0
        return combine(self, other, kernel)

    for module in vars(paraherm).values():
        if getattr(module, "tdot", None) is tdot:
            monkeypatch.setattr(module, "tdot", counted_tdot)
    monkeypatch.setattr(geometry.JetArray, "_combine", counted_combine)
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


def strict_json(text):
    """`text` parsed as strict JSON: a NaN, Infinity or -Infinity token,
    which `json` writes for non-finite floats, raises ValueError."""
    def reject(token):
        raise ValueError(f"not strict JSON: {token}")
    return json.loads(text, parse_constant=reject)


def assert_freed_without_gc(make):
    """Call `make()`, which builds objects and returns some of them, with
    the cyclic collector off, and assert that each returned object is freed
    as soon as the returned sequence is dropped: by reference counting
    alone, so no reference cycle holds it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        objs = make()
        refs = [weakref.ref(obj) for obj in objs]
        del objs
        alive = [type(ref()).__name__ for ref in refs if ref() is not None]
    finally:
        if enabled:
            gc.enable()
    assert not alive, f"held by a reference cycle: {alive}"
