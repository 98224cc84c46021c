"""A field that an object stores is built once by that object, and its
procedure closes over the fields it reads, never over the object: so a run's
model, its shear and their fields are freed by reference counting alone, as
soon as the run drops them, and no reference cycle keeps them (and their
whole-sample jets) alive until the cyclic collector runs."""

import json
from pathlib import Path

import pytest

from paraherm import cli
from paraherm.deformations import b_transform, extract_fluxes
from paraherm.geometry import TensorField, stack_points
from paraherm.models import build_flat, build_tm, sphere_base
from paraherm.parastructure import classify
from conftest import sample_points
from helpers import assert_freed_without_gc

RUNSPECS = Path(__file__).resolve().parent.parent / "runspecs"


def _run_suites(runspec):
    """A shipped runspec's context after its pre-flight and every suite, and
    the objects to free: its structure, its shear (where it has a b-field)
    and a pool field."""
    ctx = cli._RunContext(json.loads((RUNSPECS / runspec).read_text()))
    ctx.check_domain()
    for name in ctx.suites:
        cli.SUITES[name](ctx)
    shear = [ctx.transformation] if ctx.b_field is not None else []
    return [ctx.model.S, *shear, ctx.pool[0]]


@pytest.mark.parametrize("runspec", ["flat.json", "tangent_bundle.json",
                                     "drinfeld_double.json"])
def test_a_run_is_freed_without_the_collector(runspec):
    assert_freed_without_gc(lambda: _run_suites(runspec))


def _classified_sphere():
    """The sphere's tangent bundle after `classify`, which builds its
    Nijenhuis tensor and connections; its base metric runs on a `Tape`."""
    g, coords, ok = sphere_base()
    model = build_tm(g, coords, point_ok=ok)
    classify(model.S, stack_points(sample_points(model, 3, 5)))
    return [model, model.S, model.S.nijenhuis_tensor, model.g.tape]


def _fluxes_of_a_flat_shear():
    """A flat shear after `extract_fluxes`, which reads the base structure's
    integrability gates and the shear's fields."""
    model = build_flat(2)
    b = TensorField(model.chart, 0, 2, [[0, "xt1", 0, 0], ["-xt1", 0, 0, 0],
                                        [0, 0, 0, 0], [0, 0, 0, 0]], sym="antisymmetric")
    batch = stack_points(sample_points(model, 3, 6))
    T = b_transform(model.S, b, sample=batch)
    extract_fluxes(T, batch)
    return [model.S, T, T.e_B, b]


@pytest.mark.parametrize("make", [_classified_sphere, _fluxes_of_a_flat_shear])
def test_library_objects_are_freed_without_the_collector(make):
    assert_freed_without_gc(make)
