"""Seeded random polynomial fields for identity testing and CLI suites.

Coefficients are small dyadic rationals, so generated expressions print to
exact decimals (round-trip safe) and evaluate without avoidable rounding.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .expr import Add, Const, Coord, Mul, Pow
from .geometry import TensorField

__all__ = [
    "random_poly", "random_vector_field", "random_form", "random_bivector",
    "random_metric_perturbation",
]


def random_poly(rng, nvars, degree=2, terms=3, vars_subset=None):
    """Random polynomial AST with dyadic coefficients."""
    pool = list(range(nvars)) if vars_subset is None else list(vars_subset)
    node = Const(Fraction(int(rng.integers(-4, 5)), 4))
    for _ in range(int(terms)):
        coef = Const(Fraction(int(rng.integers(-8, 9)), 4))
        mono = coef
        # The stream of `rng.choice(pool, size)`, without its overhead.
        for i in rng.integers(0, len(pool), size=int(rng.integers(1, degree + 1))):
            v, p = int(pool[i]), int(rng.integers(1, 3))
            factor = Coord(v) if p == 1 else Pow(Coord(v), p)
            mono = Mul(mono, factor)
        node = Add(node, mono)
    return node


def random_vector_field(chart, rng, degree=2, terms=2, vars_subset=None):
    comps = np.array(
        [random_poly(rng, chart.dim, degree, terms, vars_subset)
         for _ in range(chart.dim)],
        dtype=object,
    )
    return TensorField(chart, 1, 0, comps)


def random_form(chart, rng, k=2, degree=2, terms=2, vars_subset=None):
    """Random antisymmetric (0,k) field."""
    dim = chart.dim
    comps = np.empty((dim,) * k, dtype=object)
    comps[...] = Const(Fraction(0))
    if k == 1:
        for i in range(dim):
            comps[i] = random_poly(rng, dim, degree, terms, vars_subset)
        return TensorField(chart, 0, 1, comps, sym="antisymmetric")
    if k != 2:
        raise ValueError("random_form supports k in (1, 2)")
    for i in range(dim):
        for j in range(i + 1, dim):
            poly = random_poly(rng, dim, degree, terms, vars_subset)
            comps[i, j] = poly
            comps[j, i] = Mul(Const(Fraction(-1)), poly)
    return TensorField(chart, 0, 2, comps, sym="antisymmetric")


def random_bivector(chart, rng, degree=2, terms=2, vars_subset=None):
    dim = chart.dim
    comps = np.empty((dim, dim), dtype=object)
    comps[...] = Const(Fraction(0))
    for i in range(dim):
        for j in range(i + 1, dim):
            poly = random_poly(rng, dim, degree, terms, vars_subset)
            comps[i, j] = poly
            comps[j, i] = Mul(Const(Fraction(-1)), poly)
    return TensorField(chart, 2, 0, comps, sym="antisymmetric")


def random_metric_perturbation(chart, rng, base, scale=Fraction(1, 8), degree=2):
    """Symmetric perturbation of a constant base metric, kept nondegenerate
    by the small dyadic amplitude."""
    dim = chart.dim
    comps = np.empty((dim, dim), dtype=object)
    for i in range(dim):
        for j in range(i, dim):
            poly = random_poly(rng, dim, degree, terms=2)
            entry = Add(Const(Fraction(base[i][j] if isinstance(base, list) else base[i, j])),
                        Mul(Const(scale), poly))
            comps[i, j] = entry
            comps[j, i] = entry
    return TensorField(chart, 0, 2, comps, sym="symmetric")
