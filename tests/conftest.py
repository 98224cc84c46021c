import numpy as np
import pytest

from paraherm.models import build_flat, build_tm, sphere_base


@pytest.fixture(scope="session")
def flat2():
    return build_flat(2)


@pytest.fixture(scope="session")
def flat1():
    return build_flat(1)


@pytest.fixture(scope="session")
def flat3():
    return build_flat(3)


@pytest.fixture(scope="session")
def sphere_tm():
    return build_tm(*sphere_base())


@pytest.fixture(scope="session")
def curved3_tm():
    """Tangent bundle over a generically curved 3d base (SPD on the unit box)."""
    g = [
        ["1 + 0.25*x1^2 + 0.5*x2", "0.25*x1*x3", "0"],
        ["0.25*x1*x3", "2 + 0.5*x3^2", "0.25*x2"],
        ["0", "0.25*x2", "1 + 0.25*x1"],
    ]
    return build_tm(g, ["x1", "x2", "x3"])


@pytest.fixture(scope="session")
def flatg_tm():
    """Tangent bundle over a flat base with a non-identity constant metric."""
    return build_tm([["1", "0", "0"], ["0", "2", "0"], ["0", "0", "1"]],
                    ["x1", "x2", "x3"])


def sample_points(model, count, seed, box=None):
    rng = np.random.default_rng(seed)
    if box is None:
        box = model.default_box()
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    return [model.chart.point(rng.uniform(lo, hi)) for _ in range(count)]


def sphere_box():
    return [(0.4, 2.7), (-3.0, 3.0), (-1.0, 1.0), (-1.0, 1.0)]


@pytest.fixture(scope="session")
def sphere_pts(sphere_tm):
    return sample_points(sphere_tm, 8, seed=13, box=sphere_box())
