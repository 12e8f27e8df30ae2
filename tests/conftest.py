from types import SimpleNamespace

import numpy as np
import pytest

from gexpect import (
    SpaceTimeGrid,
    VolatilityBand,
    make_grid,
    parse_scalar,
    parse_tri,
    zero_generator,
)

# Expressions used across the suite: 8 reference payoffs spanning odd/even,
# polynomial growth and bounded-smooth shapes.
CATALOG_TEXTS = (
    "x",
    "x^2",
    "-(x^2)",
    "x^3",
    "x^4",
    "tanh(x)",
    "exp(tanh(x))",
    "sin(x)",
)


@pytest.fixture(scope="session")
def band():
    return VolatilityBand(1.0, 2.0)


@pytest.fixture(scope="session")
def catalog():
    return {text: parse_scalar(text) for text in CATALOG_TEXTS}


@pytest.fixture(scope="session")
def default_grid(band):
    # 401 nodes over [-8.5, 8.5], CFL-matched steps; x = 0 is a node.
    return make_grid(band, 1.0, nx=401, half_width=8.5)


def fd_derivatives(fn, x: float, h: float = 1e-4):
    """Central finite differences, the independent check for the jets."""
    up, mid, down = fn(x + h), fn(x), fn(x - h)
    return (up - down) / (2.0 * h), (up - 2.0 * mid + down) / (h * h)


def dense_scan_min(band, gen, h, t, y, z, lo=-1e3, hi=1e3, n=100_000, zooms=3):
    """Sampling oracle for the A-infimum: coarse scan plus window zooms."""
    from gexpect import condition_gap

    best, best_a = np.inf, 0.0
    for _ in range(zooms):
        grid_a = np.linspace(lo, hi, n)
        gaps = condition_gap(band, gen, h, t, y, z, grid_a)
        k = int(np.argmin(gaps))
        best, best_a = float(gaps[k]), float(grid_a[k])
        spacing = (hi - lo) / (n - 1)
        lo, hi = best_a - 2.0 * spacing, best_a + 2.0 * spacing
        n = 1001
    return best, best_a


def assert_series_nonincreasing(series: np.ndarray, slack: float = 1e-12):
    steps = np.diff(series)
    assert steps.size == 0 or float(np.max(steps)) <= slack


def grid_with_steps(band, nx, nt, theta):
    """The grid on [-1, 1] with exactly ``nt`` steps at CFL fraction ``theta``."""
    dx = 2.0 / (nx - 1)
    return SpaceTimeGrid(nt * theta * dx * dx / band.sigma_max_sq, -1.0, 1.0, nx, nt)


def generator(g, f):
    """The drivers (g, f), all a solver reads, with no declared bound; the literal zero pair is ``zero_generator()``.

    For drivers with no Lipschitz bound on the box ``GeneratorPair`` samples,
    such as 1/(y - 1), y*y or exp(y), which it refuses.
    """
    if (g, f) == ("0", "0"):
        return zero_generator()
    return SimpleNamespace(g=parse_tri(g), f=parse_tri(f))
