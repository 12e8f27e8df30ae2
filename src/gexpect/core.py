"""Foundational value types: the volatility band, the sublinear generator
function it induces, and the space-time grid used by every solver.

The band ``[sigma_min_sq, sigma_max_sq]`` is the (1-d) uncertainty set of
instantaneous variances.  Its generator

    G(a) = (sigma_max_sq * max(a, 0) - sigma_min_sq * max(-a, 0)) / 2
         = sup over s2 in band of s2 * a / 2

drives the nonlinear heat equation and everything built on top of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "VolatilityBand",
    "SpaceTimeGrid",
    "CflError",
    "g_eval",
    "cfl_time_steps",
    "sub_steps",
    "make_grid",
]

# Hard stability/monotonicity bound for the explicit scheme: dt <= theta * dx^2 / sigma_max_sq.
MAX_CFL_THETA = 0.5
DEFAULT_CFL_THETA = 0.45


class CflError(ValueError):
    """Time step too large for the spatial resolution and band."""


@dataclass(frozen=True)
class VolatilityBand:
    """Interval of variances [sigma_min_sq, sigma_max_sq], both > 0."""

    sigma_min_sq: float
    sigma_max_sq: float

    def __post_init__(self) -> None:
        if not (0.0 < self.sigma_min_sq <= self.sigma_max_sq):
            raise ValueError(
                f"band requires 0 < sigma_min_sq <= sigma_max_sq, "
                f"got ({self.sigma_min_sq}, {self.sigma_max_sq})"
            )

    @property
    def sigma_max(self) -> float:
        return math.sqrt(self.sigma_max_sq)


def g_eval(band: VolatilityBand, a):
    """Generator G(a) = (sigma_max_sq * a+ - sigma_min_sq * a-) / 2.

    Total, monotone, sublinear, positively homogeneous.  Accepts a scalar
    or an ndarray and returns the same shape.
    """
    return 0.5 * (
        band.sigma_max_sq * np.maximum(a, 0.0)
        - band.sigma_min_sq * np.maximum(-a, 0.0)
    )


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Uniform grid on [0, horizon] x [x_min, x_max].

    ``nx`` counts nodes (spacing (x_max - x_min)/(nx - 1)); ``nt`` counts
    time steps (spacing horizon/nt).  The domain must straddle 0.
    """

    horizon: float
    x_min: float
    x_max: float
    nx: int
    nt: int

    def __post_init__(self) -> None:
        # horizon first: a default domain derived from a bad horizon is empty
        if not (self.horizon > 0.0):
            raise ValueError(f"horizon must be > 0, got {self.horizon}")
        if self.nx < 3:
            raise ValueError(f"nx must be >= 3, got {self.nx}")
        if self.nt < 1:
            raise ValueError(f"nt must be >= 1, got {self.nt}")
        if not (self.x_min < 0.0 < self.x_max):
            raise ValueError(f"domain must straddle 0, got [{self.x_min}, {self.x_max}]")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def dt(self) -> float:
        return self.horizon / self.nt

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    @property
    def center_index(self) -> int:
        """Index of the node nearest x = 0."""
        return self.node_index(0.0)

    def node_index(self, x):
        """Index of the node nearest x (ties to even), clamped to [0, nx - 1].

        An array x gives an int array; non-finite x raises ValueError.
        """
        x = np.asarray(x, dtype=float)
        if not np.isfinite(x).all():
            raise ValueError(f"node_index needs finite x, got {x}")
        j = np.clip(np.rint((x - self.x_min) / self.dx), 0, self.nx - 1).astype(int)
        return j if j.ndim else int(j)

    def check_cfl(self, band: VolatilityBand, theta: float = MAX_CFL_THETA) -> None:
        """Raise CflError unless dt <= theta * dx^2 / sigma_max_sq."""
        limit = theta * self.dx * self.dx / band.sigma_max_sq
        if self.dt > limit * (1.0 + 1e-12):
            raise CflError(
                f"dt = {self.dt:.3e} exceeds CFL limit {limit:.3e} "
                f"(dx = {self.dx:.3e}, sigma_max_sq = {band.sigma_max_sq})"
            )


def cfl_time_steps(
    band: VolatilityBand, horizon: float, dx: float, theta: float = DEFAULT_CFL_THETA
) -> int:
    """Smallest step count satisfying dt <= theta * dx^2 / sigma_max_sq."""
    if not (0.0 < theta <= MAX_CFL_THETA):
        raise ValueError(f"theta must lie in (0, {MAX_CFL_THETA}], got {theta}")
    return max(1, math.ceil(horizon * band.sigma_max_sq / (theta * dx * dx)))


def sub_steps(span: float, dt: float) -> int:
    """Fewest steps over ``span`` no longer than ``dt``; multiples of dt to 1e-9 keep their count."""
    return max(1, math.ceil(span / dt * (1.0 - 1e-9)))


def make_grid(
    band: VolatilityBand,
    horizon: float,
    nx: int = 401,
    half_width: float | None = None,
    theta: float = DEFAULT_CFL_THETA,
) -> SpaceTimeGrid:
    """Symmetric grid with x = 0 exactly on a node and CFL-matched nt.

    ``half_width`` defaults to 6 standard deviations of the widest
    diffusion over the horizon; ``nx`` is bumped to odd so the center
    node sits at 0.
    """
    if half_width is None:
        half_width = 6.0 * band.sigma_max * math.sqrt(horizon)
    if nx % 2 == 0:
        nx += 1
    # nt = 1 stands in until the grid has checked horizon and nx, which dx needs
    grid = SpaceTimeGrid(horizon=horizon, x_min=-half_width, x_max=half_width, nx=nx, nt=1)
    return replace(grid, nt=cfl_time_steps(band, horizon, grid.dx, theta))
