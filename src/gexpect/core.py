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
from functools import cached_property

import numpy as np

__all__ = [
    "VolatilityBand",
    "SpaceTimeGrid",
    "CflError",
    "g_eval",
    "cfl_time_steps",
    "make_grid",
]

# Hard stability/monotonicity bound for the explicit scheme: dt <= theta * dx^2 / sigma_max_sq.
MAX_CFL_THETA = 0.5
DEFAULT_CFL_THETA = 0.45


class CflError(ValueError):
    """Time step too large for the spatial resolution and band."""


@dataclass(frozen=True)
class VolatilityBand:
    """Interval of variances [sigma_min_sq, sigma_max_sq], both > 0 and finite."""

    sigma_min_sq: float
    sigma_max_sq: float

    def __post_init__(self) -> None:
        if not (0.0 < self.sigma_min_sq <= self.sigma_max_sq < math.inf):
            raise ValueError(
                f"band requires 0 < sigma_min_sq <= sigma_max_sq < inf, "
                f"got ({self.sigma_min_sq}, {self.sigma_max_sq})"
            )

    @property
    def sigma_max(self) -> float:
        return math.sqrt(self.sigma_max_sq)


def g_eval(band: VolatilityBand, a):
    """Generator G(a) = (sigma_max_sq * a+ - sigma_min_sq * a-) / 2.

    Total, monotone, sublinear, positively homogeneous.  Accepts a scalar
    or an ndarray and returns the same shape.  The value is the supremum
    0.5 * max(sigma_min_sq * a, sigma_max_sq * a), subnormal a included,
    which has the formula's bits wherever sigma_max_sq * |a| is finite.
    Where only that product overflows, G(a) is still the finite
    (sigma_max_sq / 2) * a+ - (sigma_min_sq / 2) * a-.  No overflow
    warning is raised, also where G(a) itself overflows to inf.
    """
    # From the halved ends nothing overflows early, and a normal result has
    # the formula's bits; a subnormal one is rounded as the formula rounds it.
    # For a < 0 the larger end's product may overflow where G does not; the
    # maximum discards it, so its warning says nothing.
    with np.errstate(over="ignore"):
        g = _g_sup(0.5 * band.sigma_max_sq, 0.5 * band.sigma_min_sq, a)
    small = np.abs(g) < _TINY
    if small.any():
        if np.ndim(g):  # g is a fresh array; the small entries alone are recomputed
            g[small] = 0.5 * _g_sup(band.sigma_max_sq, band.sigma_min_sq, np.asarray(a)[small])
        else:
            g = 0.5 * _g_sup(band.sigma_max_sq, band.sigma_min_sq, a)
    return g


_TINY = np.finfo(float).tiny  # the smallest normal float
_MAX_FLOATS = np.iinfo(np.intp).max // 8  # the most float64 values one numpy array can hold
# the kernel's ufuncs, bound once; they take their output by position, which numpy parses
# faster per call than the out= keyword (np.maximum keeps out=: a third positional is deprecated)
_add, _subtract, _multiply, _divide = np.add, np.subtract, np.multiply, np.divide


def _g_sup(hi, lo, a):
    """max(hi * a, lo * a) + 0, for band ends (or halved band ends) hi >= lo > 0.

    The supremum over the band's two ends, which is G(a) itself for the
    halved ends.  It has the bits of hi * a+ + lo * a-: one of the two
    parts is zero, and adding +0 turns a -0 maximum (at a = -0, or where
    lo * a underflows) into the +0 that sum gives.  For a < 0, hi * a may
    overflow where the result does not.  Halving is exact, so with the
    halved ends this has the bits of halving sigma_max_sq * a+ -
    sigma_min_sq * a- wherever sigma_max_sq * |a| is finite and the result
    is not subnormal.
    """
    return np.maximum(_multiply(hi, a), _multiply(lo, a)) + 0.0


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Uniform grid on [0, horizon] x [x_min, x_max].

    ``nx`` counts nodes (spacing (x_max - x_min)/(nx - 1)); ``nt`` counts
    time steps (spacing horizon/nt); each is a Python or numpy integer, not
    a float or a bool, and the nt + 1 time labels must fit one float64
    array.  The horizon, the two ends and the spacing must be
    finite.  The domain must straddle 0 and x = 0 must be a node (to 1e-9
    dx), since every value "at x = 0" reads it.
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
        _check_count("nx", self.nx, 3)
        _check_count("nt", self.nt, 1)
        if self.nt >= _MAX_FLOATS:  # nt + 1 time labels: more than one float64 array can hold
            raise ValueError(f"nt = {self.nt} needs more time labels than a float64 array can hold")
        for name in ("horizon", "x_min", "x_max", "dx"):  # dx overflows where x_max - x_min does
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.x_min < 0.0 < self.x_max):
            raise ValueError(f"domain must straddle 0, got [{self.x_min}, {self.x_max}]")
        nearest = self.x_min + self.center_index * self.dx
        if abs(nearest) > 1e-9 * self.dx:
            raise ValueError(f"x = 0 is not a grid node (nearest node {nearest!r})")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def dt(self) -> float:
        return self.horizon / self.nt

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    @cached_property
    def times(self) -> np.ndarray:
        """The nt + 1 forward time labels ``np.linspace(0, horizon, nt + 1)``, read-only, built on first use."""
        return _read_only(np.linspace(0.0, self.horizon, self.nt + 1))

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
        j = np.minimum(np.maximum(np.rint((x - self.x_min) / self.dx), 0), self.nx - 1).astype(int)  # np.clip, faster
        return j if j.ndim else int(j)

    def over(self, span: float) -> SpaceTimeGrid:
        """The same x mesh over [0, span], in the fewest steps no longer than dt; span must be finite."""
        if not math.isfinite(span):
            raise ValueError(f"span must be finite, got {span}")
        return replace(self, horizon=span, nt=sub_steps(span, self.dt))

    def check_interval(self, s: float, t: float) -> None:
        """Raise ValueError unless 0 <= s <= t <= horizon + 1e-12 (slack for a rounded t); NaN fails."""
        if not (0.0 <= s <= t <= self.horizon + 1e-12):
            raise ValueError(f"need 0 <= s <= t <= horizon, got s={s}, t={t}, horizon={self.horizon}")

    def check_cfl(self, band: VolatilityBand) -> None:
        """Raise CflError unless dt <= MAX_CFL_THETA * dx^2 / sigma_max_sq."""
        limit = MAX_CFL_THETA * self.dx * self.dx / band.sigma_max_sq
        if self.dt > limit * (1.0 + 1e-12):
            raise CflError(
                f"dt = {self.dt:.3e} exceeds CFL limit {limit:.3e} "
                f"(dx = {self.dx:.3e}, sigma_max_sq = {band.sigma_max_sq})"
            )


def _read_only(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array``; the array itself stays writable."""
    view = array.view()
    view.setflags(write=False)
    return view


def _check_positive(name: str, value: float) -> None:
    """Raise ValueError naming ``name`` unless value is finite and > 0; NaN fails."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {value}")


def _check_nonnegative(name: str, value: float) -> None:
    """Raise ValueError naming ``name`` unless value is finite and >= 0; NaN fails."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


def _check_count(name: str, value, least: int | None = None) -> None:
    """Raise ValueError naming ``name`` unless value is a Python or numpy integer, and >= ``least`` if given.

    A bool is not an integer here; the type is checked before the floor.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # splitmix64's state increment


def _splitmix64(seed: int) -> int:
    """The first splitmix64 output of the 64-bit state ``seed``, on Python ints."""
    z = (seed + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _splitmix64_stream(seed: int, n: int) -> np.ndarray:
    """The first n splitmix64 outputs of the state ``seed``, as a uint64 array.

    Output k is ``_splitmix64(seed + k * golden)``: the stream is counter
    based, so it is formed on a uint64 array at once.  Every operation
    acts on an array, where numpy wraps modulo 2^64 silently (numpy
    scalars warn on a wrap).
    """
    u64 = np.uint64
    z = np.arange(n, dtype=u64)
    z *= u64(_GOLDEN)
    z += u64((seed + _GOLDEN) & _MASK)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> u64(shift)
        z *= u64(factor)
    z ^= z >> u64(31)
    return z


def _uniforms(seed: int, shape, low, high) -> np.ndarray:
    """Floats in [low, high) from the splitmix64 stream of ``seed``, in C order over ``shape``.

    Each is the top 53 bits of one output scaled to [0, 1), then to the
    box; ``low`` and ``high`` broadcast against ``shape`` (an int or a
    tuple).  A value that the scaling rounds up to ``high`` is taken one
    ulp below it.
    """
    unit = (_splitmix64_stream(seed, int(np.prod(shape))) >> np.uint64(11)).astype(float) * 2.0**-53
    low, high = np.asarray(low, dtype=float), np.asarray(high, dtype=float)
    values = low + (high - low) * unit.reshape(shape)
    return np.minimum(values, np.nextafter(high, low))


def cfl_time_steps(
    band: VolatilityBand, horizon: float, dx: float, theta: float = DEFAULT_CFL_THETA
) -> int:
    """Smallest step count satisfying dt <= theta * dx^2 / sigma_max_sq.

    Raises ValueError naming dx and theta when that count is not finite:
    theta * dx^2 underflows to 0, or the quotient overflows.
    """
    if not (0.0 < theta <= MAX_CFL_THETA):
        raise ValueError(f"theta must lie in (0, {MAX_CFL_THETA}], got {theta}")
    limit = theta * dx * dx
    steps = horizon * band.sigma_max_sq / limit if limit else math.inf
    if not math.isfinite(steps):
        raise ValueError(f"dx = {dx} and theta = {theta} give a time-step count that is not finite")
    return max(1, math.ceil(steps))


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
    """Symmetric grid on [-half_width, half_width] with CFL-matched nt.

    ``half_width`` defaults to 6 standard deviations of the widest
    diffusion over the horizon.  ``nx`` must be odd, so that the center
    node sits at x = 0; the grid rejects an even one.
    """
    if half_width is None:  # empty for a horizon <= 0, which the grid rejects by its horizon
        half_width = 6.0 * band.sigma_max * math.sqrt(max(horizon, 0.0))
    return _cfl_grid(band, horizon, -half_width, half_width, nx, theta)


def _cfl_grid(band: VolatilityBand, horizon: float, x_min: float, x_max: float, nx: int, theta: float) -> SpaceTimeGrid:
    """The grid on [x_min, x_max] with ``nx`` nodes and CFL-matched nt."""
    # nt = 1 stands in until the grid has checked horizon and nx, which dx needs
    grid = SpaceTimeGrid(horizon=horizon, x_min=x_min, x_max=x_max, nx=nx, nt=1)
    return replace(grid, nt=cfl_time_steps(band, horizon, grid.dx, theta))
