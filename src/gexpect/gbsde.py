"""Backward lattice solver for Markovian BSDEs driven by the band's
nonlinear expectation.

For a terminal value Phi(B_t - B_s) and drivers g(t, y, z), f(t, y, z)
the value function obeys the fully nonlinear terminal-value problem

    -du/dt = g(t, u, du/dx) + 2 G(f(t, u, du/dx) + 0.5 * d2u/dx2)

discretised with the same explicit kernel as the forward heat solve,
which folds dt, dx^2 and the halving into its two band constants, so zero
drivers give the heat solve's bits.  The solution carries Y = u, Z = du/dx
and the variance density eta = f + 0.5 * d2u/dx2 whose band-worst
increments make up the nonincreasing component K.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import SpaceTimeGrid, VolatilityBand, _check_nonnegative, _check_positive, _uniforms, g_eval
from .expr import EvalDomainError, ScalarFunction, TriFunction, parse_tri
from .gheat import BlowUpError, FieldSolution, _derived, _second_difference, _space_gradient, _stack

__all__ = [
    "GeneratorPair",
    "BsdeSolution",
    "BlowUpError",
    "zero_generator",
    "solve_gbsde",
    "solve_gbsde_batch",
    "nonlinear_expectation",
    "k_increment",
    "k_along_path",
]


_ZERO = parse_tri("0")


@dataclass(frozen=True)
class GeneratorPair:
    """Drivers g(t, y, z), f(t, y, z) with a declared Lipschitz bound in (y, z).

    Construction spot-checks the bound against each driver's
    ``max_difference_quotient``, its largest quotient over one fixed draw
    of 1000 pairs, and raises ValueError naming a driver above it; the
    zero drivers of ``zero_generator`` pass it with quotient 0.  A set
    ``h6`` is checked too: g(t, y, 0) = f(t, y, 0) = 0 (to 1e-12) at 100
    points with t in [0, 1] and y in [-10, 10], the condition under which
    the expectation preserves constants.  The points are the first 200
    values of the package's splitmix64 stream of seed 4
    (``core._uniforms``): the 100 t, then the 100 y.
    """

    g: TriFunction
    f: TriFunction
    lipschitz_L: float
    h6: bool = False

    def __post_init__(self) -> None:
        _check_nonnegative("lipschitz_L", self.lipschitz_L)
        tol = self.lipschitz_L * (1.0 + 1e-9) + 1e-12
        for name, fn in (("g", self.g), ("f", self.f)):
            worst = fn.max_difference_quotient()
            if not worst <= tol:  # a NaN quotient fails too
                raise ValueError(
                    f"driver {name} shows difference quotient {worst:.6g} "
                    f"above declared Lipschitz bound {self.lipschitz_L}"
                )
        if self.h6:
            t, y = _uniforms(4, (2, 100), [[0.0], [-10.0]], [[1.0], [10.0]])
            for name, fn in (("g", self.g), ("f", self.f)):
                vals = np.broadcast_to(np.asarray(fn(t, y, 0.0)), t.shape)
                if not np.max(np.abs(vals)) <= 1e-12:  # a NaN value fails too
                    raise ValueError(f"h6 declared but {name}(t, y, 0) != 0")


def zero_generator() -> GeneratorPair:
    return GeneratorPair(_ZERO, _ZERO, 0.0, h6=True)


def _eta(f: TriFunction, t, y: np.ndarray, z: np.ndarray, dx: float) -> np.ndarray:
    """f(t, y, z) + 0.5 * D2 y along y's last axis, z y's gradient; ``t`` is a number or a column of times."""
    return np.broadcast_to(f(t, y, z), y.shape) + 0.5 * _second_difference(y, dx * dx)


class BsdeSolution:
    """Backward field with Y = u, Z = du/dx, and the variance density eta.

    Layer 0 holds the terminal datum (time label ``times[0]``); layer k is
    k backward steps earlier.  ``eta[k] = f(times[k], u[k], z_layer(k)) +
    0.5 * D2 u[k]`` is the whole table, built on first access from
    ``field.u`` (with the gradient and D2 as temporaries) and read-only;
    ``eta_layer(k)`` forms row k alone, from ``field.layer(k)``, and
    ``yz_eta_layer(k)`` returns Y, Z and eta of layer k from one gradient.
    """

    def __init__(self, field_solution: FieldSolution, gen: GeneratorPair, band: VolatilityBand):
        self.field = field_solution
        self.gen = gen
        self.band = band
        self._eta = None

    @property
    def grid(self) -> SpaceTimeGrid:
        return self.field.grid

    @_derived
    def eta(self) -> np.ndarray:
        """The variance density of every layer, shaped like ``field.u``."""
        u, dx = self.field.u, self.grid.dx
        return _eta(self.gen.f, self.field.times[:, None], u, _space_gradient(u, dx), dx)

    def eta_layer(self, k: int) -> np.ndarray:
        """Row k of ``eta``, from ``field.layer(k)`` alone."""
        return self.yz_eta_layer(k)[2]

    def yz_eta_layer(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``field.layer(k)``, ``field.z_layer(k)`` and ``eta_layer(k)``, the gradient formed once."""
        y, dx = self.field.layer(k), self.grid.dx
        z = _space_gradient(y, dx)
        return y, z, _eta(self.gen.f, self.field.times[k], y, z, dx)

    def y_at(self, s: float, x: float = 0.0) -> float:
        return self.field.value_at(s, x)

    def eta_forward(self, step, x):
        """eta at forward time step * dt and the node nearest x; a step outside [0, nt] is an IndexError.

        Arrays of steps and of x broadcast and give an array; two scalars give a float.
        """
        grid = self.grid
        steps = np.asarray(step)
        outside = steps[(steps < 0) | (steps > grid.nt)]
        if outside.size:
            raise IndexError(f"step {outside[0]} outside [0, {grid.nt}]")
        eta = self._eta_at(step, x)
        return eta if eta.ndim else float(eta)

    def _eta_at(self, step, x):
        """``eta_forward`` without its step check: forward step i reads row nt - i at the node nearest x."""
        return self.eta[self.grid.nt - step, self.grid.node_index(x)]

    def _check_time_grid(self, nt: int, span: float) -> None:
        """Raise ValueError unless nt steps over ``span`` are this solution's time grid."""
        if nt != self.grid.nt or abs(span - self.grid.horizon) > 1e-9:
            raise ValueError("path and field are on different time grids")

    def _check_band(self, band: VolatilityBand) -> None:
        """Raise ValueError naming both bands unless ``band`` is this solution's band."""
        if band != self.band:
            raise ValueError(
                f"band [{band.sigma_min_sq}, {band.sigma_max_sq}] is not the solution's band "
                f"[{self.band.sigma_min_sq}, {self.band.sigma_max_sq}]"
            )


def solve_gbsde_batch(
    band: VolatilityBand,
    gen: GeneratorPair,
    terminals: Sequence[ScalarFunction],
    grid: SpaceTimeGrid,
    t0: float = 0.0,
    envelope_factor: float = 50.0,
    picard: bool = False,
) -> list[BsdeSolution]:
    """Solve backward from each terminal datum over [t0, t0 + horizon], all in one march.

    Returns one solution per datum, in order, each with the bits of its own
    ``solve_gbsde``.  Time labels run from the terminal time down to t0; Y
    at time s is ``value_at(s)``.  ``picard`` re-evaluates the drivers once
    against the explicit predictor per step, an accuracy knob.

    Neither form is unconditionally stable.  The explicit step is monotone
    in the layer it reads, the condition of the convergence and comparison
    proofs, only while 1 - dt * sigma_max_sq / dx^2 - dt * L >= 0 for its
    y-part, with L the drivers' Lipschitz bound; the CFL bound checked here
    limits the first term alone.  Grids from ``make_grid`` have dt of order
    dx^2 and meet it unless L is large, but a coarse explicit grid with
    dt * L > 1 makes the step expansive: on band (0.125, 0.125), 3 nodes on
    [-1, 1] and 3 steps (dt = 4), g = -y marches u <- -3 u, turning a
    positive datum negative, and with ``picard`` u <- 13 u, which raises
    BlowUpError at layer 2.

    Raises ValueError, before any work, unless ``t0`` is finite and >= 0
    and ``envelope_factor`` is finite and > 0; CflError for unstable
    grids, EvalDomainError when a driver is NaN or infinite at the
    origin, NonFiniteError for a NaN or infinite layer,
    and BlowUpError when |Y| of a datum escapes its envelope
    ``envelope_factor * (max|terminal| + horizon * sup |drivers at the
    origin| + 1)``, clamped to the largest float; both errors name the
    time layer and the datum's row.
    """
    _check_nonnegative("t0", t0)
    _check_positive("envelope_factor", envelope_factor)
    grid.check_cfl(band)
    data = _stack(terminals, grid)
    times = t0 + grid.horizon - grid.times
    origin_scale = 0.0
    for name, fn in (("g", gen.g), ("f", gen.f)):
        vals = np.abs(np.broadcast_to(fn(times, 0.0, 0.0), times.shape))
        # a NaN or infinite envelope would pass every layer unchecked
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            k = int(bad[0])
            raise EvalDomainError(
                f"driver {name} is {float(vals[k])} at (t, y, z) = ({float(times[k])!r}, 0.0, 0.0), "
                "where the blow-up envelope reads it"
            )
        origin_scale += float(np.max(vals))
    with np.errstate(over="ignore"):  # clamped, a bound is finite: a row inside it is finite too
        envelope = envelope_factor * (np.max(np.abs(data), axis=-1) + grid.horizon * origin_scale + 1.0)
    np.minimum(envelope, np.finfo(float).max, out=envelope)
    fields = FieldSolution._solve(band, grid, data, times, (gen.g, gen.f, picard), envelope)
    return [BsdeSolution(field, gen, band) for field in fields]


def solve_gbsde(
    band: VolatilityBand,
    gen: GeneratorPair,
    terminal: ScalarFunction,
    grid: SpaceTimeGrid,
    t0: float = 0.0,
    envelope_factor: float = 50.0,
    picard: bool = False,
) -> BsdeSolution:
    """Solve backward from the terminal datum over [t0, t0 + horizon]: ``solve_gbsde_batch`` of one."""
    (sol,) = solve_gbsde_batch(band, gen, [terminal], grid, t0, envelope_factor, picard)
    return sol


def _nonlinear_expectations(
    band: VolatilityBand,
    gen: GeneratorPair,
    terminals: Sequence[ScalarFunction],
    s: float,
    t: float,
    grid: SpaceTimeGrid,
) -> list[float]:
    """``nonlinear_expectation`` of each terminal, all in one march."""
    grid.check_interval(s, t)
    if t == s:
        return [float(terminal(0.0)) for terminal in terminals]
    sols = solve_gbsde_batch(band, gen, terminals, grid.over(t - s), t0=s)
    return [sol.y_at(s, 0.0) for sol in sols]


def nonlinear_expectation(
    band: VolatilityBand,
    gen: GeneratorPair,
    terminal: ScalarFunction,
    s: float,
    t: float,
    grid: SpaceTimeGrid,
) -> float:
    """Y at time s, node x = 0, of the backward solve on [s, t].

    The sub-interval reuses the grid's spatial mesh and takes the fewest
    time steps no longer than the grid's, so the answer does not depend on
    how much horizon the grid carries beyond t.  An (s, t) that
    ``grid.check_interval`` refuses raises ValueError.
    """
    (value,) = _nonlinear_expectations(band, gen, [terminal], s, t, grid)
    return value


def _check_in_band(band: VolatilityBand, a) -> None:
    """Raise ValueError naming the first entry of ``a`` outside the band, give or take 1e-12 (NaN is outside)."""
    values, lo, hi = np.atleast_1d(a), band.sigma_min_sq, band.sigma_max_sq
    inside = (lo - 1e-12 <= values) & (values <= hi + 1e-12)
    if not inside.all():
        i = int(np.flatnonzero(~inside)[0])
        where = f" at step {i}" if np.ndim(a) else ""
        raise ValueError(f"variance density {values[i]}{where} outside band [{lo}, {hi}]")


def k_increment(band: VolatilityBand, eta: float, a: float, dt: float) -> float:
    """One K step: eta * a * dt - 2 G(eta) * dt, never positive in the band; eta finite, dt finite and > 0."""
    if not np.isfinite(eta):
        raise ValueError(f"eta must be finite, got {eta}")
    _check_in_band(band, a)
    _check_positive("dt", dt)
    return float(_k_step(band, eta, a, dt))


def _k_step(band: VolatilityBand, eta, a, dt: float):
    """K increment (eta * a - 2 G(eta)) * dt, elementwise over arrays."""
    return (eta * a - 2.0 * g_eval(band, eta)) * dt


def k_along_path(sol: BsdeSolution, path) -> np.ndarray:
    """Cumulative K along the path, nearest-node eta lookup; starts at 0.

    Each step uses the variance density the path actually realised, so the
    series is nonincreasing up to rounding noise.  A step whose density
    lies outside the band raises ValueError, as in ``k_increment``.
    """
    nt = len(path.times) - 1
    sol._check_time_grid(nt, path.times[-1] - path.times[0])
    _check_in_band(sol.band, path.a)
    eta = sol._eta_at(np.arange(nt), path.b[:-1])  # nt is the grid's, so every step is inside it
    k = np.zeros(nt + 1)
    np.cumsum(_k_step(sol.band, eta, path.a, sol.grid.dt), out=k[1:])
    return k
