"""Explicit monotone finite-difference solver for the nonlinear heat
equation du/dt = G(d2u/dx2) driven by a volatility band, plus the
expectation functionals built on it.

The scheme marches whole layers::

    u_next = u + dt * (g_term + 2 * G(f_term + 0.5 * D2 u))

with the three-point second difference D2 (zero at the two boundary
nodes, exact for affine tails).  With zero driver terms the kernel steps
``u + dt * G(D2 u)``, which has the bits of the driver step because
2 G(a / 2) = G(a) exactly outside the subnormal range; the backward BSDE
solver and the conditional reductions reuse the same kernel, so the
recursions agree bit for bit when the drivers vanish.  Each step writes
into preallocated arrays: the next checkpoint row of a stored field when
the layer is one, or else one of two buffers that alternate.  A solved
field keeps every floor(sqrt(nt))-th layer and the last two, and a read
of any other layer re-marches from the checkpoint before it, which
repeats the first march's bits.  A field gives its layers, the whole
``u`` on request and one layer's gradient, but no whole gradient or
curvature: ``gbsde`` forms eta from ``u`` or from one layer.

``solve_g_heat_batch`` (and ``gbsde.solve_gbsde_batch``) march a stack of
data on one grid in one pass: the layers are (B, nx) arrays, every step is
elementwise or confined to its row, so each row has the bits of its own
solve, and each datum gets a field that keeps its row of the shared
checkpoints.  ``solve_g_heat`` is the stack of one, marched as a single
row.  The blow-up envelope may hold one value per row.  A failure names
its time layer and its row (0 for a single solve) as the fields ``layer``
and ``row`` of ``NonFiniteError`` and ``BlowUpError``; the first failing
layer raises, and within it a non-finite row wins over a row beyond its
envelope.  A (finite) envelope's per-row maximum and minimum prove a
layer finite too; only a march without one runs a separate finiteness test.
Monotonicity under the CFL bound makes the scheme converge to the
viscosity solution and gives discrete maximum/comparison principles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NoReturn, Sequence

import numpy as np

from .core import DEFAULT_CFL_THETA, SpaceTimeGrid, VolatilityBand, _g_into, make_grid
from .expr import ScalarFunction

__all__ = [
    "FieldSolution",
    "NonFiniteError",
    "BlowUpError",
    "CylinderPayoff",
    "TabulatedFunction",
    "GridResolutionError",
    "solve_g_heat",
    "solve_g_heat_batch",
    "g_expectation",
    "conditional_g_expectation",
]


class NonFiniteError(RuntimeError):
    """The march produced a NaN or infinity at time layer ``layer`` of batch row ``row``."""

    def __init__(self, layer: int, row: int = 0):
        super().__init__(f"non-finite values encountered at time layer {layer}")
        self.layer = layer
        self.row = row


class BlowUpError(RuntimeError):
    """Solution escaped the growth envelope implied by the terminal data.

    ``layer`` and ``row`` name the time layer and the batch row.
    """

    def __init__(self, layer: int, value: float, envelope: float, row: int = 0):
        super().__init__(
            f"|Y| = {value:.6g} exceeded envelope {envelope:.6g} at time layer {layer}"
        )
        self.layer = layer
        self.row = row


class GridResolutionError(ValueError):
    """Tabulated result too coarse to represent the payoff."""


def _second_difference(u: np.ndarray, dx_sq, out: np.ndarray | None = None) -> np.ndarray:
    """Three-point second difference along the last axis, zero at the ends.

    ``dx_sq`` is the squared node spacing.  Without ``out`` the pass runs
    row by row into a fresh array, so no value is formed across two rows.
    With ``out`` (a C-contiguous array shaped like u whose end columns hold
    zeros, as the kernel allocates it) the pass runs along the flattened
    array, one contiguous sweep for a whole batch; the values it forms
    across two rows land in the end columns, which are zeroed again.
    Those values can overflow where no row does, so that form runs only
    inside the kernel's error state.
    """
    if out is None:
        out = np.zeros(u.shape)
        lo, mid, hi, inner = u[..., :-2], u[..., 1:-1], u[..., 2:], out[..., 1:-1]
    else:
        flat = u.reshape(-1)
        lo, mid, hi, inner = flat[:-2], flat[1:-1], flat[2:], out.reshape(-1)[1:-1]
    # (u[2:] - 2 u[1:-1]) + u[:-2], then / dx^2, with 2 u formed exactly as u + u
    np.add(mid, mid, out=inner)
    np.subtract(hi, inner, out=inner)
    np.add(inner, lo, out=inner)
    np.divide(inner, dx_sq, out=inner)
    if inner.ndim < u.ndim:  # a flattened sweep over several rows
        out[..., :: u.shape[-1] - 1] = 0.0
    return out


def _space_gradient(u: np.ndarray, dx: float, out: np.ndarray | None = None) -> np.ndarray:
    """Central differences inside, one-sided at the two boundary nodes.

    Written into ``out`` (an array shaped like u, not u itself) when given,
    else into a fresh array.
    """
    z = np.empty_like(u) if out is None else out
    n = u.shape[-1]
    inner, ends = z[..., 1:-1], z[..., :: n - 1]
    np.subtract(u[..., 2:], u[..., :-2], out=inner)
    np.divide(inner, 2.0 * dx, out=inner)
    # both ends in one pass: (u[1] - u[0], u[n-1] - u[n-2]) / dx
    np.subtract(u[..., 1 :: n - 2], u[..., : n - 1 : n - 2], out=ends)
    np.divide(ends, dx, out=ends)
    return z


def _raise_failure(k: int, layer: np.ndarray, zeros: np.ndarray, limits: np.ndarray | None) -> NoReturn:
    """Raise the failure of layer k: NonFiniteError, else BlowUpError, each naming its first row.

    A row is one slice along the batch axes, counted in C order (0 for an
    unbatched march); ``limits`` holds each row's envelope, or is None.
    """
    rows = layer.reshape(-1, layer.shape[-1])
    if np.vdot(layer, zeros) != 0.0:
        raise NonFiniteError(k, int(np.flatnonzero(~np.isfinite(rows).all(axis=-1))[0]))
    peaks = np.max(np.abs(rows), axis=-1)
    r = int(np.flatnonzero(peaks > limits)[0])
    raise BlowUpError(k, float(peaks[r]), float(limits[r]), r)


def _march(
    band: VolatilityBand,
    dx: float,
    dt: float,
    nt: int,
    datum: np.ndarray,
    g_fn=None,
    f_fn=None,
    layer_times: np.ndarray | None = None,
    picard: bool = False,
    out: np.ndarray | None = None,
    envelope=None,
    stride: int = 1,
    ring: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Shared explicit kernel: marches layers 1..nt from ``datum``, returns layer nt.

    Space is the last axis; leading axes are a batch, and each slice along
    them (a row) marches on its own, with the bits it gets alone.  Layer k
    is one step from layer k-1 with the drivers (zero when ``g_fn`` is None)
    evaluated at ``layer_times[k]``.  ``picard`` corrects the driver
    arguments once against the explicit predictor.  The datum, each layer
    and each predictor must be finite, else NonFiniteError names the layer
    and the row.  With ``envelope`` set (one value, or one per row shaped
    like the batch axes), a layer with a row whose largest |value| exceeds
    that row's envelope raises BlowUpError naming the layer and the row.
    The first failing layer raises; within it a non-finite row wins over
    a row beyond its envelope, and of several rows the first is named.
    Every envelope must be finite: the per-row maximum and minimum that
    check it then also prove the rows finite (a NaN fails both comparisons
    and an infinity exceeds the bound), so the separate finiteness test
    runs only without an envelope, or on a layer that fails it.

    ``g_fn`` and ``f_fn`` are TriFunctions; the kernel calls their compiled
    closures inside its error state, which ignores every floating-point
    condition, so a driver that divides by zero or overflows surfaces as a
    NonFiniteError, never as a warning.  When neither driver reads ``z``
    the gradient is not formed.  With ``out`` (shape
    (nt // stride + 1,) + datum.shape) the datum goes to out[0] and each
    layer k with k % stride == 0 straight into out[k // stride]; stride 1
    stores every layer.  The other layers alternate between the two arrays
    of ``ring`` (allocated per march when not given), layer k in
    ring[k % 2], so after the march ``ring`` still holds the last two
    layers that are not in ``out``.  The returned last layer is a row of
    ``out`` or of ``ring``.
    """
    # a finite array has dot product 0 with zeros; inf * 0 and NaN give NaN
    zeros = np.zeros(datum.size)
    if np.vdot(datum, zeros) != 0.0:
        _raise_failure(0, datum, zeros, None)
    limits = None if envelope is None else np.broadcast_to(envelope, datum.shape[:-1]).reshape(-1)
    floor = None if envelope is None else -envelope
    single = datum.ndim == 1  # one row compares scalars, which `and` takes faster than .all()
    # 0-d arrays: numpy takes them per call faster than Python floats
    dx_sq, step, half_max, half_min, half, two = map(
        np.array, (dx * dx, dt, 0.5 * band.sigma_max_sq, 0.5 * band.sigma_min_sq, 0.5, 2.0)
    )
    d2 = np.zeros(datum.shape)
    scratch = np.empty(datum.shape)
    if ring is None:
        ring = (np.empty(datum.shape), np.empty(datum.shape))
    if out is not None:
        out[0] = datum
    if g_fn is not None:
        g, f = g_fn._compiled, f_fn._compiled
        reads_z = "z" in g_fn.variables or "z" in f_fn.variables
        grad, half_d2, arg, two_g = (np.empty(datum.shape) for _ in range(4))
        predictor = np.empty(datum.shape) if picard else None

        def increment(env: dict, into: np.ndarray) -> np.ndarray:
            """dt * (g + 2 G(f + D2 u / 2)) at ``env``, formed in the order of the allocating step."""
            g_term, f_term = g(env), f(env)
            np.add(f_term, half_d2, out=arg)
            _g_into(half_max, half_min, arg, two_g, scratch)
            np.multiply(two, two_g, out=two_g)
            np.add(g_term, two_g, out=two_g)
            return np.multiply(step, two_g, out=into)

    layer = datum
    # the kernel names its own failures: an overflow or x/0 is a NonFiniteError, not a warning
    with np.errstate(all="ignore"):
        for k in range(1, nt + 1):
            row = out[k // stride] if out is not None and k % stride == 0 else ring[k % 2]
            _second_difference(layer, dx_sq, d2)
            if g_fn is None:
                # u + dt * G(D2 u): the driver step with zero terms, as 2 G(a / 2) = G(a)
                _g_into(half_max, half_min, d2, row, scratch)
                np.multiply(row, step, out=row)
            else:
                t = layer_times[k]
                np.multiply(half, d2, out=half_d2)
                env = {"t": t, "y": layer}
                if reads_z:
                    env["z"] = _space_gradient(layer, dx, grad)
                if picard:
                    np.add(layer, increment(env, predictor), out=predictor)
                    if np.vdot(predictor, zeros) != 0.0:
                        _raise_failure(k, predictor, zeros, None)
                    env = {"t": t, "y": predictor}
                    if reads_z:
                        env["z"] = _space_gradient(predictor, dx, grad)
                increment(env, row)
            np.add(layer, row, out=row)
            if limits is not None:
                # a NaN fails both comparisons and an infinity exceeds the finite bound
                below, above = np.maximum.reduce(row, -1) <= envelope, np.minimum.reduce(row, -1) >= floor
                if not (below and above if single else (below & above).all()):
                    _raise_failure(k, row, zeros, limits)
            elif np.vdot(row, zeros) != 0.0:
                _raise_failure(k, row, zeros, None)
            layer = row
    return layer


def _derived(build):
    """A read-only property: ``build(self)`` runs on first access, kept read-only in ``self._<name>``."""
    slot = "_" + build.__name__

    def get(self):
        value = getattr(self, slot)
        if value is None:
            value = build(self)
            value.setflags(write=False)
            setattr(self, slot, value)
        return value

    return property(get, doc=build.__doc__)


class FieldSolution:
    """Space-time field u, read by layer, with the space gradient of a layer.

    Layer 0 always holds the datum; ``times[k]`` is the time label of
    layer k (increasing for the forward heat solve, decreasing from the
    terminal time for backward solves).

    A solve keeps the field as checkpoints: every ``stride``-th layer, with
    stride max(1, isqrt(nt)), plus the last two layers, O(nx sqrt(nt))
    numbers in all.  ``layer(k)`` returns any layer, re-marching the
    segment from the checkpoint before it with the band and drivers of the
    solve; the re-march gives the first march's bits, and reads at the end
    time re-march nothing.  ``u`` is the whole (nt + 1, nx) field, built
    on first access (by one more march) and read-only; no whole gradient or
    curvature is kept.  ``FieldSolution(grid, u, times)`` wraps a whole
    field ``u`` as stride 1.
    """

    def __init__(self, grid: SpaceTimeGrid, u: np.ndarray, times: np.ndarray):
        self.grid = grid
        u.setflags(write=False)
        times.setflags(write=False)
        self.times = times
        # layer k * stride is row k of the checkpoints; a whole field is stride 1
        self._checkpoints, self._stride, self._u = u, 1, u
        self._ring, self._band, self._drivers = (), None, (None, None, False)
        self._segment = (-1, None)  # the last re-marched segment: its first layer and its rows

    @classmethod
    def _solve(
        cls,
        band: VolatilityBand,
        grid: SpaceTimeGrid,
        data: np.ndarray,
        times: np.ndarray,
        drivers=(),
        envelope=None,
    ) -> list[FieldSolution]:
        """March a (B, nx) stack of data once over ``grid``; one field per datum.

        ``drivers`` is (g, f, picard), or empty for the heat step; ``times``
        labels the layers and gives the drivers their time argument;
        ``envelope`` is None or one value per datum.  The checkpoints, every
        max(1, isqrt(nt))-th layer, share one (nt // stride + 1, B, nx) array,
        and the march's two alternating (B, nx) buffers keep the last two
        layers that are not checkpoints, layer k in ring[k % 2]; field b
        keeps row b of each.  A stack of one marches as a single row, so it
        skips the end-column pass of the flattened sweep over several rows.
        """
        batch, nx = data.shape
        stride = max(1, math.isqrt(grid.nt))
        checkpoints = np.empty((grid.nt // stride + 1, batch, nx))
        ring = (np.empty((batch, nx)), np.empty((batch, nx)))
        g, f, picard = drivers or (None, None, False)
        rows, out, buffers = data, checkpoints, ring
        if batch == 1:
            rows, out, buffers = data[0], checkpoints[:, 0], (ring[0][0], ring[1][0])
            envelope = None if envelope is None else envelope[0]
        _march(
            band, grid.dx, grid.dt, grid.nt, rows, g, f, times, picard,
            out=out, envelope=envelope, stride=stride, ring=buffers,
        )
        for array in (checkpoints, *ring):
            array.setflags(write=False)
        fields = []
        for b in range(batch):
            field = cls(grid, checkpoints[:, b], times)
            field._stride, field._ring, field._band = stride, (ring[0][b], ring[1][b]), band
            field._drivers = (g, f, picard)
            field._u = field._checkpoints if stride == 1 else None
            fields.append(field)
        return fields

    def _march_on(self, k: int, out: np.ndarray) -> None:
        """Fill ``out`` with the checkpoint at layer k and the layers after it, as the solve marched them."""
        g, f, picard = self._drivers
        grid = self.grid
        datum = self._checkpoints[k // self._stride]
        _march(self._band, grid.dx, grid.dt, len(out) - 1, datum, g, f, self.times[k:], picard, out=out)

    def layer(self, k: int) -> np.ndarray:
        """Layer k, 0 <= k <= nt, as a read-only array; re-marches at most one segment."""
        nt, stride = self.grid.nt, self._stride
        if not 0 <= k <= nt:
            raise IndexError(f"layer {k} outside [0, {nt}]")
        if k % stride == 0:
            return self._checkpoints[k // stride]
        if k >= nt - 1:
            return self._ring[k % 2]
        first = k - k % stride
        if self._segment[0] != first:
            rows = np.empty((min(stride, nt - first), self.grid.nx))
            self._march_on(first, rows)
            rows.setflags(write=False)
            self._segment = (first, rows)
        return self._segment[1][k - first]

    @_derived
    def u(self) -> np.ndarray:
        """The whole (nt + 1, nx) field, re-marched from the datum on first access."""
        u = np.empty((self.grid.nt + 1, self.grid.nx))
        self._march_on(0, u)
        return u

    def z_layer(self, k: int) -> np.ndarray:
        """Space gradient of layer k, from ``layer(k)`` alone."""
        return _space_gradient(self.layer(k), self.grid.dx)

    def layer_of(self, t: float) -> float:
        """Fractional layer index whose time label is t."""
        t0, t1 = self.times[0], self.times[-1]
        lo, hi = (t0, t1) if t0 <= t1 else (t1, t0)
        if not (lo - 1e-12 <= t <= hi + 1e-12):
            raise ValueError(f"time {t} outside field range [{lo}, {hi}]")
        return (t - t0) / (t1 - t0) * self.grid.nt

    def nearest_layer(self, t: float) -> int:
        """Index of the layer whose time label is nearest t."""
        return int(np.clip(round(self.layer_of(t)), 0, self.grid.nt))

    def value_at(self, t: float, x: float = 0.0) -> float:
        """u at the node nearest x, linearly interpolated in time."""
        j = self.grid.node_index(x)
        pos = self.layer_of(t)
        k = int(np.clip(math.floor(pos), 0, self.grid.nt - 1))
        w = min(max(pos - k, 0.0), 1.0)
        return float((1.0 - w) * self.layer(k)[j] + w * self.layer(k + 1)[j])


def _stack(functions: Sequence[ScalarFunction], grid: SpaceTimeGrid) -> np.ndarray:
    """Each function on ``grid.xs``, one row per function; at least one is needed."""
    if not len(functions):
        raise ValueError("need at least one datum")
    return np.stack([np.asarray(fn(grid.xs), dtype=float) for fn in functions])


def solve_g_heat_batch(
    band: VolatilityBand, phis: Sequence[ScalarFunction], grid: SpaceTimeGrid
) -> list[FieldSolution]:
    """March each initial datum forward over [0, horizon], all in one march.

    Returns one field per datum, in order, each with the bits of its own
    ``solve_g_heat``.  Layer k of a field is the solution at time k * dt;
    boundary nodes use the zero-second-difference convention (exact for
    affine tails).
    """
    grid.check_cfl(band)
    return FieldSolution._solve(band, grid, _stack(phis, grid), np.linspace(0.0, grid.horizon, grid.nt + 1))


def solve_g_heat(
    band: VolatilityBand, phi: ScalarFunction, grid: SpaceTimeGrid
) -> FieldSolution:
    """March the initial datum phi forward over [0, horizon]: ``solve_g_heat_batch`` of one."""
    (field,) = solve_g_heat_batch(band, [phi], grid)
    return field


def g_expectation(
    band: VolatilityBand, phi: ScalarFunction, t: float, grid: SpaceTimeGrid
) -> float:
    """Sublinear expectation of phi under the band's law at time t.

    Value of the solved field at the node nearest x = 0, interpolated
    linearly between the two bracketing time layers.
    """
    if not (0.0 <= t <= grid.horizon + 1e-12):
        raise ValueError(f"t = {t} outside [0, {grid.horizon}]")
    field = solve_g_heat(band, phi, grid)
    return field.value_at(min(t, grid.horizon), 0.0)


# ---------------------------------------------------------------------------
# Conditional expectations of cylinder payoffs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CylinderPayoff:
    """Payoff phi(x_1, ..., x_m) of the increments over times 0 < t_1 < ... < t_m."""

    times: tuple[float, ...]
    fn: Callable[..., np.ndarray]

    def __post_init__(self) -> None:
        if not 1 <= len(self.times) <= 3:
            raise ValueError(f"between 1 and 3 time points supported, got {len(self.times)}")
        prev = 0.0
        for t in self.times:
            if t <= prev:
                raise ValueError(f"time points must be strictly increasing from 0, got {self.times}")
            prev = t

    @property
    def increments(self) -> tuple[float, ...]:
        prev = 0.0
        out = []
        for t in self.times:
            out.append(t - prev)
            prev = t
        return tuple(out)


class TabulatedFunction:
    """Multilinear interpolant over per-axis node grids."""

    def __init__(self, axes: Sequence[np.ndarray], values: np.ndarray):
        self.axes = [np.asarray(a) for a in axes]
        self.values = np.asarray(values)
        if self.values.shape != tuple(len(a) for a in self.axes):
            raise ValueError("table shape does not match axes")

    def __call__(self, *coords: float) -> float:
        if len(coords) != len(self.axes):
            raise ValueError(f"expected {len(self.axes)} coordinates, got {len(coords)}")
        block = self.values
        for axis, x in zip(self.axes, coords):
            if not (axis[0] - 1e-12 <= x <= axis[-1] + 1e-12):
                raise ValueError(f"coordinate {x} outside table range [{axis[0]}, {axis[-1]}]")
            pos = (x - axis[0]) / (axis[1] - axis[0])
            k = int(np.clip(math.floor(pos), 0, len(axis) - 2))
            w = pos - k
            block = (1.0 - w) * block[k] + w * block[k + 1]
        return float(block)


def _reduce_last_axis(band: VolatilityBand, values: np.ndarray, grid: SpaceTimeGrid) -> np.ndarray:
    """Expectation over the last increment: batched 1-d heat solves.

    ``values`` has shape (..., grid.nx); each leading slice is a datum on
    ``grid.xs`` and reduces to its solved value at the node x = 0.
    """
    return _march(band, grid.dx, grid.dt, grid.nt, values)[..., grid.center_index]


def conditional_g_expectation(
    band: VolatilityBand,
    payoff: CylinderPayoff,
    i: int,
    grid: SpaceTimeGrid,
    residual_tol: float = 0.05,
) -> TabulatedFunction:
    """Condition the cylinder payoff on the first i increments.

    Solves one heat problem per remaining increment, innermost first, on a
    ``make_grid`` grid with ``grid.nx`` nodes sized to each increment (so an
    even ``nx`` raises ValueError).  The returned table interpolates
    psi(x_1, ..., x_i) multilinearly; a sparse re-solve probe estimates
    the interpolation residual and raises GridResolutionError when it
    exceeds ``residual_tol`` relative to the payoff scale.
    """
    m = len(payoff.times)
    if not 1 <= i < m:
        raise ValueError(f"conditioning index must satisfy 1 <= i < {m}, got {i}")
    theta = min(grid.dt * band.sigma_max_sq / (grid.dx * grid.dx), DEFAULT_CFL_THETA)
    grids = [make_grid(band, d, grid.nx, theta=theta) for d in payoff.increments]
    axes = [g.xs for g in grids]

    def reduce_to(level: int, axis_list: Sequence[np.ndarray]) -> np.ndarray:
        mesh = np.meshgrid(*axis_list, indexing="ij")
        values = np.asarray(payoff.fn(*mesh), dtype=float)
        values = np.broadcast_to(values, mesh[0].shape).copy()
        for k in range(m - 1, level - 1, -1):
            values = _reduce_last_axis(band, values, grids[k])
        return values

    table_values = reduce_to(i, axes)
    table = TabulatedFunction(axes[:i], table_values)

    # Probe interpolation quality: re-solve at a few off-node points.
    scale = 1.0 + float(np.max(np.abs(table_values)))
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(3):
        point = [float(rng.uniform(a[1], a[-2])) for a in axes[:i]]
        probe_axes = [np.array([p]) for p in point] + list(axes[i:])
        exact = float(reduce_to(i, probe_axes).reshape(()))
        worst = max(worst, abs(table(*point) - exact))
    if worst > residual_tol * scale:
        raise GridResolutionError(
            f"interpolation residual {worst:.3e} exceeds {residual_tol} * scale {scale:.3e}; "
            f"increase nx"
        )
    return table
