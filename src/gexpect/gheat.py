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
the layer is one, or else one of two buffers that alternate.  The stencil
views a step reads (D2's three along the flattened layer, and the
gradient's four when a driver reads z) are built once per buffer: for the
datum and the two alternating buffers before the march, for a checkpoint
row once it is written.  ``_d2_into`` and ``_gradient_into`` are the one
form of each stencil, for the kernel and for the allocating
``_second_difference`` and ``_space_gradient`` alike.  A solved
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
envelope.  The tests are cheap: with an envelope each layer takes one sum
of squares against the smallest row envelope's square, which proves the
layer finite and inside every envelope, and from the first layer that
fails it on, each layer takes the per-row maximum and minimum against
its row's envelope instead; without one, finiteness is tested once, at
the last layer (a non-finite node stays non-finite), and a test that
fails re-marches from the datum with a test on every layer, which names
the first failing layer and row.  A driver that is the literal 0 is
neither evaluated nor added, which keeps the bits.
Monotonicity under the CFL bound makes the scheme converge to the
viscosity solution and gives discrete maximum/comparison principles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NoReturn, Sequence

import numpy as np

from .core import DEFAULT_CFL_THETA, SpaceTimeGrid, VolatilityBand, _g_into, make_grid
from .expr import Lit, ScalarFunction

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

_LITERAL_ZERO = Lit(0.0)


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


def _d2_into(lo, mid, hi, dx_sq, inner) -> None:
    """The three-point second difference ((hi - 2 mid) + lo) / dx^2 into ``inner``.

    ``lo``, ``mid`` and ``hi`` are the node's left neighbour, the node and
    its right neighbour; 2 mid is formed exactly as mid + mid.  The kernel
    passes views built once per layer buffer, the allocating form fresh ones.
    """
    np.add(mid, mid, out=inner)
    np.subtract(hi, inner, out=inner)
    np.add(inner, lo, out=inner)
    np.divide(inner, dx_sq, out=inner)


def _gradient_views(u: np.ndarray) -> tuple[np.ndarray, ...]:
    """The views of u that ``_gradient_into`` reads, row by row along the last axis."""
    n = u.shape[-1]
    # the central pair (u[2:], u[:-2]) and both ends' pair (u[1], u[n-1]), (u[0], u[n-2])
    return u[..., 2:], u[..., :-2], u[..., 1 :: n - 2], u[..., : n - 1 : n - 2]


def _gradient_into(views, dx, two_dx, inner, ends) -> None:
    """Central differences into ``inner`` (z[1:-1]), one-sided ones into ``ends`` (z[0], z[n-1]).

    ``views`` come from ``_gradient_views``; ``two_dx`` is 2 dx.
    """
    hi, lo, right, left = views
    np.subtract(hi, lo, out=inner)
    np.divide(inner, two_dx, out=inner)
    # both ends in one pass: (u[1] - u[0], u[n-1] - u[n-2]) / dx
    np.subtract(right, left, out=ends)
    np.divide(ends, dx, out=ends)


def _second_difference(u: np.ndarray, dx_sq) -> np.ndarray:
    """Three-point second difference along the last axis into a fresh array, zero at the ends.

    ``dx_sq`` is the squared node spacing.  The pass runs row by row, so no
    value is formed across two rows.
    """
    out = np.zeros(u.shape)
    _d2_into(u[..., :-2], u[..., 1:-1], u[..., 2:], dx_sq, out[..., 1:-1])
    return out


def _space_gradient(u: np.ndarray, dx: float) -> np.ndarray:
    """Central differences inside, one-sided at the two boundary nodes, into a fresh array."""
    z = np.empty_like(u)
    _gradient_into(_gradient_views(u), dx, 2.0 * dx, z[..., 1:-1], z[..., :: u.shape[-1] - 1])
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

    The tests are cheap.  With an envelope (each one finite), every layer
    takes one sum of squares: with m the smallest envelope, |x| > m gives
    fl(x^2) >= fl(m^2), and a sum of non-negative terms never rounds below
    its largest, so vdot(row, row) < m * m (inf where that overflows)
    proves every row finite and inside its envelope; a NaN fails it too.
    The test holds while the layer's squares sum to less than the smallest
    envelope's square: bounded data of rows on one scale.  From the first
    layer that fails it (rows of mixed scale, many nodes, or Y grown
    toward its envelope) each layer takes each row's maximum and minimum
    against that row's envelope instead, which a NaN fails and an infinity
    exceeds, so such a march pays one sum of squares more than that test
    alone.  Without an envelope a non-finite node stays non-finite,
    as each layer is the last plus an increment and inf + x is inf or NaN,
    so finiteness is tested once, at layer nt, whatever ``out`` stores; a
    test that fails re-marches from the datum with a test on every layer,
    which raises at the first failing layer and row.  The Picard predictor
    is tested at every layer, as a driver may map a non-finite predictor
    to a finite value.

    ``g_fn`` and ``f_fn`` are TriFunctions; the kernel calls their compiled
    closures inside its error state, which ignores every floating-point
    condition, so a driver that divides by zero or overflows surfaces as a
    NonFiniteError, never as a warning.  A driver that is the literal 0 is
    neither evaluated nor added: 0 + a is a except at a = -0, which G maps
    to +0 as it does +0, and 2 G(.) is never -0, so the bits stay.  When
    neither driver reads ``z`` the gradient is not formed.  With ``out``
    (shape (nt // stride + 1,) + datum.shape) the datum goes to out[0] and
    each layer k with k % stride == 0 straight into out[k // stride];
    stride 1 stores every layer.  The other layers alternate between the
    two C-contiguous arrays of ``ring`` (allocated per march when not
    given), layer k in ring[k % 2], so after the march ``ring`` still holds
    the last two layers that are not in ``out``.  The returned last layer
    is a row of ``out`` or of ``ring``.  The ring's views are built once,
    before the march; a flattened view of a non-contiguous batch would be
    a stale copy.
    """
    # a finite array has dot product 0 with zeros; inf * 0 and NaN give NaN
    zeros = np.zeros(datum.size)
    if np.vdot(datum, zeros) != 0.0:
        _raise_failure(0, datum, zeros, None)
    limits = floor = bound_sq = None
    if envelope is not None:
        limits, floor = np.broadcast_to(envelope, datum.shape[:-1]).reshape(-1), -envelope
        smallest = max(float(np.min(limits, initial=np.inf)), 0.0)
        bound_sq = smallest * smallest  # a Python float product overflows to inf, as it should here
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
    reads_z = g_fn is not None and ("z" in g_fn.variables or "z" in f_fn.variables)

    def stencil(u: np.ndarray) -> tuple:
        """D2's (lo, mid, hi) along u flattened, then the gradient's views when a driver reads z."""
        flat = u.reshape(-1)
        return flat[:-2], flat[1:-1], flat[2:], _gradient_views(u) if reads_z else ()

    # D2 sweeps a batch as one flattened row: the values it forms across two rows land in
    # the end columns, which are zeroed again; they can overflow where no row does, so the
    # sweep runs only inside the error state below
    n = datum.shape[-1]
    d2_inner, d2_ends = d2.reshape(-1)[1:-1], d2[..., :: n - 1] if datum.ndim > 1 else None
    ring_stencils = (stencil(ring[0]), stencil(ring[1]))
    if g_fn is not None:
        # a literal-zero driver is None: it is not evaluated and its add is skipped
        g, f = (None if fn.ast == _LITERAL_ZERO else fn._compiled for fn in (g_fn, f_fn))
        grad, half_d2, two_g = (np.empty(datum.shape) for _ in range(3))
        arg = half_d2 if f is None else np.empty(datum.shape)
        grad_inner, grad_ends = grad[..., 1:-1], grad[..., :: n - 1]
        grad_dx, two_dx = np.array(dx), np.array(2.0 * dx)
        predictor = np.empty(datum.shape) if picard else None
        predictor_views = _gradient_views(predictor) if picard and reads_z else ()

    def sweep(each: bool) -> np.ndarray | None:
        """Layers 1..nt; with ``each`` every layer is tested, and a failed test raises.

        Without ``each`` (a march without an envelope) only layer nt and the
        Picard predictors are tested, and a failed test returns None, as an
        untested earlier layer may have failed first.
        """
        # a layer's views are built once per buffer: the datum's and the ring's above, a checkpoint
        # row's when it is written; the step calls the ufuncs on them in the allocating step's order
        layer, (lo, mid, hi, gradient) = datum, stencil(datum)
        by_sum = True  # the sum-of-squares test, until a layer fails it
        # the kernel names its own failures: an overflow or x/0 is a NonFiniteError, not a warning
        with np.errstate(all="ignore"):
            for k in range(1, nt + 1):
                checkpoint = out is not None and k % stride == 0
                row = out[k // stride] if checkpoint else ring[k % 2]
                _d2_into(lo, mid, hi, dx_sq, d2_inner)
                if d2_ends is not None:
                    d2_ends.fill(0.0)
                if g_fn is None:
                    # u + dt * G(D2 u): the driver step with zero terms, as 2 G(a / 2) = G(a)
                    _g_into(half_max, half_min, d2, row, scratch)
                    np.multiply(row, step, out=row)
                else:
                    np.multiply(half, d2, out=half_d2)
                    t, y, y_views = layer_times[k], layer, gradient
                    # dt * (g + 2 G(f + D2 u / 2)), into the Picard predictor first when there is one
                    for into in (predictor, row) if picard else (row,):
                        env = {"t": t, "y": y}
                        if reads_z:
                            _gradient_into(y_views, grad_dx, two_dx, grad_inner, grad_ends)
                            env["z"] = grad
                        if f is not None:
                            np.add(f(env), half_d2, out=arg)
                        _g_into(half_max, half_min, arg, two_g, scratch)
                        np.multiply(two, two_g, out=two_g)
                        if g is not None:
                            np.add(g(env), two_g, out=two_g)
                        np.multiply(step, two_g, out=into)
                        if into is predictor:  # the drivers are evaluated again at u + increment
                            np.add(layer, predictor, out=predictor)
                            if np.vdot(predictor, zeros) != 0.0:
                                if not each:
                                    return None
                                _raise_failure(k, predictor, zeros, None)
                            y, y_views = predictor, predictor_views
                np.add(layer, row, out=row)
                if limits is None:
                    if each and np.vdot(row, zeros) != 0.0:
                        _raise_failure(k, row, zeros, None)
                elif not (by_sum and np.vdot(row, row) < bound_sq):
                    # this layer and every later one take each row's largest and smallest value
                    # against its own envelope: a NaN fails both comparisons and an infinity
                    # exceeds the finite bound
                    by_sum = False
                    below = np.maximum.reduce(row, -1) <= envelope
                    above = np.minimum.reduce(row, -1) >= floor
                    if not (below and above if single else (below & above).all()):
                        _raise_failure(k, row, zeros, limits)
                layer, (lo, mid, hi, gradient) = row, stencil(row) if checkpoint else ring_stencils[k % 2]
            # a non-finite node stays non-finite, so layer nt's test covers every layer before it
            return layer if each or np.vdot(layer, zeros) == 0.0 else None

    # an envelope tests every layer; a failed test re-marches from the datum with a test on
    # every layer, which raises at the first failing layer, as the march repeats its bits
    last = sweep(limits is not None)
    return last if last is not None else sweep(True)


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
    linearly between the two bracketing time layers.  A t that
    ``grid.check_interval(0, t)`` refuses raises ValueError.
    """
    grid.check_interval(0.0, t)
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
    psi(x_1, ..., x_i) multilinearly; three off-node probes, re-solved
    together as one batch, estimate the interpolation residual, and
    GridResolutionError is raised when it exceeds ``residual_tol``
    relative to the payoff scale.
    """
    m = len(payoff.times)
    if not 1 <= i < m:
        raise ValueError(f"conditioning index must satisfy 1 <= i < {m}, got {i}")
    theta = min(grid.dt * band.sigma_max_sq / (grid.dx * grid.dx), DEFAULT_CFL_THETA)
    grids = [make_grid(band, d, grid.nx, theta=theta) for d in payoff.increments]
    axes = [g.xs for g in grids]

    def reduce(mesh: Sequence[np.ndarray]) -> np.ndarray:
        """The payoff on ``mesh`` (coordinate arrays of one shape) reduced over increments i+1..m."""
        values = np.asarray(payoff.fn(*mesh), dtype=float)
        values = np.broadcast_to(values, mesh[0].shape).copy()
        for k in range(m - 1, i - 1, -1):
            values = _reduce_last_axis(band, values, grids[k])
        return values

    table_values = reduce(np.meshgrid(*axes, indexing="ij"))
    table = TabulatedFunction(axes[:i], table_values)

    # Probe interpolation quality: re-solve at a few off-node points, all in one march.
    scale = 1.0 + float(np.max(np.abs(table_values)))
    rng = np.random.default_rng(7)
    points = [[float(rng.uniform(a[1], a[-2])) for a in axes[:i]] for _ in range(3)]
    # each probe's mesh has one node per conditioned axis; stacked along a leading batch
    # axis, each probe stays a row of its own, with the bits of its single reduction
    meshes = [np.meshgrid(*[np.array([p]) for p in point], *axes[i:], indexing="ij") for point in points]
    exact = reduce([np.stack(coords) for coords in zip(*meshes)]).reshape(len(points))
    worst = 0.0
    for point, value in zip(points, exact):
        worst = max(worst, abs(table(*point) - float(value)))
    if worst > residual_tol * scale:
        raise GridResolutionError(
            f"interpolation residual {worst:.3e} exceeds {residual_tol} * scale {scale:.3e}; "
            f"increase nx"
        )
    return table
