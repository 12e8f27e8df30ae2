"""Explicit monotone finite-difference solver for the nonlinear heat
equation du/dt = G(d2u/dx2) driven by a volatility band, plus the
expectation functionals built on it.

The scheme marches whole layers::

    u_next = u + (max(a * D, b * D) + dt * g_term),  D = d + 2 dx^2 * f_term

with d = (u[j+1] - 2 u[j]) + u[j-1] the undivided three-point second
difference (zero at the two boundary nodes, exact for affine tails) and
the constants a = dt sigma_max_sq / (2 dx^2), b = dt sigma_min_sq /
(2 dx^2) folded once per march.  It is the paper's
u + dt (g + 2 G(f + D2 u / 2)), with the division by dx^2, the product
with dt and the halving of G folded into a and b, so its values differ
from that form by a few ulps.  Without drivers the step is
``u + max(a * d, b * d)``, the same arithmetic with nothing to add, so the
heat solve, the backward solver and the conditional reductions agree bit
for bit when the drivers are zero.

``_march`` is the one kernel: it advances every layer of every solve and
tests each for finiteness and against the blow-up envelope; its docstring
says how, and how a failure names its layer and row.  ``_d2_into`` and
``_gradient_into`` are the one form of each stencil, for the kernel and
for the allocating ``_second_difference`` and ``_space_gradient`` alike.
``FieldSolution`` says which layers a solve keeps and how a read of any
other re-marches them.  ``solve_g_heat_batch`` (and
``gbsde.solve_gbsde_batch``) march a stack of data on one grid in one
pass, each row with the bits of its own solve; ``solve_g_heat`` is the
stack of one.  ``conditional_g_expectation`` returns a table that reduces
an entry the first time a read needs it; its docstring says when a
failure raises.

Monotonicity under the CFL bound makes the scheme converge to the
viscosity solution and gives discrete maximum/comparison principles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    DEFAULT_CFL_THETA,
    SpaceTimeGrid,
    VolatilityBand,
    _add,
    _check_count,
    _divide,
    _multiply,
    _subtract,
    _uniforms,
    make_grid,
)
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


def _d2_into(lo, mid, hi, inner) -> None:
    """The undivided three-point second difference (hi - 2 mid) + lo into ``inner``.

    ``lo``, ``mid`` and ``hi`` are the node's left neighbour, the node and
    its right neighbour; 2 mid is formed exactly as mid + mid.  The kernel
    passes views built once per layer buffer, the allocating form fresh ones.
    """
    _add(mid, mid, inner)
    _subtract(hi, inner, inner)
    _add(inner, lo, inner)


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
    _subtract(hi, lo, inner)
    _divide(inner, two_dx, inner)
    # both ends in one pass: (u[1] - u[0], u[n-1] - u[n-2]) / dx
    _subtract(right, left, ends)
    _divide(ends, dx, ends)


def _second_difference(u: np.ndarray, dx_sq) -> np.ndarray:
    """Three-point second difference along the last axis into a fresh array, zero at the ends.

    ``dx_sq`` is the squared node spacing, divided once after the undivided
    difference.  The pass runs row by row, so no value is formed across two
    rows.
    """
    out = np.zeros(u.shape)
    _d2_into(u[..., :-2], u[..., 1:-1], u[..., 2:], out[..., 1:-1])
    return _divide(out, dx_sq, out)


def _space_gradient(u: np.ndarray, dx: float) -> np.ndarray:
    """Central differences inside, one-sided at the two boundary nodes, into a fresh array."""
    z = np.empty_like(u)
    _gradient_into(_gradient_views(u), dx, 2.0 * dx, z[..., 1:-1], z[..., :: u.shape[-1] - 1])
    return z


_LARGEST = np.finfo(float).max


def _check_rows(k: int, layer: np.ndarray, envelope=_LARGEST) -> None:
    """Return if every row of layer k is finite and inside its envelope; else raise naming the first failing row.

    A row is one slice along the last axis, counted in C order over the
    leading axes (0 for a 1-d layer).  ``envelope`` is finite: one value,
    or one per row shaped like the leading axes; the default, the largest
    float, tests finiteness alone.  Each row's largest and smallest value
    decide: a NaN fails every comparison and an infinity exceeds any
    finite bound.  A layer with a row that is not finite raises
    NonFiniteError naming the first such row, else BlowUpError naming the
    first row beyond its envelope, with that row's largest |value|.
    """
    top, bottom = np.maximum.reduce(layer, -1), np.minimum.reduce(layer, -1)
    if (np.maximum(top, -bottom) <= envelope).all():
        return
    top, bottom = top.reshape(-1), bottom.reshape(-1)
    finite = np.isfinite(top) & np.isfinite(bottom)  # a NaN anywhere in a row makes its largest value NaN
    if not finite.all():
        raise NonFiniteError(k, int(np.flatnonzero(~finite)[0]))
    peaks = np.maximum(top, -bottom)  # each row's largest |value|
    limits = np.broadcast_to(envelope, layer.shape[:-1]).reshape(-1)
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
    is one step u + (max(a D, b D) + dt g) from layer k-1, D = d + 2 dx^2 f,
    with the drivers evaluated at ``layer_times[k]``; without drivers
    (``g_fn`` None, or both the literal 0) it is u + max(a d, b d), and the
    driver loop is skipped.  d is the undivided second difference and
    a = dt sigma_max_sq / (2 dx^2), b = dt sigma_min_sq / (2 dx^2) and
    2 dx^2 are formed once per march, so a heat layer takes seven numpy
    calls.  ``picard`` corrects the driver arguments once against the
    explicit predictor, which takes the same step.  Layer 1 adds its
    increment to datum + 0.0, formed once, while out[0] keeps the datum
    and the drivers read it as given: x + y is -0 only when both are -0,
    so no later layer holds a -0, and the sign of a zero maximum or of a
    zero-valued driver never reaches a layer.  The datum, each layer and
    each predictor must be finite, else NonFiniteError names the layer and
    the row.  With ``envelope`` set (one value, or one per row shaped
    like the batch axes), a layer with a row whose largest |value| exceeds
    that row's envelope raises BlowUpError naming the layer and the row.
    The first failing layer raises; within it a non-finite row wins over
    a row beyond its envelope, and of several rows the first is named.
    One function, ``_check_rows``, makes that decision from each row's
    largest and smallest value and raises: for the datum, for a layer
    that fails the sum of squares below, and to name a predictor that
    failed its test.

    The tests are cheap, and a tested layer takes one row test, with an
    envelope or without.  It is one sum of squares: with m the smallest
    envelope (each one finite; the largest float without an envelope),
    |x| > m gives fl(x^2) >= fl(m^2), and a sum of non-negative terms never
    rounds below its largest, so vdot(row, row) < m * m (inf where that
    overflows) proves every row finite and inside its envelope; a NaN fails
    it too.  The test holds while the layer's squares sum to less than the
    smallest envelope's square: bounded data of rows on one scale.  From
    the first layer that fails it (rows of mixed scale, many nodes, or Y
    grown toward its envelope) each layer takes ``_check_rows`` instead,
    which raises on a failing row, so such a march pays one sum of squares
    more than that test alone.  With an envelope every layer is tested.
    Without one a non-finite node stays non-finite, as each layer is the
    last plus an increment and inf + x is inf or NaN, so finiteness is
    tested once, at layer nt, whatever ``out`` stores; a test that fails
    re-marches from the datum with the row test on every layer, which
    raises at the first failing layer and row.  The Picard predictor is
    tested at every layer, as a driver may map a non-finite predictor to a
    finite value.

    ``g_fn`` and ``f_fn`` are TriFunctions; the kernel calls their compiled
    closures inside its error state, which ignores every floating-point
    condition, so a driver that divides by zero or overflows surfaces as a
    NonFiniteError, never as a warning.  A driver that is the literal 0 is
    neither evaluated nor added: 0 + a is a except at a = -0, and a zero
    increment leaves a layer that holds no -0 as it is, so the bits stay.
    When neither driver reads ``z`` the gradient is not formed.  With ``out``
    (shape (nt // stride + 1,) + datum.shape) the datum goes to out[0] and
    each layer k with k % stride == 0 straight into out[k // stride];
    stride 1 stores every layer.  The other layers alternate between the
    two C-contiguous arrays of ``ring`` (allocated per march when not
    given), layer k in ring[k % 2], so after the march ``ring`` still holds
    the last two layers that are not in ``out``.  The returned last layer
    is a row of ``out`` or of ``ring``.  The stencil views a step reads
    (d's three along the flattened layer, and the gradient's four when a
    driver reads z) are built once per buffer: for the datum and the ring
    before the march, for a checkpoint row once it is written; a flattened
    view of a non-contiguous batch would be a stale copy.  The ufuncs take
    their outputs by position, which numpy parses faster per call than the
    ``out=`` keyword (``np.maximum`` keeps ``out=``).
    """
    _check_rows(0, datum)
    # a finite array has dot product 0 with zeros; inf * 0 and NaN give NaN
    zeros = np.zeros(datum.size)
    # without an envelope a tested layer is held to the largest float, whose square is inf
    limit = _LARGEST if envelope is None else envelope
    smallest = max(float(np.min(limit, initial=np.inf)), 0.0)
    bound_sq = smallest * smallest  # a Python float product overflows to inf, as it should here
    # the folded constants, 0-d arrays: numpy takes them per call faster than Python floats
    two_dx_sq = 2.0 * dx * dx
    a, b, two_dx_sq, dt = map(
        np.array, (dt * band.sigma_max_sq / two_dx_sq, dt * band.sigma_min_sq / two_dx_sq, two_dx_sq, dt)
    )
    d = np.zeros(datum.shape)
    scratch = np.empty(datum.shape)
    if ring is None:
        ring = (np.empty(datum.shape), np.empty(datum.shape))
    if out is not None:
        out[0] = datum
    # a literal-zero driver is None: it is not evaluated and its add is skipped; with both None
    # (or no drivers at all) the march takes the heat step u + max(a d, b d)
    g, f = (None if fn is None or fn.ast == _LITERAL_ZERO else fn._compiled for fn in (g_fn, f_fn))
    driven = g is not None or f is not None
    reads_z = driven and ("z" in g_fn.variables or "z" in f_fn.variables)

    def stencil(u: np.ndarray) -> tuple:
        """d's (lo, mid, hi) along u flattened, then the gradient's views when a driver reads z."""
        flat = u.reshape(-1)
        return flat[:-2], flat[1:-1], flat[2:], _gradient_views(u) if reads_z else ()

    # d sweeps a batch as one flattened row: the values it forms across two rows land in
    # the end columns, which are zeroed again; they can overflow where no row does, so the
    # sweep runs only inside the error state below
    n = datum.shape[-1]
    d_inner, d_ends = d.reshape(-1)[1:-1], d[..., :: n - 1] if datum.ndim > 1 else None
    ring_stencils = (stencil(ring[0]), stencil(ring[1]))
    if driven:
        grad = np.empty(datum.shape)
        arg = d if f is None else np.empty(datum.shape)  # the maximum's argument, d + 2 dx^2 f
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
        base = datum + 0.0  # what layer 1 adds its increment to: the datum with no -0
        by_sum = True  # the sum-of-squares test, until a layer fails it
        # the kernel names its own failures: an overflow or x/0 is a NonFiniteError, not a warning
        with np.errstate(all="ignore"):
            for k in range(1, nt + 1):
                checkpoint = out is not None and k % stride == 0
                row = out[k // stride] if checkpoint else ring[k % 2]
                _d2_into(lo, mid, hi, d_inner)
                if d_ends is not None:
                    d_ends.fill(0.0)
                if not driven:
                    # u + max(a d, b d): the driver step with nothing to add
                    _multiply(a, d, row)
                    np.maximum(row, _multiply(b, d, scratch), out=row)
                    _add(base, row, row)
                else:
                    t, y, y_views = layer_times[k], layer, gradient
                    # (max(a D, b D) + dt g) + u with D = d + 2 dx^2 f, into the Picard predictor
                    # first when there is one
                    for into in (predictor, row) if picard else (row,):
                        env = {"t": t, "y": y}
                        if reads_z:
                            _gradient_into(y_views, grad_dx, two_dx, grad_inner, grad_ends)
                            env["z"] = grad
                        if f is not None:
                            _add(d, _multiply(two_dx_sq, f(env), arg), arg)
                        _multiply(a, arg, into)
                        np.maximum(into, _multiply(b, arg, scratch), out=into)
                        if g is not None:
                            _add(into, _multiply(dt, g(env), scratch), into)
                        _add(into, base, into)
                        if into is predictor:  # the drivers are evaluated again at u + increment
                            if np.vdot(predictor, zeros) != 0.0:
                                if not each:
                                    return None
                                _check_rows(k, predictor)
                            y, y_views = predictor, predictor_views
                if each and not (by_sum and np.vdot(row, row) < bound_sq):
                    # this layer and every later one take the per-row test, which raises on failure
                    by_sum = False
                    _check_rows(k, row, limit)
                layer, (lo, mid, hi, gradient) = row, stencil(row) if checkpoint else ring_stencils[k % 2]
                base = row
            # a non-finite node stays non-finite, so layer nt's test covers every layer before it
            return layer if each or np.vdot(layer, zeros) == 0.0 else None

    # an envelope tests every layer; a failed test re-marches from the datum with a test on
    # every layer, which raises at the first failing layer, as the march repeats its bits
    last = sweep(envelope is not None)
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
        for t in self.times:
            if not math.isfinite(t):
                raise ValueError(f"time points must be finite, got {t} in {self.times}")
        if not min(self.increments) > 0.0:  # distinct finite floats have a nonzero difference
            raise ValueError(f"time points must be strictly increasing from 0, got {self.times}")

    @property
    def increments(self) -> tuple[float, ...]:
        return tuple(t - s for s, t in zip((0.0, *self.times), self.times))


def _axis(k: int, nodes) -> np.ndarray:
    """Axis k of a table as an array: at least 2 nodes, strictly increasing and evenly spaced to rounding."""
    axis = np.asarray(nodes)
    if axis.ndim != 1 or len(axis) < 2:
        raise ValueError(f"axis {k} needs a 1-d array of at least 2 nodes, got shape {axis.shape}")
    steps = np.diff(axis)
    # linspace places each node within an ulp or two of its exact place, so a step may miss the
    # first by a few ulps of the largest |node|; a NaN fails both comparisons
    slack = 16.0 * np.finfo(float).eps * max(abs(float(axis[0])), abs(float(axis[-1])))
    if not (steps[0] > 0 and np.all(np.abs(steps - steps[0]) <= slack)):
        raise ValueError(f"axis {k} is not strictly increasing and evenly spaced")
    return axis


class TabulatedFunction:
    """Multilinear interpolant over per-axis node grids.

    Each axis needs at least 2 nodes, strictly increasing and evenly spaced
    (to rounding).  A read interpolates the 2^d entries at the corners of
    the cell that holds it, axis by axis.  ``values`` is the whole table,
    read-only.  A table built by ``_on_demand`` (the one
    ``conditional_g_expectation`` returns) reduces an entry the first time
    a read needs it, and builds ``values`` on first access.
    """

    def __init__(self, axes: Sequence[np.ndarray], values: np.ndarray):
        self.axes = [_axis(k, a) for k, a in enumerate(axes)]
        values = np.asarray(values).view()
        if values.shape != tuple(len(a) for a in self.axes):
            raise ValueError("table shape does not match axes")
        values.setflags(write=False)
        self._entries = self._values = values
        self._unread = np.zeros(values.shape, dtype=bool)  # the entries not reduced yet
        self._source = self._reduce = None

    @classmethod
    def _on_demand(cls, axes: Sequence[np.ndarray], source: np.ndarray, reduce) -> TabulatedFunction:
        """A table whose entry at a node is ``reduce`` of ``source``'s row there, formed when first read.

        ``source`` has the table's shape followed by a row's; ``reduce`` maps
        a stack of rows to one value per row, each with the bits it gets alone.
        """
        entries = np.empty(source.shape[: len(axes)])
        table = cls(axes, entries)
        table._entries, table._values, table._unread = entries, None, np.ones(entries.shape, dtype=bool)
        table._source, table._reduce = source, reduce
        return table

    def _cell(self, coords: Sequence[float]) -> tuple[tuple[slice, ...], list[float]]:
        """The cell that holds ``coords``, as one slice of two nodes per axis, and each axis's weight."""
        if len(coords) != len(self.axes):
            raise ValueError(f"expected {len(self.axes)} coordinates, got {len(coords)}")
        cell, weights = [], []
        for axis, x in zip(self.axes, coords):
            if not (axis[0] - 1e-12 <= x <= axis[-1] + 1e-12):
                raise ValueError(f"coordinate {x} outside table range [{axis[0]}, {axis[-1]}]")
            pos = (x - axis[0]) / (axis[1] - axis[0])
            k = int(np.clip(math.floor(pos), 0, len(axis) - 2))
            cell.append(slice(k, k + 2))
            weights.append(pos - k)
        return tuple(cell), weights

    def _fill(self, cells, extra: np.ndarray | None = None) -> np.ndarray:
        """Reduce the unread entries of ``cells`` in one batch, with ``extra``'s rows after them.

        The entries go in C order; a failure names its row within this
        batch and leaves the entries unread.  Returns ``extra``'s reductions.
        Once every entry is reduced the table lets go of ``source``.
        """
        wanted = np.zeros_like(self._unread)
        for cell in cells:
            wanted[cell] = True
        nodes = np.nonzero(wanted & self._unread)
        rows = self._source[nodes]
        if extra is not None:
            rows = np.concatenate([rows, extra])
        reduced = self._reduce(rows)
        n = len(nodes[0])
        self._entries[nodes] = reduced[:n]
        self._unread[nodes] = False
        if not self._unread.any():  # every entry is reduced: the rows are not needed again
            self._source = self._reduce = None
        return reduced[n:]

    @_derived
    def values(self) -> np.ndarray:
        """The whole table, read-only; unread entries are reduced on first access, in one batch."""
        if self._unread.any():
            self._fill([...])
        return self._entries

    def __call__(self, *coords: float) -> float:
        cell, weights = self._cell(coords)
        if self._unread[cell].any():
            self._fill([cell])
        block = self._entries[cell]
        for w in weights:
            block = (1.0 - w) * block[0] + w * block[1]
        return float(block)


def _reduce_last_axis(band: VolatilityBand, values: np.ndarray, grid: SpaceTimeGrid) -> np.ndarray:
    """Expectation over the last increment: batched 1-d heat solves.

    ``values`` has shape (..., grid.nx); each leading slice is a datum on
    ``grid.xs`` and reduces to its solved value at the node x = 0.
    """
    return _march(band, grid.dx, grid.dt, grid.nt, values)[..., grid.center_index]


def _probe_points(axes: Sequence[np.ndarray]) -> list[list[float]]:
    """The three residual probes of a table on ``axes``, each coordinate in [a[1], a[-2]) of its axis a.

    They are the first 3 len(axes) values of the splitmix64 stream of
    seed 7 (``core._uniforms``), probe by probe.
    """
    lows, highs = [a[1] for a in axes], [a[-2] for a in axes]
    return _uniforms(7, (3, len(axes)), lows, highs).tolist()


def conditional_g_expectation(
    band: VolatilityBand,
    payoff: CylinderPayoff,
    i: int,
    grid: SpaceTimeGrid,
    residual_tol: float = 0.05,
) -> TabulatedFunction:
    """Condition the cylinder payoff on the first i increments.

    Each remaining increment is a heat problem, innermost first, on a
    ``make_grid`` grid with ``grid.nx`` nodes sized to that increment (so
    an even ``nx`` raises ValueError).  The returned table interpolates
    psi(x_1, ..., x_i) multilinearly.  Its entry at a node is the payoff
    with the first i coordinates fixed there, reduced over the other
    increments, and it is reduced the first time a read needs it: a read
    reduces its cell's unread 2^i corner entries in one march per
    increment and keeps them, and ``values`` reduces the rest on first
    access.  Every entry has the bits of its own reduction.  The call
    evaluates the payoff on the whole mesh, so a NaN or infinity there
    raises NonFiniteError (layer 0) at once; a failure in a later layer
    raises at the read that reduces the entry, with ``row`` counted within
    that read's batch.  Three off-node probes, drawn by ``_probe_points``
    from the package's splitmix64 stream (seed 7) with each coordinate in
    [a[1], a[-2]) of its axis a, are reduced in one batch with the corner
    entries they interpolate from; they estimate the interpolation
    residual, and GridResolutionError is raised when it exceeds
    ``residual_tol`` times the scale 1 + max|entry| over those corner
    entries.  A NaN or negative ``residual_tol``, or an ``i`` that is a
    float or a bool, raises ValueError before any work.
    """
    _check_count("i", i)
    m = len(payoff.times)
    if not 1 <= i < m:
        raise ValueError(f"conditioning index must satisfy 1 <= i < {m}, got {i}")
    if not residual_tol >= 0.0:
        raise ValueError(f"residual_tol must be >= 0, got {residual_tol}")
    theta = min(grid.dt * band.sigma_max_sq / (grid.dx * grid.dx), DEFAULT_CFL_THETA)
    grids = [make_grid(band, d, grid.nx, theta=theta) for d in payoff.increments]
    axes = [g.xs for g in grids]

    def payoff_on(mesh: Sequence[np.ndarray]) -> np.ndarray:
        """The payoff on ``mesh`` (coordinate arrays of one shape), broadcast to that shape."""
        return np.broadcast_to(np.asarray(payoff.fn(*mesh), dtype=float), mesh[0].shape)

    def reduce(rows: np.ndarray) -> np.ndarray:
        """A stack of the payoff's rows over increments i+1..m, each reduced to one value."""
        for k in range(m - 1, i - 1, -1):
            rows = _reduce_last_axis(band, rows, grids[k])
        return rows

    source = payoff_on(np.meshgrid(*axes, indexing="ij"))
    _check_rows(0, source)
    table = TabulatedFunction._on_demand(axes[:i], source, reduce)

    # Probe interpolation quality: re-solve at a few off-node points, in one march with the
    # corner entries they interpolate from; each probe's mesh has one node per conditioned axis
    points = _probe_points(axes[:i])
    meshes = [np.meshgrid(*[np.array([p]) for p in point], *axes[i:], indexing="ij") for point in points]
    probes = payoff_on([np.stack(coords) for coords in zip(*meshes)])
    cells = [table._cell(point)[0] for point in points]
    exact = table._fill(cells, probes.reshape(len(points), *source.shape[i:]))
    scale = 1.0 + max(float(np.max(np.abs(table._entries[cell]))) for cell in cells)
    worst = 0.0
    for point, value in zip(points, exact):
        worst = max(worst, abs(table(*point) - float(value)))
    if worst > residual_tol * scale:
        raise GridResolutionError(
            f"interpolation residual {worst:.3e} exceeds {residual_tol} * scale {scale:.3e}; "
            f"increase nx"
        )
    return table
