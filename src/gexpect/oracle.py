"""Independent verification machinery: a worst-case-volatility binomial
tree for the band's expectations and a seeded path simulator for
quadratic-variation and K-monotonicity experiments.

Both trees run one backward loop, ``_lattice``: nodes sigma_max * sqrt(dt)
apart and no boundary, each taking the better continuation of the two band
endpoints (exact for a reward linear in the variance), plus K's per-step
``_k_step`` in ``tree_k_expectation``.  ``_lattice``'s docstring says how
it steps and what it does with a terminal that is not finite.  The step
reads no dt, so ``tree_expectation_batch`` marches trees of several
functions and times on one band as the columns of one lattice, each with
its own tree's bits; ``tree_expectation`` is the stack of one.  The tree's independence from the
PDE solve lies in this lattice, not in the expression compiler, which
evaluates phi for both.  Path innovations are +-1 from a fixed 64-bit
shift-register generator so that quadratic variation is exact per step
and runs reproduce bit for bit.  The path loop runs on Python floats; IEEE
arithmetic is the same on a Python float as on a numpy scalar, so the
paths keep the bits of the earlier loop on numpy scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SpaceTimeGrid, VolatilityBand, _MASK, _add, _check_count, _check_nonnegative, _multiply, _splitmix64, _subtract
from .gbsde import _k_step

__all__ = [
    "LatticePath",
    "RNG_ALGORITHM",
    "tree_expectation",
    "tree_expectation_batch",
    "simulate_path",
    "quadratic_variation",
    "mutual_variation",
    "tree_k_expectation",
    "gauss_hermite_expectation",
]

RNG_ALGORITHM = "splitmix64+xorshift64star-v1"

_POLICIES = ("const-low", "const-high", "random", "markov")


class _Xorshift64Star:
    """Deterministic 64-bit shift-register stream; seed state via splitmix."""

    def __init__(self, seed: int):
        state = _splitmix64(seed & _MASK)
        self._state = state if state else 0x9E3779B97F4A7C15

    def next_bit(self) -> int:
        """The top bit of the next output word."""
        x = self._state
        x ^= (x >> 12)
        x ^= (x << 25) & _MASK
        x ^= (x >> 27)
        self._state = x
        return ((x * 0x2545F4914F6CDD1D) & _MASK) >> 63


@dataclass(frozen=True)
class LatticePath:
    """Simulated path: positions b and realised variance density a.

    ``times`` and ``b`` have one entry per node (n + 1), ``a`` one entry
    per step (n), and ``qv`` accumulates the squared increments so it
    matches quadratic variation exactly.
    """

    times: np.ndarray
    b: np.ndarray
    a: np.ndarray
    qv: np.ndarray

    def __post_init__(self) -> None:
        if len(self.b) != len(self.times) or len(self.qv) != len(self.times):
            raise ValueError("times, b and qv must have equal length")
        if len(self.a) != len(self.times) - 1:
            raise ValueError("a must have one entry per step")
        if self.qv[0] != 0.0 or np.any(np.diff(self.qv) < 0.0):
            raise ValueError("qv must be nondecreasing from 0")
        for arr in (self.times, self.b, self.a, self.qv):
            arr.setflags(write=False)


_HALF = np.array(0.5)  # 0-d arrays: numpy takes them per call faster than floats
_HALF.setflags(write=False)
_BLOCK = 32  # the lattice builds its views once per block of this many steps, not once per step
_LINE = 64  # bytes in a cache line


def _empty_on_line(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised float array whose data starts on a cache-line boundary.

    The lattice step takes up to a third longer on arrays that start off
    a line, where numpy's allocator may leave them depending on what was
    freed before; a line-aligned lattice runs at one speed.
    """
    size = math.prod(shape)
    raw = np.empty(size + _LINE // 8 - 1)
    start = -raw.__array_interface__["data"][0] % _LINE // 8
    return raw[start : start + size].reshape(shape)


def _lattice(band: VolatilityBand, dts, steps: int, terminals, reward=None) -> np.ndarray:
    """Backward induction of a stack of trees over ``steps`` steps; returns their root values.

    Column b of the (2 steps + 1, B) lattice takes ``terminals[b]`` at the
    end nodes, sigma_max * sqrt(dts[b]) apart.  With d = avg - mid (avg the
    mean of a node's neighbours) a node continues to mid + d at the top band
    end and mid + c d at the bottom, and takes the larger:
    mid + max(d, c d) in place (rounding is monotone),
    or, with rewards ``reward(i, xs) = (top, bottom)`` at forward step i for
    a stack of one, max(top + (mid + d), bottom + (mid + c d)).  The step
    reads no dt (c = sigma_min_sq / sigma_max_sq), so trees of one band and
    one ``steps`` march as one recurrence; every operation is elementwise,
    so each column keeps the bits of its own march.  Nodes run along axis 0
    and the B columns of a node lie together: the working set stays that of
    one tree B values wide, where a row per tree falls out of cache.  The
    loop steps the lattice as one flat array, so lo, mid and hi are 1-d runs
    B values apart for every B, and the ufuncs take their outputs by
    position, which numpy parses faster per call than the ``out=`` keyword
    (``np.maximum`` keeps ``out=``); a stack of one steps 1-d views, not
    (n, 1) columns.

    The views are built once per block of ``_BLOCK`` steps: a block steps
    the window of its first step's cone, and the reward reads that window's
    nodes (``xs`` 1-d).  The up to ``_BLOCK - 1`` outer nodes per side
    that its later steps update lie outside the root's cone and are never
    read, so the root keeps the bits of a loop that forms only the cone.
    The steps run under ``np.errstate(all="ignore")``, as the heat march
    does: an outer node may overflow or form inf - inf unseen, and a
    terminal that is not finite inside the cone gives a root that is not
    finite, returned as it is.
    """
    dxs = [band.sigma_max * math.sqrt(dt) for dt in dts]
    width = len(dxs)
    ks = np.arange(-steps, steps + 1)
    values = _empty_on_line((2 * steps + 1, width))  # the lattice is stepped in place
    for b, (terminal, dx) in enumerate(zip(terminals, dxs)):
        values[:, b] = terminal(dx * ks)
    flat = values.reshape(-1)  # node-major: node k's B columns lie at [k B, (k + 1) B)
    xs = dxs[0] * ks  # the reward's nodes, for a stack of one
    c = np.array(2.0 * (band.sigma_min_sq / (2.0 * band.sigma_max_sq)))  # 2 p_low
    d, cd = _empty_on_line(((2 * steps - 1) * width,)), _empty_on_line(((2 * steps - 1) * width,))
    with np.errstate(all="ignore"):
        for first in range(steps - 1, -1, -_BLOCK):  # the forward step i of the block's first step
            # the cone of that step (nodes steps - first .. steps + first and one each side), as
            # three contiguous runs of the flat lattice B apart, and the nodes of its mid for the reward
            start, n = (steps - 1 - first) * width, (2 * first + 1) * width
            lo, mid, hi = (flat[at : at + n] for at in range(start, start + 3 * width, width))
            dn, cdn, x = d[:n], cd[:n], xs[steps - first : steps + 1 + first]
            for i in range(first, max(first - _BLOCK, -1), -1):
                _add(hi, lo, dn)
                _multiply(dn, _HALF, dn)
                _subtract(dn, mid, dn)
                _multiply(dn, c, cdn)
                if reward is None:
                    _add(mid, np.maximum(dn, cdn, out=dn), mid)
                else:
                    top, bottom = reward(i, x)
                    np.maximum(top + (mid + dn), bottom + (mid + cdn), out=mid)
    return values[steps].copy()


def tree_expectation_batch(band: VolatilityBand, phis, times, steps: int) -> np.ndarray:
    """Worst-case expectations of each phi at each time, all trees in one lattice march.

    Returns an array of shape (len(phis), len(times)) whose entry [i, j] has
    the bits of ``tree_expectation(band, phis[i], times[j], steps)``: the
    tree step reads no dt, which only sets where a terminal is sampled, so
    every tree of the stack is a column of one ``_lattice`` march.  Every
    time must be finite and >= 0, and steps >= 1; both are checked before
    any phi is evaluated; a ``steps`` that is a float or a bool raises
    ValueError.  An empty ``phis`` or ``times`` raises ValueError.
    """
    if not len(phis):
        raise ValueError("phis must hold at least one function")
    if not len(times):
        raise ValueError("times must hold at least one time")
    for t in times:
        _check_nonnegative("t", t)
    _check_count("steps", steps)
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    dts = [t / steps for t in times]
    roots = _lattice(band, dts * len(phis), steps, [phi for phi in phis for _ in times])
    return roots.reshape(len(phis), len(times))


def tree_expectation(band: VolatilityBand, phi, t: float, steps: int) -> float:
    """Worst-case expectation of phi at time t on a recombining lattice.

    Node spacing sigma_max * sqrt(dt); each backward step takes the larger
    of the two endpoint one-step expectations (move probability a * dt /
    (2 dx^2), stay otherwise).  ``phi`` may be any callable on arrays;
    t must be finite and >= 0, and steps >= 1.  The lattice steps without
    numpy warnings: a phi that is NaN or infinite at a node gives a value
    that is not finite, returned as it is.  This is
    ``tree_expectation_batch`` of one phi at one time.
    """
    return float(tree_expectation_batch(band, [phi], [t], steps)[0, 0])


def simulate_path(
    band: VolatilityBand,
    policy: str,
    grid: SpaceTimeGrid,
    seed: int,
    field=None,
) -> LatticePath:
    """Admissible scenario with +-1 innovations and a variance control.

    Policies: ``const-low`` / ``const-high`` pin the control to a band
    endpoint, ``random`` flips it per step, ``markov`` plays the band
    endpoint that locally attains the worst case for the supplied
    backward solution (sign of its eta at the current node); it raises
    ValueError unless ``grid`` has the solution's nt and horizon and
    ``band`` is the solution's band.  ``seed`` is a Python or numpy
    integer; a float or a bool raises ValueError.
    """
    _check_count("seed", seed)
    if policy not in _POLICIES:
        raise ValueError(f"policy must be one of {_POLICIES}, got {policy!r}")
    if policy == "markov":
        if field is None:
            raise ValueError("markov policy needs the backward solution")
        field._check_time_grid(grid.nt, grid.horizon)
        field._check_band(band)
        # field.eta_forward(i, x) inlined on Python floats: a call costs about 15 us, some
        # five times a whole step of this loop; the reference path test pins the two together
        eta, field_nt = field.eta, field.grid.nt
        x_min, dx, last = field.grid.x_min, field.grid.dx, field.grid.nx - 1
    rng = _Xorshift64Star(int(seed))  # the generator's 64-bit arithmetic needs a Python int
    nt = grid.nt
    low, high = band.sigma_min_sq, band.sigma_max_sq
    # each step is sqrt(a * dt) for a band end; the loop runs on Python floats
    low_step, high_step = math.sqrt(low * grid.dt), math.sqrt(high * grid.dt)
    x = 0.0
    b, a, squares = [x], [], []
    for i in range(nt):
        if policy == "const-low":
            up = False
        elif policy == "const-high":
            up = True
        elif policy == "random":
            up = rng.next_bit()
        else:
            j = min(max(round((x - x_min) / dx), 0), last)
            up = eta[field_nt - i, j] >= 0.0
        a_i, step = (high, high_step) if up else (low, low_step)
        x = x + step if rng.next_bit() else x - step
        a.append(a_i)
        b.append(x)
        squares.append(step * step)
    qv = np.empty(nt + 1)
    qv[0] = 0.0
    np.cumsum(squares, out=qv[1:])  # sequential, as a running sum is
    times = np.linspace(0.0, grid.horizon, nt + 1)
    return LatticePath(times=times, b=np.array(b), a=np.array(a), qv=qv)


def quadratic_variation(path: LatticePath) -> np.ndarray:
    """Partial sums of squared increments (exact for +-1 innovations).

    This is the path's mutual variation with itself: polarisation forms
    each increment d as 0.25 * ((2 d)^2 - 0), which is d^2 exactly while
    d^2 stays clear of the subnormal and overflow ranges, since scaling by
    a power of two is exact there.
    """
    return mutual_variation(path, path)


def mutual_variation(p1: LatticePath, p2: LatticePath) -> np.ndarray:
    """Polarisation: (qv(p1 + p2) - qv(p1 - p2)) / 4 on shared time grids."""
    if len(p1.times) != len(p2.times) or np.any(p1.times != p2.times):
        raise ValueError("paths live on different time grids")
    d1 = np.diff(p1.b)
    d2 = np.diff(p2.b)
    out = np.empty(len(p1.b))
    out[0] = 0.0
    np.cumsum(0.25 * ((d1 + d2) ** 2 - (d1 - d2) ** 2), out=out[1:])
    return out


def tree_k_expectation(band: VolatilityBand, sol) -> float:
    """Worst-case expectation of the terminal K of a backward solution.

    Dynamic program on the same time grid as the solution, with the
    per-step reward eta * a * dt - 2 G(eta) * dt of ``k_along_path`` at
    the band ends a, eta read by ``sol.eta_forward``.  The value is exactly
    0.0: at the band end that matches eta's sign the reward is exactly 0
    in floating point (outside the subnormal range), so it shows only that
    no control makes K's worst-case mean positive.  A ``band`` other than
    the solution's raises ValueError naming both.
    """
    sol._check_band(band)
    dt, ends = sol.grid.dt, np.array([[band.sigma_max_sq], [band.sigma_min_sq]])
    (root,) = _lattice(  # the reward rows are K's step at the top and the bottom band end
        band, [dt], sol.grid.nt, [np.zeros_like], lambda i, xs: _k_step(band, sol.eta_forward(i, xs), ends, dt)
    )
    return float(root)


def gauss_hermite_expectation(phi, variance: float) -> float:
    """Classical Gaussian expectation of phi at a finite variance >= 0, by 80-point Gauss-Hermite."""
    _check_nonnegative("variance", variance)
    nodes, weights = np.polynomial.hermite.hermgauss(80)
    xs = math.sqrt(2.0 * variance) * nodes
    return float(np.sum(weights * np.asarray(phi(xs))) / math.sqrt(math.pi))
