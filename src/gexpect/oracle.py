"""Independent verification machinery: a worst-case-volatility binomial
tree for the band's expectations and a seeded path simulator for
quadratic-variation and K-monotonicity experiments.

Both trees run one backward loop, ``_lattice``: nodes sigma_max * sqrt(dt)
apart and no boundary, each taking the better continuation of the two band
endpoints (exact for a reward linear in the variance), plus K's per-step
``_k_step`` in ``tree_k_expectation``.  The tree's independence from the
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

from .core import SpaceTimeGrid, VolatilityBand
from .gbsde import _k_step

__all__ = [
    "LatticePath",
    "RNG_ALGORITHM",
    "tree_expectation",
    "simulate_path",
    "quadratic_variation",
    "mutual_variation",
    "tree_k_expectation",
    "gauss_hermite_expectation",
]

RNG_ALGORITHM = "splitmix64+xorshift64star-v1"

_MASK = (1 << 64) - 1
_POLICIES = ("const-low", "const-high", "random", "markov")


def _splitmix64(seed: int) -> int:
    z = (seed + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class _Xorshift64Star:
    """Deterministic 64-bit shift-register stream; seed state via splitmix."""

    def __init__(self, seed: int):
        state = _splitmix64(seed & _MASK)
        self._state = state if state else 0x9E3779B97F4A7C15

    def next_word(self) -> int:
        x = self._state
        x ^= (x >> 12)
        x ^= (x << 25) & _MASK
        x ^= (x >> 27)
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK

    def next_bit(self) -> int:
        return self.next_word() >> 63


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


def _lattice(band: VolatilityBand, dt: float, steps: int, terminal, reward=None) -> float:
    """Backward induction over ``steps`` steps of dt; returns the root value.

    The 2 steps + 1 end nodes xs, sigma_max * sqrt(dt) apart, take
    ``terminal(xs)``; each step drops the two outer nodes.  With d = avg -
    mid (avg the mean of a node's neighbours) a node continues to mid + d
    at the top band end and mid + c d at the bottom, and takes the larger:
    mid + max(d, c d) in place (rounding is monotone), or, with rewards
    ``reward(i, xs) = (top, bottom)`` at forward step i,
    max(top + (mid + d), bottom + (mid + c d)).
    """
    dx = band.sigma_max * math.sqrt(dt)
    xs = dx * np.arange(-steps, steps + 1)
    values = np.array(terminal(xs), dtype=float)  # a copy: the lattice shrinks in place
    c = np.array(2.0 * (band.sigma_min_sq / (2.0 * band.sigma_max_sq)))  # 2 p_low
    d, cd = np.empty(2 * steps - 1), np.empty(2 * steps - 1)
    for i in range(steps - 1, -1, -1):
        mid, dn, cdn = values[1:-1], d[: 2 * i + 1], cd[: 2 * i + 1]
        np.add(values[2:], values[:-2], out=dn)
        np.multiply(dn, _HALF, out=dn)
        np.subtract(dn, mid, out=dn)
        np.multiply(dn, c, out=cdn)
        if reward is None:
            np.add(mid, np.maximum(dn, cdn, out=dn), out=mid)
            values = mid
        else:
            top, bottom = reward(i, dx * np.arange(-i, i + 1))
            values = np.maximum(top + (mid + dn), bottom + (mid + cdn))
    return float(values[0])


def tree_expectation(band: VolatilityBand, phi, t: float, steps: int) -> float:
    """Worst-case expectation of phi at time t on a recombining lattice.

    Node spacing sigma_max * sqrt(dt); each backward step takes the larger
    of the two endpoint one-step expectations (move probability a * dt /
    (2 dx^2), stay otherwise).  ``phi`` may be any callable on arrays;
    t must be finite and >= 0, and steps >= 1.
    """
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"t must be finite and >= 0, got {t}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    return _lattice(band, t / steps, steps, phi)


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
    ValueError unless ``grid`` has the solution's nt and horizon.
    """
    if policy not in _POLICIES:
        raise ValueError(f"policy must be one of {_POLICIES}, got {policy!r}")
    if policy == "markov":
        if field is None:
            raise ValueError("markov policy needs the backward solution")
        field._check_time_grid(grid.nt, grid.horizon)
        # field.eta_forward(i, x) inlined on Python floats: a call costs about 15 us, some
        # five times a whole step of this loop; the reference path test pins the two together
        eta, field_nt = field.eta, field.grid.nt
        x_min, dx, last = field.grid.x_min, field.grid.dx, field.grid.nx - 1
    rng = _Xorshift64Star(seed)
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
    no control makes K's worst-case mean positive.
    """
    dt, ends = sol.grid.dt, np.array([[band.sigma_max_sq], [band.sigma_min_sq]])
    return _lattice(  # the reward rows are K's step at the top and the bottom band end
        band, dt, sol.grid.nt, np.zeros_like, lambda i, xs: _k_step(band, sol.eta_forward(i, xs), ends, dt)
    )


def gauss_hermite_expectation(phi, variance: float) -> float:
    """Classical Gaussian expectation of phi with the given variance, by 80-point Gauss-Hermite."""
    nodes, weights = np.polynomial.hermite.hermgauss(80)
    xs = math.sqrt(2.0 * variance) * nodes
    return float(np.sum(weights * np.asarray(phi(xs))) / math.sqrt(math.pi))
