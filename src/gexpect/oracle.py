"""Cross-checks: a worst-case-volatility binomial tree for the band's
expectations and a seeded path simulator for quadratic-variation and
K-monotonicity experiments.

The tree is not independent of the PDE solve.  At node spacing
sigma_max * sqrt(dt) its step is the heat march's explicit step
u + max(a d, b d) at CFL fraction theta = 1 (a = 1/2, b = c / 2), on a
lattice with no boundary, so a march at theta = 1 whose boundary lies
outside the root's cone agrees with it to rounding.  Its check sees the
march's truncation by the boundary, the change from theta = 0.45 to 1,
and a second code path; it cannot see an error in G's form, in the
per-step maximum of two linear steps, or the scheme's fourth-moment
shortfall, which the two share.

Both trees run one backward loop, ``_lattice``: nodes sigma_max * sqrt(dt)
apart and no boundary, each taking the better continuation of the two band
endpoints (exact for a reward linear in the variance), plus K's per-step
``_k_step`` in ``tree_k_expectation``.  ``_lattice``'s docstring says how
it steps and what it does with a terminal that is not finite.  The step
reads no dt, so ``tree_expectation_batch`` marches trees of several
functions and times on one band as the columns of one lattice, each with
its own tree's bits; ``tree_expectation`` is the stack of one.  Path innovations are +-1 from a fixed 64-bit
shift-register generator so that quadratic variation is exact per step
and runs reproduce bit for bit.  The generator's state map is linear over
GF(2), so a table of its powers on the 64 one-bit states gives a block of
states at once (``_stream_bits``) with the bits of one draw at a time.  A
path's positions are a sequential sum of its signed steps, which has the
bits of the loop that adds one step at a time; only ``markov``, whose
control reads eta at the current position, runs that loop, on Python
floats.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import SpaceTimeGrid, VolatilityBand, _GOLDEN, _MASK, _add, _check_count, _check_nonnegative, _multiply, _read_only, _splitmix64, _subtract
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


_JUMP_ROWS = 256  # draws per block of the jump table
_SHIFTS = np.arange(64, dtype=np.uint64)
_MULTIPLIER = np.uint64(0x2545F4914F6CDD1D)  # xorshift64*'s output multiplier


@functools.cache
def _jump_table() -> np.ndarray:
    """The xorshift64 state map T as a read-only (256, 64) uint64 table, built on first use.

    T (x ^= x >> 12, x ^= x << 25, x ^= x >> 27) is linear over GF(2), so
    T^m of a state is the xor of T^m of its set bits: row m, column k holds
    T^(m + 1) of the state whose only set bit is k.
    """
    table = np.empty((_JUMP_ROWS, 64), dtype=np.uint64)
    row = np.uint64(1) << _SHIFTS
    for m in range(_JUMP_ROWS):
        row = row ^ (row >> np.uint64(12))
        row = row ^ (row << np.uint64(25))
        row = row ^ (row >> np.uint64(27))
        table[m] = row
    return _read_only(table)


def _stream_bits(seed: int, n: int) -> np.ndarray:
    """The top bits of the first n xorshift64* outputs of the state splitmix64 makes of ``seed``, as a bool array.

    A block of up to 256 states is the xor of the table rows of the set
    bits of the state before the block, and the next block starts from its
    last state, so the stream has the bits of stepping T one draw at a
    time.  Every operation acts on an array, where numpy wraps modulo 2^64
    silently (numpy scalars warn on a wrap).
    """
    table = _jump_table()
    state = _splitmix64(seed) or _GOLDEN  # T keeps 0 at 0
    states = np.empty(n, dtype=np.uint64)
    for start in range(0, n, _JUMP_ROWS):
        block = states[start : start + _JUMP_ROWS]
        bits = ((np.uint64(state) >> _SHIFTS) & np.uint64(1)).astype(bool)
        np.bitwise_xor.reduce(table[: len(block), bits], axis=1, out=block)
        state = int(block[-1])
    return ((states * _MULTIPLIER) >> np.uint64(63)).astype(bool)


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
        if self.qv[0] != 0.0 or not np.all(np.diff(self.qv) >= 0.0):  # NaN fails
            raise ValueError("qv must be nondecreasing from 0")
        for name in ("times", "b", "a", "qv"):  # read-only views: the caller's arrays stay writable
            object.__setattr__(self, name, _read_only(getattr(self, name)))


_HALF = _read_only(np.array(0.5))  # 0-d arrays: numpy takes them per call faster than floats
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
    _check_count("steps", steps, 1)
    dts = [t / steps for t in times]
    roots = _lattice(band, dts * len(phis), steps, [phi for phi in phis for _ in times])
    return roots.reshape(len(phis), len(times))


def tree_expectation(band: VolatilityBand, phi, t: float, steps: int) -> float:
    """Worst-case expectation of phi at time t on a recombining lattice.

    Node spacing sigma_max * sqrt(dt); each backward step takes the larger
    of the two endpoint one-step expectations (move probability a * dt /
    (2 dx^2), stay otherwise): the explicit heat step at theta = 1 with no
    boundary, so it checks the march's boundary and theta, not its scheme
    (see the module docstring).  ``phi`` may be any callable on arrays;
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
    integer in [0, 2^64); a float, a bool or an integer outside that range
    raises ValueError.

    The move and control bits come from ``_stream_bits``, which has the
    bits of stepping the generator one draw at a time.  The positions are
    a sequential sum from 0 of the signed steps (``np.cumsum`` adds in
    order, and x - step is x + (-step) in IEEE), so they have the bits of
    the loop that steps x one move at a time; ``markov`` runs that loop
    for its control and reads its moves from the same bits.
    """
    _check_count("seed", seed)
    if not 0 <= seed <= _MASK:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    if policy not in _POLICIES:
        raise ValueError(f"policy must be one of {_POLICIES}, got {policy!r}")
    if policy == "markov":
        if field is None:
            raise ValueError("markov policy needs the backward solution")
        field._check_time_grid(grid.nt, grid.horizon)
        field._check_band(band)
        # field._eta_at(i, x) inlined on Python floats: a call costs some five times a whole
        # step of this loop; TestPathLoop pins this copy to eta_forward
        eta, field_nt = field.eta, field.grid.nt
        x_min, dx, last = field.grid.x_min, field.grid.dx, field.grid.nx - 1
    nt = grid.nt
    low, high = band.sigma_min_sq, band.sigma_max_sq
    low_step, high_step = math.sqrt(low * grid.dt), math.sqrt(high * grid.dt)  # sqrt(a * dt) for a band end
    if policy == "random":  # a control bit, then a move bit, per step
        drawn = _stream_bits(int(seed), 2 * nt)
        up, moves = drawn[0::2], drawn[1::2]
    else:
        moves = _stream_bits(int(seed), nt)
        up = np.full(nt, policy == "const-high")
    if policy == "markov":  # the control reads eta at the current x, so x is stepped one move at a time
        x = 0.0
        for i, move in enumerate(moves.tolist()):
            j = min(max(round((x - x_min) / dx), 0), last)
            up[i] = high_end = eta[field_nt - i, j] >= 0.0
            step = high_step if high_end else low_step
            x = x + step if move else x - step
    steps = np.where(up, high_step, low_step)
    b, qv = np.zeros(nt + 1), np.zeros(nt + 1)
    b[1:] = np.where(moves, steps, -steps)  # x - step is x + (-step) in IEEE
    np.cumsum(b, out=b)  # sequential from 0.0: the markov loop's x, bit for bit
    np.cumsum(steps * steps, out=qv[1:])  # sequential, as a running sum is
    return LatticePath(times=grid.times, b=b, a=np.where(up, high, low), qv=qv)


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
    the band ends a, eta at forward step i read as ``sol.eta_forward``
    reads it: row nt - i, the nodes nearest the lattice's.  The value is
    exactly 0.0: at the band end that matches eta's sign the reward is
    exactly 0 in floating point (outside the subnormal range), so it shows
    only that no control makes K's worst-case mean positive.  A ``band``
    other than the solution's raises ValueError naming both.
    """
    sol._check_band(band)
    dt, nt, ends = sol.grid.dt, sol.grid.nt, np.array([[band.sigma_max_sq], [band.sigma_min_sq]])
    (root,) = _lattice(  # the reward rows are K's step at the top and the bottom band end
        band, [dt], nt, [np.zeros_like], lambda i, xs: _k_step(band, sol._eta_at(i, xs), ends, dt)
    )
    return float(root)


def gauss_hermite_expectation(phi, variance: float) -> float:
    """Classical Gaussian expectation of phi at a finite variance >= 0, by 80-point Gauss-Hermite."""
    _check_nonnegative("variance", variance)
    nodes, weights = np.polynomial.hermite.hermgauss(80)
    xs = math.sqrt(2.0 * variance) * nodes
    return float(np.sum(weights * np.asarray(phi(xs))) / math.sqrt(math.pi))
