"""Convexity of a transform h under the band's nonlinear expectation.

``h`` preserves the expectation inequality E[h(xi)] >= h(E[xi]) exactly
when a pointwise condition on (y, z, A) holds for the drivers and the
band.  This module evaluates that condition, eliminates the quantifier
over A exactly (the gap is piecewise linear in A, so its infimum sits at
a kink or along a flat tail), scans (y, z) boxes for witnesses, and runs
the matching end-to-end expectation experiments:

* ``representation_quotient`` reproduces the small-horizon limit
  (E[Phi(B_eps)] - Phi(0)) / eps -> g(t, Phi(0), Phi'(0))
  + 2 G(f(t, Phi(0), Phi'(0)) + Phi''(0) / 2),
* ``jensen_experiment`` compares E[h(phi(B))] against h(E[phi(B)]),
* ``witness_to_phi`` localises a violating jet into a bounded C^2
  function so the predicted violation is observable at small horizons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import SpaceTimeGrid, VolatilityBand, _check_count, _check_nonnegative, _check_positive, _read_only, g_eval, make_grid
from .expr import EvalDomainError, ScalarFunction, parse_scalar
from .gbsde import GeneratorPair, _nonlinear_expectations, _solve_on_grids, solve_gbsde

__all__ = [
    "ConvexityReport",
    "condition_gap",
    "reduce_over_A",
    "check_g_convexity",
    "representation_formula",
    "representation_quotient",
    "representation_limit_check",
    "jensen_experiment",
    "witness_to_phi",
]

WITNESS_TOL = 1e-9
REPLIMIT_TOL = 0.05  # largest final error of the representation quotient, relative to 1 + |limit|
_GAP_BLOCK = 8192  # A values per block of condition_gap: each float64 temporary is 64 KB


def _gap(band: VolatilityBand, h1, h2, z, g_h, f_h, g_y, f_y, A):
    """Condition gap from h's jet, the drivers at (h(y), h'(y) z) and (y, z), and A."""
    left = g_h + 2.0 * g_eval(band, f_h + 0.5 * h2 * z * z + 0.5 * h1 * A)
    right = h1 * g_y + 2.0 * h1 * g_eval(band, f_y + 0.5 * A)
    return left - right


def condition_gap(
    band: VolatilityBand,
    gen: GeneratorPair,
    h: ScalarFunction,
    t: float,
    y: float,
    z: float,
    A,
):
    """Signed slack of the pointwise convexity condition at (t, y, z, A).

    Nonnegative everywhere exactly when h respects the expectation
    inequality.  ``y`` and ``z`` are numbers (an array raises ValueError
    naming it); ``A`` may be an array, and the driver evaluations do not
    depend on it.  A NaN or infinite A raises EvalDomainError naming
    (y, z, A), the first such A in C order for an array, before any gap
    is evaluated.  A G value beyond the float range makes the gap
    infinite without a warning, as in the mesh pass of ``reduce_over_A``.

    An A longer than one block of ``_GAP_BLOCK`` values is evaluated a
    block at a time, in C order, into one output shaped like A, so the
    pass holds the output and O(block) temporaries (plus a C-ordered copy
    of an A that is not C-contiguous).  Each entry goes through the
    arithmetic of one pass over the whole A, so the gaps, their dtype and
    shape are those of that pass.
    """
    for name, value in (("y", y), ("z", z)):
        if np.ndim(value):
            raise ValueError(f"condition gap needs a number for {name}, got an array of shape {np.shape(value)}")
    bad = ~np.isfinite(A)
    if np.any(bad):
        a = float(np.asarray(A)[bad].flat[0])
        raise EvalDomainError(f"condition gap needs a finite A, got (y, z, A) = ({float(y)!r}, {float(z)!r}, {a!r})")
    hv, h1, h2 = h.eval2(y)
    g_h, f_h, g_y, f_y = gen.g(t, hv, h1 * z), gen.f(t, hv, h1 * z), gen.g(t, y, z), gen.f(t, y, z)
    gap = lambda a: _gap(band, h1, h2, z, g_h, f_h, g_y, f_y, a)
    with np.errstate(over="ignore"):
        if np.size(A) <= _GAP_BLOCK:
            return gap(A)
        flat = np.ravel(A)  # C order; a view of a C-contiguous A
        out = np.empty(flat.shape, gap(flat[:1]).dtype)  # the dtype of one pass: float32 stays float32
        for start in range(0, flat.size, _GAP_BLOCK):
            out[start:start + _GAP_BLOCK] = gap(flat[start:start + _GAP_BLOCK])
        return out.reshape(np.shape(A))


def _reduce_mesh(band: VolatilityBand, gen: GeneratorPair, h: ScalarFunction, t: float, ys, zs):
    """Infimum over A of the condition gap on the mesh ys x zs, and its A.

    Both are (len(ys), len(zs)) arrays.  h's jets come from one
    ``h.eval2(ys)``, each driver runs once per argument set on the whole
    mesh, and each cell gets ``condition_gap``'s arithmetic at the
    candidates (-2 f(y, z), 0, kink), with the A that ``reduce_over_A``
    names.  A cell whose gap is NaN raises EvalDomainError naming its (y, z).
    """
    hv, h1, h2 = (part[:, None] for part in h.eval2(ys))
    y, z = ys[:, None], zs[None, :]
    with np.errstate(all="ignore"):
        hz = h1 * z
        g_h, f_h = gen.g(t, hv, hz), gen.f(t, hv, hz)
        g_y, f_y = gen.g(t, y, z), gen.f(t, y, z)
        kink = -(2.0 * f_h + h2 * z * z) / h1
        candidates = np.stack(np.broadcast_arrays(-2.0 * f_y, np.zeros(hz.shape), kink))
        gaps = _gap(band, h1, h2, z, g_h, f_h, g_y, f_y, candidates)
        gaps[2] = np.where(h1 != 0.0, gaps[2], np.inf)  # no kink when h' = 0
        inf_gap = np.choose(np.argmin(gaps, axis=0), gaps)
        # at inf_gap = -inf the bound is NaN, and only an equal gap is near
        near = (gaps == inf_gap) | (gaps <= inf_gap + 1e-12 * (1.0 + np.abs(inf_gap)))
        arg = np.choose(np.argmax(near, axis=0), candidates)
    # No tail of the gap in A slopes down, so the candidates hold the infimum:
    # as A -> +inf the slope G(h') - sigma_max_sq h' / 2 is exactly 0 for h' >= 0
    # (the same product twice) and >= 0 for h' < 0 by monotone rounding; as
    # A -> -inf, -G(-h') - sigma_min_sq h' / 2 <= 0 likewise.  G's subnormal
    # recompute moves a slope by one subnormal ulp at most; an overflow gives NaN.
    nan = np.argwhere(np.isnan(inf_gap))
    if nan.size:
        i, j = nan[0]
        raise EvalDomainError(f"condition gap is NaN at (y, z) = ({float(ys[i])!r}, {float(zs[j])!r})")
    return inf_gap, arg


def reduce_over_A(
    band: VolatilityBand,
    gen: GeneratorPair,
    h: ScalarFunction,
    t: float,
    y: float,
    z: float,
) -> tuple[float, float]:
    """Infimum over all A of the condition gap, with its attaining A.

    The gap is piecewise linear in A with at most two kinks (where either
    band branch switches), so the infimum lies at a kink: no tail slopes
    down, since G(h') - sigma_max_sq h' / 2 >= 0 and
    -G(-h') - sigma_min_sq h' / 2 <= 0, in floating point too.  The A is
    the first of (-2 f(y, z), 0, kink) whose gap is within 1e-12 (1 + |inf|)
    of the infimum, so gaps tied up to rounding give one A.  Raises
    EvalDomainError for a NaN gap.
    """
    inf_gap, arg = _reduce_mesh(band, gen, h, t, np.array([float(y)]), np.array([float(z)]))
    return float(inf_gap[0, 0]), float(arg[0, 0])


@dataclass(frozen=True, eq=False)
class ConvexityReport:
    """A scan's witnesses, its smallest gap and its cells.

    ``witnesses`` is a read-only float64 array of shape (k, 4), one
    (y, z, A, gap) row per failing cell in scan order (y-major).  A
    report equals only itself: its arrays have no value equality.
    """

    witnesses: np.ndarray  # read-only (k, 4): (y, z, A, gap)
    min_gap: float
    cells: np.ndarray = field(repr=False)  # read-only [y, z] -> (y, z, A, gap)

    @property
    def verdict(self) -> str:
        """"fails" when the scan found a witness, else "holds"."""
        return "fails" if len(self.witnesses) else "holds"


def check_g_convexity(
    band: VolatilityBand,
    gen: GeneratorPair,
    h: ScalarFunction,
    y_range: tuple[float, float],
    z_range: tuple[float, float],
    resolution: int = 33,
    t: float = 0.0,
) -> ConvexityReport:
    """Scan the (y, z) box for violations of the pointwise condition.

    The whole box is one array pass.  A cell is a witness when its
    infimum over A falls below -1e-9 (the tolerance separating sign
    changes from rounding).  The witnesses are those cells' rows of
    ``cells``, one read-only (k, 4) float64 array in scan order, y-major,
    so the report does not depend on how the pass is evaluated.  A cell
    whose gap is NaN raises EvalDomainError naming its (y, z); a ``t``
    that is negative or not finite, a range with an end that is NaN or
    infinite, or a ``resolution`` that is a float or a bool raises
    ValueError naming it, before any cell is evaluated.
    """
    _check_count("resolution", resolution, 16)
    _check_nonnegative("t", t)
    for name, ends in (("y_range", y_range), ("z_range", z_range)):
        if not all(map(math.isfinite, ends)):
            raise ValueError(f"{name} must have finite ends, got {tuple(ends)}")
    ys = np.linspace(y_range[0], y_range[1], resolution)
    zs = np.linspace(z_range[0], z_range[1], resolution)
    inf_gap, arg = _reduce_mesh(band, gen, h, t, ys, zs)
    grid_y, grid_z = np.meshgrid(ys, zs, indexing="ij")
    cells = _read_only(np.stack([grid_y, grid_z, arg, inf_gap], axis=-1))
    gaps = inf_gap.ravel()
    # First minimum in scan order, as a sequential min over the cells would pick.
    min_gap = float(gaps[np.argmin(gaps)])
    witnesses = _read_only(cells[inf_gap < -WITNESS_TOL])  # a copy, rows in scan order
    return ConvexityReport(witnesses=witnesses, min_gap=min_gap, cells=cells)


# ---------------------------------------------------------------------------
# Small-horizon representation of the expectation
# ---------------------------------------------------------------------------

def representation_formula(
    band: VolatilityBand, gen: GeneratorPair, terminal: ScalarFunction, t: float
) -> float:
    """Limit value g(t, Phi(0), Phi'(0)) + 2 G(f(t, Phi(0), Phi'(0)) + Phi''(0)/2).

    A ``t`` that is negative or not finite raises ValueError.
    """
    _check_nonnegative("t", t)
    v, d1, d2 = terminal.eval2(0.0)
    return float(gen.g(t, v, d1) + 2.0 * g_eval(band, gen.f(t, v, d1) + 0.5 * d2))


def representation_quotient(
    band: VolatilityBand,
    gen: GeneratorPair,
    terminal: ScalarFunction,
    t: float,
    eps: float,
    grid: SpaceTimeGrid,
) -> float:
    """(E over [t, t + eps] of Phi(increment) - Phi(0)) / eps on ``grid.over(eps)``; finite t >= 0, eps > 0."""
    _check_nonnegative("t", t)
    _check_positive("eps", eps)
    return _quotient(solve_gbsde(band, gen, terminal, grid.over(eps), t0=t), terminal, t, eps)


def _quotient(sol, terminal: ScalarFunction, t: float, eps: float) -> float:
    """(Y at time t, node x = 0, of ``sol`` - Phi(0)) / eps."""
    return (sol.y_at(t, 0.0) - float(terminal(0.0))) / eps


def representation_limit_check(
    band: VolatilityBand,
    gen: GeneratorPair,
    terminal: ScalarFunction,
    t: float,
    eps_list,
    nx: int = 201,
) -> dict:
    """Error table of the quotient against the closed-form limit.

    Fits the convergence order with ``statistics.linear_regression`` of log
    error on log eps (errors floored at 1e-12 (1 + |limit|)); passes when
    the errors decrease and the final error is at most REPLIMIT_TOL * (1 + |limit|).

    Each eps gets ``make_grid(band, eps, nx)``, and those grids share nt
    (``make_grid`` sizes the mesh to the horizon, so the CFL step count
    is the same to rounding), so every solve is a row of one stack, marched
    once with per-row dx, dt, clocks and envelopes; each quotient has the
    bits of ``representation_quotient`` on that grid.  Every grid's CFL
    rule and the drivers' origin are checked, in eps order, before any
    march; grids that rounding splits by nt march as separate stacks, in
    eps order.  A numerical failure is that of the first failing
    (layer, row), row k being ``eps_list[k]``, as in ``jensen_experiment``.
    """
    eps_list = list(eps_list)
    if len(eps_list) < 3 or not all(math.inf > a > b > 0.0 for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be finite, positive and decreasing with at least 3 entries")
    formula = representation_formula(band, gen, terminal, t)  # rejects a bad t before any solve
    grids = [make_grid(band, eps, nx=nx).over(eps) for eps in eps_list]
    sols = _solve_on_grids(band, gen, [terminal] * len(eps_list), grids, t)
    rows = []
    for eps, sol in zip(eps_list, sols):
        quotient = _quotient(sol, terminal, t, eps)
        rows.append((eps, quotient, abs(quotient - formula)))
    errors = [r[2] for r in rows]
    floor = 1e-12 * (1.0 + abs(formula))
    import statistics  # here, not at the top: it loads decimal and fractions, 0.25 MB of RSS in every run
    order = statistics.linear_regression(
        [math.log(e) for e in eps_list], [math.log(max(err, floor)) for err in errors]
    ).slope
    decreasing = all(b <= a + floor for a, b in zip(errors, errors[1:]))
    final_ok = errors[-1] <= REPLIMIT_TOL * (1.0 + abs(formula))
    return {
        "formula": formula,
        "rows": rows,
        "order": order,
        "decreasing": decreasing,
        "final_ok": final_ok,
        "passed": decreasing and final_ok,
    }


# ---------------------------------------------------------------------------
# End-to-end expectation inequality experiments
# ---------------------------------------------------------------------------

def jensen_experiment(
    band: VolatilityBand,
    gen: GeneratorPair,
    h: ScalarFunction,
    phi: ScalarFunction,
    s: float,
    t: float,
    grid: SpaceTimeGrid,
) -> tuple[float, float, float]:
    """(E[h(phi(B_t - B_s))], h(E[phi(B_t - B_s)]), their difference).

    Both expectations come from one march of the stack (h(phi), phi), each
    with the bits of its own ``nonlinear_expectation``; a numerical failure
    is that of the first failing (layer, row), row 0 being h(phi).
    """
    lhs, inner = _nonlinear_expectations(band, gen, [h.compose(phi), phi], s, t, grid)
    rhs = float(h(inner))
    return lhs, rhs, lhs - rhs


def witness_to_phi(y0: float, z0: float, A0: float) -> ScalarFunction:
    """Bounded C^2 function whose jet at 0 is exactly (y0, z0, A0).

    The quadratic with that jet is multiplied by the built-in plateau
    (identically 1 on [-1, 1], supported in [-2, 2]); the jet at 0 is
    untouched while the product stays bounded.  A non-finite entry raises
    ValueError naming it.
    """
    for name, value in (("y0", y0), ("z0", z0), ("A0", A0)):
        if not math.isfinite(value):
            raise ValueError(f"witness_to_phi needs a finite {name}, got {float(value)!r}")
    # repr round-trips each float exactly; a negative one parses as the negation of its magnitude
    return parse_scalar(f"({float(y0)!r} + {float(z0)!r}*x + {0.5 * float(A0)!r}*x^2) * bump(x)")
