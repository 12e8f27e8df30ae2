import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gexpect import (
    BlowUpError,
    CflError,
    CylinderPayoff,
    GridResolutionError,
    NonFiniteError,
    SpaceTimeGrid,
    TabulatedFunction,
    VolatilityBand,
    conditional_g_expectation,
    g_expectation,
    gauss_hermite_expectation,
    make_grid,
    parse_scalar,
    solve_g_heat,
    tree_expectation,
)
from gexpect import gheat
from gexpect.core import DEFAULT_CFL_THETA
from gexpect.gheat import _check_rows, _march, _reduce_last_axis

from conftest import CATALOG_TEXTS


def _clear(v):
    """v, or 0 below 1e-100: with |data| in [1e-100, 1e100] no step nears overflow or the subnormals."""
    return v if abs(v) >= 1e-100 else 0.0


@st.composite
def heat_marches(draw):
    """A band (ratio up to 4), a make_grid grid with odd nx, and a finite datum on it."""
    lo = draw(st.floats(0.05, 4.0))
    band = VolatilityBand(lo, lo * draw(st.floats(1.0, 4.0)))
    nx = 2 * draw(st.integers(1, 30)) + 1
    grid = make_grid(band, draw(st.floats(0.01, 2.0)), nx=nx, theta=draw(st.floats(0.1, 0.5)))
    values = st.floats(-1e100, 1e100, allow_subnormal=False).map(_clear)
    return band, grid, np.array(draw(st.lists(values, min_size=nx, max_size=nx)))


def _layers(band, grid, datum):
    """The datum and every layer of its heat march, shape (nt + 1, nx)."""
    out = np.empty((grid.nt + 1, grid.nx))
    _march(band, grid.dx, grid.dt, grid.nt, datum, out=out)
    return out


class TestSolveGHeat:
    def test_constant_exact(self, band, default_grid):
        field = solve_g_heat(band, parse_scalar("4.5"), default_grid)
        assert np.all(field.u == 4.5)

    def test_square_benchmark(self, band, default_grid):
        # u(t, x) = x^2 + sigma_max_sq * t solves the equation exactly
        field = solve_g_heat(band, parse_scalar("x^2"), default_grid)
        assert field.value_at(1.0, 0.0) == pytest.approx(2.0, abs=1e-2)

    def test_negative_square_benchmark(self, band, default_grid):
        # concave datum rides the lower band edge: u(1, 0) = -sigma_min_sq
        field = solve_g_heat(band, parse_scalar("-(x^2)"), default_grid)
        assert field.value_at(1.0, 0.0) == pytest.approx(-1.0, abs=1e-2)

    def test_initial_layer_is_datum(self, band, default_grid):
        phi = parse_scalar("tanh(x)")
        field = solve_g_heat(band, phi, default_grid)
        assert np.array_equal(field.u[0], phi(default_grid.xs))

    def test_cfl_violation_raises(self, band):
        grid = SpaceTimeGrid(horizon=1.0, x_min=-8.5, x_max=8.5, nx=401, nt=100)
        with pytest.raises(CflError):
            solve_g_heat(band, parse_scalar("x^2"), grid)

    def test_non_finite_datum_raises(self, band, default_grid):
        with pytest.raises(NonFiniteError) as err:
            solve_g_heat(band, parse_scalar("sqrt(x)"), default_grid)
        assert err.value.layer == 0

    def test_discrete_maximum_principle(self, band, default_grid):
        phi = parse_scalar("sin(x)")
        field = solve_g_heat(band, phi, default_grid)
        datum = phi(default_grid.xs)
        assert np.max(field.u) <= np.max(datum) + 1e-12
        assert np.min(field.u) >= np.min(datum) - 1e-12

    def test_value_at_a_time_outside_the_field_is_refused(self, band):
        field = solve_g_heat(band, parse_scalar("x^2"), make_grid(band, 0.5, nx=41))
        with pytest.raises(ValueError, match="time 0.75 outside field range"):
            field.value_at(0.75)

    def test_result_read_only(self, band, default_grid):
        field = solve_g_heat(band, parse_scalar("x"), default_grid)
        with pytest.raises(ValueError):
            field.u[0, 0] = 1.0


class TestSchemeGuarantees:
    # scaling by 2^k and the range of the datum hold bit for bit; comparison holds up to rounding

    @settings(max_examples=60, deadline=None)
    @given(case=heat_marches(), k=st.integers(-30, 30))
    def test_a_power_of_two_scales_every_layer_exactly(self, case, k):
        band, grid, phi = case
        assert _layers(band, grid, 2.0**k * phi).tobytes() == (2.0**k * _layers(band, grid, phi)).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(case=heat_marches())
    def test_every_layer_lies_in_the_range_of_the_datum(self, case):
        band, grid, phi = case
        u = _layers(band, grid, phi)
        assert phi.min() <= u.min() and u.max() <= phi.max()

    @settings(max_examples=60, deadline=None)
    @given(case=heat_marches(), c=st.floats(-1e300, 1e300))
    @example(case=(VolatilityBand(1.0, 2.0), make_grid(VolatilityBand(1.0, 2.0), 1.0, nx=5), None), c=-0.0)
    @example(case=(VolatilityBand(1.0, 2.0), make_grid(VolatilityBand(1.0, 2.0), 1.0, nx=5), None), c=5e-324)
    def test_a_constant_datum_stays_put_at_every_layer(self, case, c):
        # -0.0 is the one exception: the first step adds +0.0 to it, so layers 1..nt are +0.0
        band, grid, _ = case
        expected = np.full((grid.nt + 1, grid.nx), c + 0.0)
        expected[0] = c
        assert _layers(band, grid, np.full(grid.nx, c)).tobytes() == expected.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(case=heat_marches(), data=st.data())
    def test_ordered_data_give_ordered_layers(self, case, data):
        # Not bit for bit: with data spanning 1e16 to 1e100, hypothesis found layers where the
        # lower march exceeds the upper one by one or two ulps of the value.  With M = max|data|
        # (which bounds every layer, as the test above checks), each rounded step lies within
        # 5 ulp(M) of the exact step, which is monotone and commutes with constants, so the two
        # marches part by at most 10 ulp(M) a layer.  The worst seen was 0.002 ulp(M) a layer.
        band, grid, lower = case
        rises = st.floats(0.0, 1e100, allow_subnormal=False).map(_clear)
        upper = lower + np.array(data.draw(st.lists(rises, min_size=grid.nx, max_size=grid.nx)))
        slack = 10.0 * np.arange(grid.nt + 1)[:, None] * np.spacing(max(np.abs(lower).max(), np.abs(upper).max()))
        assert (_layers(band, grid, lower) <= _layers(band, grid, upper) + slack).all()

    @settings(max_examples=100, deadline=None)
    @given(
        sigma_min_sq=st.floats(0.1, 2.0),
        ratio=st.floats(1.0, 4.0),
        t=st.floats(0.05, 1.0),
        nx=st.integers(50, 150).map(lambda n: 2 * n + 1),
        text=st.sampled_from(CATALOG_TEXTS),
        c=st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([1.0, -1.0]), st.floats(-3.0, 3.0)),
    )
    def test_a_constant_shifts_the_expectation_by_itself(self, sigma_min_sq, ratio, t, nx, text, c):
        # E[phi + c] = E[phi] + c, up to rounding: with M = max|phi(xs)| + |c| bounding both marches,
        # each of the nt steps of either march can part from the exact shift by a few ulp(M), so the
        # bound is nt ulp(M); over 200 seeded draws the gap was at most 0.33 of it (-(x^2) at nx 227,
        # nt 789, c = 580.4), the median 2e-4 of it
        band, phi = VolatilityBand(sigma_min_sq, sigma_min_sq * ratio), parse_scalar(text)
        grid = make_grid(band, t, nx=nx)
        gap = g_expectation(band, phi.shift(c), t, grid) - g_expectation(band, phi, t, grid) - c
        assert abs(gap) <= grid.nt * np.spacing(np.max(np.abs(phi(grid.xs))) + abs(c))


class TestGExpectation:
    def test_linear_is_zero(self, band, default_grid):
        assert g_expectation(band, parse_scalar("x"), 1.0, default_grid) == pytest.approx(
            0.0, abs=1e-3
        )

    def test_fourth_moment(self, band, default_grid):
        # convex datum diffuses at the top variance: classical 4th moment
        quad = gauss_hermite_expectation(parse_scalar("x^4"), band.sigma_max_sq)
        assert quad == pytest.approx(12.0, abs=1e-9)
        value = g_expectation(band, parse_scalar("x^4"), 1.0, default_grid)
        assert value == pytest.approx(12.0, abs=0.1)

    def test_cube_against_tree(self, band, default_grid):
        phi = parse_scalar("x^3")
        pde = g_expectation(band, phi, 1.0, default_grid)
        tree = tree_expectation(band, phi, 1.0, 2000)
        assert pde == pytest.approx(tree, abs=5e-3)

    def test_interior_time_interpolation(self, band, default_grid):
        # x^2 value grows linearly in t, so mid-horizon reads are exact too
        field = solve_g_heat(band, parse_scalar("x^2"), default_grid)
        assert field.value_at(0.37, 0.0) == pytest.approx(0.74, abs=1e-2)

    def test_rejects_time_after_horizon(self, band, default_grid):
        with pytest.raises(ValueError):
            g_expectation(band, parse_scalar("x"), 2.0, default_grid)

    def test_degenerate_band_matches_quadrature(self):
        sigma = VolatilityBand(1.5, 1.5)
        grid = make_grid(sigma, 1.0, nx=401)
        for text in ("tanh(x)", "exp(tanh(x))", "sin(x)", "cos(x)", "x^2"):
            phi = parse_scalar(text)
            pde = g_expectation(sigma, phi, 1.0, grid)
            quad = gauss_hermite_expectation(phi, 1.5)
            assert pde == pytest.approx(quad, abs=1e-4), text

    def test_sublinear_axioms_on_catalog(self, band, default_grid, catalog):
        values = {t: g_expectation(band, fn, 1.0, default_grid) for t, fn in catalog.items()}
        xs = default_grid.xs
        # constant preservation
        for c in (-1.0, 0.0, 3.0):
            assert g_expectation(band, parse_scalar(repr(c)), 1.0, default_grid) == c
        # monotonicity on the pointwise-ordered pairs
        for a, fa in catalog.items():
            for b, fb in catalog.items():
                if a != b and np.all(fb(xs) >= fa(xs)):
                    assert values[b] >= values[a] - 5e-3
        # sub-additivity and positive homogeneity on a spot subset
        for a, b in (("x^2", "sin(x)"), ("tanh(x)", "x^3"), ("x^4", "-(x^2)")):
            combined = g_expectation(band, catalog[a] + catalog[b], 1.0, default_grid)
            assert combined <= values[a] + values[b] + 5e-3
        for a in ("x^2", "tanh(x)"):
            for lam in (0.0, 0.5, 2.0):
                scaled = g_expectation(band, catalog[a].scale(lam), 1.0, default_grid)
                assert scaled == pytest.approx(lam * values[a], abs=5e-3)

    def test_refinement_reduces_error(self, band):
        # Truncation error is visible on x^4; on x^2 the scheme is exact up
        # to a boundary residual ~1e-8 that refinement cannot shrink, so that
        # benchmark gets a noise floor.
        errors4, errors2 = [], []
        for nx in (101, 201, 401):
            grid = make_grid(band, 1.0, nx=nx, half_width=8.5)
            errors4.append(abs(g_expectation(band, parse_scalar("x^4"), 1.0, grid) - 12.0))
            errors2.append(abs(g_expectation(band, parse_scalar("x^2"), 1.0, grid) - 2.0))
        assert errors4[1] <= errors4[0] / 3.0
        assert errors4[2] <= errors4[1] / 3.0
        floor = 1e-6
        assert errors2[1] <= max(errors2[0] / 3.0, floor)
        assert errors2[2] <= max(errors2[1] / 3.0, floor)

    def test_domain_width_influence_is_negligible(self, band):
        # polynomial-growth data on the default width: boundary influence
        # at the center stays under the benchmark tolerances
        wide = make_grid(band, 1.0, nx=601, half_width=11.0)
        base = make_grid(band, 1.0, nx=465, half_width=8.5)
        v_wide = g_expectation(band, parse_scalar("x^4"), 1.0, wide)
        v_base = g_expectation(band, parse_scalar("x^4"), 1.0, base)
        assert abs(v_wide - v_base) < 5e-3


class TestConditional:
    def test_independent_increment_reduces_to_unconditional(self, band):
        grid = make_grid(band, 1.0, nx=81)
        payoff = CylinderPayoff((0.5, 1.0), lambda x1, x2: x2 * x2)
        table = conditional_g_expectation(band, payoff, 1, grid)
        target = band.sigma_max_sq * 0.5
        for x1 in (-1.0, 0.0, 0.7):
            assert table(x1) == pytest.approx(target, abs=1e-2)

    def test_measurable_payoff_is_identity(self, band):
        grid = make_grid(band, 1.0, nx=81)
        payoff = CylinderPayoff((0.5, 1.0), lambda x1, x2: 3.0 * x1)
        table = conditional_g_expectation(band, payoff, 1, grid)
        for x1 in (-0.5, 0.4):
            assert table(x1) == pytest.approx(3.0 * x1, abs=1e-9)

    def test_martingale_increment_gives_zero_table(self, band):
        grid = make_grid(band, 1.0, nx=81)
        payoff = CylinderPayoff((0.5, 1.0), lambda x1, x2: x1 * x2)
        table = conditional_g_expectation(band, payoff, 1, grid)
        for x1 in (-1.0, 0.3, 1.0):
            assert table(x1) == pytest.approx(0.0, abs=1e-9)
            # independent check: worst-case tree of the frozen payoff
            tree = tree_expectation(band, lambda xi: x1 * xi, 0.5, 400)
            assert table(x1) == pytest.approx(tree, abs=1e-9)

    def test_two_variable_table(self, band):
        grid = make_grid(band, 1.0, nx=61)
        payoff = CylinderPayoff((0.3, 0.6, 1.0), lambda a, b, c: a + b * c)
        table = conditional_g_expectation(band, payoff, 2, grid)
        # the last increment enters linearly, so it averages out
        for x1, x2 in ((0.5, -1.0), (-0.2, 0.8)):
            assert table(x1, x2) == pytest.approx(x1, abs=1e-8)

    def test_three_point_cylinder(self, band):
        grid = make_grid(band, 1.0, nx=61)
        payoff = CylinderPayoff((0.3, 0.6, 1.0), lambda a, b, c: a + b * b + c * c)
        table = conditional_g_expectation(band, payoff, 1, grid)
        # separable payoff: psi(x1) = x1 + top-variance moments of both tails
        expected = 0.5 + band.sigma_max_sq * 0.3 + band.sigma_max_sq * 0.4
        assert table(0.5) == pytest.approx(expected, abs=2e-2)

    def test_coarse_table_raises(self, band):
        grid = make_grid(band, 1.0, nx=81)
        payoff = CylinderPayoff((0.5, 1.0), lambda x1, x2: np.sin(9.0 * x1) * 5.0 + x2)
        with pytest.raises(GridResolutionError):
            conditional_g_expectation(band, payoff, 1, grid, residual_tol=1e-4)

    @pytest.mark.parametrize(
        "times,i,fn",
        [
            ((0.5, 1.0), 1, lambda a, b: np.sin(3.0 * a) * b * b),
            ((0.3, 0.6, 1.0), 1, lambda a, b, c: np.cos(a + b) + c * c),
            ((0.3, 0.6, 1.0), 2, lambda a, b, c: a * b + np.tanh(c)),
        ],
    )
    def test_probes_have_the_bits_of_their_single_reductions(self, band, monkeypatch, times, i, fn):
        # the three probes march as one batch, after the corner entries they read; each must have
        # the bits of the march of its own (1, ..., 1, nx, ...) mesh, as when every probe was reduced alone
        calls = []

        def spy(band_, values, grid_):
            reduced = reduce_last_axis(band_, values, grid_)
            calls.append((values, grid_, reduced))
            return reduced

        reduce_last_axis = gheat._reduce_last_axis
        monkeypatch.setattr(gheat, "_reduce_last_axis", spy)
        payoff = CylinderPayoff(times, fn)
        table = conditional_g_expectation(band, payoff, i, make_grid(band, 1.0, nx=81))
        m = len(times)
        assert len(calls) == m - i  # one batch: the probes' corner entries, then the three probes
        assert 3 < calls[0][0].shape[0] <= 3 + 3 * 2**i
        probes = calls[-1][2][-3:]
        tail = [grid_.xs for _, grid_, _ in reversed(calls)]
        for b, point in enumerate(gheat._probe_points(table.axes)):
            mesh = np.meshgrid(*[np.array([p]) for p in point], *tail, indexing="ij")
            values = np.broadcast_to(np.asarray(fn(*mesh), dtype=float), mesh[0].shape).copy()
            for _, grid_, _ in calls:
                values = reduce_last_axis(band, values, grid_)
            assert probes[b].tobytes() == values.reshape(()).tobytes(), f"probe {b}"

    @pytest.mark.parametrize("times,i", [((0.5, 1.0), 1), ((0.3, 0.6, 1.0), 1), ((0.3, 0.6, 1.0), 2)])
    def test_a_read_reduces_at_most_its_corner_entries(self, band, monkeypatch, times, i):
        calls = []

        def spy(band_, values, grid_):
            calls.append(values.shape)
            return reduce_last_axis(band_, values, grid_)

        reduce_last_axis = gheat._reduce_last_axis
        monkeypatch.setattr(gheat, "_reduce_last_axis", spy)
        payoff = CylinderPayoff(times, lambda *xs: np.cos(sum(xs)) + xs[-1] * xs[-1])
        table = conditional_g_expectation(band, payoff, i, make_grid(band, 1.0, nx=41))
        m = len(times)
        rng = np.random.default_rng(3)
        fresh = 0
        for _ in range(12):
            point = [float(rng.uniform(a[0], a[-1])) for a in table.axes]
            calls.clear()
            table(*point)
            assert len(calls) in (0, m - i)
            if calls:
                fresh += 1
                assert 1 <= calls[0][0] <= 2**i  # only the cell's unread corners
            calls.clear()
            table(*point)
            assert calls == []  # kept: a second read reduces nothing
        assert fresh > 0
        calls.clear()
        table.values
        table.values
        assert len(calls) == m - i  # the rest in one batch, once

    @settings(max_examples=40, deadline=None)
    @given(
        case=st.sampled_from([((0.5, 1.0), 1), ((0.3, 0.6, 1.0), 1), ((0.3, 0.6, 1.0), 2)]),
        nx=st.sampled_from([3, 5, 7, 9, 13]),
        fn=st.sampled_from([
            lambda *xs: sum(x * x for x in xs),
            lambda *xs: np.sin(3.0 * xs[0]) * xs[-1] + np.tanh(xs[-1]),
            lambda *xs: np.exp(-(xs[0] - xs[-1]) ** 2) * np.cos(xs[-1]),
            lambda *xs: np.abs(xs[0] + 2.0 * xs[-1]) - xs[1],
        ]),
        reads=st.lists(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2), min_size=1, max_size=8),
        at=st.integers(0, 8),
    )
    def test_reads_have_the_bits_of_the_whole_table(self, band, case, nx, fn, reads, at):
        # the whole mesh reduced at once, as an eager table: every read, in any order, and the
        # table's values must have its bits
        times, i = case
        grid = make_grid(band, 1.0, nx=nx)
        payoff = CylinderPayoff(times, fn)
        theta = min(grid.dt * band.sigma_max_sq / (grid.dx * grid.dx), DEFAULT_CFL_THETA)
        grids = [make_grid(band, d, nx, theta=theta) for d in payoff.increments]
        mesh = np.meshgrid(*[g.xs for g in grids], indexing="ij")
        whole = np.broadcast_to(np.asarray(fn(*mesh), dtype=float), mesh[0].shape).copy()
        for g in reversed(grids[i:]):
            whole = _reduce_last_axis(band, whole, g)
        eager = TabulatedFunction([g.xs for g in grids[:i]], whole)
        table = conditional_g_expectation(band, payoff, i, grid, residual_tol=np.inf)
        for k, fractions in enumerate(reads + [None]):
            if k == min(at, len(reads)):
                assert table.values.tobytes() == whole.tobytes()
            if fractions is None:
                break
            point = [a[0] + u * (a[-1] - a[0]) for a, u in zip(table.axes, fractions)]
            assert np.float64(table(*point)).tobytes() == np.float64(eager(*point)).tobytes()

    def test_a_later_failure_raises_at_the_read_that_reduces_it(self, band):
        # node j's row overflows at layer 1; no probe reads it, so only a read of its cell fails
        times, grid = (0.5, 1.0), make_grid(band, 1.0, nx=41)
        axis = conditional_g_expectation(band, CylinderPayoff(times, lambda a, b: a + b), 1, grid).axes[0]
        probed = set()
        for (x,) in gheat._probe_points([axis]):
            k = int((x - axis[0]) // (axis[1] - axis[0]))
            probed |= {k, k + 1}
        j = next(j for j in range(1, len(axis)) if not {j - 1, j} & probed)
        lo, hi = (axis[j - 1] + axis[j]) / 2, (axis[j] + axis[j + 1]) / 2
        payoff = CylinderPayoff(times, lambda a, b: np.where((lo < a) & (a < hi), 1e308, a + b))
        table = conditional_g_expectation(band, payoff, 1, grid)
        with pytest.raises(NonFiniteError) as err:
            table(axis[j - 1])
        assert (err.value.layer, err.value.row) == (1, 1)  # node j is row 1 of the batch (j - 1, j)
        assert table(axis[j + 2]) == pytest.approx(axis[j + 2], abs=1e-9)
        with pytest.raises(NonFiniteError):
            table(axis[j - 1])  # the failed entries stay unread
        with pytest.raises(NonFiniteError):
            table.values

    @pytest.mark.parametrize(
        "times,i,fn",
        [
            ((0.5, 1.0), 1, lambda a, b: np.sin(30.0 * a) * 5.0 + b),
            ((0.3, 0.6, 1.0), 2, lambda a, b, c: np.sin(30.0 * a * b) + c),
        ],
    )
    def test_too_coarse_a_payoff_raises_at_the_default_tolerance(self, band, times, i, fn):
        with pytest.raises(GridResolutionError, match="increase nx"):
            conditional_g_expectation(band, CylinderPayoff(times, fn), i, make_grid(band, 1.0, nx=41))

    def test_non_finite_payoff_raises_at_layer_zero(self, band):
        grid = make_grid(band, 1.0, nx=201)
        payoff = CylinderPayoff((0.5, 1.0), lambda x1, x2: np.where(x2 > 1.0, np.inf, x1 + x2))
        with pytest.raises(NonFiniteError) as err:
            conditional_g_expectation(band, payoff, 1, grid)
        assert err.value.layer == 0

    def test_even_nx_rejected_not_bumped(self, band):
        # 80 nodes on the asymmetric grid hit 0, but not on the symmetric increment grids
        grid = SpaceTimeGrid(horizon=1.0, x_min=-3.0, x_max=4.9, nx=80, nt=1)
        payoff = CylinderPayoff((0.5, 1.0), lambda x1, x2: x1 + x2)
        with pytest.raises(ValueError, match="x = 0 is not a grid node"):
            conditional_g_expectation(band, payoff, 1, grid)

    def test_rejects_bad_index(self, band):
        grid = make_grid(band, 1.0, nx=81)
        payoff = CylinderPayoff((0.5, 1.0), lambda x1, x2: x1)
        with pytest.raises(ValueError):
            conditional_g_expectation(band, payoff, 2, grid)

    @pytest.mark.parametrize("i", [1.0, True])
    def test_rejects_an_index_that_is_a_float_or_a_bool_before_any_work(self, band, i):
        # 1.0 raised a bare slicing TypeError, and True was taken as 1
        calls = []
        payoff = CylinderPayoff((0.5, 1.0), lambda x1, x2: calls.append(x1) or x1 + x2)
        with pytest.raises(ValueError, match=f"i must be an integer, got {i!r}"):
            conditional_g_expectation(band, payoff, i, make_grid(band, 1.0, nx=81))
        assert calls == []

    def test_rejects_bad_times(self):
        with pytest.raises(ValueError):
            CylinderPayoff((0.5, 0.5), lambda a, b: a)
        with pytest.raises(ValueError):
            CylinderPayoff((-0.5, 0.5), lambda a, b: a)

    def test_rejects_more_than_three_times(self):
        with pytest.raises(ValueError, match="between 1 and 3 time points supported, got 4"):
            CylinderPayoff((0.25, 0.5, 0.75, 1.0), lambda a, b, c, d: a)

    @pytest.mark.parametrize("times", [(0.5, np.inf), (np.nan, 1.0), (0.5, np.nan), (-np.inf, 1.0)])
    def test_rejects_a_time_that_is_not_finite(self, times):
        with pytest.raises(ValueError, match="time points must be finite"):
            CylinderPayoff(times, lambda a, b: a)

    @pytest.mark.parametrize("tol", [np.nan, -1e-3, -np.inf])
    def test_rejects_a_nan_or_negative_tolerance_before_any_march(self, band, monkeypatch, tol):
        marches = []
        monkeypatch.setattr(gheat, "_march", lambda *args, **kwargs: marches.append(args))
        payoff = CylinderPayoff((0.5, 1.0), lambda x1, x2: np.sin(9.0 * x1) * 5.0 + x2)
        with pytest.raises(ValueError, match="residual_tol must be >= 0"):
            conditional_g_expectation(band, payoff, 1, make_grid(band, 1.0, nx=81), residual_tol=tol)
        assert marches == []

    def test_the_residual_scale_is_taken_over_the_probed_entries(self, band):
        # the default tolerance rejects sin(9 x1) 5 + x2 at nx 81; a spike of 1e6 at the first
        # node, which no probe reads, would let it pass under a scale taken over the whole table
        grid = make_grid(band, 1.0, nx=81)
        axis = conditional_g_expectation(band, CylinderPayoff((0.5, 1.0), lambda a, b: a + b), 1, grid).axes[0]
        cut = (axis[0] + axis[1]) / 2
        payoff = CylinderPayoff((0.5, 1.0), lambda x1, x2: np.where(x1 < cut, 1e6, np.sin(9.0 * x1) * 5.0) + x2)
        with pytest.raises(GridResolutionError, match=r"scale \d\.\d+e\+00"):
            conditional_g_expectation(band, payoff, 1, grid)


class TestTabulatedFunction:
    def test_interpolates_an_eager_table_multilinearly(self):
        table = TabulatedFunction([[0.0, 1.0, 2.0], [-1.0, 1.0]], [[0.0, 2.0], [1.0, 3.0], [4.0, 6.0]])
        assert table(0.5, 0.0) == 1.5
        assert table(1.5, 1.0) == 4.5
        assert not table.values.flags.writeable

    @pytest.mark.parametrize(
        "axes,values,problem",
        [
            ([[0.0, 1.0, 3.0]], [0.0, 1.0, 9.0], "axis 0 is not strictly increasing and evenly spaced"),
            ([[0.0, 1.0], [2.0, 1.0, 0.0]], np.zeros((2, 3)), "axis 1 is not strictly increasing"),
            ([[0.0, 1.0], [0.0, 0.0]], np.zeros((2, 2)), "axis 1 is not strictly increasing"),
            ([[0.0, np.nan, 2.0]], np.zeros(3), "axis 0 is not strictly increasing"),
            ([[0.0]], [1.0], "axis 0 needs a 1-d array of at least 2 nodes"),
            ([[0.0, 1.0], []], np.zeros((2, 0)), "axis 1 needs a 1-d array of at least 2 nodes"),
        ],
    )
    def test_refuses_an_axis_it_cannot_interpolate_on(self, axes, values, problem):
        with pytest.raises(ValueError, match=problem):
            TabulatedFunction(axes, values)

    def test_refuses_values_whose_shape_does_not_match_its_axes(self):
        with pytest.raises(ValueError, match="table shape does not match axes"):
            TabulatedFunction([[0.0, 1.0, 2.0], [-1.0, 1.0]], np.zeros((2, 3)))

    def test_refuses_a_read_it_cannot_place(self):
        table = TabulatedFunction([[0.0, 1.0, 2.0], [-1.0, 1.0]], [[0.0, 2.0], [1.0, 3.0], [4.0, 6.0]])
        with pytest.raises(ValueError, match="expected 2 coordinates, got 1"):
            table(0.5)
        with pytest.raises(ValueError, match=r"coordinate 2\.5 outside table range \[0\.0, 2\.0\]"):
            table(2.5, 0.0)

    @pytest.mark.parametrize("nx", [3, 81, 201, 801])
    @pytest.mark.parametrize("half_width", [1.0, 8.5, 1e6])
    def test_accepts_every_grid_axis(self, band, nx, half_width):
        xs = make_grid(band, 1.0, nx=nx, half_width=half_width).xs
        table = TabulatedFunction([xs], 2.0 * xs)
        assert table(xs[1]) == pytest.approx(2.0 * xs[1])


class TestCheckRows:
    """The one decision of which row of a layer fails: NonFiniteError first, then BlowUpError."""

    @pytest.mark.parametrize("shape", [(7,), (3, 7), (2, 3, 7)])
    def test_a_finite_layer_inside_its_envelopes_passes(self, shape):
        layer = np.linspace(-2.0, 3.0, int(np.prod(shape))).reshape(shape)
        _check_rows(5, layer)
        _check_rows(5, layer, 3.0)
        _check_rows(5, layer, np.full(shape[:-1], 3.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape,row", [((7,), 0), ((3, 7), 2), ((2, 3, 7), 4)])
    def test_the_first_non_finite_row_is_named_and_wins_over_a_blow_up(self, bad, shape, row):
        layer = np.zeros(shape)
        rows = layer.reshape(-1, shape[-1])
        rows[row, 3] = bad
        rows[-1, 6] = bad
        rows[0, 1] = 1e6  # beyond the envelope, in a row before the non-finite one or in it
        for envelopes in ((), (10.0,), (np.full(shape[:-1], 10.0),)):
            with pytest.raises(NonFiniteError) as err:
                _check_rows(5, layer, *envelopes)
            assert (err.value.layer, err.value.row) == (5, row)

    def test_the_first_row_beyond_its_own_envelope_is_named_with_its_peak(self):
        # rows in C order over the leading axes; row 1 passes 2.0 but not its own envelope 1.5,
        # row 4 goes below -5.0 against 4.0, and row 2 sits on its envelope, which is inside
        layer = np.zeros((2, 3, 5))
        rows = layer.reshape(-1, 5)
        rows[1, 2], rows[2, 0], rows[4, 4] = 2.0, -3.0, -5.0
        envelope = np.array([[1.0, 1.5, 3.0], [3.0, 4.0, 3.0]])
        with pytest.raises(BlowUpError) as err:
            _check_rows(7, layer, envelope)
        assert (err.value.layer, err.value.row) == (7, 1)
        assert str(err.value) == "|Y| = 2 exceeded envelope 1.5 at time layer 7"
        rows[1, 2] = 0.0
        with pytest.raises(BlowUpError, match=r"\|Y\| = 5 exceeded envelope 4 at time layer 7") as err:
            _check_rows(7, layer, envelope)
        assert err.value.row == 4
        _check_rows(7, layer, envelope + 1.0)
        _check_rows(7, layer)  # without an envelope a finite layer passes
