import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gexpect import (
    CflError,
    CylinderPayoff,
    GridResolutionError,
    NonFiniteError,
    SpaceTimeGrid,
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
from gexpect.gheat import _march

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
        # the three probes march as one batch; each must have the bits of the march of its own
        # (1, ..., 1, nx, ...) mesh, as it had when every probe was reduced alone
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
        assert len(calls) == 2 * (m - i)  # the table's reductions, then one batch for all probes
        probe_calls = calls[m - i :]
        assert probe_calls[0][0].shape[0] == 3
        probes = probe_calls[-1][2].reshape(3)
        tail = [grid_.xs for _, grid_, _ in reversed(probe_calls)]
        rng = np.random.default_rng(7)
        for b in range(3):
            point = [float(rng.uniform(a[1], a[-2])) for a in table.axes]
            mesh = np.meshgrid(*[np.array([p]) for p in point], *tail, indexing="ij")
            values = np.broadcast_to(np.asarray(fn(*mesh), dtype=float), mesh[0].shape).copy()
            for _, grid_, _ in probe_calls:
                values = reduce_last_axis(band, values, grid_)
            assert probes[b].tobytes() == values.reshape(()).tobytes(), f"probe {b}"

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

    def test_rejects_bad_times(self):
        with pytest.raises(ValueError):
            CylinderPayoff((0.5, 0.5), lambda a, b: a)
        with pytest.raises(ValueError):
            CylinderPayoff((-0.5, 0.5), lambda a, b: a)
