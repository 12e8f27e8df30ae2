import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gexpect import (
    BlowUpError,
    CflError,
    EvalDomainError,
    GeneratorPair,
    LatticePath,
    NonFiniteError,
    SpaceTimeGrid,
    VolatilityBand,
    k_along_path,
    k_increment,
    make_grid,
    nonlinear_expectation,
    parse_scalar,
    parse_tri,
    simulate_path,
    solve_g_heat,
    solve_gbsde,
    zero_generator,
)
from gexpect.gheat import _space_gradient

from conftest import assert_series_nonincreasing


@pytest.fixture(scope="module")
def grid(band):
    return make_grid(band, 1.0, nx=201)


class TestGeneratorPair:
    def test_accepts_declared_bound(self):
        GeneratorPair(parse_tri("0.3*y + 0.2*z"), parse_tri("0.25*z"), 0.5)

    @pytest.mark.parametrize("bound", [-1.0, math.inf, math.nan])
    def test_rejects_a_bound_that_is_not_finite_and_nonnegative(self, bound):
        # an infinite bound passed every spot check; a NaN one failed it with a misleading quotient
        with pytest.raises(ValueError, match="lipschitz_L must be finite and >= 0"):
            GeneratorPair(parse_tri("y"), parse_tri("0"), bound)

    def test_rejects_understated_bound(self):
        with pytest.raises(ValueError, match="Lipschitz"):
            GeneratorPair(parse_tri("3*y"), parse_tri("0"), 1.0)

    def test_h6_flag_checked(self):
        GeneratorPair(parse_tri("z"), parse_tri("0.5*z"), 1.0, h6=True)
        with pytest.raises(ValueError, match="h6"):
            GeneratorPair(parse_tri("y"), parse_tri("0"), 1.0, h6=True)

    def test_h6_is_checked_after_a_passing_lipschitz_check(self):
        # 1 + y passes the Lipschitz check at 1, but g(t, y, 0) = 1 + y is not 0
        with pytest.raises(ValueError, match="h6"):
            GeneratorPair(parse_tri("1 + y"), parse_tri("0"), 1.0, h6=True)
        assert zero_generator().h6

    def test_nan_difference_quotient_rejected(self):
        # sqrt(y) is NaN for the sampled y < 0
        with pytest.raises(ValueError, match="Lipschitz"):
            GeneratorPair(parse_tri("sqrt(y)"), parse_tri("0"), 1.0)

    def test_nan_at_zero_z_fails_h6(self):
        # y*z/z is y for z != 0, within the bound, but 0/0 at z = 0
        with pytest.raises(ValueError, match="h6"):
            GeneratorPair(parse_tri("0"), parse_tri("y*z/z"), 1.0, h6=True)


class TestSolveGbsde:
    def test_linear_terminal_zero_drivers(self, band, grid):
        sol = solve_gbsde(band, zero_generator(), parse_scalar("x"), grid)
        assert sol.y_at(0.0, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(_space_gradient(sol.field.u, grid.dx), 1.0, atol=1e-12)
        assert np.max(np.abs(sol.eta)) <= 1e-10

    def test_exponential_decay_closed_form(self, band, grid):
        # g = -y turns the recursion into the scalar equation y' = y
        gen = GeneratorPair(parse_tri("-y"), parse_tri("0"), 1.0)
        sol = solve_gbsde(band, gen, parse_scalar("1"), grid)
        assert sol.y_at(0.0, 0.0) == pytest.approx(math.exp(-1.0), abs=1e-3)

    def test_constant_variance_source(self, band, grid):
        # f = 1, zero terminal: Y grows by 2 G(1) per unit time
        gen = GeneratorPair(parse_tri("0"), parse_tri("1"), 0.0)
        sol = solve_gbsde(band, gen, parse_scalar("0"), grid)
        assert sol.y_at(0.0, 0.0) == pytest.approx(2.0, abs=1e-6)

    def test_a_source_beyond_half_the_largest_float_gives_the_paper_value(self):
        # the kernel forms d + 2 dx^2 f, and 2 dx^2 = 0.36 here, so f = 1e308 stays finite where
        # 2 f would not: Y0 = 2 G(f) T = 5e307, the value of the paper's g + 2 G(f + D2 u / 2)
        band = VolatilityBand(0.25, 0.5)
        gen = GeneratorPair(parse_tri("0"), parse_tri("1e308"), 0.0)
        sol = solve_gbsde(band, gen, parse_scalar("0"), make_grid(band, 1.0, nx=21))
        assert sol.y_at(0.0, 0.0) == 5e307

    def test_a_source_whose_2_dx_sq_multiple_overflows_raises_at_layer_one(self):
        # dx = 4, so 2 dx^2 f = 32 f is infinite for f = 1e308, though the paper's Y0 is finite
        band = VolatilityBand(0.25, 0.5)
        gen = GeneratorPair(parse_tri("0"), parse_tri("1e308"), 0.0)
        with pytest.raises(NonFiniteError) as err:
            solve_gbsde(band, gen, parse_scalar("0"), make_grid(band, 1.0, nx=21, half_width=40.0))
        assert err.value.layer == 1

    def test_constant_drift_separates(self, band, grid):
        # g = c shifts every layer by c * elapsed time on top of the pure
        # diffusion; the second difference ignores the shift, so the split
        # is exact up to rounding of the time sum
        gen = GeneratorPair(parse_tri("0.5"), parse_tri("0"), 0.0)
        phi = parse_scalar("tanh(x)")
        shifted = solve_gbsde(band, gen, phi, grid)
        plain = solve_g_heat(band, phi, grid)
        elapsed = (grid.horizon - shifted.field.times)[:, None]
        assert np.max(np.abs(shifted.field.u - (plain.u + 0.5 * elapsed))) < 1e-12

    def test_zero_generator_reduces_to_heat_bitwise(self, band, grid):
        # bytes, not values: signed zeros must agree too
        for text in ("tanh(x)", "-bump(x)"):
            phi = parse_scalar(text)
            heat = solve_g_heat(band, phi, grid)
            sol = solve_gbsde(band, zero_generator(), phi, grid)
            assert heat.u.tobytes() == sol.field.u.tobytes(), text

    def test_zero_valued_drivers_keep_the_heat_bytes(self, band, grid):
        # "0*y" and "0*z" are not the literal 0, so they take the driver step
        # u + dt * (g + G(2 f + D2 u)); it must still give the heat bytes, near-subnormal
        # terminals included, where 2 G(a / 2) and G(a) may differ in the last bit
        zero_valued = GeneratorPair(parse_tri("0*y"), parse_tri("0*z"), 0.0)
        cases = [(band, grid, text) for text in ("tanh(x)", "-bump(x)", "-(x^2)")]
        tiny = ("3e-308*tanh(5*x)", "-2e-308*sin(3*x)", "4e-308*exp(-(x^2))", "-5e-308*bump(2*x)")
        for other in (band, VolatilityBand(0.25, 0.5), VolatilityBand(0.3, 1.7)):
            cases += [(other, make_grid(other, 0.5, nx=21), text) for text in tiny]
        for picard in (False, True):
            for band_, grid_, text in cases:
                phi = parse_scalar(text)
                heat = solve_g_heat(band_, phi, grid_)
                for gen in (zero_generator(), zero_valued):
                    sol = solve_gbsde(band_, gen, phi, grid_, picard=picard)
                    assert heat.u.tobytes() == sol.field.u.tobytes(), (band_, text, picard, gen.g)

    def test_non_finite_terminal_raises_at_layer_zero(self, band, grid):
        with pytest.raises(NonFiniteError) as err:
            solve_gbsde(band, zero_generator(), parse_scalar("sqrt(x)"), grid)
        assert err.value.layer == 0

    @pytest.mark.parametrize(
        "g,f,terminal,message",
        [
            ("1/y", "0", "x", r"driver g is inf at \(t, y, z\) = \(0\.5, 0\.0, 0\.0\)"),
            # finite at every node of x + 0.013: unchecked, Y(0) came out near 31.7 with max|u| about 2100
            ("1/(y*y)", "0", "x + 0.013", "driver g is inf"),
            ("0", "y*z/z", "x", "driver f is nan"),
        ],
    )
    def test_driver_not_finite_at_the_origin_raises_before_marching(self, band, g, f, terminal, message):
        # the envelope reads the drivers at the origin; an infinite or NaN one would pass every layer
        gen = GeneratorPair(parse_tri(g), parse_tri(f), 1e300)
        with pytest.raises(EvalDomainError, match=message):
            solve_gbsde(band, gen, parse_scalar(terminal), make_grid(band, 0.5, nx=101))

    def test_maximum_principle_under_h6(self, band, grid):
        # compactly supported terminal keeps its extrema off the boundary,
        # where one-sided slope differences would otherwise leak
        gen = GeneratorPair(parse_tri("z"), parse_tri("0.5*z"), 1.0, h6=True)
        phi = parse_scalar("x * bump(x)")
        sol = solve_gbsde(band, gen, phi, grid)
        assert np.max(np.abs(sol.field.u)) <= np.max(np.abs(phi(grid.xs))) + 1e-10

    def test_comparison_theorem(self, band):
        grid = make_grid(band, 0.5, nx=201)
        gens = [
            zero_generator(),
            GeneratorPair(parse_tri("-y"), parse_tri("0"), 1.0),
            GeneratorPair(parse_tri("0.5*z"), parse_tri("0"), 0.5),
            GeneratorPair(parse_tri("0"), parse_tri("0.3*y"), 0.3),
            GeneratorPair(parse_tri("0.2*y + 0.3*z"), parse_tri("0.1*z"), 0.5),
        ]
        pairs = [
            ("tanh(x)", "tanh(x) + 0.5"),
            ("-(x^2) - 1", "-(x^2)"),
            ("sin(x)", "2"),
            ("x", "x + 2"),
            ("-abs_smooth(x)", "abs_smooth(x)"),
            ("x * bump(x)", "abs_smooth(x)"),
        ]
        for gen in gens:
            for low_text, high_text in pairs:
                low, high = parse_scalar(low_text), parse_scalar(high_text)
                assert np.all(high(grid.xs) >= low(grid.xs) - 1e-15)
                sol_low = solve_gbsde(band, gen, low, grid)
                sol_high = solve_gbsde(band, gen, high, grid)
                assert np.min(sol_high.field.u - sol_low.field.u) >= -1e-10

    def test_picard_correction_option(self, band, grid):
        gen = GeneratorPair(parse_tri("-y"), parse_tri("0"), 1.0)
        plain = solve_gbsde(band, gen, parse_scalar("1"), grid)
        corrected = solve_gbsde(band, gen, parse_scalar("1"), grid, picard=True)
        y_plain = plain.y_at(0.0, 0.0)
        y_corr = corrected.y_at(0.0, 0.0)
        assert y_plain == pytest.approx(math.exp(-1.0), abs=1e-3)
        assert y_corr == pytest.approx(math.exp(-1.0), abs=1e-3)
        assert y_plain != y_corr  # the knob does change the step

    def test_blow_up_detected(self, band, grid):
        gen = GeneratorPair(parse_tri("3*y"), parse_tri("0"), 3.0)
        with pytest.raises(BlowUpError):
            solve_gbsde(band, gen, parse_scalar("1"), grid, envelope_factor=1.2)

    def test_cfl_propagates(self, band):
        bad = SpaceTimeGrid(horizon=1.0, x_min=-8.5, x_max=8.5, nx=401, nt=50)
        with pytest.raises(CflError):
            solve_gbsde(band, zero_generator(), parse_scalar("x"), bad)


class TestStepCondition:
    def test_a_step_past_the_lipschitz_condition_is_expansive(self):
        # CFL holds (dt sigma^2 / dx^2 = 0.5) but 1 - 0.5 - dt L = -3.5 < 0 with dt = 4, L = 1
        band = VolatilityBand(0.125, 0.125)
        grid = SpaceTimeGrid(12.0, -1.0, 1.0, 3, 3)
        grid.check_cfl(band)
        gen = GeneratorPair(parse_tri("-y"), parse_tri("0"), 1.0)
        # the plain step marches u <- -3 u: a positive datum turns negative, no comparison principle
        u = solve_gbsde(band, gen, parse_scalar("1"), grid).field.u
        assert u[:, 1].tolist() == [1.0, -3.0, 9.0, -27.0]
        with pytest.raises(BlowUpError) as err:  # the Picard step marches u <- 13 u
            solve_gbsde(band, gen, parse_scalar("1"), grid, picard=True)
        assert err.value.layer == 2


class TestNonlinearExpectation:
    def test_constant_preserved_under_h6(self, band, grid):
        gen = GeneratorPair(parse_tri("z"), parse_tri("0.5*z"), 1.0, h6=True)
        assert nonlinear_expectation(band, gen, parse_scalar("3"), 0.0, 1.0, grid) == 3.0

    def test_matches_heat_expectation(self, band, grid):
        value = nonlinear_expectation(band, zero_generator(), parse_scalar("x^2"), 0.0, 1.0, grid)
        assert value == pytest.approx(2.0, abs=1e-2)

    def test_zero_generator_route_bit_equal(self, band, grid):
        # identical recursion: the backward route reproduces the forward
        # expectation bit for bit
        from gexpect import g_expectation

        phi = parse_scalar("exp(tanh(x))")
        forward = g_expectation(band, phi, 1.0, grid)
        backward = nonlinear_expectation(band, zero_generator(), phi, 0.0, 1.0, grid)
        assert forward == backward

    def test_horizon_consistency(self, band, grid):
        # same sub-solve regardless of how much horizon the grid carries
        gen = GeneratorPair(parse_tri("z"), parse_tri("0.5*z"), 1.0, h6=True)
        term = parse_scalar("tanh(x)")
        longer = SpaceTimeGrid(
            horizon=2.0, x_min=grid.x_min, x_max=grid.x_max, nx=grid.nx, nt=2 * grid.nt
        )
        short = nonlinear_expectation(band, gen, term, 0.0, 1.0, grid)
        extended = nonlinear_expectation(band, gen, term, 0.0, 1.0, longer)
        assert abs(short - extended) <= 1e-6

    @pytest.mark.parametrize("ratio", [1.4, 2.4])
    def test_sub_horizon_off_the_time_grid(self, band, ratio):
        # a span of 1.4 dt used to round down to one step and break the CFL bound
        grid = make_grid(band, 1.0, nx=101)
        tau = ratio * grid.dt
        value = nonlinear_expectation(band, zero_generator(), parse_scalar("x^2"), 0.0, tau, grid)
        assert value == pytest.approx(band.sigma_max_sq * tau, rel=1e-9)

    @pytest.mark.parametrize("s", [0.0, 0.3])
    def test_whole_multiples_keep_their_step_count(self, band, grid, s):
        gen = GeneratorPair(parse_tri("z"), parse_tri("0.5*z"), 1.0, h6=True)
        phi = parse_scalar("tanh(x)")
        for k in (1, 3, 7, 10, 33):
            t = s + k * grid.dt
            sub = SpaceTimeGrid(horizon=t - s, x_min=grid.x_min, x_max=grid.x_max, nx=grid.nx, nt=k)
            expected = solve_gbsde(band, gen, phi, sub, t0=s).y_at(s, 0.0)
            assert nonlinear_expectation(band, gen, phi, s, t, grid) == expected

    def test_degenerate_interval(self, band, grid):
        gen = zero_generator()
        assert nonlinear_expectation(band, gen, parse_scalar("x^2 + 1"), 0.5, 0.5, grid) == 1.0

    def test_rejects_bad_interval(self, band, grid):
        with pytest.raises(ValueError):
            nonlinear_expectation(band, zero_generator(), parse_scalar("x"), 0.5, 0.2, grid)


class TestKIncrement:
    def test_zero_density(self, band):
        assert k_increment(band, 0.0, 1.5, 0.1) == 0.0

    def test_worst_case_attains_zero(self, band):
        assert k_increment(band, 1.0, 2.0, 0.1) == 0.0

    def test_low_variance_loses(self, band):
        assert k_increment(band, 1.0, 1.0, 0.1) == pytest.approx(-0.1, abs=1e-15)

    def test_never_positive(self, band):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            eta = float(rng.uniform(-5, 5))
            a = float(rng.uniform(band.sigma_min_sq, band.sigma_max_sq))
            assert k_increment(band, eta, a, 0.01) <= 0.0

    def test_rejects_out_of_band(self, band):
        with pytest.raises(ValueError):
            k_increment(band, 1.0, 3.0, 0.1)
        with pytest.raises(ValueError):
            k_increment(band, 1.0, 1.5, 0.0)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -0.1])
    def test_rejects_a_step_that_is_not_finite_and_positive(self, band, dt):
        with pytest.raises(ValueError, match="dt must be finite and > 0"):
            k_increment(band, 1.0, 1.5, dt)


@pytest.fixture(scope="module")
def coarse(band):
    return make_grid(band, 1.0, nx=61)


class TestKAlongPath:

    def test_linear_terminal_zero_series(self, band, coarse):
        sol = solve_gbsde(band, zero_generator(), parse_scalar("x"), coarse)
        path = simulate_path(band, "random", coarse, 11)
        series = k_along_path(sol, path)
        assert np.max(np.abs(series)) <= 1e-10

    def test_convex_terminal_high_policy_zero(self, band, coarse):
        # eta >= 0 everywhere, and the high policy attains the supremum
        sol = solve_gbsde(band, zero_generator(), parse_scalar("x^2"), coarse)
        path = simulate_path(band, "const-high", coarse, 3)
        series = k_along_path(sol, path)
        assert np.max(np.abs(series)) == 0.0

    def test_low_policy_steps_recompute(self, band, coarse):
        sol = solve_gbsde(band, zero_generator(), parse_scalar("x^2"), coarse)
        path = simulate_path(band, "const-low", coarse, 3)
        series = k_along_path(sol, path)
        spread = band.sigma_min_sq - band.sigma_max_sq
        for i in (0, 5, coarse.nt - 1):
            eta = sol.eta_forward(i, float(path.b[i]))
            expected = spread * eta * coarse.dt
            assert series[i + 1] - series[i] == pytest.approx(expected, abs=1e-15)
        assert_series_nonincreasing(series)

    def test_nonincreasing_across_policies(self, band, coarse):
        gen = GeneratorPair(parse_tri("-y"), parse_tri("0"), 1.0)
        sol = solve_gbsde(band, gen, parse_scalar("tanh(x)"), coarse)
        for policy in ("const-low", "const-high", "random"):
            for seed in range(50):
                series = k_along_path(sol, simulate_path(band, policy, coarse, seed))
                assert_series_nonincreasing(series)

    def test_markov_policy_attains_zero(self, band, coarse):
        sol = solve_gbsde(band, zero_generator(), parse_scalar("sin(x)"), coarse)
        path = simulate_path(band, "markov", coarse, 17, field=sol)
        series = k_along_path(sol, path)
        assert np.max(np.abs(series)) == 0.0

    def test_grid_mismatch_rejected(self, band, coarse):
        sol = solve_gbsde(band, zero_generator(), parse_scalar("x"), coarse)
        other = make_grid(band, 1.0, nx=81)
        path = simulate_path(band, "random", other, 1)
        with pytest.raises(ValueError):
            k_along_path(sol, path)

    @pytest.mark.parametrize("value", [5.0, 0.5, math.nan])
    def test_a_density_outside_the_band_is_refused(self, band, coarse, value):
        # unchecked, a = 5 at every step drives K up to +3.29 here, where k_increment refuses the same a
        gen = GeneratorPair(parse_tri("-y"), parse_tri("0.2*y"), 1.0)
        sol = solve_gbsde(band, gen, parse_scalar("x^2"), coarse)
        path = simulate_path(band, "const-high", coarse, 5)
        a = path.a.copy()
        a[[7, 9]] = value
        with pytest.raises(ValueError, match=f"variance density {value} at step 7 outside band"):
            k_along_path(sol, LatticePath(path.times, path.b, a, path.qv))
        with pytest.raises(ValueError, match=f"variance density {value} outside band"):
            k_increment(band, 1.0, value, coarse.dt)
        assert k_along_path(sol, path)[-1] <= 0.0  # the band end itself passes

    @pytest.mark.parametrize("horizon, nt", [(1.5, 80), (0.5, 28)])
    def test_markov_policy_refuses_another_time_grid(self, band, coarse, horizon, nt):
        # the markov loop read layer nt - i, which wrapped to -1, -2, ... past the field's last step
        sol = solve_gbsde(band, zero_generator(), parse_scalar("sin(x)"), coarse)
        assert coarse.nt == 56
        with pytest.raises(ValueError, match="different time grids"):
            simulate_path(band, "markov", replace(coarse, horizon=horizon, nt=nt), 1, field=sol)


@pytest.fixture(scope="module")
def eta_solution(band, coarse):
    gen = GeneratorPair(parse_tri("-y"), parse_tri("0.2*y"), 1.0)
    return solve_gbsde(band, gen, parse_scalar("sin(3*x) + 0.1*x^2"), coarse)


class TestEta:
    @settings(max_examples=40, deadline=None)
    @given(
        pairs=st.lists(st.tuples(st.integers(0, 56), st.floats(-20.0, 20.0)), min_size=1, max_size=30),
        step=st.integers(0, 56),
    )
    def test_eta_forward_on_arrays_has_the_scalar_bytes(self, eta_solution, pairs, step):
        # x runs past the domain [-8.5, 8.5], where the lookup clamps to an end node
        steps, xs = (np.array(column) for column in zip(*pairs))
        scalars = [eta_solution.eta_forward(int(i), float(x)) for i, x in pairs]
        assert all(type(value) is float for value in scalars)
        assert eta_solution.eta_forward(steps, xs).tobytes() == np.array(scalars).tobytes()
        row = [eta_solution.eta_forward(step, float(x)) for x in xs]
        assert eta_solution.eta_forward(step, xs).tobytes() == np.array(row).tobytes()

    @pytest.mark.parametrize("step", [57, 113, -1])  # nt + 1, 2 nt + 1 and -1, with nt = 56
    def test_a_step_outside_the_field_raises(self, eta_solution, step):
        # numpy wrapped nt - step around: nt + 1 read the last layer and 2 nt + 1 the first
        assert eta_solution.grid.nt == 56
        with pytest.raises(IndexError, match=rf"step {step} outside \[0, 56\]"):
            eta_solution.eta_forward(step, 0.3)
        with pytest.raises(IndexError, match=rf"step {step} outside \[0, 56\]"):
            eta_solution.eta_forward(np.array([0, 3, step, 56]), np.full(4, 0.3))

    def test_eta_combines_f_and_curvature(self, band, grid):
        gen = GeneratorPair(parse_tri("0"), parse_tri("1"), 0.0)
        sol = solve_gbsde(band, gen, parse_scalar("x^2"), grid)
        j = grid.center_index
        # curvature of x^2 is 2 everywhere, f adds 1
        assert sol.eta[0, j] == pytest.approx(2.0, abs=1e-8)

    def test_worst_case_tree_mean_of_k(self, band):
        coarse = make_grid(band, 1.0, nx=61)
        from gexpect import tree_k_expectation

        for text in ("x^2", "tanh(x)", "sin(x)"):
            sol = solve_gbsde(band, zero_generator(), parse_scalar(text), coarse)
            value = tree_k_expectation(band, sol)
            assert -5e-3 <= value <= 0.0
