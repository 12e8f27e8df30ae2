import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gexpect import (
    ConvexityReport,
    EvalDomainError,
    GeneratorPair,
    VolatilityBand,
    check_g_convexity,
    condition_gap,
    g_eval,
    jensen_experiment,
    make_grid,
    parse_scalar,
    parse_tri,
    reduce_over_A,
    representation_formula,
    representation_limit_check,
    representation_quotient,
    tree_expectation,
    witness_to_phi,
    zero_generator,
)

from gexpect.expr import BinOp, Call, Lit, Pow, ScalarFunction, Var

from conftest import dense_scan_min


H_CATALOG = ("x", "x^2", "-(x^2)", "exp(x)", "tanh(x)", "x^3", "sin(x)")
GEN_CASES = (
    ("0", "0", 0.0),
    ("-y", "0", 1.0),
    ("0.5*z", "0.1*y", 0.5),
    ("0.3*y + 0.2*z", "0.25*z", 0.5),
    ("-abs_smooth(z)", "0", 1.0),
)


def _gen(g, f, L):
    return GeneratorPair(parse_tri(g), parse_tri(f), L)


def _scalar_reduce(band, gen, h, t, y, z):
    """A-infimum of one cell from condition_gap at each candidate A.

    The A is the first candidate whose gap is within 1e-12 (1 + |infimum|)
    of the infimum (or equal to it, for an infinite one); a NaN gap makes
    the infimum NaN.
    """
    hv, h1, h2 = h.eval2(y)
    candidates = [-2.0 * gen.f(t, y, z), 0.0]
    if h1 != 0.0:
        candidates.append(-(2.0 * gen.f(t, hv, h1 * z) + h2 * z * z) / h1)
    gaps = []
    for a in candidates:
        try:
            gaps.append(float(condition_gap(band, gen, h, t, y, z, a)))
        except EvalDomainError:  # a non-finite candidate A leaves the gap undefined
            gaps.append(math.nan)
    low = float(np.min(gaps))
    if math.isnan(low):
        return low, math.nan
    best = next(i for i, gap in enumerate(gaps) if gap == low or gap <= low + 1e-12 * (1.0 + abs(low)))
    return low, candidates[best]


class TestConditionGap:
    @pytest.mark.parametrize(
        "y,A,shown",
        [
            (5e-324, -np.inf, "-inf"),  # the kink candidate of the subnormal-y box
            (5e-324, np.nan, "nan"),
            (0.5, np.array([0.0, 1.0, np.inf]), "inf"),
        ],
    )
    def test_non_finite_A_raises_naming_the_point(self, y, A, shown):
        # under the suite's error::RuntimeWarning filter: no warning first, and no silent NaN
        with pytest.raises(EvalDomainError, match=rf"\(y, z, A\) = \({y!r}, 0.5, {shown}\)"):
            condition_gap(VolatilityBand(1.0, 1.0), zero_generator(), parse_scalar("x^2"), 0.0, y, 0.5, A)

    def test_gap_beyond_the_float_range_is_infinite(self):
        # the kink A of a subnormal y: G(A / 2) = 6 * 8.8e307 overflows, and the gap
        # is +inf as in the mesh pass, with no warning
        band, h = VolatilityBand(3.0, 12.0), parse_scalar("x^2")
        y, z, kink = -2.225073858507e-311, 0.0625, 1.7555597020141738e308
        assert condition_gap(band, zero_generator(), h, 0.0, y, z, kink) == np.inf
        assert reduce_over_A(band, zero_generator(), h, 0.0, y, z) == (0.046875, -0.0)

    def test_identity_transform_vanishes(self, band):
        h = parse_scalar("x")
        gen = _gen("0.3*y + 0.2*z", "0.25*z", 0.5)
        rng = np.random.default_rng(2)
        for _ in range(50):
            y, z, a = rng.uniform(-3, 3, 3)
            assert condition_gap(band, gen, h, 0.1, y, z, a) == pytest.approx(0.0, abs=1e-12)

    def test_concave_square_witness_value(self, band):
        gap = condition_gap(band, zero_generator(), parse_scalar("-(x^2)"), 0.0, 0.0, 1.0, 0.0)
        assert gap == -band.sigma_min_sq

    def test_convex_exp_nonnegative_on_box(self, band):
        h = parse_scalar("exp(x)")
        gen = zero_generator()
        pts = np.linspace(-2.0, 2.0, 50)
        for y in pts[::7]:
            for z in pts[::7]:
                gaps = condition_gap(band, gen, h, 0.0, float(y), float(z), pts)
                assert np.min(gaps) >= -1e-12

    def test_band_scaling_of_g_terms(self, band):
        # constant drivers: the G-part of the gap scales linearly with the band
        gen = _gen("0.7", "0.4", 0.0)
        h = parse_scalar("tanh(x)")
        lam = 3.0
        scaled = type(band)(lam * band.sigma_min_sq, lam * band.sigma_max_sq)
        y, z, a = 0.4, -1.1, 2.3
        hv, h1, _ = h.eval2(y)
        offset = 0.7 * (1.0 - h1)  # the driver part stays fixed
        base = condition_gap(band, gen, h, 0.0, y, z, a)
        big = condition_gap(scaled, gen, h, 0.0, y, z, a)
        assert big - offset == pytest.approx(lam * (base - offset), rel=1e-12)


class TestReduceOverA:
    def test_identity_gap_zero(self, band):
        inf_gap, _ = reduce_over_A(band, zero_generator(), parse_scalar("x"), 0.0, 1.3, -0.4)
        assert inf_gap == 0.0

    def test_concave_square_at_origin(self, band):
        inf_gap, arg = reduce_over_A(band, zero_generator(), parse_scalar("-(x^2)"), 0.0, 0.0, 1.0)
        assert inf_gap == -band.sigma_min_sq
        assert np.isfinite(arg)

    def test_matches_dense_scan_on_random_instances(self, band):
        rng = np.random.default_rng(42)
        h_fns = {text: parse_scalar(text) for text in H_CATALOG}
        checked = 0
        while checked < 60:
            h = h_fns[H_CATALOG[rng.integers(len(H_CATALOG))]]
            case = GEN_CASES[rng.integers(len(GEN_CASES))]
            gen = _gen(*case)
            y, z = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
            inf_gap, arg = reduce_over_A(band, gen, h, 0.0, y, z)
            assert np.isfinite(inf_gap)  # tails never escape for a valid band
            if abs(arg) > 500.0:
                continue  # kink outside the oracle's scan window
            scan, _ = dense_scan_min(band, gen, h, 0.0, y, z)
            assert inf_gap == pytest.approx(scan, abs=1e-9)
            checked += 1

    @settings(max_examples=300, deadline=None)
    @given(
        smin=st.floats(1e-3, 1e3),
        ratio=st.one_of(st.just(1.0), st.floats(1.0, 1e6)),
        h1=st.one_of(
            st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2e-310, -2.2e-310, 1e300, -1e300)),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
    )
    def test_no_tail_of_the_gap_slopes_down(self, smin, ratio, h1):
        # the gap's slope in A as A -> +inf and as A -> -inf; the infimum
        # looks at no tail, so neither may point down (NaN where a product overflows)
        band = VolatilityBand(smin, smin * ratio)
        with np.errstate(over="ignore", invalid="ignore"):
            up = g_eval(band, h1) - 0.5 * band.sigma_max_sq * h1
            down = -g_eval(band, -h1) - 0.5 * band.sigma_min_sq * h1
        for slope, product in ((up, band.sigma_max_sq * h1), (down, band.sigma_min_sq * h1)):
            assert not math.isnan(slope) or math.isinf(product), (band, h1)
        assert not up < -1e-15, (band, h1, up)
        assert not down > 1e-15, (band, h1, down)


class TestCheckGConvexity:
    @pytest.mark.parametrize("verdict,witnesses", [("holds", ((0.0, 1.0, 0.0, -1.0),)), ("fails", ())])
    def test_a_report_refuses_a_verdict_its_witnesses_contradict(self, verdict, witnesses):
        with pytest.raises(ValueError, match="verdict must say fails exactly when witnesses exist"):
            ConvexityReport(verdict, witnesses, -1.0, np.zeros((16, 16, 4)))

    def test_identity_holds(self, band):
        report = check_g_convexity(
            band, zero_generator(), parse_scalar("x"), (-2, 2), (-2, 2), resolution=17
        )
        assert report.verdict == "holds"
        assert report.min_gap == 0.0
        assert report.witnesses == ()

    def test_concave_square_fails_near_unit_slope(self, band):
        report = check_g_convexity(
            band, zero_generator(), parse_scalar("-(x^2)"), (-2, 2), (-2, 2), resolution=33
        )
        assert report.verdict == "fails"
        near = [w for w in report.witnesses if abs(w[0]) < 0.1 and abs(abs(w[1]) - 1.0) < 0.15]
        assert near, "expected a witness near y=0, |z|=1"
        for y, z, a, gap in report.witnesses[:20]:
            assert condition_gap(band, zero_generator(), parse_scalar("-(x^2)"), 0.0, y, z, a) < -1e-9

    def test_exp_verdict_cross_validated_by_sampling(self, band):
        # The smoothed slope driver dents the condition only in an
        # epsilon-thin sliver at z = 0, so the sampler stratifies z over
        # uniform, logarithmic and exactly-zero values.
        gen = _gen("-abs_smooth(z)", "0", 1.0)
        h = parse_scalar("exp(x)")
        report = check_g_convexity(band, gen, h, (-2, 2), (-2, 2), resolution=33)
        rng = np.random.default_rng(11)
        ys = rng.uniform(-2, 2, 300)
        zs = np.concatenate(
            [
                rng.uniform(-2, 2, 100),
                np.zeros(100),
                10.0 ** rng.uniform(-9, 0, 100) * rng.choice([-1.0, 1.0], 100),
            ]
        )
        rng.shuffle(zs)
        arr_a = rng.uniform(-50, 50, 2500)
        sampled_min = min(
            float(np.min(condition_gap(band, gen, h, 0.0, float(y), float(z), arr_a)))
            for y, z in zip(ys, zs)
        )
        if report.verdict == "holds":
            assert sampled_min >= -1e-9
        else:
            assert sampled_min < -1e-9

    def test_nan_gap_raises_naming_the_cell(self):
        # h'(y) = 1e-323 sends the kink candidate to -inf; no "holds" with a NaN min_gap
        with pytest.raises(EvalDomainError, match=r"\(y, z\) = \(5e-324, 0.0666"):
            check_g_convexity(
                VolatilityBand(1.0, 1.0), zero_generator(), parse_scalar("x^2"),
                (5e-324, 1.0 + 5e-324), (0.0, 1.0), resolution=16,
            )

    def test_argmin_A_does_not_follow_rounding_ties(self, band):
        # scaling h by 1 + 2^-52 moves inf_gap by rounding alone; the first minimum of three
        # tied candidates moved argmin_A by up to 0.98 in 707 of these cells
        gen = GeneratorPair(parse_tri("0.3*y + 0.2*z"), parse_tri("0.25*z"), 0.5)
        cells = [
            check_g_convexity(band, gen, parse_scalar(h), (-2, 2), (-2, 2), resolution=129).cells
            for h in ("tanh(x)", "tanh(x) * 1.0000000000000002")
        ]
        assert np.max(np.abs(cells[0][..., 3] - cells[1][..., 3])) <= 1e-14
        assert np.max(np.abs(cells[0][..., 2] - cells[1][..., 2])) <= 1e-12

    def test_resolution_floor(self, band):
        with pytest.raises(ValueError):
            check_g_convexity(band, zero_generator(), parse_scalar("x"), (-1, 1), (-1, 1), resolution=8)

    @pytest.mark.parametrize("resolution", [33.0, True, np.float64(33.0)])
    def test_a_resolution_that_is_not_an_integer_is_refused_by_name(self, band, resolution):
        with pytest.raises(ValueError, match=r"^resolution must be an integer, got "):
            check_g_convexity(band, zero_generator(), parse_scalar("x"), (-1, 1), (-1, 1), resolution=resolution)

    @pytest.mark.parametrize("which", ["y_range", "z_range"])
    @pytest.mark.parametrize("ends", [(math.nan, 1.0), (-1.0, math.inf), (-math.inf, 1.0)])
    def test_a_range_with_an_end_that_is_not_finite_is_refused_by_name(self, band, which, ends):
        ranges = {"y_range": (-1.0, 1.0), "z_range": (-1.0, 1.0), which: ends}
        with pytest.raises(ValueError, match=rf"^{which} must have finite ends, got "):
            check_g_convexity(band, zero_generator(), parse_scalar("x^2"), **ranges)

    def test_nan_gap_raises_for_one_cell(self):
        # one cell raises as the whole scan does, naming the cell
        with pytest.raises(EvalDomainError, match=r"\(y, z\) = \(5e-324, 0.5\)"):
            reduce_over_A(VolatilityBand(1.0, 1.0), zero_generator(), parse_scalar("x^2"), 0.0, 5e-324, 0.5)

    @settings(max_examples=25, deadline=None)
    @given(
        smin=st.floats(0.1, 3.0),
        spread=st.floats(1.0, 4.0),
        y_box=st.tuples(st.floats(-3.0, 1.0), st.floats(0.1, 4.0)),
        z_box=st.tuples(st.floats(-3.0, 1.0), st.floats(0.1, 4.0)),
        resolution=st.integers(16, 40),
        h_text=st.sampled_from(H_CATALOG + ("2", "-abs_smooth(x)")),
        case=st.sampled_from(GEN_CASES),
        t=st.floats(0.0, 1.0),
    )
    # a constant h (h' = 0: no kink candidate) and the smoothed-slope driver
    @example(1.0, 2.0, (-2.0, 4.0), (-2.0, 4.0), 17, "2", ("0.5*z", "0.1*y", 0.5), 0.0)
    @example(0.5, 3.0, (-1.0, 2.5), (-1.5, 3.0), 33, "-abs_smooth(x)", GEN_CASES[4], 0.3)
    # a subnormal y: the kink candidate overflows to -inf and the gap is NaN
    @example(1.0, 1.0, (5e-324, 1.0), (0.0, 1.0), 16, "x^2", GEN_CASES[0], 0.0)
    def test_report_matches_per_cell_loop(self, smin, spread, y_box, z_box, resolution, h_text, case, t):
        # The array pass gives each cell what reduce_over_A gives it alone,
        # so the report does not depend on evaluation order.
        band = VolatilityBand(smin, smin * spread)
        gen, h = _gen(*case), parse_scalar(h_text)
        y_range = (y_box[0], y_box[0] + y_box[1])
        z_range = (z_box[0], z_box[0] + z_box[1])
        ys = np.linspace(*y_range, resolution)
        zs = np.linspace(*z_range, resolution)
        with np.errstate(invalid="ignore"):  # the reference may compute a NaN gap
            scalar = np.array([[_scalar_reduce(band, gen, h, t, float(y), float(z)) for z in zs] for y in ys])
        nan = np.isnan(scalar[..., 0])
        if nan.any():
            # a NaN gap is a named error, cell by cell and for the whole box
            for i, j in np.argwhere(nan):
                with pytest.raises(EvalDomainError, match="NaN"):
                    reduce_over_A(band, gen, h, t, float(ys[i]), float(zs[j]))
            for i, j in np.argwhere(~nan):
                assert reduce_over_A(band, gen, h, t, float(ys[i]), float(zs[j])) == tuple(scalar[i, j])
            with pytest.raises(EvalDomainError, match="NaN"):
                check_g_convexity(band, gen, h, y_range, z_range, resolution=resolution, t=t)
            return
        loop = np.array([[reduce_over_A(band, gen, h, t, float(y), float(z)) for z in zs] for y in ys])
        assert np.array_equal(loop, scalar)
        report = check_g_convexity(band, gen, h, y_range, z_range, resolution=resolution, t=t)
        cells = report.cells
        assert cells.shape == (resolution, resolution, 4) and not cells.flags.writeable
        assert np.array_equal(cells[..., 0], np.broadcast_to(ys[:, None], loop.shape[:2]))
        assert np.array_equal(cells[..., 1], np.broadcast_to(zs[None, :], loop.shape[:2]))
        assert np.array_equal(cells[..., 3], loop[..., 0])
        assert np.array_equal(cells[..., 2], loop[..., 1])
        witnesses = tuple(
            (float(y), float(z), float(a), float(gap))
            for y, row in zip(ys, loop)
            for z, (gap, a) in zip(zs, row)
            if gap < -1e-9
        )
        assert report.witnesses == witnesses
        assert report.verdict == ("fails" if witnesses else "holds")
        assert report.min_gap == min(float(gap) for gap in loop[..., 0].ravel())


class TestRepresentation:
    def test_square_quotient_near_top_variance(self, band):
        gen = zero_generator()
        term = parse_scalar("x^2")
        grid = make_grid(band, 0.01, nx=201)
        quotient = representation_quotient(band, gen, term, 0.0, 0.01, grid)
        assert quotient == pytest.approx(band.sigma_max_sq, rel=0.02)

    def test_linear_quotient_vanishes(self, band):
        gen = zero_generator()
        grid = make_grid(band, 0.01, nx=201)
        quotient = representation_quotient(band, gen, parse_scalar("x"), 0.0, 0.01, grid)
        assert quotient == pytest.approx(0.0, abs=1e-6)

    def test_sub_horizon_off_the_time_grid(self, band):
        # eps = 1.4 dt used to round down to one step and break the CFL bound
        gen = zero_generator()
        term = parse_scalar("x^2")
        grid = make_grid(band, 0.01, nx=201)
        for ratio in (1.4, 2.4):
            eps = ratio * grid.dt
            quotient = representation_quotient(band, gen, term, 0.0, eps, grid)
            assert quotient == pytest.approx(band.sigma_max_sq, rel=1e-6)

    def test_driver_reads_initial_slope(self, band):
        gen = GeneratorPair(parse_tri("y + z"), parse_tri("0"), 1.0)
        term = parse_scalar("sin(x)")
        formula = representation_formula(band, gen, term, 0.0)
        assert formula == 1.0
        grid = make_grid(band, 0.005, nx=201)
        quotient = representation_quotient(band, gen, term, 0.0, 0.005, grid)
        assert quotient == pytest.approx(formula, rel=0.05)

    def test_constant_terminal_zero_errors(self, band):
        result = representation_limit_check(
            band, zero_generator(), parse_scalar("2"), 0.0, [0.1, 0.05, 0.025]
        )
        assert all(err == 0.0 for _, _, err in result["rows"])
        assert result["final_ok"]

    def test_degenerate_band_classical_generator(self):
        from gexpect import VolatilityBand

        band = VolatilityBand(1.5, 1.5)
        gen = GeneratorPair(parse_tri("-y"), parse_tri("0"), 1.0)
        term = parse_scalar("x^2 + 1")
        # classical generator: g + sigma^2 * Phi''(0)/2 with Phi(0)=1
        assert representation_formula(band, gen, term, 0.0) == pytest.approx(-1.0 + 1.5)
        result = representation_limit_check(band, gen, term, 0.0, [0.1, 0.05, 0.025])
        assert result["passed"]

    def test_convergence_order(self, band):
        gen = GeneratorPair(parse_tri("-y"), parse_tri("0"), 1.0)
        result = representation_limit_check(
            band, gen, parse_scalar("x^2 + 1"), 0.0, [0.1, 0.05, 0.025, 0.0125]
        )
        assert result["passed"]
        assert result["order"] >= 0.8

    def test_rejects_bad_eps_list(self, band):
        with pytest.raises(ValueError):
            representation_limit_check(band, zero_generator(), parse_scalar("x"), 0.0, [0.1, 0.2, 0.3])

    @pytest.mark.parametrize("eps_list", [[0.1, math.nan, 0.025], [math.inf, 0.1, 0.05], [0.1, 0.05, math.nan]])
    def test_rejects_an_eps_that_is_not_finite_before_any_solve(self, band, eps_list):
        # a NaN passed the order checks and failed inside a solve as "horizon must be > 0, got nan"
        with pytest.raises(ValueError, match="eps_list must be finite"):
            representation_limit_check(band, zero_generator(), parse_scalar("x^2"), 0.0, eps_list)

    @pytest.mark.parametrize("eps", [0.0, -0.01, math.nan, math.inf])
    def test_quotient_rejects_an_eps_that_is_not_finite_and_positive(self, band, eps):
        grid = make_grid(band, 0.01, nx=201)
        with pytest.raises(ValueError, match="eps must be finite and > 0"):
            representation_quotient(band, zero_generator(), parse_scalar("x^2"), 0.0, eps, grid)

    def test_rejects_negative_start_time(self, band):
        # the drivers would be read at negative times; the quotient used to return 1.9999999996
        term = parse_scalar("x^2")
        grid = make_grid(band, 0.01, nx=201)
        with pytest.raises(ValueError, match="t must be finite and >= 0"):
            representation_quotient(band, zero_generator(), term, -1.0, 0.01, grid)
        with pytest.raises(ValueError, match="t must be finite and >= 0"):
            representation_formula(band, zero_generator(), term, -1.0)
        with pytest.raises(ValueError, match="t must be finite and >= 0"):
            representation_limit_check(band, zero_generator(), term, -1.0, [0.1, 0.05, 0.025])

    @staticmethod
    def time_calls(band, t):
        """The four routines that read a start time t, each as a call of no arguments."""
        # g = -t*y: a NaN t used to surface as an EvalDomainError naming a (y, z), not t
        gen, term = GeneratorPair(parse_tri("-t*y"), parse_tri("0"), 1.0), parse_scalar("x^2")
        grid = make_grid(band, 0.01, nx=201)
        return (
            lambda: check_g_convexity(band, gen, term, (-1.0, 1.0), (-1.0, 1.0), 16, t=t),
            lambda: representation_formula(band, gen, term, t),
            lambda: representation_quotient(band, gen, term, t, 0.01, grid),
            lambda: representation_limit_check(band, gen, term, t, [0.1, 0.05, 0.025]),
        )

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -1.0])
    def test_a_start_time_not_finite_or_negative_is_refused_before_any_solve(self, band, t, monkeypatch):
        # a NaN or infinite t used to give "holds" from the scan, and replimit refused it only
        # after solving, as a time outside the field's range
        import gexpect.convexity as convexity

        solved = []
        monkeypatch.setattr(convexity, "solve_gbsde", lambda *args, **kwargs: solved.append(args))
        monkeypatch.setattr(convexity, "_reduce_mesh", lambda *args: solved.append(args))
        for call in self.time_calls(band, t):
            with pytest.raises(ValueError, match=re.escape(f"t must be finite and >= 0, got {t}")):
                call()
        assert solved == []

    def test_a_start_time_of_zero_is_accepted(self, band):
        report, formula, quotient, check = (call() for call in self.time_calls(band, 0.0))
        assert report.verdict in ("holds", "fails")
        assert math.isfinite(formula) and math.isfinite(quotient)
        assert check["formula"] == formula


class TestJensen:
    def test_identity_gap_zero(self, band):
        grid = make_grid(band, 1.0, nx=201)
        lhs, rhs, gap = jensen_experiment(
            band, zero_generator(), parse_scalar("x"), parse_scalar("tanh(x)"), 0.0, 1.0, grid
        )
        assert gap == 0.0

    def test_convex_exp_holds_with_tree_cross_check(self, band):
        grid = make_grid(band, 1.0, nx=301)
        h = parse_scalar("exp(x)")
        phi = parse_scalar("tanh(x)")
        lhs, rhs, gap = jensen_experiment(band, zero_generator(), h, phi, 0.0, 1.0, grid)
        assert gap >= -1e-4
        tree_lhs = tree_expectation(band, h.compose(phi), 1.0, 2000)
        tree_rhs = float(h(tree_expectation(band, phi, 1.0, 2000)))
        assert lhs == pytest.approx(tree_lhs, abs=5e-3)
        assert rhs == pytest.approx(tree_rhs, abs=5e-3)

    def test_concave_square_short_horizon_violation(self, band):
        eps = 0.01
        grid = make_grid(band, eps, nx=201)
        phi = witness_to_phi(0.0, 1.0, 0.0)
        lhs, rhs, gap = jensen_experiment(
            band, zero_generator(), parse_scalar("-(x^2)"), phi, 0.0, eps, grid
        )
        predicted = -band.sigma_min_sq * eps
        assert predicted / 2.0 >= gap >= 2.0 * predicted


class TestWitnessToPhi:
    def test_jet_is_exact(self):
        phi = witness_to_phi(-1.5, 2.0, 3.0)
        assert phi.eval2(0.0) == (-1.5, 2.0, 3.0)

    def test_bounded_with_compact_support(self):
        phi = witness_to_phi(-1.5, 2.0, 3.0)
        assert phi(5.0) == 0.0
        assert phi(-5.0) == 0.0
        xs = np.linspace(-3, 3, 301)
        assert np.max(np.abs(phi(xs))) < 20.0

    def test_round_trips_through_text(self):
        phi = witness_to_phi(0.5, -1.0, 2.0)
        again = parse_scalar(phi.to_string())
        assert again(0.3) == pytest.approx(phi(0.3), rel=1e-15)

    @pytest.mark.parametrize("index,name", [(0, "y0"), (1, "z0"), (2, "A0")])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_entry_is_named(self, index, name, value):
        # not a ParseError about an identifier 'inf' the caller never wrote
        jet = [0.5, -1.0, 2.0]
        jet[index] = value
        with pytest.raises(ValueError, match=f"^witness_to_phi needs a finite {name}, got {re.escape(repr(value))}$"):
            witness_to_phi(*jet)

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3))
    @example((0.0, -0.0, -0.0))
    @example((-1e300, 5e-324, -5e-324))
    @example((1e-8, -1e8, 1.7976931348623157e308))
    def test_text_built_witness_has_the_hand_built_bits(self, jet):
        phi, reference = witness_to_phi(*jet), _hand_built_witness(*jet)
        xs = np.concatenate([np.linspace(-2.5, 2.5, 101), [-0.0, 1.0, -1.0, 2.0, -2.0]])
        assert phi(xs).tobytes() == reference(xs).tobytes()
        for x in (xs, 0.0, -0.0, 0.3, 1.5):
            try:
                expected = np.array(reference.eval2(x)).tobytes()
            except EvalDomainError as exc:
                with pytest.raises(EvalDomainError, match=f"^{re.escape(str(exc))}$"):
                    phi.eval2(x)
            else:
                assert np.array(phi.eval2(x)).tobytes() == expected


def _hand_built_witness(y0, z0, A0):
    """The witness AST assembled node by node, as witness_to_phi built it before it parsed text."""
    x = Var("x")
    quad = BinOp(
        "+",
        BinOp("+", Lit(float(y0)), BinOp("*", Lit(float(z0)), x)),
        BinOp("*", Lit(0.5 * float(A0)), Pow(x, 2)),
    )
    return ScalarFunction(BinOp("*", quad, Call("bump", x)))


COHERENCE_GENS = (
    ("zero", ("0", "0", 0.0)),
    ("damped", ("-y", "0", 1.0)),
    ("slope", ("0.5*z", "0.1*y", 0.5)),
)
COHERENCE_H = ("x", "exp(x)", "x^2", "-(x^2)")
COHERENCE_PHI = ("tanh(x)", "sin(x)", "0.5*(1 + tanh(x))")


@pytest.fixture(scope="module")
def verdicts(band):
    out = {}
    for name, case in COHERENCE_GENS:
        gen = _gen(*case)
        for h_text in COHERENCE_H:
            report = check_g_convexity(
                band, gen, parse_scalar(h_text), (-2, 2), (-2, 2), resolution=33
            )
            out[(name, h_text)] = (gen, report)
    return out


class TestCharacterizationCoherence:
    """Verdicts from the pointwise condition against expectation experiments."""

    PHI_TEXTS = COHERENCE_PHI

    def test_sufficiency(self, band, verdicts):
        grid = make_grid(band, 1.0, nx=201)
        for (name, h_text), (gen, report) in verdicts.items():
            if report.verdict != "holds":
                continue
            h = parse_scalar(h_text)
            for phi_text in self.PHI_TEXTS:
                phi = parse_scalar(phi_text)
                for tau in (0.1, 0.5, 1.0):
                    _, _, gap = jensen_experiment(band, gen, h, phi, 0.0, tau, grid)
                    assert gap >= -1e-3, (name, h_text, phi_text, tau)

    def test_necessity(self, band, verdicts):
        eps = 0.01
        grid = make_grid(band, eps, nx=201)
        for (name, h_text), (gen, report) in verdicts.items():
            if report.verdict != "fails":
                continue
            h = parse_scalar(h_text)
            wy, wz, wa, wgap = min(report.witnesses, key=lambda w: w[3])
            phi = witness_to_phi(wy, wz, wa)
            _, _, gap = jensen_experiment(band, gen, h, phi, 0.0, eps, grid)
            predicted = wgap * eps
            assert gap <= predicted / 2.0, (name, h_text)
            assert gap >= 2.0 * predicted, (name, h_text)

    def test_sufficiency_gap_shrinks_under_refinement(self, band, verdicts):
        gen, _ = verdicts[("zero", "exp(x)")]
        h = parse_scalar("exp(x)")
        phi = parse_scalar("sin(x)")
        gaps = []
        for nx in (101, 201):
            grid = make_grid(band, 0.5, nx=nx)
            _, _, gap = jensen_experiment(band, gen, h, phi, 0.0, 0.5, grid)
            gaps.append(gap)
        floor = 1e-5
        assert min(gaps[1], 0.0) >= min(gaps[0] / 2.0, 0.0) - floor
