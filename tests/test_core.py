import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gexpect import (
    CflError,
    SpaceTimeGrid,
    VolatilityBand,
    cfl_time_steps,
    check_g_convexity,
    g_eval,
    make_grid,
    parse_scalar,
    tree_expectation_batch,
    zero_generator,
)
from gexpect import core
from gexpect.core import _check_nonnegative, _check_positive, _splitmix64, _splitmix64_stream, _uniforms, sub_steps

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
bands = st.tuples(
    st.floats(min_value=1e-3, max_value=10.0),
    st.floats(min_value=0.0, max_value=10.0),
).map(lambda p: VolatilityBand(p[0], p[0] + p[1]))


class TestVolatilityBand:
    def test_valid(self):
        band = VolatilityBand(1.0, 2.0)
        assert band.sigma_min_sq == 1.0
        assert band.sigma_max == pytest.approx(math.sqrt(2.0))

    @pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (-1.0, 1.0), (2.0, 1.0)])
    def test_rejects_degenerate(self, lo, hi):
        with pytest.raises(ValueError):
            VolatilityBand(lo, hi)

    @pytest.mark.parametrize("hi", [math.inf, math.nan])
    def test_rejects_a_top_variance_that_is_not_finite(self, hi):
        # an infinite top variance made the tree NaN and g_expectation fail in make_grid
        with pytest.raises(ValueError, match="sigma_max_sq"):
            VolatilityBand(1.0, hi)


class TestGEval:
    def test_positive_branch(self, band):
        assert g_eval(band, 1.0) == 1.0

    def test_zero(self, band):
        assert g_eval(band, 0.0) == 0.0

    def test_negative_branch(self, band):
        assert g_eval(band, -1.0) == -0.5

    def test_vectorized(self, band):
        out = g_eval(band, np.array([-2.0, 0.0, 3.0]))
        assert np.allclose(out, [-1.0, 0.0, 3.0])

    @given(bands, finite, finite)
    def test_monotone(self, b, a1, a2):
        lo, hi = min(a1, a2), max(a1, a2)
        assert g_eval(b, lo) <= g_eval(b, hi)

    @given(bands, finite, finite)
    def test_sublinear(self, b, a1, a2):
        scale = 1.0 + abs(a1) + abs(a2)
        assert g_eval(b, a1 + a2) <= g_eval(b, a1) + g_eval(b, a2) + 1e-12 * scale

    @given(bands, finite, st.floats(min_value=0.0, max_value=1e3))
    def test_positively_homogeneous(self, b, a, lam):
        left = g_eval(b, lam * a)
        right = lam * g_eval(b, a)
        assert left == pytest.approx(right, rel=1e-12, abs=1e-12)

    @given(bands, finite)
    def test_supremum_representation(self, b, a):
        sup_form = 0.5 * max(b.sigma_min_sq * a, b.sigma_max_sq * a)
        assert g_eval(b, a) == pytest.approx(sup_form, rel=1e-15, abs=0.0)

    def test_subnormal_argument_matches_the_supremum(self):
        # halving the band ends first rounds once at subnormal precision, the formula twice
        b, a = VolatilityBand(1.0, 2.1875), 2.2250738585e-313
        assert g_eval(b, a) == 0.5 * max(b.sigma_min_sq * a, b.sigma_max_sq * a)
        assert g_eval(b, -a) == 0.5 * max(b.sigma_min_sq * -a, b.sigma_max_sq * -a)

    def test_finite_where_only_the_unhalved_product_overflows(self):
        # 3 * 8.8e307 overflows, G = 1.5 * 8.8e307 does not (no warning under the suite's filter)
        b, a = VolatilityBand(3.0, 3.0), 8.777798510070869e307
        assert g_eval(b, a) == 1.5 * a
        assert g_eval(b, -a) == -1.5 * a
        assert np.array_equal(g_eval(b, np.array([a, -a, 2.2250738585e-313])), [1.5 * a, -1.5 * a, g_eval(b, 2.2250738585e-313)])

    @given(bands, finite, finite)
    def test_nondegenerate_slope(self, b, a1, a2):
        hi, lo = max(a1, a2), min(a1, a2)
        slack = 1e-12 * (1.0 + abs(hi) + abs(lo))
        assert g_eval(b, hi) - g_eval(b, lo) >= 0.5 * b.sigma_min_sq * (hi - lo) - slack


class TestSpaceTimeGrid:
    def test_properties(self):
        grid = SpaceTimeGrid(horizon=1.0, x_min=-2.0, x_max=2.0, nx=5, nt=100)
        assert grid.dx == 1.0
        assert grid.dt == 0.01
        assert grid.center_index == 2
        assert np.allclose(grid.xs, [-2, -1, 0, 1, 2])

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(horizon=1.0, x_min=1.0, x_max=2.0, nx=5, nt=1),
            dict(horizon=1.0, x_min=-2.0, x_max=2.0, nx=2, nt=1),
            dict(horizon=1.0, x_min=-2.0, x_max=2.0, nx=5, nt=0),
            dict(horizon=0.0, x_min=-2.0, x_max=2.0, nx=5, nt=1),
            # dx = 0.75: the nearest node sits 0.25 from 0
            dict(horizon=1.0, x_min=-1.0, x_max=2.0, nx=5, nt=1),
        ],
    )
    def test_rejects_bad_grids(self, kwargs):
        with pytest.raises(ValueError):
            SpaceTimeGrid(**kwargs)

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            (dict(horizon=math.inf, x_min=-2.0, x_max=2.0, nx=5, nt=1), "horizon must be finite"),
            (dict(horizon=1.0, x_min=-math.inf, x_max=2.0, nx=5, nt=1), "x_min must be finite"),
            (dict(horizon=1.0, x_min=-2.0, x_max=math.inf, nx=5, nt=1), "x_max must be finite"),
            (dict(horizon=1.0, x_min=math.nan, x_max=2.0, nx=5, nt=1), "x_min must be finite"),
            # each end is finite, but x_max - x_min overflows
            (dict(horizon=1.0, x_min=-1e308, x_max=1e308, nx=201, nt=10), "dx must be finite"),
        ],
    )
    def test_rejects_values_that_are_not_finite_by_name(self, kwargs, field):
        # refused before the node-at-zero check, whose inf / inf would warn
        with pytest.raises(ValueError, match=field):
            SpaceTimeGrid(**kwargs)

    @pytest.mark.parametrize("name", ["nx", "nt"])
    @pytest.mark.parametrize("value", [21.0, True, np.float64(21.0)])
    def test_a_count_that_is_not_an_integer_is_refused_by_name(self, name, value):
        counts = {"nx": 21, "nt": 4, name: value}
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got "):
            SpaceTimeGrid(horizon=1.0, x_min=-1.0, x_max=1.0, **counts)

    def test_a_step_count_beyond_any_array_is_refused_by_name(self):
        # its nt + 1 time labels overflow numpy's largest array; one fewer step is accepted
        most = np.iinfo(np.intp).max // 8
        with pytest.raises(ValueError, match=rf"^nt = {most} needs more time labels than a float64 array can hold$"):
            SpaceTimeGrid(horizon=1.0, x_min=-1.0, x_max=1.0, nx=3, nt=most)
        assert SpaceTimeGrid(horizon=1.0, x_min=-1.0, x_max=1.0, nx=3, nt=most - 1).nt == most - 1

    def test_the_time_labels_are_built_once_and_read_only(self):
        grid = SpaceTimeGrid(horizon=0.7, x_min=-1.0, x_max=1.0, nx=5, nt=37)
        assert grid.times is grid.times and not grid.times.flags.writeable
        assert grid.times.tobytes() == np.linspace(0.0, 0.7, 38).tobytes()
        assert grid.over(0.35).times.tobytes() == np.linspace(0.0, 0.35, grid.over(0.35).nt + 1).tobytes()

    def test_make_grid_refuses_a_float_nx_and_takes_a_numpy_integer(self, band):
        with pytest.raises(ValueError, match=r"^nx must be an integer, got 21\.0$"):
            make_grid(band, 1.0, nx=21.0)
        assert make_grid(band, 1.0, nx=np.int64(21)) == make_grid(band, 1.0, nx=21)

    @pytest.mark.parametrize("half_width,field", [(math.inf, "x_min must be finite"), (1e308, "dx must be finite")])
    def test_make_grid_refuses_a_width_that_is_not_finite(self, band, half_width, field):
        with pytest.raises(ValueError, match=field):
            make_grid(band, 1.0, 201, half_width=half_width)

    @pytest.mark.parametrize("half_width", [1e-300, 1e-160])
    def test_make_grid_refuses_a_step_count_that_is_not_finite(self, half_width):
        # theta * dx^2 underflowed to 0 (a bare ZeroDivisionError), or the count overflowed to inf
        # and math.ceil raised OverflowError; neither was a ValueError the CLI could name
        with pytest.raises(ValueError, match=r"^dx = \S+ and theta = 0\.45 give a time-step count that is not finite$"):
            make_grid(VolatilityBand(1, 2), 1.0, nx=3, half_width=half_width)

    @pytest.mark.parametrize("span", [math.nan, math.inf])
    def test_over_refuses_a_span_that_is_not_finite(self, span):
        # NaN gave an unnamed ValueError from math.ceil, inf an OverflowError
        grid = SpaceTimeGrid(horizon=1.0, x_min=-2.0, x_max=2.0, nx=5, nt=100)
        with pytest.raises(ValueError, match=f"^span must be finite, got {span}$"):
            grid.over(span)

    def test_cfl_check(self, band):
        grid = SpaceTimeGrid(horizon=1.0, x_min=-8.5, x_max=8.5, nx=401, nt=10)
        with pytest.raises(CflError):
            grid.check_cfl(band)

    def test_cfl_steps_sufficient(self, band):
        dx = 17.0 / 400.0
        nt = cfl_time_steps(band, 1.0, dx, theta=0.45)
        grid = SpaceTimeGrid(horizon=1.0, x_min=-8.5, x_max=8.5, nx=401, nt=nt)
        grid.check_cfl(band)  # passes

    @given(
        dt=st.floats(min_value=1e-6, max_value=1.0),
        k=st.integers(min_value=1, max_value=10_000),
        frac=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )
    def test_sub_steps(self, dt, k, frac):
        # whole multiples keep their count; other spans get the fewest steps within dt
        assert sub_steps(k * dt, dt) == k
        span = (k + frac) * dt
        n = sub_steps(span, dt)
        assert span / n <= dt * (1.0 + 1e-9)
        assert n == 1 or span / (n - 1) > dt

    @given(
        dyadic=st.booleans(),
        e=st.integers(min_value=0, max_value=6),
        left=st.integers(min_value=1, max_value=400),
        right=st.integers(min_value=1, max_value=400),
        x_min=st.floats(min_value=-50.0, max_value=-1e-3),
        data=st.data(),
    )
    def test_node_index(self, dyadic, e, left, right, x_min, data):
        if dyadic:
            # node spacing 2^-e: half-node points are exact ties
            h = 2.0 ** -e
            x_min, x_max, nx = -left * h, right * h, left + right + 1
        else:
            # left nodes below 0 and right above it, so x = 0 is a node
            x_max, nx = right * (-x_min / left), left + right + 1
        grid = SpaceTimeGrid(horizon=1.0, x_min=x_min, x_max=x_max, nx=nx, nt=1)
        ks = data.draw(st.lists(st.integers(min_value=-3, max_value=nx + 2), max_size=8))
        ties = [grid.x_min + (k + 0.5) * grid.dx for k in ks]
        lo, hi = 3.0 * grid.x_min - 1.0, 3.0 * grid.x_max + 1.0
        free = data.draw(st.lists(st.floats(min_value=lo, max_value=hi), max_size=20))
        points = ties + free + [lo, hi, grid.x_min, grid.x_max]
        js = grid.node_index(np.array(points))
        assert js.shape == (len(points),)
        for x, j in zip(points, js):
            # the per-site formula node_index replaced
            old = int(np.clip(round((x - grid.x_min) / grid.dx), 0, grid.nx - 1))
            assert grid.node_index(x) == j == old
            assert isinstance(grid.node_index(x), int)
            if x <= grid.x_min:
                assert j == 0
            if x >= grid.x_max:
                assert j == grid.nx - 1
        if dyadic:
            for k, j in zip(ks, js):
                if 0 <= k < nx - 1:
                    assert j in (k, k + 1) and j % 2 == 0
        assert grid.node_index(np.array([-1e300, 1e300])).tolist() == [0, grid.nx - 1]
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                grid.node_index(bad)
            with pytest.raises(ValueError):
                grid.node_index(np.array([0.0, bad]))

    def test_make_grid_centers_zero(self, band):
        grid = make_grid(band, 1.0, nx=401, half_width=8.5)
        assert grid.xs[grid.center_index] == 0.0
        grid.check_cfl(band)

    def test_check_interval_is_the_one_time_rule(self):
        grid = SpaceTimeGrid(horizon=1.0, x_min=-2.0, x_max=2.0, nx=5, nt=100)
        grid.check_interval(0.0, 1.0 + 5e-13)  # the horizon's slack
        grid.check_interval(0.3, 0.3)
        for s, t in ((0.0, 1.0 + 1e-9), (0.5, 0.4), (-0.1, 0.5), (math.nan, 0.5), (0.0, math.nan)):
            with pytest.raises(ValueError, match=r"^need 0 <= s <= t <= horizon, got s="):
                grid.check_interval(s, t)

    def test_make_grid_rejects_even_nx(self, band):
        # 400 nodes put 0 half-way between two of them; nothing bumps nx
        with pytest.raises(ValueError, match="x = 0 is not a grid node"):
            make_grid(band, 1.0, nx=400, half_width=8.5)

    def test_make_grid_names_a_bad_horizon(self, band):
        # named by the grid's horizon check, not by a sqrt in the default half width
        with pytest.raises(ValueError, match=r"horizon must be > 0, got -1\.0"):
            make_grid(band, -1.0)

    @settings(deadline=None)
    @given(
        b=bands,
        horizon=st.floats(min_value=1e-4, max_value=10.0),
        half=st.integers(min_value=1, max_value=300),
        frac=st.floats(min_value=1e-3, max_value=2.0),
    )
    def test_make_grid_and_over_keep_the_rules(self, b, horizon, half, frac):
        grid = make_grid(b, horizon, nx=2 * half + 1)
        grid.check_cfl(b)
        assert abs(grid.xs[grid.center_index]) <= 1e-9 * grid.dx
        span = frac * horizon
        sub = grid.over(span)
        assert (sub.x_min, sub.x_max, sub.nx, sub.horizon) == (grid.x_min, grid.x_max, grid.nx, span)
        assert sub.nt == sub_steps(span, grid.dt)
        sub.check_cfl(b)

    def test_make_grid_default_width(self, band):
        grid = make_grid(band, 1.0)
        assert grid.x_max == pytest.approx(6.0 * band.sigma_max)


class TestNumberRules:
    """The rules every library number and count follows, each stated once in ``core``."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0, 0.0, -0.0])
    def test_positive_refuses_by_name(self, value):
        with pytest.raises(ValueError, match=f"^eps must be finite and > 0, got {value}$"):
            _check_positive("eps", value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0, -5e-324])
    def test_nonnegative_refuses_by_name(self, value):
        with pytest.raises(ValueError, match=f"^t must be finite and >= 0, got {value}$"):
            _check_nonnegative("t", value)

    @pytest.mark.parametrize("value", [5e-324, 1.0, 1e308, 3])
    def test_a_finite_positive_number_passes_both(self, value):
        _check_positive("eps", value)
        _check_nonnegative("t", value)

    @pytest.mark.parametrize("value", [0.0, -0.0, 0])
    def test_zero_is_nonnegative(self, value):
        _check_nonnegative("t", value)

    @pytest.mark.parametrize("name,least", [("nx", 3), ("nt", 1), ("steps", 1), ("resolution", 16)])
    def test_a_count_below_its_floor_is_refused_by_name_and_the_floor_passes(self, band, name, least):
        with_count = {
            "nx": lambda n: SpaceTimeGrid(1.0, -1.0, 1.0, n, 4),
            "nt": lambda n: SpaceTimeGrid(1.0, -1.0, 1.0, 21, n),
            "steps": lambda n: tree_expectation_batch(band, [parse_scalar("x^2")], [0.5], n),
            "resolution": lambda n: check_g_convexity(band, zero_generator(), parse_scalar("x"), (-1, 1), (-1, 1), n),
        }[name]
        with pytest.raises(ValueError, match=rf"^{name} must be >= {least}, got {least - 1}$"):
            with_count(least - 1)
        with_count(least)


class TestStream:
    """The package's one generator family: splitmix64 on Python ints and on uint64 arrays."""

    @pytest.mark.parametrize("seed", [0, 1, 20240, 2**64 - 1])
    def test_the_array_stream_is_the_scalar_one(self, seed):
        stream = _splitmix64_stream(seed, 1000)
        assert stream.dtype == np.uint64
        state = seed
        for k, word in enumerate(stream):
            assert int(word) == _splitmix64(state), f"output {k}"
            state = (state + 0x9E3779B97F4A7C15) & (2**64 - 1)

    def test_first_outputs_are_pinned(self):
        # the reference splitmix64 outputs of state 0
        assert [int(v) for v in _splitmix64_stream(0, 3)] == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        assert [float(v).hex() for v in _uniforms(20240, 3, 0.0, 1.0)] == [
            "0x1.924d4cf0bfcdcp-2", "0x1.67f97d4d94753p-1", "0x1.033351e549a0dp-1",
        ]

    @pytest.mark.parametrize("seed", [0, 1, 4, 7, 20240, 2**64 - 1])
    @pytest.mark.parametrize("low,high", [(0.0, 1.0), (-10.0, 10.0), (-8.3, -8.2), (1e-300, 2e-300)])
    def test_values_lie_in_the_box(self, seed, low, high):
        values = _uniforms(seed, 1000, low, high)
        assert values.shape == (1000,)
        assert np.all((low <= values) & (values < high))

    def test_the_boxes_broadcast_over_the_shape(self):
        # C order: row 0 takes the stream's first 100 values, row 1 the next 100, each in its own box
        values = _uniforms(4, (2, 100), [[0.0], [-10.0]], [[1.0], [10.0]])
        assert values.shape == (2, 100)
        assert values[0].tobytes() == _uniforms(4, 200, 0.0, 1.0)[:100].tobytes()
        assert values[1].tobytes() == _uniforms(4, 200, -10.0, 10.0)[100:].tobytes()

    def test_a_value_rounded_up_to_high_is_taken_below_it(self, monkeypatch):
        # the largest word scales to 1 - 2^-53, and 1 + 2 * (1 - 2^-53) = 3 - 2^-52 rounds to 3, an even tie
        monkeypatch.setattr(core, "_splitmix64_stream", lambda seed, n: np.full(n, 2**64 - 1, dtype=np.uint64))
        assert _uniforms(0, 2, 1.0, 3.0).tolist() == [3.0 - 2.0**-51] * 2
        assert _uniforms(0, 1, 0.0, 1.0).tolist() == [1.0 - 2.0**-53]
