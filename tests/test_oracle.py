import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gexpect import (
    LatticePath,
    SpaceTimeGrid,
    VolatilityBand,
    g_expectation,
    gauss_hermite_expectation,
    make_grid,
    mutual_variation,
    parse_scalar,
    quadratic_variation,
    simulate_path,
    solve_g_heat,
    solve_gbsde,
    tree_expectation,
    tree_expectation_batch,
    tree_k_expectation,
    zero_generator,
)
from gexpect.gheat import _march
from gexpect.oracle import _empty_on_line, _jump_table

from conftest import CATALOG_TEXTS


@pytest.fixture(scope="module")
def pow2_grid(band):
    # dt = 1/128 makes sigma_max_sq * dt a perfect square: exact qv sums
    return SpaceTimeGrid(horizon=1.0, x_min=-8.5, x_max=8.5, nx=401, nt=128)


class TestTreeExpectation:
    def test_odd_function_is_zero(self, band):
        assert tree_expectation(band, parse_scalar("x"), 1.0, 500) == pytest.approx(0.0, abs=1e-12)

    def test_square_worst_case(self, band):
        value = tree_expectation(band, parse_scalar("x^2"), 1.0, 2000)
        assert value == pytest.approx(2.0, abs=5e-3)

    def test_concave_square_floor(self, band):
        value = tree_expectation(band, parse_scalar("-(x^2)"), 1.0, 2000)
        assert value == pytest.approx(-1.0, abs=5e-3)

    @pytest.mark.parametrize("steps", [1, 7, 500, 2000])
    def test_the_tree_is_the_explicit_scheme_at_theta_one_without_a_boundary(self, steps):
        # at dx = sigma_max sqrt(dt) the march's u + max(a d, b d) has a = 1/2 and b = c / 2, the
        # lattice's mid + max(d / 2, c d / 2); steps + 5 nodes each side keep the march's boundary
        # out of the centre's cone, so the two differ by rounding alone. The tree therefore checks
        # the boundary, theta and a second code path, not the scheme itself.
        texts = ("x^2", "-x^2", "x^4", "-x^4", "x^3", "tanh(x)", "sin(x)", "x*abs_smooth(x)", "exp(0.5*x)", "-bump(x)")
        phis = [parse_scalar(text) for text in texts]
        for band in (VolatilityBand(1.0, 2.0), VolatilityBand(0.3, 1.7)):
            for t in (0.25, 1.0):
                half = (steps + 5) * band.sigma_max * math.sqrt(t / steps)
                grid = SpaceTimeGrid(horizon=t, x_min=-half, x_max=half, nx=2 * (steps + 5) + 1, nt=steps)
                data = np.stack([phi(grid.xs) for phi in phis])
                pde = _march(band, grid.dx, grid.dt, steps, data)[:, grid.center_index]
                tree = tree_expectation_batch(band, phis, [t], steps)[:, 0]
                bound = 4 * steps * np.finfo(float).eps * np.max(np.abs(data), axis=1)
                assert np.all(np.abs(pde - tree) <= bound), (band, t)

    def test_degenerate_band_matches_quadrature(self):
        sigma = VolatilityBand(1.5, 1.5)
        for text in ("tanh(x)", "exp(tanh(x))", "cos(x)"):
            phi = parse_scalar(text)
            tree = tree_expectation(sigma, phi, 1.0, 2000)
            quad = gauss_hermite_expectation(phi, 1.5)
            assert tree == pytest.approx(quad, abs=1e-3), text

    @pytest.mark.parametrize("variance", [np.nan, np.inf, -1.0])
    def test_quadrature_rejects_a_variance_that_is_not_finite_and_nonnegative(self, variance):
        # NaN returned NaN, and -1 failed in a square root as "math domain error"
        with pytest.raises(ValueError, match="variance must be finite and >= 0"):
            gauss_hermite_expectation(parse_scalar("x^2"), variance)

    def test_quadrature_at_variance_zero_is_phi_at_zero(self):
        assert gauss_hermite_expectation(parse_scalar("cos(x) + 1"), 0.0) == pytest.approx(2.0, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        sigma_min_sq=st.floats(0.1, 2.0),
        ratio=st.floats(1.0, 4.0),
        t=st.floats(0.05, 1.0),
        nx=st.integers(50, 150).map(lambda n: 2 * n + 1),
        text=st.sampled_from(CATALOG_TEXTS),
    )
    def test_the_pde_value_agrees_with_the_tree(self, sigma_min_sq, ratio, t, nx, text):
        # two schemes on their own meshes: the explicit march on make_grid's default domain and the
        # tree at 1000 steps; over 200 seeded draws the gap was at most 8e-4 (1 + |tree|), median 4e-6
        band, phi = VolatilityBand(sigma_min_sq, sigma_min_sq * ratio), parse_scalar(text)
        pde = g_expectation(band, phi, t, make_grid(band, t, nx=nx))
        tree = tree_expectation(band, phi, t, 1000)
        assert abs(pde - tree) <= 1e-2 * (1.0 + abs(tree))

    def test_error_shrinks_with_steps(self, band):
        # noise floor 1e-4: the x^2 benchmark is exact on the tree
        errors = [
            abs(tree_expectation(band, parse_scalar("x^2"), 1.0, steps) - 2.0)
            for steps in (250, 500, 1000, 2000, 4000)
        ]
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= coarse + 1e-4

    def test_agrees_with_pde_on_catalog(self, band, default_grid, catalog):
        for text in CATALOG_TEXTS:
            field = solve_g_heat(band, catalog[text], default_grid)
            for t in (0.25, 1.0):
                pde = field.value_at(t, 0.0)
                tree = tree_expectation(band, catalog[text], t, 2000)
                assert abs(pde - tree) <= 5e-3, (text, t)

    def test_rejects_zero_steps(self, band):
        with pytest.raises(ValueError):
            tree_expectation(band, parse_scalar("x"), 1.0, 0)

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), -1.0])
    def test_rejects_a_time_that_is_not_finite_and_nonnegative(self, band, t):
        # NaN and inf returned nan, -1 a bare math domain error
        with pytest.raises(ValueError, match="t must be finite and >= 0"):
            tree_expectation(band, parse_scalar("x^2"), t, 10)

    @pytest.mark.parametrize("steps", [1, 7])
    def test_time_zero_is_phi_at_zero(self, band, steps):
        phi = parse_scalar("exp(tanh(x)) + x^2")
        assert tree_expectation(band, phi, 0.0, steps) == float(phi(0.0))


bands = st.floats(0.05, 4.0).flatmap(lambda lo: st.floats(1.0, 4.0).map(lambda r: VolatilityBand(lo, lo * r)))
tree_steps = st.one_of(st.sampled_from([1, 2]), st.integers(0, 249).map(lambda n: 2 * n + 1), st.integers(1, 500))
# a constant, a bump-damped odd payoff and two catalogue payoffs
TERMINALS = {text: parse_scalar(text) for text in ("2.5", "x * bump(x)", "x^2", "tanh(x)")}


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


class TestTreeExpectationBatch:
    @settings(max_examples=40, deadline=None)
    @given(
        band=bands,
        steps=tree_steps,
        texts=st.lists(st.sampled_from(sorted(TERMINALS)), min_size=1, max_size=3, unique=True),
        times=st.lists(st.floats(0.0, 3.0), min_size=0, max_size=2).map(lambda ts: [0.0, *ts]),
        order=st.randoms(use_true_random=False),
    )
    def test_every_entry_has_the_single_tree_bits_in_any_column_order(self, band, steps, texts, times, order):
        phis = [TERMINALS[text] for text in texts]
        order.shuffle(times)
        batch = tree_expectation_batch(band, phis, times, steps)
        assert batch.shape == (len(phis), len(times))
        for i, phi in enumerate(phis):
            for j, t in enumerate(times):
                assert _bits(batch[i, j]) == _bits(tree_expectation(band, phi, t, steps)), (texts[i], t)
        rows, columns = list(range(len(phis))), list(range(len(times)))
        order.shuffle(rows)
        order.shuffle(columns)
        shuffled = tree_expectation_batch(band, [phis[i] for i in rows], [times[j] for j in columns], steps)
        assert shuffled.tobytes() == batch[np.ix_(rows, columns)].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(band=bands, c=st.floats(-1e300, 1e300), t=st.floats(0.0, 3.0), steps=st.integers(1, 300))
    @example(band=VolatilityBand(1.0, 2.0), c=-0.0, t=1.0, steps=1)
    @example(band=VolatilityBand(1.0, 2.0), c=5e-324, t=0.0, steps=3)
    def test_a_constant_terminal_comes_back_bit_for_bit(self, band, c, t, steps):
        # -0.0 is the one exception: the first step adds +0.0 to it, so the root is +0.0
        value = tree_expectation(band, lambda xs: np.full_like(xs, c), t, steps)
        assert _bits(value) == _bits(c + 0.0)

    @pytest.mark.parametrize("text", ["x^2", "tanh(x)", "sin(x)"])
    def test_k_expectation_stays_exactly_zero(self, band, text):
        sol = solve_gbsde(band, zero_generator(), parse_scalar(text), make_grid(band, 1.0, nx=61))
        assert _bits(tree_k_expectation(band, sol)) == _bits(0.0)

    def test_a_k_tree_on_another_band_is_refused(self, band):
        # the K tree read the solution's eta on the other band's lattice and returned 0.0
        sol = solve_gbsde(band, zero_generator(), parse_scalar("x^2"), make_grid(band, 1.0, nx=61))
        with pytest.raises(ValueError, match=r"band \[0\.5, 3\.0\] is not the solution's band \[1\.0, 2\.0\]"):
            tree_k_expectation(VolatilityBand(0.5, 3.0), sol)

    @pytest.mark.parametrize(
        ("times", "steps", "message"),
        [
            ([0.5, float("nan")], 10, "t must be finite and >= 0, got nan"),
            ([float("inf"), 0.5], 10, "t must be finite and >= 0, got inf"),
            ([0.5, 1.0, -1e-300], 10, "t must be finite and >= 0, got -1e-300"),
            ([0.5, 1.0], 0, "steps must be >= 1, got 0"),
        ],
    )
    def test_every_time_and_steps_are_checked_before_any_phi_is_called(self, band, times, steps, message):
        calls = []

        def phi(xs):
            calls.append(xs)
            return xs * xs

        with pytest.raises(ValueError, match=message):
            tree_expectation_batch(band, [phi, phi], times, steps)
        assert calls == []

    @pytest.mark.parametrize("steps", [2.0, True, np.float64(10.0)])
    def test_a_steps_that_is_not_an_integer_is_refused_before_any_phi(self, band, steps):
        calls = []
        with pytest.raises(ValueError, match=r"^steps must be an integer, got "):
            tree_expectation_batch(band, [lambda xs: calls.append(xs) or xs], [0.5], steps)
        assert calls == []
        with pytest.raises(ValueError, match=r"^steps must be an integer, got "):
            tree_expectation(band, parse_scalar("x^2"), 1.0, steps)

    def test_a_numpy_integer_steps_keeps_the_bits(self, band):
        phi = parse_scalar("x^4")
        assert tree_expectation(band, phi, 1.0, np.int64(40)) == tree_expectation(band, phi, 1.0, 40)

    @pytest.mark.parametrize(("phis", "times", "name"), [([], [1.0], "phis"), ([parse_scalar("x")], [], "times")])
    def test_an_empty_list_is_refused_by_name(self, band, phis, times, name):
        with pytest.raises(ValueError, match=f"^{name} must hold at least one"):
            tree_expectation_batch(band, phis, times, 10)


class TestLineAlignedLattice:
    @pytest.mark.parametrize("shape", [(1,), (2,), (3,), (7,), (3999,), (4001, 4), (5, 3)])
    def test_each_lattice_array_starts_on_a_cache_line(self, shape):
        for _ in range(8):  # numpy's allocator hands out different offsets from one call to the next
            array = _empty_on_line(shape)
            assert array.shape == shape and array.flags.c_contiguous and array.flags.writeable
            assert array.__array_interface__["data"][0] % 64 == 0


class TestSimulatePath:
    def test_const_high_exact_quadratic_variation(self, band, pow2_grid):
        path = simulate_path(band, "const-high", pow2_grid, 3)
        assert path.qv[-1] == 2.0

    def test_const_low_quadratic_variation(self, band, pow2_grid):
        path = simulate_path(band, "const-low", pow2_grid, 3)
        assert path.qv[-1] == pytest.approx(1.0, abs=1e-12)

    def test_same_seed_identical(self, band, pow2_grid):
        p1 = simulate_path(band, "random", pow2_grid, 42)
        p2 = simulate_path(band, "random", pow2_grid, 42)
        assert np.array_equal(p1.b, p2.b)
        assert np.array_equal(p1.a, p2.a)

    def test_different_seeds_differ(self, band, pow2_grid):
        p1 = simulate_path(band, "random", pow2_grid, 1)
        p2 = simulate_path(band, "random", pow2_grid, 2)
        assert not np.array_equal(p1.b, p2.b)

    def test_random_policy_in_band(self, band, pow2_grid):
        path = simulate_path(band, "random", pow2_grid, 9)
        assert np.all(path.a >= band.sigma_min_sq)
        assert np.all(path.a <= band.sigma_max_sq)
        assert 1.0 - 1e-12 <= path.qv[-1] <= 2.0 + 1e-12

    def test_unknown_policy_rejected(self, band, pow2_grid):
        with pytest.raises(ValueError):
            simulate_path(band, "clever", pow2_grid, 1)

    @pytest.mark.parametrize("seed", [1.5, 2.0, True])
    def test_a_seed_that_is_not_an_integer_is_refused_by_name(self, band, pow2_grid, seed):
        with pytest.raises(ValueError, match=r"^seed must be an integer, got "):
            simulate_path(band, "random", pow2_grid, seed)

    @pytest.mark.parametrize("seed", [2**64, -1, np.int64(-1), 2**70 + 5])
    def test_a_seed_outside_64_bits_is_refused_by_name(self, band, pow2_grid, seed):
        # such a seed drew the stream of seed mod 2^64
        with pytest.raises(ValueError, match=rf"^seed must be in \[0, 2\^64\), got {seed}$"):
            simulate_path(band, "random", pow2_grid, seed)

    def test_a_numpy_integer_seed_is_the_python_seed(self, band, pow2_grid):
        p1 = simulate_path(band, "random", pow2_grid, np.uint64(2**64 - 1))
        p2 = simulate_path(band, "random", pow2_grid, 2**64 - 1)
        assert p1.b.tobytes() == p2.b.tobytes() and p1.a.tobytes() == p2.a.tobytes()

    def test_markov_needs_field(self, band, pow2_grid):
        with pytest.raises(ValueError):
            simulate_path(band, "markov", pow2_grid, 1)

    def test_a_markov_path_on_another_band_is_refused_at_the_call(self, band):
        # the path was built, and only k_along_path refused its variance densities
        grid = make_grid(band, 1.0, nx=61)
        sol = solve_gbsde(band, zero_generator(), parse_scalar("x^2"), grid)
        with pytest.raises(ValueError, match=r"band \[0\.5, 3\.0\] is not the solution's band \[1\.0, 2\.0\]"):
            simulate_path(VolatilityBand(0.5, 3.0), "markov", grid, 1, field=sol)

    def test_path_arrays_read_only(self, band, pow2_grid):
        path = simulate_path(band, "random", pow2_grid, 4)
        with pytest.raises(ValueError):
            path.b[0] = 1.0
        assert not _jump_table().flags.writeable  # the stream's table, shared by every path

    def test_every_path_and_solve_on_a_grid_reads_its_one_set_of_time_labels(self, band):
        # each path, heat solve and backward solve built its own np.linspace of the labels
        grid = make_grid(band, 0.7, nx=41)
        paths = [simulate_path(band, policy, grid, 4) for policy in ("const-low", "random")]
        field = solve_g_heat(band, parse_scalar("x^2"), grid)
        assert all(np.shares_memory(x.times, grid.times) for x in (*paths, field))
        assert paths[0].times.tobytes() == np.linspace(0.0, 0.7, grid.nt + 1).tobytes()
        backward = solve_gbsde(band, zero_generator(), parse_scalar("x^2"), grid, t0=0.25)
        assert backward.field.times.tobytes() == (0.25 + 0.7 - np.linspace(0.0, 0.7, grid.nt + 1)).tobytes()


class TestQuadraticVariation:
    def test_constant_path_zero(self):
        n = 8
        path = LatticePath(
            times=np.linspace(0, 1, n + 1),
            b=np.zeros(n + 1),
            a=np.full(n, 1.0),
            qv=np.zeros(n + 1),
        )
        assert np.all(quadratic_variation(path) == 0.0)

    def test_equals_stored_qv_exactly(self):
        # dyadic variances and dt make every step an exact binary fraction,
        # so the squared-increment sums match the stored qv bit for bit
        dyadic = VolatilityBand(1.0, 4.0)
        grid = SpaceTimeGrid(horizon=1.0, x_min=-12.5, x_max=12.5, nx=401, nt=64)
        for policy in ("const-low", "const-high", "random"):
            path = simulate_path(dyadic, policy, grid, 21)
            assert np.array_equal(quadratic_variation(path), path.qv)

    def test_equals_stored_qv_to_rounding(self, band, pow2_grid):
        # irrational step sizes round in the running position sum; the
        # recovered increments agree to an ulp per step
        for policy in ("const-low", "const-high", "random"):
            path = simulate_path(band, policy, pow2_grid, 21)
            assert np.max(np.abs(quadratic_variation(path) - path.qv)) <= 1e-14


class TestMutualVariation:
    def test_self_polarisation(self, band, pow2_grid):
        p = simulate_path(band, "random", pow2_grid, 5)
        assert np.array_equal(mutual_variation(p, p), quadratic_variation(p))

    def test_negated_path(self, band, pow2_grid):
        p = simulate_path(band, "random", pow2_grid, 6)
        neg = LatticePath(times=p.times.copy(), b=-p.b, a=p.a.copy(), qv=p.qv.copy())
        assert np.array_equal(mutual_variation(p, neg), -quadratic_variation(p))

    def test_symmetry(self, band, pow2_grid):
        p1 = simulate_path(band, "random", pow2_grid, 7)
        p2 = simulate_path(band, "random", pow2_grid, 8)
        assert np.array_equal(mutual_variation(p1, p2), mutual_variation(p2, p1))

    def test_bilinearity(self, band, pow2_grid):
        p1 = simulate_path(band, "random", pow2_grid, 9)
        p1b = simulate_path(band, "random", pow2_grid, 10)
        p2 = simulate_path(band, "random", pow2_grid, 11)
        combined = LatticePath(
            times=p1.times.copy(), b=p1.b + p1b.b, a=p1.a.copy(), qv=p1.qv.copy()
        )
        left = mutual_variation(combined, p2)
        right = mutual_variation(p1, p2) + mutual_variation(p1b, p2)
        assert np.max(np.abs(left - right)) <= 1e-12

    def test_grid_mismatch_rejected(self, band, pow2_grid):
        p1 = simulate_path(band, "random", pow2_grid, 1)
        other = make_grid(band, 1.0, nx=81)
        p2 = simulate_path(band, "random", other, 1)
        with pytest.raises(ValueError):
            mutual_variation(p1, p2)


class TestLatticePathInvariants:
    def test_rejects_decreasing_qv(self):
        with pytest.raises(ValueError):
            LatticePath(
                times=np.linspace(0, 1, 3),
                b=np.zeros(3),
                a=np.ones(2),
                qv=np.array([0.0, 0.5, 0.2]),
            )

    def test_rejects_a_qv_with_nan_inside(self):
        # np.diff gives NaN there, which no "< 0" test catches
        with pytest.raises(ValueError, match="qv must be nondecreasing from 0"):
            LatticePath(times=np.linspace(0, 1, 3), b=np.zeros(3), a=np.ones(2), qv=np.array([0.0, np.nan, 1.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            LatticePath(
                times=np.linspace(0, 1, 3),
                b=np.zeros(3),
                a=np.ones(3),
                qv=np.zeros(3),
            )

    def test_rejects_positions_of_another_length(self):
        with pytest.raises(ValueError, match="times, b and qv must have equal length"):
            LatticePath(times=np.linspace(0, 1, 3), b=np.zeros(4), a=np.ones(2), qv=np.zeros(3))

    def test_freezes_views_not_the_callers_arrays(self):
        arrays = {"times": np.linspace(0, 1, 3), "b": np.zeros(3), "a": np.ones(2), "qv": np.zeros(3)}
        path = LatticePath(**arrays)
        for name, array in arrays.items():
            assert array.flags.writeable and not getattr(path, name).flags.writeable, name
