"""Batched solves: a stack of data marched once, each row against its own solve.

``solve_g_heat_batch`` and ``solve_gbsde_batch`` march every datum of a
stack in one pass and hand back one field per datum.  Each row must have
the bytes of its single solve in every layer, whole field and value read;
a failure names the first failing layer and the row it came from.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gexpect import (
    BlowUpError,
    GeneratorPair,
    NonFiniteError,
    VolatilityBand,
    jensen_experiment,
    make_grid,
    nonlinear_expectation,
    parse_scalar,
    parse_tri,
    solve_g_heat,
    solve_g_heat_batch,
    solve_gbsde,
    solve_gbsde_batch,
    zero_generator,
)

from conftest import CATALOG_TEXTS, generator, grid_with_steps

# zero; z-free (the kernel forms no gradient); z-reading; transcendental in z or y
DRIVERS = (
    ("0", "0"),
    ("-y", "0"),
    ("-y", "0.2*y"),
    ("sin(y) - t", "0.3*t*y"),
    ("0.5*z", "0.1*y"),
    ("-abs_smooth(z)", "0"),
    ("0.5*z/(1 + y^2)", "0.1*sin(y)*z - t"),
)


def same(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


terminal_lists = st.lists(
    st.tuples(st.sampled_from(CATALOG_TEXTS), st.floats(-2.0, 2.0).map(lambda e: 10.0**e)),
    min_size=1,
    max_size=4,
).map(lambda items: [parse_scalar(text).scale(scale) for text, scale in items])


class TestRowsAreSingleSolves:
    @settings(max_examples=50, deadline=None)
    @given(
        lo=st.floats(0.1, 2.0),
        ratio=st.floats(1.0, 4.0),
        nx=st.integers(1, 20).map(lambda n: 2 * n + 1),
        nt=st.integers(1, 50),
        theta=st.floats(0.2, 0.5),
        drivers=st.sampled_from(DRIVERS),
        picard=st.booleans(),
        terminals=terminal_lists,
        t0=st.floats(0.0, 1.0),
    )
    def test_every_read_has_the_single_solve_bytes(self, lo, ratio, nx, nt, theta, drivers, picard, terminals, t0):
        band = VolatilityBand(lo, lo * ratio)
        grid = grid_with_steps(band, nx, nt, theta)
        gen = generator(*drivers)
        # coarse grids can take dt * L > 1, where the driver step grows; growth is not at issue here
        options = dict(t0=t0, envelope_factor=1e300, picard=picard)
        batch = solve_gbsde_batch(band, gen, terminals, grid, **options)
        assert len(batch) == len(terminals)
        for sol, terminal in zip(batch, terminals):
            alone = solve_gbsde(band, gen, terminal, grid, **options)
            for k in range(nt + 1):
                assert same(sol.field.layer(k), alone.field.layer(k)), f"layer {k}"
                assert same(sol.eta_layer(k), alone.eta[k]), f"eta layer {k}"
                assert same(sol.field.z_layer(k), alone.field.z_layer(k)), f"z layer {k}"
            for s in np.linspace(alone.field.times[-1], alone.field.times[0], 2 * nt + 1):
                for x in (0.0, -0.3, 1.0):
                    assert same(sol.y_at(s, x), alone.y_at(s, x))
            assert same(sol.field.u, alone.field.u)
            assert same(sol.eta, alone.eta)
        if drivers == ("0", "0"):  # the forward heat march is the zero-driver backward march
            for field, sol in zip(solve_g_heat_batch(band, terminals, grid), batch):
                assert same(field.u, sol.field.u)

    @settings(max_examples=30, deadline=None)
    @given(
        lo=st.floats(0.1, 2.0),
        ratio=st.floats(1.0, 4.0),
        nx=st.integers(1, 20).map(lambda n: 2 * n + 1),
        nt=st.integers(1, 50),
        theta=st.floats(0.2, 0.5),
        phis=terminal_lists,
    )
    def test_heat_rows_have_the_single_solve_bytes(self, lo, ratio, nx, nt, theta, phis):
        band = VolatilityBand(lo, lo * ratio)
        grid = grid_with_steps(band, nx, nt, theta)
        for field, phi in zip(solve_g_heat_batch(band, phis, grid), phis):
            alone = solve_g_heat(band, phi, grid)
            for k in range(nt + 1):
                assert same(field.layer(k), alone.layer(k)), f"layer {k}"
            assert same(field.u, alone.u)
            assert same(field.value_at(0.5 * grid.horizon), alone.value_at(0.5 * grid.horizon))

    @settings(max_examples=40, deadline=None)
    @given(
        lo=st.floats(0.1, 2.0),
        ratio=st.floats(1.0, 4.0),
        nx=st.integers(5, 20).map(lambda n: 2 * n + 1),
        drivers=st.sampled_from(DRIVERS),
        h=st.sampled_from(CATALOG_TEXTS),
        phi=st.sampled_from(CATALOG_TEXTS),
        s=st.floats(0.0, 0.5),
        tau=st.sampled_from([0.0, 0.1, 0.25, 0.5]),
    )
    def test_jensen_is_two_nonlinear_expectations(self, lo, ratio, nx, drivers, h, phi, s, tau):
        band = VolatilityBand(lo, lo * ratio)
        grid = make_grid(band, 1.0, nx=nx)
        gen, h, phi = generator(*drivers), parse_scalar(h), parse_scalar(phi)
        lhs = nonlinear_expectation(band, gen, h.compose(phi), s, s + tau, grid)
        rhs = h(nonlinear_expectation(band, gen, phi, s, s + tau, grid))
        assert same(jensen_experiment(band, gen, h, phi, s, s + tau, grid), (lhs, rhs, lhs - rhs))

    def test_an_empty_stack_is_refused(self, band, default_grid):
        with pytest.raises(ValueError, match="at least one datum"):
            solve_g_heat_batch(band, [], default_grid)
        with pytest.raises(ValueError, match="at least one datum"):
            solve_gbsde_batch(band, zero_generator(), [], default_grid)


def failure_of(solve):
    with pytest.raises((NonFiniteError, BlowUpError)) as err:
        solve()
    return err.value


class TestFailuresNameTheirRow:
    @pytest.mark.parametrize("picard", [False, True])
    def test_a_non_finite_row_raises_at_its_reference_layer(self, band, picard):
        # 1/(y - 1) divides by zero where the datum x + 1 is 1; x^2 + 3 stays away from 1
        grid = make_grid(band, 0.5, nx=101)
        gen = generator("1/(y - 1)", "0")
        good, bad = parse_scalar("x^2 + 3"), parse_scalar("x + 1")
        solve_gbsde(band, gen, good, grid, picard=picard)
        alone = failure_of(lambda: solve_gbsde(band, gen, bad, grid, picard=picard))
        assert isinstance(alone, NonFiniteError) and alone.row == 0
        for terminals, row in (([good, bad], 1), ([bad, good], 0), ([good, good, bad], 2)):
            err = failure_of(lambda: solve_gbsde_batch(band, gen, terminals, grid, picard=picard))
            assert isinstance(err, NonFiniteError)
            assert (err.layer, err.row) == (alone.layer, row)
            assert str(err) == str(alone)

    def test_a_blow_up_row_raises_at_its_reference_layer_and_peak(self, band):
        grid = make_grid(band, 1.0, nx=101)
        gen = GeneratorPair(parse_tri("3*y"), parse_tri("0"), 3.0)
        flat, one, two = parse_scalar("0*x"), parse_scalar("1"), parse_scalar("2")
        solve_gbsde(band, gen, flat, grid, envelope_factor=1.2)
        singles = {text: failure_of(lambda: solve_gbsde(band, gen, fn, grid, envelope_factor=1.2))
                   for text, fn in (("1", one), ("2", two))}
        # the envelope is per row: the datum 2 leaves its own envelope first
        assert singles["2"].layer < singles["1"].layer
        for terminals, row, first in (([flat, one], 1, "1"), ([one, flat, two], 2, "2"), ([two, one], 0, "2")):
            err = failure_of(lambda: solve_gbsde_batch(band, gen, terminals, grid, envelope_factor=1.2))
            assert isinstance(err, BlowUpError)
            assert (err.layer, err.row) == (singles[first].layer, row)
            assert str(err) == str(singles[first])

    def test_a_non_finite_row_wins_over_a_blow_up_in_the_same_layer(self, band):
        # at envelope factor 0.1 the datum x^2 + 3 leaves its envelope at layer 1, where
        # 1/(y - 1) divides by zero on the datum x + 1
        grid = make_grid(band, 0.5, nx=101)
        gen = generator("1/(y - 1)", "0")
        good, bad = parse_scalar("x^2 + 3"), parse_scalar("x + 1")
        singles = [failure_of(lambda: solve_gbsde(band, gen, fn, grid, envelope_factor=0.1)) for fn in (good, bad)]
        assert [(type(err), err.layer) for err in singles] == [(BlowUpError, 1), (NonFiniteError, 1)]
        err = failure_of(lambda: solve_gbsde_batch(band, gen, [good, bad], grid, envelope_factor=0.1))
        assert isinstance(err, NonFiniteError) and (err.layer, err.row) == (1, 1)

    def test_a_non_finite_datum_is_layer_zero_of_its_row(self, band, default_grid):
        phis = [parse_scalar("x"), parse_scalar("sqrt(x)")]
        err = failure_of(lambda: solve_g_heat_batch(band, phis, default_grid))
        assert isinstance(err, NonFiniteError) and (err.layer, err.row) == (0, 1)

    @pytest.mark.parametrize("factor", [float("nan"), float("inf"), 0.0, -1.0])
    def test_an_envelope_factor_that_is_not_finite_and_positive_is_refused(self, band, factor):
        # sqrt(x) is NaN left of 0: the datum would fail at layer 0, so the check runs before the march
        grid = make_grid(band, 0.5, nx=21)
        gen, one, nan_left = generator("3*y", "0"), parse_scalar("1"), parse_scalar("sqrt(x)")
        with pytest.raises(ValueError, match="envelope_factor"):
            solve_gbsde(band, gen, one, grid, envelope_factor=factor)
        for terminals in ([one, one], [one, nan_left]):
            with pytest.raises(ValueError, match="envelope_factor"):
                solve_gbsde_batch(band, gen, terminals, grid, envelope_factor=factor)

    @pytest.mark.parametrize("drivers", [("0", "0"), ("0*y", "0*z")])
    def test_an_infinite_envelope_still_raises_at_the_reference_layer(self, band, drivers):
        # max |datum| near the float limit makes the envelope inf: the finiteness test must stay
        grid = make_grid(band, 1.0, nx=201)
        gen = generator(*drivers)
        big, tame = parse_scalar("1.7e308*tanh(x)"), parse_scalar("tanh(x)")
        alone = failure_of(lambda: solve_g_heat(band, big, grid))
        assert isinstance(alone, NonFiniteError)
        for terminals, row in (([big], 0), ([tame, big], 1)):
            err = failure_of(lambda: solve_gbsde_batch(band, gen, terminals, grid))
            assert isinstance(err, NonFiniteError)
            assert (err.layer, err.row) == (alone.layer, row)
