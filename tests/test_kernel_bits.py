"""The march kernel, G and the tree step against reference copies of the
allocating step they replaced, byte for byte.

The references below are the earlier forms: the zero-driver layer
``u + dt * (2 G(D2 u / 2))`` with G as half the difference of the two
scaled parts, and the tree step that formed both endpoint continuations
and took their maximum.  The kernel now computes ``u + dt * G(D2 u)`` in
preallocated layers and the tree ``mid + max(d, c d)``; these identities
are exact outside the subnormal range, so the bytes must agree.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gexpect import (
    GeneratorPair,
    NonFiniteError,
    VolatilityBand,
    g_eval,
    make_grid,
    parse_scalar,
    parse_tri,
    solve_g_heat,
    solve_gbsde,
    tree_expectation,
    tree_k_expectation,
    zero_generator,
)
from gexpect.gheat import _reduce_last_axis

from conftest import CATALOG_TEXTS


def reference_g(band, a):
    return 0.5 * (band.sigma_max_sq * np.maximum(a, 0.0) - band.sigma_min_sq * np.maximum(-a, 0.0))


def reference_layers(band, grid, datum):
    """Datum and every layer of the allocating zero-driver march."""
    layers = [datum]
    for _ in range(grid.nt):
        u = layers[-1]
        d2 = np.zeros_like(u)
        d2[..., 1:-1] = (u[..., 2:] - 2.0 * u[..., 1:-1] + u[..., :-2]) / (grid.dx * grid.dx)
        layers.append(u + grid.dt * (2.0 * reference_g(band, 0.5 * d2)))
    return layers


def reference_tree_step(values, p_low):
    mid = values[1:-1]
    avg = 0.5 * (values[2:] + values[:-2])
    return mid + (avg - mid), mid + 2.0 * p_low * (avg - mid)


def reference_k_step(band, eta, a, dt):
    return (eta * a - 2.0 * reference_g(band, eta)) * dt


bands = st.builds(
    lambda lo, ratio: VolatilityBand(lo, lo * ratio),
    st.floats(0.05, 4.0),
    st.floats(1.0, 5.0),
)
odd_nx = st.integers(3, 30).map(lambda n: 2 * n + 1)
scales = st.floats(-6.0, 6.0).map(lambda e: 10.0**e)


def scaled(text, scale, shift):
    return parse_scalar(text).scale(scale).shift(shift)


class TestZeroDriverMarch:
    @settings(max_examples=40, deadline=None)
    @given(
        band=bands,
        nx=odd_nx,
        horizon=st.floats(0.01, 1.0),
        theta=st.floats(0.2, 0.5),
        text=st.sampled_from(CATALOG_TEXTS + ("-bump(x)", "4.5")),
        scale=scales,
        shift=st.floats(-1.0, 1.0),
    )
    def test_every_layer_matches_the_reference_step(self, band, nx, horizon, theta, text, scale, shift):
        grid = make_grid(band, horizon, nx=nx, theta=theta)
        phi = scaled(text, scale, shift)
        reference = reference_layers(band, grid, phi(grid.xs))
        for u in (solve_g_heat(band, phi, grid).u, solve_gbsde(band, zero_generator(), phi, grid).field.u):
            for k, layer in enumerate(reference):
                assert u[k].tobytes() == layer.tobytes(), f"layer {k}"

    @settings(max_examples=25, deadline=None)
    @given(
        band=bands,
        nx=odd_nx,
        horizon=st.floats(0.01, 1.0),
        batch=st.lists(st.sampled_from(CATALOG_TEXTS), min_size=1, max_size=6),
        scale=scales,
        shape3=st.booleans(),
    )
    def test_batched_reduction_matches_each_full_solve(self, band, nx, horizon, batch, scale, shape3):
        # layers alternate between two buffers here; each slice must still get its own solve
        grid = make_grid(band, horizon, nx=nx)
        phis = [scaled(text, scale * (i + 1), 0.0) for i, text in enumerate(batch)]
        values = np.stack([phi(grid.xs) for phi in phis])
        expected = np.array([solve_g_heat(band, phi, grid).u[-1, grid.center_index] for phi in phis])
        if shape3:  # a second batch axis: the slices stay apart across both
            values = np.stack([values, values[::-1]])
            expected = np.stack([expected, expected[::-1]])
        assert _reduce_last_axis(band, values, grid).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("text", ["1.7e308*tanh(x)", "-1.7e308*sin(x)", "1e308*(x^2 - 1)"])
    def test_overflow_raises_at_the_reference_layer(self, band, text):
        # runs under the suite's error::RuntimeWarning filter: the kernel must name
        # the failure itself, not let an overflow warning escape first
        grid = make_grid(band, 1.0, nx=201)
        phi = parse_scalar(text)
        with np.errstate(all="ignore"):
            layers = reference_layers(band, grid, phi(grid.xs))
        first = next(k for k, u in enumerate(layers) if not np.isfinite(u).all())
        zero_valued = GeneratorPair(parse_tri("0*y"), parse_tri("0*z"), 0.0)
        solves = (
            lambda: solve_g_heat(band, phi, grid),
            lambda: solve_gbsde(band, zero_generator(), phi, grid),
            lambda: solve_gbsde(band, zero_valued, phi, grid),
            lambda: _reduce_last_axis(band, np.stack([phi(grid.xs)] * 2), grid),
        )
        for solve in solves:
            with pytest.raises(NonFiniteError) as err:
                solve()
            assert err.value.layer == first

    def test_large_smooth_datum_stays_finite(self, band):
        # the maximum principle bounds the march by the datum
        grid = make_grid(band, 1.0, nx=201)
        field = solve_g_heat(band, parse_scalar("1e300*x^4"), grid)
        assert np.isfinite(field.u).all()

    @pytest.mark.parametrize("text", ["1e305*x", "-1e305*x + 1e300"])
    def test_curvature_of_a_large_affine_field(self, band, text):
        # a difference across two rows of this field overflows, none within a row does;
        # under the suite's error::RuntimeWarning filter any overflow warning fails here
        grid = make_grid(band, 1.0, nx=201)
        sol = solve_gbsde(band, zero_generator(), parse_scalar(text), grid)
        u = sol.field.u
        expected = np.zeros_like(u)
        expected[:, 1:-1] = (u[:, 2:] - 2.0 * u[:, 1:-1] + u[:, :-2]) / (grid.dx * grid.dx)
        assert sol.field.curvature.tobytes() == expected.tobytes()
        assert np.isfinite(sol.eta).all()
        assert tree_k_expectation(band, sol) <= 0.0


class TestGenerator:
    @settings(max_examples=60, deadline=None)
    @given(
        lo=st.floats(1e-3, 1e3),
        ratio=st.floats(1.0, 1e3),
        a=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
    )
    @example(1.0, 2.0, [0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0])
    def test_matches_the_reference_form(self, lo, ratio, a):
        band = VolatilityBand(lo, lo * ratio)
        a = np.array(a)
        # outside these the two forms may differ: an overflowing sigma_max_sq * a, a subnormal a
        with np.errstate(over="ignore"):
            keep = np.isfinite(band.sigma_max_sq * np.abs(a)) & ((np.abs(a) >= 1e-300) | (a == 0.0))
        a = a[keep]
        assert g_eval(band, a).tobytes() == reference_g(band, a).tobytes()
        for value in a[:5]:
            assert g_eval(band, float(value)) == reference_g(band, float(value))


class TestTreeStep:
    @settings(max_examples=30, deadline=None)
    @given(
        band=bands,
        text=st.sampled_from(CATALOG_TEXTS),
        scale=scales,
        t=st.floats(0.01, 2.0),
        steps=st.integers(1, 300),
    )
    def test_tree_expectation_matches_the_reference_loop(self, band, text, scale, t, steps):
        phi = scaled(text, scale, 0.0)
        dx = band.sigma_max * np.sqrt(t / steps)
        values = phi(dx * np.arange(-steps, steps + 1))
        p_low = band.sigma_min_sq / (2.0 * band.sigma_max_sq)
        for _ in range(steps):
            values = np.maximum(*reference_tree_step(values, p_low))
        assert np.float64(tree_expectation(band, phi, t, steps)).tobytes() == values[0].tobytes()

    @settings(max_examples=15, deadline=None)
    @given(
        band=bands,
        nx=odd_nx,
        horizon=st.floats(0.05, 1.0),
        drivers=st.sampled_from([("0", "0"), ("-y", "0"), ("z", "0.5*z"), ("0", "-0.5*y")]),
        text=st.sampled_from(CATALOG_TEXTS),
    )
    def test_tree_k_expectation_matches_the_reference_loop(self, band, nx, horizon, drivers, text):
        grid = make_grid(band, horizon, nx=nx)
        gen = GeneratorPair(parse_tri(drivers[0]), parse_tri(drivers[1]), 1.0, check_samples=0)
        sol = solve_gbsde(band, gen, parse_scalar(text), grid)
        nt, dt = grid.nt, grid.dt
        dx_tree = band.sigma_max * np.sqrt(dt)
        p_low = band.sigma_min_sq / (2.0 * band.sigma_max_sq)
        values = np.zeros(2 * nt + 1)
        for i in range(nt - 1, -1, -1):
            eta = sol.eta[nt - i, grid.node_index(dx_tree * np.arange(-i, i + 1))]
            high, low = reference_tree_step(values, p_low)
            values = np.maximum(
                reference_k_step(band, eta, band.sigma_max_sq, dt) + high,
                reference_k_step(band, eta, band.sigma_min_sq, dt) + low,
            )
        assert np.float64(tree_k_expectation(band, sol)).tobytes() == values[0].tobytes()
