"""The march kernel, G, the tree step, the path loop and the compiled
expressions against reference copies of the code they replaced, byte for
byte.

The references below are the earlier forms: the zero-driver layer
``u + dt * (2 G(D2 u / 2))`` with G as half the difference of the two
scaled parts; the driver layer ``u + dt * (g + 2 G(f + D2 u / 2))``
formed in fresh arrays, with the drivers evaluated by walking the AST and
G from the halved band ends; the tree step that formed both endpoint
continuations and took their maximum; the path loop on numpy scalars with
a ``node_index`` lookup per ``markov`` step; and the AST walker.  The
kernel now computes ``u + dt * G(D2 u)`` and the driver layer in
preallocated buffers, the tree ``mid + max(d, c d)``, the path loop on
Python floats, and each expression through a closure compiled once.
These identities are exact outside the subnormal range, so the bytes must
agree.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gexpect import (
    BlowUpError,
    GeneratorPair,
    NonFiniteError,
    VolatilityBand,
    g_eval,
    make_grid,
    parse_scalar,
    parse_tri,
    simulate_path,
    solve_g_heat,
    solve_gbsde,
    tree_expectation,
    tree_k_expectation,
    zero_generator,
)
from gexpect.expr import _BUILTINS, BinOp, Call, Lit, Neg, Pow, Var, _Jet
from gexpect.gheat import _march, _reduce_last_axis
from gexpect.oracle import LatticePath, _Xorshift64Star

from conftest import CATALOG_TEXTS, grid_with_steps


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
        assert sol.eta.tobytes() == (0.0 + 0.5 * expected).tobytes()
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
    @example(band=VolatilityBand(1.0, 2.0), text="x^2", scale=1.0, t=1.0, steps=1)  # the one-node end
    @example(band=VolatilityBand(0.3, 1.2), text="sin(x)", scale=1e3, t=0.01, steps=1)
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
    # horizon None: the grid of one step, where the loop starts at its one-node end
    @example(band=VolatilityBand(1.0, 2.0), nx=7, horizon=None, drivers=("-y", "0"), text="x^2")
    @example(band=VolatilityBand(0.5, 2.5), nx=21, horizon=None, drivers=("z", "0.5*z"), text="sin(x)")
    def test_tree_k_expectation_matches_the_reference_loop(self, band, nx, horizon, drivers, text):
        grid = grid_with_steps(band, nx, 1, 0.4) if horizon is None else make_grid(band, horizon, nx=nx)
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


def reference_eval(node, env):
    """The AST walker that evaluated every expression before they were compiled."""
    if isinstance(node, Lit):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -reference_eval(node.operand, env)
    if isinstance(node, BinOp):
        ops = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b, "/": lambda a, b: a / b}
        return ops[node.op](reference_eval(node.left, env), reference_eval(node.right, env))
    if isinstance(node, Pow):
        base, n = reference_eval(node.base, env), node.exponent
        return base ** n if n >= 0 else 1.0 / base ** -n
    if isinstance(node, Call):
        arg = reference_eval(node.arg, env)
        value, derivatives = _BUILTINS[node.func]
        if isinstance(arg, _Jet):
            f = value(arg.v)
            return arg.chain(f, *derivatives(arg.v, f))
        return value(arg)
    raise TypeError(node)


def reference_halved_g(band, a):
    """G from the halved band ends, as the allocating driver step formed it."""
    return 0.5 * band.sigma_max_sq * np.maximum(a, 0.0) + 0.5 * band.sigma_min_sq * np.minimum(a, 0.0)


def reference_gradient(u, dx):
    z = np.empty_like(u)
    z[..., 1:-1] = (u[..., 2:] - u[..., :-2]) / (2.0 * dx)
    z[..., 0] = (u[..., 1] - u[..., 0]) / dx
    z[..., -1] = (u[..., -1] - u[..., -2]) / dx
    return z


def reference_driver_layers(band, dx, dt, nt, datum, gen, times, picard):
    """Datum and every layer of the allocating driver march, drivers walked node by node."""

    def drivers(t, y, z):
        env = {"t": t, "y": y, "z": z}
        return reference_eval(gen.g.ast, env), reference_eval(gen.f.ast, env)

    def increment(g_term, f_term, d2):
        return dt * (g_term + 2.0 * reference_halved_g(band, f_term + 0.5 * d2))

    layers = [datum]
    with np.errstate(all="ignore"):
        for k in range(1, nt + 1):
            u = layers[-1]
            d2 = np.zeros_like(u)
            d2[..., 1:-1] = (u[..., 2:] - 2.0 * u[..., 1:-1] + u[..., :-2]) / (dx * dx)
            g_term, f_term = drivers(times[k], u, reference_gradient(u, dx))
            if picard:
                predictor = u + increment(g_term, f_term, d2)
                if not np.isfinite(predictor).all():  # the march stops at a non-finite predictor
                    return layers + [predictor]
                g_term, f_term = drivers(times[k], predictor, reference_gradient(predictor, dx))
            layers.append(u + increment(g_term, f_term, d2))
    return layers


def backward_times(grid, t0=0.0):
    return t0 + grid.horizon - np.linspace(0.0, grid.horizon, grid.nt + 1)


# the generators of the acceptance criteria 5-8, plus drivers that hand back
# their own arguments (y is the layer, z the gradient buffer), a quotient, and
# drivers that read no z (the kernel forms no gradient for them), y alone or t too
DRIVER_CASES = (
    ("-y", "0"),
    ("0.5*z", "0.1*y"),
    ("0.2*y + 0.3*z", "0.1*z"),
    ("-y", "0.2*y"),
    ("0", "0.3*y"),
    ("-abs_smooth(z)", "0"),
    ("z", "y"),
    ("0.5*z/(1 + y^2)", "0.1*sin(y)*z - t"),
    ("y", "-0.5*y"),
    ("sin(y) - t", "0.3*t*y"),
    ("t", "0"),
)


def driver_pair(g, f):
    return GeneratorPair(parse_tri(g), parse_tri(f), 1.0, check_samples=0)


class TestDriverMarch:
    @settings(max_examples=40, deadline=None)
    @given(
        band=bands,
        nx=odd_nx,
        horizon=st.floats(0.01, 1.0),
        theta=st.floats(0.2, 0.5),
        drivers=st.sampled_from(DRIVER_CASES),
        text=st.sampled_from(CATALOG_TEXTS + ("-bump(x)", "4.5")),
        scale=st.floats(-2.0, 2.0).map(lambda e: 10.0**e),
        picard=st.booleans(),
        t0=st.floats(0.0, 2.0),
    )
    def test_every_layer_matches_the_reference_step(
        self, band, nx, horizon, theta, drivers, text, scale, picard, t0
    ):
        grid = make_grid(band, horizon, nx=nx, theta=theta)
        gen, phi = driver_pair(*drivers), scaled(text, scale, 0.0)
        reference = reference_driver_layers(
            band, grid.dx, grid.dt, grid.nt, phi(grid.xs), gen, backward_times(grid, t0), picard
        )
        u = solve_gbsde(band, gen, phi, grid, t0=t0, picard=picard, envelope_factor=1e300).field.u
        for k, layer in enumerate(reference):
            assert u[k].tobytes() == layer.tobytes(), f"layer {k}"

    @settings(max_examples=20, deadline=None)
    @given(
        band=bands,
        nx=odd_nx,
        horizon=st.floats(0.01, 1.0),
        drivers=st.sampled_from(DRIVER_CASES),
        batch=st.lists(st.sampled_from(CATALOG_TEXTS), min_size=1, max_size=5),
        picard=st.booleans(),
    )
    def test_batch_axis_matches_each_reference(self, band, nx, horizon, drivers, batch, picard):
        # the buffers take the datum's shape; every row must get its own march
        grid = make_grid(band, horizon, nx=nx)
        gen, times = driver_pair(*drivers), backward_times(grid)
        data = np.stack([parse_scalar(text)(grid.xs) for text in batch])
        last = _march(band, grid.dx, grid.dt, grid.nt, data, gen.g, gen.f, times, picard)
        reference = reference_driver_layers(band, grid.dx, grid.dt, grid.nt, data, gen, times, picard)
        assert last.tobytes() == reference[-1].tobytes()
        for row, datum in zip(last, data):
            alone = reference_driver_layers(band, grid.dx, grid.dt, grid.nt, datum, gen, times, picard)
            assert row.tobytes() == alone[-1].tobytes()

    # 1/(y - 1) divides by zero where the terminal is 1 at a node; the other two overflow
    @pytest.mark.parametrize(
        "driver,text", [("1/(y - 1)", "x + 1"), ("1/(y - 1)", "1 - x^2"), ("y*y", "1e200*x"), ("exp(y)", "800*x")]
    )
    @pytest.mark.parametrize("picard", [False, True])
    def test_a_failing_driver_raises_at_the_reference_layer(self, band, driver, text, picard):
        # x/0 and overflow inside a driver: a NonFiniteError naming the layer, and no warning
        grid = make_grid(band, 0.5, nx=101)
        gen, phi = driver_pair(driver, "0"), parse_scalar(text)
        reference = reference_driver_layers(
            band, grid.dx, grid.dt, grid.nt, phi(grid.xs), gen, backward_times(grid), picard
        )
        first = next(k for k, u in enumerate(reference) if not np.isfinite(u).all())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError) as err:
                solve_gbsde(band, gen, phi, grid, picard=picard)
        assert err.value.layer == first

    @pytest.mark.parametrize("text", ["1", "-1", "tanh(x) - 2"])
    def test_blow_up_at_the_reference_layer_and_peak(self, band, text):
        grid = make_grid(band, 1.0, nx=101)
        gen, phi = driver_pair("3*y", "0"), parse_scalar(text)
        datum = phi(grid.xs)
        reference = reference_driver_layers(
            band, grid.dx, grid.dt, grid.nt, datum, gen, backward_times(grid), False
        )
        envelope = 1.2 * (float(np.max(np.abs(datum))) + 1.0)  # both drivers vanish at the origin
        first = next(k for k, u in enumerate(reference) if np.max(np.abs(u)) > envelope)
        peak = float(np.max(np.abs(reference[first])))
        with pytest.raises(BlowUpError) as err:
            solve_gbsde(band, gen, phi, grid, envelope_factor=1.2)
        assert err.value.layer == first
        assert str(err.value) == f"|Y| = {peak:.6g} exceeded envelope {envelope:.6g} at time layer {first}"


def reference_path(band, policy, grid, seed, field=None):
    """The path loop on numpy scalars, one node_index lookup per markov step."""
    rng = _Xorshift64Star(seed)
    nt, dt = grid.nt, grid.dt
    b, a, qv = np.empty(nt + 1), np.empty(nt), np.empty(nt + 1)
    b[0] = qv[0] = 0.0
    for i in range(nt):
        if policy == "const-low":
            a_i = band.sigma_min_sq
        elif policy == "const-high":
            a_i = band.sigma_max_sq
        elif policy == "random":
            a_i = band.sigma_max_sq if rng.next_bit() else band.sigma_min_sq
        else:
            a_i = band.sigma_max_sq if field.eta_forward(i, b[i]) >= 0.0 else band.sigma_min_sq
        step = math.sqrt(a_i * dt)
        sign = 1.0 if rng.next_bit() else -1.0
        a[i] = a_i
        b[i + 1] = b[i] + sign * step
        qv[i + 1] = qv[i] + step * step
    return LatticePath(times=np.linspace(0.0, grid.horizon, nt + 1), b=b, a=a, qv=qv)


class TestPathLoop:
    @pytest.mark.parametrize("half_width", [None, 1.0])  # 1.0: the paths leave the grid, the lookup clamps
    def test_every_policy_and_seed_matches_the_reference_loop(self, half_width):
        band = VolatilityBand(0.7, 2.3)
        grid = make_grid(band, 0.5, nx=41, half_width=half_width)
        sol = solve_gbsde(band, driver_pair("-y", "0.2*y"), parse_scalar("sin(3*x) + 0.1*x^2"), grid)
        for policy in ("const-low", "const-high", "random", "markov"):
            for seed in range(200):
                path = simulate_path(band, policy, grid, seed, field=sol)
                expected = reference_path(band, policy, grid, seed, field=sol)
                for name in ("times", "b", "a", "qv"):
                    assert getattr(path, name).tobytes() == getattr(expected, name).tobytes(), (policy, seed, name)


EXPR_TEXTS = CATALOG_TEXTS + (
    "x^(-2) + 1/(1 + x^2)",
    "sqrt(1 + x^2) - cos(2*x)",
    "abs_smooth(x - 0.5)^3",
    "bump(1.5*x) * (2 - x)",
    "-(-x)^3 / 7 - exp(-x^2)",
)
TRI_TEXTS = (
    "0", "-y", "0.2*y + 0.3*z", "-abs_smooth(z)", "z", "t",
    "0.5*z/(1 + y^2) - sin(t*z)", "exp(-t)*tanh(y) + z^2/(2 + y^2)",
)


class TestCompiledExpressions:
    @pytest.mark.parametrize("text", EXPR_TEXTS)
    def test_scalar_values_and_jets_match_the_walker(self, text):
        fn = parse_scalar(text)
        xs = np.linspace(-2.5, 2.5, 90)  # avoids x = 0 for the negative power
        assert fn(xs).tobytes() == np.broadcast_to(reference_eval(fn.ast, {"x": xs}), xs.shape).tobytes()
        for x in (0.37, -1.9):
            assert fn(x) == float(np.broadcast_to(reference_eval(fn.ast, {"x": np.array([x])}), (1,))[0])
            assert fn._compiled({"x": x}) == reference_eval(fn.ast, {"x": x})  # Python floats too
        jet = reference_eval(fn.ast, {"x": _Jet(xs, np.ones_like(xs), np.zeros_like(xs))})
        parts = (jet.v, jet.d1, jet.d2) if isinstance(jet, _Jet) else (jet, 0.0, 0.0)
        for got, want in zip(fn.eval2(xs), parts):
            assert got.tobytes() == np.broadcast_to(want, xs.shape).tobytes()

    @pytest.mark.parametrize("text", TRI_TEXTS)
    def test_driver_values_match_the_walker(self, text):
        fn = parse_tri(text)
        rng = np.random.default_rng(3)
        t, y, z = rng.uniform(0.0, 1.0, 50), rng.uniform(-3.0, 3.0, 50), rng.uniform(-3.0, 3.0, 50)
        env = {"t": t, "y": y, "z": z}
        assert np.asarray(fn(t, y, z)).tobytes() == np.asarray(reference_eval(fn.ast, env)).tobytes()
        assert np.asarray(fn._compiled(env)).tobytes() == np.asarray(reference_eval(fn.ast, env)).tobytes()
        point = {"t": 0.25, "y": -1.5, "z": 0.75}
        assert fn._compiled(point) == reference_eval(fn.ast, point)
        assert fn(0.25, -1.5, 0.75) == float(np.broadcast_to(
            reference_eval(fn.ast, {k: np.array([v]) for k, v in point.items()}), (1,))[0])
