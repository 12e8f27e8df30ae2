"""The march kernel, G, the tree step, the path loop and the compiled
expressions against reference copies of their arithmetic, byte for byte.

The march references form each layer in fresh arrays with the kernel's
folded constants a = dt sigma_max_sq / (2 dx^2), b = dt sigma_min_sq /
(2 dx^2) and 2 dx^2: the zero-driver layer ``u + max(a d, b d)`` with d the
undivided second difference, and the driver layer
``u + (max(a D, b D) + dt g)`` with D = d + 2 dx^2 f, the drivers evaluated
by walking the AST.  ``TestFoldDrift`` bounds the distance of that step
from the paper's ``u + dt * (g + 2 G(f + D2 u / 2))``, the form the kernel
matched before the fold.  The other references are the earlier forms of
code that kept its bits: G as half the difference of the two scaled
parts; the tree step that formed both endpoint continuations and took
their maximum; the lattice loop that built its views at every step; the
path loop on numpy scalars with a ``node_index`` lookup per ``markov``
step, drawing one bit at a time from the shift-register stream on Python
ints; and the AST walker.  The tree now steps ``mid + max(d, c d)`` in
blocks of steps, the paths draw their bits a table block at a time and
sum their positions on arrays, and each expression goes through a
closure compiled once.  The heat march is also compared
with the march of zero-valued drivers, on subnormal data too.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

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
    solve_g_heat_batch,
    solve_gbsde,
    solve_gbsde_batch,
    tree_expectation,
    tree_k_expectation,
    zero_generator,
)
from gexpect.expr import _BUILTINS, BinOp, Call, Lit, Neg, Pow, Var, _Jet
from gexpect.gheat import _march, _reduce_last_axis
from gexpect.core import _MASK, _splitmix64
from gexpect.oracle import LatticePath, _lattice, _stream_bits

from conftest import CATALOG_TEXTS, generator, grid_with_steps


def reference_g(band, a):
    return 0.5 * (band.sigma_max_sq * np.maximum(a, 0.0) - band.sigma_min_sq * np.maximum(-a, 0.0))


def folded(band, dx, dt):
    """The kernel's constants: a = dt sigma_max_sq / (2 dx^2), b = dt sigma_min_sq / (2 dx^2) and 2 dx^2."""
    two_dx_sq = 2.0 * dx * dx
    return dt * band.sigma_max_sq / two_dx_sq, dt * band.sigma_min_sq / two_dx_sq, two_dx_sq


def undivided_d2(u):
    """(hi - 2 mid) + lo along the last axis, zero at the two ends."""
    d = np.zeros_like(u)
    d[..., 1:-1] = u[..., 2:] - 2.0 * u[..., 1:-1] + u[..., :-2]
    return d


def reference_layers(band, grid, datum):
    """Datum and every layer of the allocating zero-driver march u + max(a d, b d).

    Each layer adds its increment to u + 0.0, which is u itself after the
    first layer, as no later layer holds a -0.
    """
    a, b, _ = folded(band, grid.dx, grid.dt)
    layers = [datum]
    for _ in range(grid.nt):
        u = layers[-1]
        d = undivided_d2(u)
        layers.append((u + 0.0) + np.maximum(a * d, b * d))
    return layers


def reference_tree_step(values, p_low):
    mid = values[1:-1]
    avg = 0.5 * (values[2:] + values[:-2])
    return mid + (avg - mid), mid + 2.0 * p_low * (avg - mid)


def reference_lattice(band, dts, steps, terminals):
    """Roots of the reward-free lattice loop that built its five views at every step."""
    dxs = [band.sigma_max * math.sqrt(dt) for dt in dts]
    ks = np.arange(-steps, steps + 1)
    width = (len(dxs),) if len(dxs) > 1 else ()
    values = np.empty((2 * steps + 1, *width))
    for b, (terminal, dx) in enumerate(zip(terminals, dxs)):
        values.reshape(2 * steps + 1, -1)[:, b] = terminal(dx * ks)
    c, half = np.array(2.0 * (band.sigma_min_sq / (2.0 * band.sigma_max_sq))), np.array(0.5)
    d, cd = np.empty((2 * steps - 1, *width)), np.empty((2 * steps - 1, *width))
    for i in range(steps - 1, -1, -1):
        mid, dn, cdn = values[1:-1], d[: 2 * i + 1], cd[: 2 * i + 1]
        np.add(values[2:], values[:-2], out=dn)
        np.multiply(dn, half, out=dn)
        np.subtract(dn, mid, out=dn)
        np.multiply(dn, c, out=cdn)
        np.add(mid, np.maximum(dn, cdn, out=dn), out=mid)
        values = mid
    return values.reshape(len(dxs)).copy()


def reference_reward_lattice(band, dt, steps, terminal, reward):
    """Root of the per-step loop with a reward, forming only the cone: step i reads its 2 i + 1 nodes."""
    dx = band.sigma_max * math.sqrt(dt)
    values = terminal(dx * np.arange(-steps, steps + 1))
    c = 2.0 * (band.sigma_min_sq / (2.0 * band.sigma_max_sq))
    for i in range(steps - 1, -1, -1):
        mid = values[1:-1]
        d = (values[2:] + values[:-2]) * 0.5 - mid
        top, bottom = reward(i, dx * np.arange(-i, i + 1))
        values = np.maximum(top + (mid + d), bottom + (mid + d * c))
    return values[0]


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

    # s = 5: nt = 1, 2, s - 1, s, s + 1 and s^2 + 1, each with stride isqrt(nt)
    @pytest.mark.parametrize("nt", [1, 2, 4, 5, 6, 26])
    @pytest.mark.parametrize("drivers", [("0", "0"), ("0.5*z", "0.1*y")])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_checkpoints_and_ring_match_the_reference_layers(self, band, nt, drivers, batch):
        # a solve keeps every stride-th layer in a checkpoint row and the last two others in
        # the ring buffers; each stored layer must have the reference bytes, with no re-march
        grid = grid_with_steps(band, 21, nt, 0.45)
        phis = [parse_scalar(text) for text in ("sin(3*x)", "x^2", "tanh(x) - x^3")[:batch]]
        if drivers == ("0", "0"):
            fields = solve_g_heat_batch(band, phis, grid)
            references = [reference_layers(band, grid, phi(grid.xs)) for phi in phis]
        else:
            gen, times = generator(*drivers), backward_times(grid)
            fields = [sol.field for sol in solve_gbsde_batch(band, gen, phis, grid, envelope_factor=1e300)]
            references = [
                reference_driver_layers(band, grid.dx, grid.dt, nt, phi(grid.xs), gen, times, False)
                for phi in phis
            ]
        stride = max(1, math.isqrt(nt))
        stored = sorted(set(range(0, nt + 1, stride)) | {nt - 1, nt})
        for field, reference in zip(fields, references):
            for k in stored:
                assert field.layer(k).tobytes() == reference[k].tobytes(), f"layer {k}"
            assert field._segment[0] == -1  # every read came from a checkpoint or the ring

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

    @pytest.mark.parametrize("steps", [1, 2, 31, 32, 33, 64, 65, 2000])
    @pytest.mark.parametrize("times", [(1.0,), (0.3, 1.0, 2.5)])
    def test_blocked_lattice_matches_the_per_step_loop(self, band, steps, times):
        # a block updates up to 31 nodes per side outside the cone, which the root never reads;
        # near the float limit, and with infinite end nodes, the lattice must not warn at all
        # (the suite turns every RuntimeWarning into an error)
        terminals = [parse_scalar(text) for text in CATALOG_TEXTS + ("1e307*tanh(x)", "8.95e307*tanh(x)")]
        terminals.append(lambda x: np.where(np.abs(x) == np.abs(x).max(), np.inf, np.sin(x)))
        dts = [t / steps for t in times]
        for terminal in terminals:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                expected = reference_lattice(band, dts, steps, [terminal] * len(dts))
            assert not caught
            roots = _lattice(band, dts, steps, [terminal] * len(dts))
            assert roots.tobytes() == expected.tobytes(), terminal

    @settings(max_examples=40, deadline=None)
    @given(
        band=bands,
        # the block edges, where a block's window and the next block's first step meet
        steps=st.one_of(st.sampled_from([1, 31, 32, 33, 63, 64, 65]), st.integers(1, 300)),
        columns=st.lists(
            st.tuples(st.floats(0.01, 3.0), st.sampled_from(CATALOG_TEXTS)),
            min_size=1, max_size=8, unique_by=lambda column: column[0],
        ),
    )
    @example(band=VolatilityBand(1.0, 2.0), steps=1, columns=[(1.0, "x^2")])
    @example(band=VolatilityBand(0.3, 1.2), steps=65, columns=[(0.1 * (k + 1), t) for k, t in enumerate(CATALOG_TEXTS)])
    def test_flat_lattice_matches_the_per_step_loop_for_any_stack(self, band, steps, columns):
        # the flat lattice steps every stack, one column or eight, as 1-d runs B values apart
        dts = [t / steps for t, _ in columns]
        assume(len(set(dts)) == len(dts))
        terminals = [parse_scalar(text) for _, text in columns]
        expected = reference_lattice(band, dts, steps, terminals)
        assert _lattice(band, dts, steps, terminals).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("steps", [1, 2, 31, 32, 33, 64, 65, 200])
    @pytest.mark.parametrize("cone_only", [False, True])
    def test_rewarded_lattice_matches_the_per_step_loop(self, band, steps, cone_only):
        # tree_k_expectation's reward leaves its root at exactly 0.0, so this reward moves the root,
        # and read at the wrong step or on the wrong nodes gives other bits; the cone-only reward is
        # NaN on the outer nodes a block steps, which must not reach the root
        dt = 0.7 / steps
        dx = band.sigma_max * math.sqrt(dt)

        def reward(i, xs):
            top, bottom = 0.01 * np.sin(xs + i), -0.01 * np.cos(3.0 * xs)
            if cone_only:
                inside = np.abs(xs) <= (i + 0.5) * dx
                top, bottom = np.where(inside, top, np.nan), np.where(inside, bottom, np.nan)
            return top, bottom

        terminal = parse_scalar("tanh(x) + 0.1*x^2")
        expected = reference_reward_lattice(band, dt, steps, terminal, reward)
        assert np.isfinite(expected)
        (root,) = _lattice(band, [dt], steps, [terminal], reward)
        assert root.tobytes() == expected.tobytes()

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
        gen = GeneratorPair(parse_tri(drivers[0]), parse_tri(drivers[1]), 1.0)
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


def paper_increment(band, dx, dt, g_term, f_term, d):
    """dt * (g + 2 G(f + D2 u / 2)) with D2 u = d / dx^2, the paper's form."""
    return dt * (g_term + 2.0 * reference_halved_g(band, f_term + 0.5 * (d / (dx * dx))))


def kernel_increment(band, dx, dt, g_term, f_term, d):
    """max(a D, b D) + dt g with D = d + 2 dx^2 f, the kernel's folded form of the paper's increment."""
    a, b, two_dx_sq = folded(band, dx, dt)
    big_d = d + two_dx_sq * f_term
    return np.maximum(a * big_d, b * big_d) + dt * g_term


def reference_driver_layers(band, dx, dt, nt, datum, gen, times, picard, form=kernel_increment):
    """Datum and every layer of the allocating driver march, drivers walked node by node.

    Each layer is (u + 0.0) + increment, as the kernel adds its increment
    last; the drivers read u itself.
    """

    def drivers(t, y, z):
        env = {"t": t, "y": y, "z": z}
        return reference_eval(gen.g.ast, env), reference_eval(gen.f.ast, env)

    def step(u, g_term, f_term, d):
        return (u + 0.0) + form(band, dx, dt, g_term, f_term, d)

    layers = [datum]
    with np.errstate(all="ignore"):
        for k in range(1, nt + 1):
            u = layers[-1]
            d = undivided_d2(u)
            g_term, f_term = drivers(times[k], u, reference_gradient(u, dx))
            if picard:
                predictor = step(u, g_term, f_term, d)
                if not np.isfinite(predictor).all():  # the march stops at a non-finite predictor
                    return layers + [predictor]
                g_term, f_term = drivers(times[k], predictor, reference_gradient(predictor, dx))
            layers.append(step(u, g_term, f_term, d))
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
        gen, phi = generator(*drivers), scaled(text, scale, 0.0)
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
        gen, times = generator(*drivers), backward_times(grid)
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
        gen, phi = generator(driver, "0"), parse_scalar(text)
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
        gen, phi = generator("3*y", "0"), parse_scalar(text)
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


class TestFoldDrift:
    """The folded step against the paper's form, which the kernel matched bit for bit before the fold."""

    # the largest drift over these cases is 4 ulps of the largest |value| up to the layer (y, -0.5*y)
    # and 2 for the others
    @pytest.mark.parametrize("drivers", [("0", "0"), ("-y", "0.2*y"), ("0.5*z", "0.1*y"), ("y", "-0.5*y")])
    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("nx", [21, 201])
    def test_every_layer_stays_within_4_ulps_of_the_paper_form(self, band, drivers, wide, nx):
        band = VolatilityBand(0.05, 4.0) if wide else band
        grid = make_grid(band, 1.0, nx=nx)
        gen, times = generator(*drivers), backward_times(grid)
        for text in CATALOG_TEXTS:
            datum = parse_scalar(text)(grid.xs)
            out = np.empty((grid.nt + 1, nx))
            _march(band, grid.dx, grid.dt, grid.nt, datum, gen.g, gen.f, times, out=out)
            paper = reference_driver_layers(band, grid.dx, grid.dt, grid.nt, datum, gen, times, False, paper_increment)
            peak = 0.0
            for k, layer in enumerate(paper):
                peak = max(peak, float(np.max(np.abs(layer))))
                assert np.max(np.abs(out[k] - layer)) <= 4.0 * np.spacing(peak), (text, k)


class _Xorshift64Star:
    """The path generator one draw at a time on Python ints; the state is seeded by splitmix64."""

    def __init__(self, seed: int):
        state = _splitmix64(seed & _MASK)
        self._state = state if state else 0x9E3779B97F4A7C15

    def next_bit(self) -> int:
        """The top bit of the next output word."""
        x = self._state
        x ^= (x >> 12)
        x ^= (x << 25) & _MASK
        x ^= (x >> 27)
        self._state = x
        return ((x * 0x2545F4914F6CDD1D) & _MASK) >> 63


class TestStream:
    # counts on both sides of one and two table blocks of 256 draws
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), n=st.integers(0, 700))
    @example(seed=0, n=256)
    @example(seed=2**64 - 1, n=257)
    @example(seed=-0x9E3779B97F4A7C15 % 2**64, n=255)  # splitmix64 maps it to the state 0
    @example(seed=12345, n=513)
    def test_the_table_stream_is_the_one_draw_at_a_time_stream(self, seed, n):
        rng = _Xorshift64Star(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a wrap on a numpy scalar would warn
            bits = _stream_bits(seed, n)
        assert bits.dtype == bool and bits.tolist() == [bool(rng.next_bit()) for _ in range(n)]


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
    # simulate_path's markov loop keeps its own copy of eta's forward-step rule on Python floats,
    # since a call to the solution's reader costs about five steps of that loop; the reference
    # loop reads eta_forward, so these tests pin the copy to the one reader
    @pytest.mark.parametrize("half_width", [None, 1.0])  # 1.0: the paths leave the grid, the lookup clamps
    def test_every_policy_and_seed_matches_the_reference_loop(self, half_width):
        band = VolatilityBand(0.7, 2.3)
        grid = make_grid(band, 0.5, nx=41, half_width=half_width)
        sol = solve_gbsde(band, generator("-y", "0.2*y"), parse_scalar("sin(3*x) + 0.1*x^2"), grid)
        for policy in ("const-low", "const-high", "random", "markov"):
            for seed in range(200):
                path = simulate_path(band, policy, grid, seed, field=sol)
                expected = reference_path(band, policy, grid, seed, field=sol)
                for name in ("times", "b", "a", "qv"):
                    assert getattr(path, name).tobytes() == getattr(expected, name).tobytes(), (policy, seed, name)

    def test_paths_whose_draws_cross_table_blocks_match_the_reference_loop(self):
        band = VolatilityBand(0.7, 2.3)
        grid = grid_with_steps(band, 41, 300, 0.45)  # random draws 600 bits, three table blocks; the others two
        sol = solve_gbsde(band, generator("0.5*z", "0.1*y"), parse_scalar("sin(3*x) + 0.1*x^2"), grid)
        for policy in ("const-low", "const-high", "random", "markov"):
            for seed in range(20):
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


def first_non_finite(layers):
    """(layer, row) of the first layer of a reference march that holds a NaN or infinity, or None."""
    for k, u in enumerate(layers):
        bad = ~np.isfinite(u.reshape(-1, u.shape[-1])).all(axis=-1)
        if bad.any():
            return k, int(np.flatnonzero(bad)[0])
    return None


def failure_of(march, error=NonFiniteError):
    """(layer, row) of the ``error`` the march raises, or None when it returns."""
    try:
        march()
    except error as err:
        return err.layer, err.row
    return None


def stride_out(nt, shape):
    """A checkpoint array at the stride a solve takes, and that stride."""
    stride = max(1, math.isqrt(nt))
    return np.empty((nt // stride + 1,) + shape), stride


# c * tanh(x) with |c| up to the largest float: D2's mid + mid overflows beyond finfo.max / 2
overflowing = st.floats(300.0, 308.23).map(lambda e: 10.0**e) | st.just(1.7e308)


class TestFailureLayers:
    """Finiteness is tested at the last layer; a failure re-marches and names the first layer and row."""

    @settings(max_examples=30, deadline=None)
    @given(
        band=bands,
        nx=odd_nx,
        horizon=st.floats(0.05, 2.0),
        scales=st.lists(overflowing, min_size=3, max_size=3),
        signs=st.lists(st.sampled_from([1.0, -1.0]), min_size=3, max_size=3),
    )
    @example(band=VolatilityBand(1.0, 2.0), nx=21, horizon=1.0, scales=[1e300, 1e300, 1.7e308], signs=[1, 1, -1])
    def test_heat_solves_and_reductions_fail_at_the_reference_layer(self, band, nx, horizon, scales, signs):
        grid = make_grid(band, horizon, nx=nx)
        data = np.stack([s * c * np.tanh(grid.xs) for s, c in zip(signs, scales)])
        phis = [scaled("tanh(x)", s * c, 0.0) for s, c in zip(signs, scales)]
        for datum, count in ((data[0], 1), (data, 3)):
            with np.errstate(all="ignore"):
                expected = first_non_finite(reference_layers(band, grid, datum))
            whole = np.empty((grid.nt + 1,) + datum.shape)  # the shape of a ``u`` re-march
            got = {
                "solve": failure_of(lambda: solve_g_heat_batch(band, phis[:count], grid)),
                "u re-march": failure_of(lambda: _march(band, grid.dx, grid.dt, grid.nt, datum, out=whole)),
                "reduction": failure_of(lambda: _reduce_last_axis(band, datum, grid)),
            }
            assert got == dict.fromkeys(got, expected)

    @settings(max_examples=40, deadline=None)
    @given(
        band=bands,
        nx=st.integers(3, 12).map(lambda n: 2 * n + 1),
        horizon=st.floats(0.05, 2.0),
        growth=st.sampled_from(["y", "3*y", "8*y"]),
        f=st.sampled_from(["0", "0.1*y", "0.1*z"]),
        scales=st.lists(st.floats(300.0, 308.23).map(lambda e: 10.0**e), min_size=3, max_size=3),
        picard=st.booleans(),
        batch=st.booleans(),
    )
    # nt 4 and 7 at stride 2: the first non-finite layer is 3, untested, and Picard's predictor
    # fails at 4; or it is nt, after the last checkpoint
    @example(band=VolatilityBand(1.0, 2.0), nx=15, horizon=1.0, growth="3*y", f="0",
             scales=[10.0**306.9] * 3, picard=True, batch=False)
    @example(band=VolatilityBand(1.0, 2.0), nx=21, horizon=1.0, growth="3*y", f="0",
             scales=[10.0**306.9] * 3, picard=False, batch=True)
    @example(band=VolatilityBand(1.0, 2.0), nx=21, horizon=1.0, growth="3*y", f="0",
             scales=[10.0**306.4] * 3, picard=True, batch=False)
    def test_growing_driver_marches_fail_at_the_reference_layer(
        self, band, nx, horizon, growth, f, scales, picard, batch
    ):
        # no envelope: the driver grows each layer until it overflows, at a layer well past the first
        grid = make_grid(band, horizon, nx=nx)
        gen, times = generator(growth, f), backward_times(grid)
        data = np.stack([c * np.tanh(grid.xs + i) for i, c in enumerate(scales)])
        datum = data if batch else data[0]
        expected = first_non_finite(
            reference_driver_layers(band, grid.dx, grid.dt, grid.nt, datum, gen, times, picard)
        )
        checkpoints, stride = stride_out(grid.nt, datum.shape)
        for options in ({}, {"out": checkpoints, "stride": stride}, {"out": np.empty((grid.nt + 1,) + datum.shape)}):
            got = failure_of(
                lambda: _march(band, grid.dx, grid.dt, grid.nt, datum, gen.g, gen.f, times, picard, **options)
            )
            assert got == expected, options

    @settings(max_examples=40, deadline=None)
    @given(
        band=bands,
        nx=st.integers(3, 12).map(lambda n: 2 * n + 1),
        horizon=st.floats(0.05, 2.0),
        g=st.sampled_from(["1/y", "tanh(y)", "exp(-(y^2))"]),
        f=st.sampled_from(["0", "0.1*tanh(y)"]),
        scales=st.lists(overflowing | st.floats(-1.0, 2.0).map(lambda e: 10.0**e), min_size=3, max_size=3),
        picard=st.booleans(),
        batch=st.booleans(),
    )
    # row 0 is odd, so 1/y is 1/0 at x = 0 and layer 1 is infinite there; 1/inf is the finite 0
    @example(band=VolatilityBand(1.0, 2.0), nx=21, horizon=1.0, g="1/y", f="0",
             scales=[1.0] * 3, picard=False, batch=True)
    # with Picard only the predictor is infinite at layer 1: the corrected layer reads g and f at
    # that infinity, 0 and 0.1, and is finite, so the predictor's own test must name the layer
    @example(band=VolatilityBand(1.0, 2.0), nx=21, horizon=1.0, g="1/y", f="0.1*tanh(y)",
             scales=[1.0] * 3, picard=True, batch=False)
    def test_a_non_finite_node_stays_so_under_drivers_finite_at_infinity(
        self, band, nx, horizon, g, f, scales, picard, batch
    ):
        # the one test at layer nt rests on this: each layer is the last plus an increment, so a
        # node that is not finite stays so, whatever the drivers give there
        grid = make_grid(band, horizon, nx=nx)
        gen, times = generator(g, f), backward_times(grid)
        data = np.stack([c * np.tanh(grid.xs + i) for i, c in enumerate(scales)])
        datum = data if batch else data[0]
        layers = reference_driver_layers(band, grid.dx, grid.dt, grid.nt, datum, gen, times, picard)
        expected = first_non_finite(layers)
        if expected is not None:
            assert all(not np.isfinite(u).all() for u in layers[expected[0]:])
        checkpoints, stride = stride_out(grid.nt, datum.shape)
        for options in ({}, {"out": checkpoints, "stride": stride}, {"out": np.empty((grid.nt + 1,) + datum.shape)}):
            got = failure_of(
                lambda: _march(band, grid.dx, grid.dt, grid.nt, datum, gen.g, gen.f, times, picard, **options)
            )
            assert got == expected, options


def growing_layers(band, grid, datum, picard=False, growth="y"):
    """The reference layers of the driver g = ``growth``, a multiple of y: the largest |value| grows at every layer."""
    gen = generator(growth, "0")
    return gen, reference_driver_layers(band, grid.dx, grid.dt, grid.nt, datum, gen, backward_times(grid), picard)


def peaks_of(layer):
    return np.max(np.abs(layer.reshape(-1, layer.shape[-1])), axis=-1)


class TestEnvelope:
    """The sum-of-squares test per layer, and the per-row test behind it, raise exactly where a row's maximum exceeds its envelope."""

    @pytest.mark.parametrize("picard", [False, True])
    def test_rows_of_mixed_scale_take_the_per_row_test_and_pass_it(self, band, picard):
        # h(phi) = (10 tanh x)^2 beside phi = 10 tanh x: the first row's squares alone exceed the
        # second row's envelope squared, so every layer fails the sum-of-squares test, and the
        # per-row maximum and minimum, inside every envelope, let the march through with its bits
        grid = make_grid(band, 1.0, nx=201)
        data = np.stack([100.0 * np.tanh(grid.xs) ** 2, 10.0 * np.tanh(grid.xs)])
        envelope = 50.0 * (np.max(np.abs(data), axis=-1) + 1.0)
        assert np.vdot(data[0], data[0]) > envelope.min() ** 2
        gen, times = generator("-y", "0"), backward_times(grid)
        expected = _march(band, grid.dx, grid.dt, grid.nt, data, gen.g, gen.f, times, picard)
        got = _march(band, grid.dx, grid.dt, grid.nt, data, gen.g, gen.f, times, picard, envelope=envelope)
        assert got.tobytes() == expected.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(
        band=bands,
        nx=st.integers(3, 12).map(lambda n: 2 * n + 1),
        horizon=st.floats(0.05, 2.0),
        scale=scales,
        at=st.floats(0.0, 1.0),
        stored=st.booleans(),
    )
    def test_an_envelope_just_below_a_layers_peak_raises_at_that_layer(self, band, nx, horizon, scale, at, stored):
        grid = make_grid(band, horizon, nx=nx)
        datum = scale * (2.0 + np.tanh(grid.xs))
        gen, layers = growing_layers(band, grid, datum)
        peaks = [float(np.max(np.abs(u))) for u in layers]
        assert all(p < q for p, q in zip(peaks[1:], peaks[2:]))  # so the first layer beyond is k itself
        k = 1 + min(int(at * grid.nt), grid.nt - 1)
        times = backward_times(grid)

        def march(envelope):
            out, stride = stride_out(grid.nt, datum.shape) if stored else (None, 1)
            return _march(band, grid.dx, grid.dt, grid.nt, datum, gen.g, gen.f, times, out=out,
                          stride=stride, envelope=envelope)

        below = float(np.nextafter(peaks[k], 0.0))
        with pytest.raises(BlowUpError) as err:
            march(below)
        assert (err.value.layer, err.value.row) == (k, 0)
        assert str(err.value) == f"|Y| = {peaks[k]:.6g} exceeded envelope {below:.6g} at time layer {k}"
        # at the peak itself layer k passes: the next layer, or none, is the first beyond it
        if k < grid.nt:
            assert failure_of(lambda: march(peaks[k]), BlowUpError) == (k + 1, 0)
        else:
            assert march(peaks[k]).tobytes() == layers[-1].tobytes()

    @settings(max_examples=30, deadline=None)
    @given(
        band=bands,
        nx=st.integers(3, 12).map(lambda n: 2 * n + 1),
        horizon=st.floats(0.05, 2.0),
        scales=st.lists(scales, min_size=3, max_size=3),
        at=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
        where=st.lists(st.sampled_from(["at", "below", "far"]), min_size=3, max_size=3),
    )
    # the rows inside their envelopes hold the largest squares: the layer's sum of squares stays below
    # the largest envelope's square while row 1 is beyond its own
    @example(band=VolatilityBand(1.0, 2.0), nx=9, horizon=1.0, scales=[1e3, 1.0, 1e2], at=[0.5] * 3,
             where=["far", "below", "far"])
    def test_per_row_envelopes_name_the_first_layer_and_row_beyond(self, band, nx, horizon, scales, at, where):
        # each row's envelope is its own peak at a drawn layer, the float just below it, or far above
        # its every layer
        grid = make_grid(band, horizon, nx=nx)
        data = np.stack([c * (2.0 + np.tanh(grid.xs - i)) for i, c in enumerate(scales)])
        gen, layers = growing_layers(band, grid, data)
        peaks = np.stack([peaks_of(u) for u in layers])
        drawn = [peaks[1 + min(int(a * grid.nt), grid.nt - 1), r] for r, a in enumerate(at)]
        envelope = np.array([
            {"at": peak, "below": np.nextafter(peak, 0.0), "far": 1e3 * peaks[-1, r]}[w]
            for r, (peak, w) in enumerate(zip(drawn, where))
        ])
        expected = next(
            ((k, r) for k in range(1, grid.nt + 1) for r in range(3) if peaks[k, r] > envelope[r]), None
        )
        got = failure_of(
            lambda: _march(band, grid.dx, grid.dt, grid.nt, data, gen.g, gen.f, backward_times(grid),
                           envelope=envelope),
            BlowUpError,
        )
        assert got == expected

    @pytest.mark.parametrize("batch", [False, True])
    @pytest.mark.parametrize("picard", [False, True])
    def test_an_envelope_clamped_to_the_largest_float(self, band, batch, picard):
        # the squares of these layers overflow, so each layer takes the per-row test and passes it
        # until the driver carries a row past the largest float
        grid = make_grid(band, 1.0, nx=41)
        data = np.stack([c * (2.0 + np.tanh(grid.xs)) for c in (1e300, 1e305, 3e304)])
        datum = data if batch else data[1]
        gen, layers = growing_layers(band, grid, datum, picard, growth="8*y")
        expected = first_non_finite(layers)
        assert expected is not None and expected[0] > 2
        largest = np.finfo(float).max
        envelope = np.full(3, largest) if batch else largest
        ring = (np.empty(datum.shape), np.empty(datum.shape))
        got = failure_of(
            lambda: _march(band, grid.dx, grid.dt, grid.nt, datum, gen.g, gen.f, backward_times(grid), picard,
                           envelope=envelope, ring=ring)
        )
        assert got == expected
        # the layer before the failure, still in its ring buffer, is the reference's
        k = expected[0]
        assert ring[(k - 1) % 2].tobytes() == layers[k - 1].tobytes()


# -0.0, +0.0, subnormals, the smallest normal and a few ordinary values
SIGNED_TINY = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e-310, -2.5e-309, 2.2250738585072014e-308, -1e-300, 1.0, -2.0])


def tiny_datum(data, rows, nx):
    """A (rows, nx) datum drawn from SIGNED_TINY, or an (nx,) one for a single row."""
    shape = (rows, nx) if rows > 1 else (nx,)
    return np.array(data.draw(st.lists(SIGNED_TINY, min_size=rows * nx, max_size=rows * nx))).reshape(shape)


class TestLiteralZeroDrivers:
    @settings(max_examples=60, deadline=None)
    @given(
        band=bands,
        nx=st.integers(3, 15),
        dx=st.floats(0.5, 4.0),
        rows=st.integers(1, 3),
        data=st.data(),
        drivers=st.sampled_from([("0", "0"), ("0", "0.1*y"), ("-y", "0"), ("0", "z"), ("0.5*z", "0"), ("0", "-y")]),
        picard=st.booleans(),
    )
    def test_a_literal_zero_driver_has_the_bits_of_its_add(self, band, nx, dx, rows, data, drivers, picard):
        # the kernel neither evaluates nor adds a literal-zero driver; the reference, the kernel's
        # own form u + dt * (g + G(2 f + D2 u)) in fresh arrays, adds 0.0
        datum = tiny_datum(data, rows, nx)
        nt, dt = 6, 0.45 * dx * dx / band.sigma_max_sq
        gen, times = generator(*drivers), np.linspace(1.0, 0.0, 7)
        out = np.empty((nt + 1,) + datum.shape)
        _march(band, dx, dt, nt, datum, gen.g, gen.f, times, picard, out=out)
        reference = reference_driver_layers(band, dx, dt, nt, datum, gen, times, picard, kernel_increment)
        for k, layer in enumerate(reference):
            assert out[k].tobytes() == layer.tobytes(), f"layer {k}"

    @settings(max_examples=60, deadline=None)
    @given(
        band=bands,
        nx=st.integers(3, 15),
        dx=st.floats(0.5, 4.0),
        rows=st.integers(1, 3),
        data=st.data(),
        picard=st.booleans(),
    )
    def test_zero_drivers_march_the_heat_bytes(self, band, nx, dx, rows, data, picard):
        # the literal 0 takes the heat step itself, and 0*y, 0*z add signed zeros to G(D2 u),
        # which G never makes -0: the heat bytes on subnormal data too
        datum = tiny_datum(data, rows, nx)
        nt, dt = 6, 0.45 * dx * dx / band.sigma_max_sq
        times = np.linspace(1.0, 0.0, 7)
        heat = np.empty((nt + 1,) + datum.shape)
        _march(band, dx, dt, nt, datum, out=heat)
        for drivers in (("0", "0"), ("0*y", "0*z")):
            gen = generator(*drivers)
            out = np.empty_like(heat)
            _march(band, dx, dt, nt, datum, gen.g, gen.f, times, picard, out=out)
            assert out.tobytes() == heat.tobytes(), drivers
