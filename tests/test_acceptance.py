"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; plain ``pytest`` runs them silently as ordinary tests.
"""

import math
import time

import numpy as np
import pytest

from gexpect import (
    GeneratorPair,
    check_g_convexity,
    g_expectation,
    jensen_experiment,
    k_along_path,
    make_grid,
    nonlinear_expectation,
    parse_scalar,
    parse_tri,
    reduce_over_A,
    representation_limit_check,
    simulate_path,
    solve_g_heat,
    solve_gbsde,
    tree_expectation,
    tree_k_expectation,
    witness_to_phi,
    zero_generator,
)

from conftest import CATALOG_TEXTS, dense_scan_min, fd_derivatives


def _passed(line: str) -> None:
    print(f"\n[PASS] {line}")


def test_criterion_01_closed_form_moments(band, default_grid, catalog):
    start = time.perf_counter()
    cases = [("x^2", 2.0, 1e-2), ("-(x^2)", -1.0, 1e-2), ("x", 0.0, 1e-3), ("x^4", 12.0, 0.1)]
    results = {}
    for text, target, tol in cases:
        value = g_expectation(band, catalog[text], 1.0, default_grid)
        assert value == pytest.approx(target, abs=tol), text
        results[text] = value
    elapsed = time.perf_counter() - start
    assert elapsed <= 10.0
    _passed(
        "criterion 1: closed-form moments "
        + ", ".join(f"{k}={v:.4f}" for k, v in results.items())
        + f" ({elapsed:.1f}s)"
    )


def test_criterion_02_oracle_equivalence(band, default_grid, catalog):
    start = time.perf_counter()
    worst = 0.0
    for text in CATALOG_TEXTS:
        field = solve_g_heat(band, catalog[text], default_grid)
        for t in (0.25, 1.0):
            pde = field.value_at(t, 0.0)
            tree = tree_expectation(band, catalog[text], t, 2000)
            diff = abs(pde - tree)
            assert diff <= 5e-3, (text, t, pde, tree)
            worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0
    _passed(f"criterion 2: PDE vs tree worst diff {worst:.2e} <= 5e-3 ({elapsed:.1f}s)")


def test_criterion_03_sublinear_axioms(band, default_grid, catalog):
    tol = 5e-3
    xs = default_grid.xs
    values = {t: g_expectation(band, fn, 1.0, default_grid) for t, fn in catalog.items()}

    for c in (-1.0, 0.0, 3.0):
        assert g_expectation(band, parse_scalar(repr(c)), 1.0, default_grid) == pytest.approx(
            c, abs=tol
        )

    ordered = 0
    for a, fa in catalog.items():
        for b, fb in catalog.items():
            if a != b and np.all(fb(xs) >= fa(xs)):
                ordered += 1
                assert values[b] >= values[a] - tol, (a, b)
    assert ordered > 0

    names = list(CATALOG_TEXTS)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            combined = g_expectation(band, catalog[a] + catalog[b], 1.0, default_grid)
            assert combined <= values[a] + values[b] + tol, (a, b)

    for a in names:
        for lam in (0.0, 0.5, 2.0):
            scaled = g_expectation(band, catalog[a].scale(lam), 1.0, default_grid)
            assert scaled == pytest.approx(lam * values[a], abs=tol), (a, lam)

    _passed(
        f"criterion 3: sublinear axioms on {len(names)} functions "
        f"({ordered} ordered pairs, 28 sums, 24 scalings) within {tol}"
    )


def test_criterion_04_bsde_closed_forms(band):
    grid = make_grid(band, 1.0, nx=201)

    gen_decay = GeneratorPair(parse_tri("-y"), parse_tri("0"), 1.0)
    y_decay = nonlinear_expectation(band, gen_decay, parse_scalar("1"), 0.0, 1.0, grid)
    assert y_decay == pytest.approx(math.exp(-1.0), abs=1e-3)

    gen_source = GeneratorPair(parse_tri("0"), parse_tri("1"), 0.0)
    y_source = nonlinear_expectation(band, gen_source, parse_scalar("0"), 0.0, 1.0, grid)
    assert y_source == pytest.approx(2.0, abs=1e-6)

    phi = parse_scalar("tanh(x)")
    heat = solve_g_heat(band, phi, grid)
    reduced = solve_gbsde(band, zero_generator(), phi, grid)
    assert np.array_equal(heat.u, reduced.field.u)

    _passed(
        f"criterion 4: closed forms Y={y_decay:.6f} (e^-1), Y={y_source:.8f} (2.0), "
        "zero-generator reduction bit-exact"
    )


def test_criterion_05_comparison_theorem(band):
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
    worst = np.inf
    for gen in gens:
        for low_text, high_text in pairs:
            low, high = parse_scalar(low_text), parse_scalar(high_text)
            assert np.all(high(grid.xs) >= low(grid.xs) - 1e-15), (low_text, high_text)
            sol_low = solve_gbsde(band, gen, low, grid)
            sol_high = solve_gbsde(band, gen, high, grid)
            gap = float(np.min(sol_high.field.u - sol_low.field.u))
            assert gap >= -1e-10, (low_text, high_text)
            worst = min(worst, gap)
    _passed(f"criterion 5: comparison over 5 generators x 6 pairs, min node gap {worst:.2e} >= -1e-10")


def test_criterion_06_k_monotonicity(band):
    grid = make_grid(band, 1.0, nx=61)
    fields = [
        solve_gbsde(band, zero_generator(), parse_scalar("x^2"), grid),
        solve_gbsde(band, GeneratorPair(parse_tri("-y"), parse_tri("0"), 1.0), parse_scalar("tanh(x)"), grid),
        solve_gbsde(
            band,
            GeneratorPair(parse_tri("0.5*z"), parse_tri("0.1*y"), 0.5),
            parse_scalar("sin(x)"),
            grid,
        ),
    ]
    n_seeds = 10_000
    worst_step = -np.inf
    for sol in fields:
        for policy in ("const-low", "const-high", "random"):
            for seed in range(n_seeds):
                path = simulate_path(band, policy, grid, seed)
                series = k_along_path(sol, path)
                step = float(np.max(np.diff(series)))
                worst_step = max(worst_step, step)
                assert step <= 1e-12
    tree_values = [tree_k_expectation(band, sol) for sol in fields]
    for value in tree_values:
        assert -5e-3 <= value <= 0.0
    _passed(
        f"criterion 6: {3 * 3 * n_seeds} K-series nonincreasing (worst step {worst_step:.1e}); "
        f"tree K means {['%.1e' % v for v in tree_values]} in [-5e-3, 0]"
    )


def test_criterion_07_representation_limit(band):
    eps_list = [0.1, 0.05, 0.025, 0.0125]
    pairs = [
        ("0", "0", 0.0, "x^2 + 0.1*x^4"),
        ("-y", "0", 1.0, "x^2 + 1"),
        ("0", "0.3*y", 0.3, "x^2 + 1"),
        ("-y", "0.2*y", 1.0, "x^2 + 1"),
    ]
    summaries = []
    for g_text, f_text, L, phi_text in pairs:
        gen = GeneratorPair(parse_tri(g_text), parse_tri(f_text), L)
        terminal = parse_scalar(phi_text)
        result = representation_limit_check(band, gen, terminal, 0.0, eps_list, nx=201)
        errors = [row[2] for row in result["rows"]]
        assert all(b < a for a, b in zip(errors, errors[1:])), (g_text, f_text, phi_text, errors)
        assert result["order"] >= 0.8, (g_text, f_text, phi_text, result["order"])
        assert errors[-1] <= 0.05 * (1.0 + abs(result["formula"]))
        summaries.append(f"order {result['order']:.2f}")
    _passed("criterion 7: representation limit on 4 pairs, " + ", ".join(summaries))


def test_criterion_08_quantifier_elimination(band):
    h_fns = {t: parse_scalar(t) for t in ("x", "x^2", "-(x^2)", "exp(x)", "tanh(x)", "x^3", "sin(x)")}
    gen_cases = (
        ("0", "0", 0.0),
        ("-y", "0", 1.0),
        ("0.5*z", "0.1*y", 0.5),
        ("0.3*y + 0.2*z", "0.25*z", 0.5),
        ("-abs_smooth(z)", "0", 1.0),
    )
    gens = [GeneratorPair(parse_tri(g), parse_tri(f), L) for g, f, L in gen_cases]
    rng = np.random.default_rng(42)
    names = list(h_fns)
    checked = 0
    worst = 0.0
    while checked < 200:
        h = h_fns[names[rng.integers(len(names))]]
        gen = gens[rng.integers(len(gens))]
        y, z = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
        inf_gap, arg = reduce_over_A(band, gen, h, 0.0, y, z)
        assert np.isfinite(inf_gap)  # slope signs rule out escapes to -inf
        if abs(arg) > 500.0:
            continue  # instance's kinks fall outside the oracle's window
        scan, _ = dense_scan_min(band, gen, h, 0.0, y, z)
        diff = abs(inf_gap - scan)
        assert diff <= 1e-9, (y, z, inf_gap, scan)
        worst = max(worst, diff)
        checked += 1
    _passed(f"criterion 8: A-reduction vs dense scan on 200 instances, worst diff {worst:.1e} <= 1e-9")


def test_criterion_09_characterization_end_to_end(band):
    # (a) sufficiency: verdict "holds" forces nonnegative experiment gaps
    gen_cases = (
        ("zero", ("0", "0", 0.0)),
        ("damped", ("-y", "0", 1.0)),
        ("slope", ("0.5*z", "0.1*y", 0.5)),
    )
    h_texts = ("x", "exp(x)", "x^2", "-(x^2)")
    phi_texts = ("tanh(x)", "sin(x)", "0.5*(1 + tanh(x))", "x * bump(x)")
    grid = make_grid(band, 1.0, nx=201)
    holding = 0
    worst_gap = np.inf
    for name, (g_text, f_text, L) in gen_cases:
        gen = GeneratorPair(parse_tri(g_text), parse_tri(f_text), L)
        for h_text in h_texts:
            h = parse_scalar(h_text)
            report = check_g_convexity(band, gen, h, (-2, 2), (-2, 2), resolution=33)
            if report.verdict != "holds":
                continue
            holding += 1
            for phi_text in phi_texts:
                phi = parse_scalar(phi_text)
                for tau in (0.1, 0.5, 1.0):
                    _, _, gap = jensen_experiment(band, gen, h, phi, 0.0, tau, grid)
                    assert gap >= -1e-3, (name, h_text, phi_text, tau, gap)
                    worst_gap = min(worst_gap, gap)
    assert holding >= 3

    # (b) necessity: the localised witness jet realises the predicted violation
    eps = 0.01
    grid_eps = make_grid(band, eps, nx=201)
    phi = witness_to_phi(0.0, 1.0, 0.0)
    _, _, gap = jensen_experiment(
        band, zero_generator(), parse_scalar("-(x^2)"), phi, 0.0, eps, grid_eps
    )
    bound = -0.5 * band.sigma_min_sq * eps
    predicted = -band.sigma_min_sq * eps
    assert gap <= bound, gap
    assert gap >= 2.0 * predicted, gap
    _passed(
        f"criterion 9: sufficiency over {holding} holding pairs (worst gap {worst_gap:+.1e} >= -1e-3); "
        f"necessity gap {gap:+.4e} in [{2 * predicted:+.0e}, {bound:+.0e}]"
    )


def test_criterion_10_ad_correctness(catalog):
    windows = {
        "x": (-3, 3),
        "x^2": (-3, 3),
        "-(x^2)": (-3, 3),
        "x^3": (-3, 3),
        "x^4": (-3, 3),
        "tanh(x)": (-3, 3),
        "exp(tanh(x))": (-3, 3),
        "sin(x)": (-3, 3),
    }
    worst1 = worst2 = 0.0
    for text, fn in catalog.items():
        lo, hi = windows[text]
        rng = np.random.default_rng(abs(hash(text)) % 2**32)
        for x in rng.uniform(lo, hi, 100):
            _, d1, d2 = fn.eval2(float(x))
            fd1, fd2 = fd_derivatives(fn, float(x))
            rel1 = abs(d1 - fd1) / (1.0 + abs(d1))
            rel2 = abs(d2 - fd2) / (1.0 + abs(d2))
            assert rel1 <= 1e-6, (text, x)
            assert rel2 <= 1e-4, (text, x)
            worst1, worst2 = max(worst1, rel1), max(worst2, rel2)
    _passed(
        f"criterion 10: jets vs finite differences on 8 x 100 points, "
        f"worst rel errors {worst1:.1e} (d1), {worst2:.1e} (d2)"
    )
