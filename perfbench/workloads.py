"""The three workloads: set-up from generated inputs, then one timed pass.

Each ``setup_*`` turns the plain data from ``inputs.generate`` into the
program's objects (bands, parsed expressions, ``GeneratorPair``s, grids)
and writes the CLI configs.  Each ``run_*`` is one pass over the
workload's items; a pass does the same work every time, so the worker
repeats it for as long as a run lasts.  Every result is checked against a
reference from ``references``; a failed check or an exception in an item
is counted and the pass goes on.

The program is reached only through module attributes (``gx.solve_g_heat``,
``gx.cli.run``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import math
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import gexpect as gx
import gexpect.cli
from inputs import GENERATORS, PATHS_PER_POLICY, POLICIES, SCAN_PAIRS
from references import (
    A_SCAN_TOL,
    JENSEN_GAP_FLOOR,
    K_STEP_TOL,
    KNOWN_VERDICTS,
    TREE_K_RANGE,
    TREE_STEPS,
    conditional_closed_form,
    damped_constant,
    dense_scan_min,
    heat_closed_form,
    worst_k_step,
)


class Context:
    """Check tallies, reference errors and CLI call times of one worker."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.max_err = 0.0
        self.failures: list[str] = []
        self.cli_windows: list[tuple[float, float]] = []  # (start, end) of each cli.run
        self._item = ""

    def check(self, name: str, ok: bool, err: float | None = None) -> None:
        """Count one check; ``err`` is |result - reference| where there is one."""
        self.attempted += 1
        if err is not None:
            self.max_err = max(self.max_err, float(err))
        if not ok:
            self._fail(f"{self._item}: {name} (err={err})")

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    @contextmanager
    def item(self, name: str):
        """Label the calls of one item; an exception fails the item and the pass goes on."""
        self._item = name
        if self.tracer is not None:
            self.tracer.item = name
        try:
            yield
        except Exception:
            self.attempted += 1
            self._fail(f"{name}: {traceback.format_exc(limit=3)}")

    def run_cli(self, command: str, config: Path, out: Path) -> int:
        start = time.perf_counter()
        code = gx.cli.run(command, config, out)
        self.cli_windows.append((start, time.perf_counter()))
        if self.tracer is not None:
            written = sum(
                path.stat().st_size
                for path in (out / f"{command}.report.json", out / f"{command}.data.csv")
                if path.exists()
            )
            self.tracer.add("cli.bytes_written", written)
        return code


def _write_config(path: Path, document: dict) -> Path:
    path.write_text(json.dumps(document))
    return path


def _tol(reference: float, rel: float) -> float:
    return rel * (1.0 + abs(reference))


def _cli_report(out: Path, command: str) -> tuple[dict, list[str]]:
    report = json.loads((out / f"{command}.report.json").read_text())
    rows = (out / f"{command}.data.csv").read_text().splitlines()[1:]
    return report, rows


# ---------------------------------------------------------------------------
# heat-oracle
# ---------------------------------------------------------------------------

def setup_heat_oracle(spec: dict, out: Path) -> dict:
    groups = []
    for kind, group in [("anchor", spec["anchor"])] + [("grid", g) for g in spec["grids"]]:
        band = gx.VolatilityBand(*group["band"])
        items = []
        for item in group["items"]:
            phi = gx.parse_scalar(item["text"])
            if (item["scale"], item["shift"]) != (1.0, 0.0):
                phi = phi.scale(item["scale"]).shift(item["shift"])
            items.append((item, phi))
        groups.append(
            {
                "kind": kind,
                "band": band,
                "horizon": group["horizon"],
                "grid": gx.make_grid(band, group["horizon"], nx=group["nx"]),
                "items": items,
            }
        )
    base = groups[1]  # the seeded nx=201 group carries the conditional and CLI work
    config = _write_config(
        out / "oracle-check.json",
        {
            "schema_version": 1,
            "band": {"sigma_min_sq": base["band"].sigma_min_sq, "sigma_max_sq": base["band"].sigma_max_sq},
            "grid": {"horizon": base["horizon"], "nx": base["grid"].nx},
            "params": {
                "functions": spec["cli_functions"],
                "times": [0.5 * base["horizon"], base["horizon"]],
                "steps": TREE_STEPS,
            },
        },
    )
    return {
        "groups": groups,
        "base": base,
        "conditional": spec["conditional"],
        "cli_functions": spec["cli_functions"],
        "config": config,
        "out": out,
    }


def run_heat_oracle(state: dict, ctx: Context, tag: str) -> None:
    for group in state["groups"]:
        band, horizon, grid = group["band"], group["horizon"], group["grid"]
        for k, (item, phi) in enumerate(group["items"]):
            with ctx.item(f"{tag}:heat:{group['kind']}:nx{grid.nx}:{k}"):
                if group["kind"] == "anchor":
                    values = {horizon: gx.g_expectation(band, phi, horizon, grid)}
                else:
                    field = gx.solve_g_heat(band, phi, grid)
                    values = {t: field.value_at(t) for t in (horizon, 0.5 * horizon)}
                for t, value in values.items():
                    exact = heat_closed_form(item["text"], item["scale"], item["shift"], band, t)
                    if exact is not None:
                        err = abs(value - exact)
                        ctx.check("closed form", err <= _tol(exact, 1e-2), err)
                tree = gx.tree_expectation(band, phi, horizon, TREE_STEPS)
                err = abs(values[horizon] - tree)
                ctx.check("tree", err <= _tol(tree, 5e-3), err)

    base = state["base"]
    for k, cond in enumerate(state["conditional"]):
        with ctx.item(f"{tag}:heat:conditional:{k}"):
            sign, slope = cond["sign"], cond["slope"]
            payoff = gx.CylinderPayoff(
                times=tuple(cond["times"]),
                fn=lambda x1, x2, s=sign, a=slope: s * (x1 + x2) ** 2 + a * x1,
            )
            table = gx.conditional_g_expectation(base["band"], payoff, 1, base["grid"])
            duration = cond["times"][1] - cond["times"][0]
            for x1 in cond["points"]:
                exact = conditional_closed_form(sign, slope, base["band"], duration, x1)
                err = abs(table(x1) - exact)
                ctx.check("conditional closed form", err <= _tol(exact, 1e-2), err)

    with ctx.item(f"{tag}:heat:cli"):
        out = state["out"] / "cli"
        code = ctx.run_cli("oracle-check", state["config"], out)
        ctx.check("oracle-check exit status", code == 0)
        report, rows = _cli_report(out, "oracle-check")
        ctx.check("oracle-check passed", report["results"]["passed"] is True)
        ctx.check("oracle-check rows", len(rows) == 2 * len(state["cli_functions"]))


# ---------------------------------------------------------------------------
# backward-paths
# ---------------------------------------------------------------------------

# (h, generator) pairs whose convexity verdict is "holds" (criterion 9).
JENSEN_PAIRS = (("x", "slope"), ("x^2", "zero"), ("x^2", "damped"), ("exp(x)", "zero"))
JENSEN_QUARTERS = (1, 2, 4)  # horizons, in quarters of the grid's horizon
CLI_QUARTERS = (1, 2, 3, 4)
REPLIMIT_CASE = ("-y", "0.2*y", 1.0, "x^2 + 1")
REPLIMIT_EPS = (0.1, 0.05, 0.025, 0.0125)
PATH_GENERATORS = ("damped", "slope")


def _generators() -> dict:
    gens = {
        name: gx.GeneratorPair(gx.parse_tri(g), gx.parse_tri(f), lipschitz)
        for name, (g, f, lipschitz) in GENERATORS.items()
    }
    gens["zero"] = gx.zero_generator()
    return gens


def _sub_horizons(grid, quarters) -> list[float]:
    # Whole multiples of the grid's time step: sub-horizons that are not are
    # rounded to a step count that can break the CFL bound.
    return [grid.dt * (grid.nt * q // 4) for q in quarters]


def setup_backward_paths(spec: dict, out: Path) -> dict:
    band = gx.VolatilityBand(*spec["band"])
    horizon = spec["horizon"]
    grid = gx.make_grid(band, horizon, nx=201)
    gens = _generators()
    g, f, lipschitz, terminal = REPLIMIT_CASE
    config = _write_config(
        out / "jensen.json",
        {
            "schema_version": 1,
            "band": {"sigma_min_sq": band.sigma_min_sq, "sigma_max_sq": band.sigma_max_sq},
            "grid": {"horizon": horizon, "nx": 201},
            "generator": {"g": "-y", "f": "0", "lipschitz_L": 1.0},
            "functions": {"h": "x^2", "phi": spec["cli_phi"]},
            "params": {"horizons": _sub_horizons(grid, CLI_QUARTERS)},
        },
    )
    return {
        "band": band,
        "horizon": horizon,
        "grid": grid,
        "path_grid": gx.make_grid(band, horizon, nx=61),
        "gens": gens,
        "source": gx.GeneratorPair(gx.parse_tri("0"), gx.parse_tri("1"), 0.0),
        "one": gx.parse_scalar("1"),
        "nothing": gx.parse_scalar("0"),
        "terminals": {name: gx.parse_scalar(text) for name, text in spec["terminals"].items()},
        "jensen": [
            (gens[gen], gx.parse_scalar(h), gx.parse_scalar(phi))
            for (h, gen), phi in zip(JENSEN_PAIRS, spec["jensen_phis"])
        ],
        "replimit": (gx.GeneratorPair(gx.parse_tri(g), gx.parse_tri(f), lipschitz), gx.parse_scalar(terminal)),
        "paths": [
            (gens[gen], gx.parse_scalar(text)) for gen, text in zip(PATH_GENERATORS, spec["path_terminals"])
        ],
        "path_seed": spec["path_seed"],
        "config": config,
        "out": out,
    }


def run_backward_paths(state: dict, ctx: Context, tag: str) -> None:
    band, horizon, grid, gens = state["band"], state["horizon"], state["grid"], state["gens"]

    with ctx.item(f"{tag}:bsde:closed-forms"):
        value = gx.nonlinear_expectation(band, gens["damped"], state["one"], 0.0, horizon, grid)
        err = abs(value - damped_constant(horizon))
        ctx.check("E[1] under -y", err <= 1e-3, err)
        value = gx.nonlinear_expectation(band, state["source"], state["nothing"], 0.0, horizon, grid)
        err = abs(value - band.sigma_max_sq * horizon)
        ctx.check("constant source", err <= 1e-6, err)
        phi = state["terminals"]["damped"]
        heat = gx.solve_g_heat(band, phi, grid)
        reduced = gx.solve_gbsde(band, gens["zero"], phi, grid)
        err = float(np.max(np.abs(heat.u - reduced.field.u)))
        ctx.check("zero driver is the heat march bit for bit", np.array_equal(heat.u, reduced.field.u), err)

    for name in GENERATORS:
        with ctx.item(f"{tag}:bsde:{name}"):
            terminal = state["terminals"][name]
            plain = gx.solve_gbsde(band, gens[name], terminal, grid)
            picard = gx.solve_gbsde(band, gens[name], terminal, grid, picard=True)
            gap = abs(plain.y_at(0.0) - picard.y_at(0.0))
            ctx.check("picard agrees with the explicit step", gap <= 1e-2)

    for k, (gen, h, phi) in enumerate(state["jensen"]):
        with ctx.item(f"{tag}:jensen:{k}"):
            for tau in _sub_horizons(grid, JENSEN_QUARTERS):
                _, _, gap = gx.jensen_experiment(band, gen, h, phi, 0.0, tau, grid)
                ctx.check("Jensen gap on a holding pair", gap >= JENSEN_GAP_FLOOR)

    with ctx.item(f"{tag}:replimit"):
        gen, terminal = state["replimit"]
        result = gx.representation_limit_check(band, gen, terminal, 0.0, REPLIMIT_EPS, nx=201)
        ctx.check("representation limit", result["passed"] and result["order"] >= 0.8)

    path_grid = state["path_grid"]
    for k, (gen, terminal) in enumerate(state["paths"]):
        with ctx.item(f"{tag}:paths:{k}"):
            sol = gx.solve_gbsde(band, gen, terminal, path_grid)
            for p, policy in enumerate(POLICIES):
                for i in range(PATHS_PER_POLICY):
                    seed = state["path_seed"] + (k * len(POLICIES) + p) * PATHS_PER_POLICY + i
                    path = gx.simulate_path(band, policy, path_grid, seed, field=sol)
                    ctx.check("K nonincreasing", worst_k_step(gx.k_along_path(sol, path)) <= K_STEP_TOL)
            tree_k = gx.tree_k_expectation(band, sol)
            ctx.check("tree K in range", TREE_K_RANGE[0] <= tree_k <= TREE_K_RANGE[1])

    with ctx.item(f"{tag}:jensen:cli"):
        out = state["out"] / "cli"
        code = ctx.run_cli("jensen", state["config"], out)
        ctx.check("jensen exit status", code == 0)
        report, rows = _cli_report(out, "jensen")
        ctx.check("jensen CLI gaps", report["results"]["min_gap"] >= JENSEN_GAP_FLOOR)
        ctx.check("jensen rows", len(rows) == len(CLI_QUARTERS))


# ---------------------------------------------------------------------------
# convexity-scan
# ---------------------------------------------------------------------------

BIG_SCAN = ("-(x^2)", "zero")  # resolution 129 on (-2, 2)^2; its first witness is localised
CLI_PAIR = ("tanh(x)", "mixed")
WITNESS_EPS = 0.01
DENSE_CELLS = 6


def setup_convexity_scan(spec: dict, out: Path) -> dict:
    band = gx.VolatilityBand(*spec["band"])
    gens = _generators()
    texts = {h for h, _ in SCAN_PAIRS} | {BIG_SCAN[0], CLI_PAIR[0]}
    g, f, lipschitz = GENERATORS[CLI_PAIR[1]]
    config = _write_config(
        out / "convexity.json",
        {
            "schema_version": 1,
            "band": {"sigma_min_sq": band.sigma_min_sq, "sigma_max_sq": band.sigma_max_sq},
            "generator": {"g": g, "f": f, "lipschitz_L": lipschitz},
            "functions": {"h": CLI_PAIR[0]},
            "params": {"y_range": spec["cli_box"]["y"], "z_range": spec["cli_box"]["z"], "resolution": 129},
        },
    )
    return {
        "band": band,
        "gens": gens,
        "hs": {text: gx.parse_scalar(text) for text in texts},
        "boxes": spec["boxes"],
        "cells": spec["cells"],
        "witness_grid": gx.make_grid(band, WITNESS_EPS, nx=201),
        "config": config,
        "out": out,
    }


def run_convexity_scan(state: dict, ctx: Context, tag: str) -> None:
    band, gens, hs = state["band"], state["gens"], state["hs"]
    for (h, gen), box in zip(SCAN_PAIRS, state["boxes"]):
        with ctx.item(f"{tag}:scan33:{h}|{gen}"):
            report = gx.check_g_convexity(band, gens[gen], hs[h], box["y"], box["z"], resolution=33)
            ctx.check("verdict", report.verdict == KNOWN_VERDICTS[(h, gen)])

    with ctx.item(f"{tag}:scan129"):
        h, zero = hs[BIG_SCAN[0]], gens[BIG_SCAN[1]]
        report = gx.check_g_convexity(band, zero, h, (-2.0, 2.0), (-2.0, 2.0), resolution=129)
        ctx.check("verdict", report.verdict == KNOWN_VERDICTS[BIG_SCAN])
        y0, z0, a0, cell_gap = report.witnesses[0]
        phi = gx.witness_to_phi(y0, z0, a0)
        lhs, rhs, gap = gx.jensen_experiment(band, zero, h, phi, 0.0, WITNESS_EPS, state["witness_grid"])
        predicted = WITNESS_EPS * cell_gap
        ctx.check("witness violation at the predicted size", 2.0 * predicted <= gap <= 0.5 * predicted)
        tree_lhs = gx.tree_expectation(band, h.compose(phi), WITNESS_EPS, TREE_STEPS)
        tree_rhs = float(h(gx.tree_expectation(band, phi, WITNESS_EPS, TREE_STEPS)))
        for value, tree in ((lhs, tree_lhs), (rhs, tree_rhs)):
            err = abs(value - tree)
            ctx.check("Jensen sides against the tree", err <= _tol(tree, 1e-3), err)

    with ctx.item(f"{tag}:dense-cells"):
        checked = 0
        for cell in state["cells"]:
            if checked == DENSE_CELLS:
                break
            h, gen = SCAN_PAIRS[cell["pair"]]
            inf_gap, arg = gx.reduce_over_A(band, gens[gen], hs[h], 0.0, cell["y"], cell["z"])
            if not math.isfinite(inf_gap) or abs(arg) > 500.0:
                continue  # the kink lies outside the sampling oracle's window
            scan, _ = dense_scan_min(band, gens[gen], hs[h], 0.0, cell["y"], cell["z"])
            err = abs(inf_gap - scan)
            ctx.check("A-infimum against the dense scan", err <= A_SCAN_TOL, err)
            checked += 1
        ctx.check("enough cells inside the oracle window", checked == DENSE_CELLS)

    with ctx.item(f"{tag}:convexity:cli"):
        out = state["out"] / "cli"
        code = ctx.run_cli("convexity", state["config"], out)
        ctx.check("convexity exit status", code == 0)
        report, rows = _cli_report(out, "convexity")
        ctx.check("CLI verdict", report["results"]["verdict"] == KNOWN_VERDICTS[CLI_PAIR])
        ctx.check("CLI rows", len(rows) == 129 * 129)


SETUP = {
    "heat-oracle": setup_heat_oracle,
    "backward-paths": setup_backward_paths,
    "convexity-scan": setup_convexity_scan,
}
RUN = {
    "heat-oracle": run_heat_oracle,
    "backward-paths": run_backward_paths,
    "convexity-scan": run_convexity_scan,
}
