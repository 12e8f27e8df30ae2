"""Seeded input generator for the benchmark's workloads.

``generate(workload, seed)`` returns plain data only (numbers, expression
texts, grid sizes, path seeds), so the same seed always gives the same
inputs and the program sees nothing but these bands, expressions and
grids.  The module uses the standard library alone: it is imported before
the set-up timer starts and must not pull in numpy.

Within a workload the seed moves values (bands, horizons, scalings,
boxes, cells, path seeds) but never the amount of work: grid sizes, item
counts and scan resolutions are fixed, and ``make_grid`` picks the same
number of time steps for every band and horizon at a given ``nx``.
"""

from __future__ import annotations

import random

# Why each workload is in the benchmark; BENCHMARK.json carries a
# one-line form of each.
WHY = {
    "heat-oracle": (
        "Forward expectations: the zero-driver march in gheat does almost all "
        "the work, many data share each grid (what batching would share), "
        "nx=801 fields set peak_rss_mb, and there is almost no jet or path work."
    ),
    "backward-paths": (
        "BSDEs with non-zero drivers: the same gheat kernel with 2-4 expr array "
        "evaluations and a blow-up check per layer, plus the pure-Python path "
        "loop in oracle; a kernel rewrite that helps heat-oracle but hurts the "
        "driver path shows here."
    ),
    "convexity-scan": (
        "Pointwise convexity scans: nearly all work is scalar jets (expr) and "
        "reduce_over_A with almost no march; a gheat change predicts no change "
        "here, while a vectorised scan or removing the CLI's double scan shows "
        "only here."
    ),
}

WORKLOADS = tuple(WHY)

# Reference payoffs of the test suite's catalogue.
CATALOG = ("x", "x^2", "-(x^2)", "x^3", "x^4", "tanh(x)", "exp(tanh(x))", "sin(x)")

# Bounded terminals used by the backward solves (criteria 5, 6 and 9).
BOUNDED = ("tanh(x)", "sin(x)", "0.5*(1 + tanh(x))", "x * bump(x)", "exp(tanh(x))")

# Generators (g, f, Lipschitz bound) of acceptance criteria 5-8.
GENERATORS = {
    "damped": ("-y", "0", 1.0),
    "slope": ("0.5*z", "0.1*y", 0.5),
    "mixed": ("0.3*y + 0.2*z", "0.25*z", 0.5),
    "kink": ("-abs_smooth(z)", "0", 1.0),
}

# Items per forward grid; every seed solves the same number of fields.
HEAT_ITEMS = {201: 8, 401: 8, 801: 3}

PATHS_PER_POLICY = 50
POLICIES = ("const-low", "const-high", "random", "markov")

# (h, generator) pairs scanned at resolution 33; "zero" is the zero generator.
SCAN_PAIRS = (
    ("x", "damped"),
    ("x^2", "zero"),
    ("x^2", "slope"),
    ("-(x^2)", "zero"),
    ("exp(x)", "zero"),
    ("exp(x)", "damped"),
    ("tanh(x)", "mixed"),
    ("x^3", "kink"),
    ("sin(x)", "slope"),
)


def _band(rng: random.Random, lo: tuple[float, float], hi: tuple[float, float]) -> list[float]:
    return [rng.uniform(*lo), rng.uniform(*hi)]


def _anchor_band(rng: random.Random, jitter: float) -> list[float]:
    # The canonical band (1, 2), moved down by at most ``jitter``.  Items on
    # this band carry the workload's largest reference error, so max_err
    # stays steady from seed to seed.
    return _band(rng, (1.0 - jitter, 1.0), (2.0 * (1.0 - jitter), 2.0))


def _heat_oracle(rng: random.Random) -> dict:
    anchor = {
        "band": _anchor_band(rng, 0.025),
        "horizon": 1.0,
        "nx": 201,
        "items": [{"text": text, "scale": 1.0, "shift": 0.0} for text in CATALOG],
    }
    grids = []
    for nx, count in HEAT_ITEMS.items():
        grids.append(
            {
                # sigma_max_sq stays below the anchor's so no item out-errs it.
                "band": _band(rng, (0.5, 1.0), (1.2, 1.9)),
                "horizon": rng.uniform(0.5, 1.0),
                "nx": nx,
                "items": [
                    {
                        "text": rng.choice(CATALOG),
                        "scale": rng.uniform(0.25, 1.0),
                        "shift": rng.uniform(-1.0, 1.0),
                    }
                    for _ in range(count)
                ],
            }
        )
    conditional = []
    for sign in (1.0, -1.0):
        t1 = rng.uniform(0.2, 0.5)
        conditional.append(
            {
                "times": [t1, t1 + rng.uniform(0.2, 0.5)],
                "sign": sign,
                "slope": rng.uniform(-1.0, 1.0),
                "points": [rng.uniform(-0.5, 0.5) for _ in range(4)],
            }
        )
    return {
        "anchor": anchor,
        "grids": grids,
        "conditional": conditional,
        "cli_functions": rng.sample(CATALOG, 4),
    }


def _backward_paths(rng: random.Random) -> dict:
    return {
        "band": _band(rng, (0.8, 1.0), (1.8, 2.0)),
        "horizon": rng.uniform(0.9, 1.0),
        "terminals": {name: rng.choice(BOUNDED) for name in GENERATORS},
        "jensen_phis": [rng.choice(BOUNDED[:4]) for _ in range(4)],
        "path_terminals": [rng.choice(BOUNDED) for _ in range(2)],
        "path_seed": rng.randrange(1 << 32),
        "cli_phi": rng.choice(BOUNDED[:4]),
    }


def _box(rng: random.Random) -> list[float]:
    return [-rng.uniform(1.5, 2.5), rng.uniform(1.5, 2.5)]


def _convexity_scan(rng: random.Random) -> dict:
    boxes = [{"y": _box(rng), "z": _box(rng)} for _ in SCAN_PAIRS]
    cells = []
    for _ in range(24):
        k = rng.randrange(len(SCAN_PAIRS))
        cells.append({"pair": k, "y": rng.uniform(*boxes[k]["y"]), "z": rng.uniform(*boxes[k]["z"])})
    return {
        # The witness check's error is about six times as sensitive to the
        # band as the band itself, hence the narrower jitter.
        "band": _anchor_band(rng, 0.005),
        "boxes": boxes,
        "cells": cells,
        "cli_box": {"y": _box(rng), "z": _box(rng)},
    }


_GENERATORS = {
    "heat-oracle": _heat_oracle,
    "backward-paths": _backward_paths,
    "convexity-scan": _convexity_scan,
}


def generate(workload: str, seed: int) -> dict:
    """Inputs of one workload for one seed, as plain JSON-compatible data."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _GENERATORS[workload](random.Random(f"{workload}/{seed}"))
