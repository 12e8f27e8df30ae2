"""The outputs that ``tools/bit_diff.py`` compares between two commits.

``outputs()`` yields ``(name, value)`` pairs, each value a number, an
array, a string, or a sequence or dict of those; ``bit_diff``
runs it once per commit, in a fresh process with that commit's ``src``
first on ``sys.path`` and the commit's checkout as the working directory.
It reaches the library through its public names only, so it runs on any
commit that has them.  The families:

- ``expr/``: each scalar text's printed form, values and order-2 jet
  (``eval2``'s three parts) on one mesh, and each driver text's printed
  form, the variables it reads and its values on fixed (t, y, z) arrays;
- ``heat/``: single and batched heat solves on two bands and two grids,
  their whole fields ``u``, the layers a solve stores and one layer read
  by a segment re-march, and ``g_expectation`` values;
- ``gbsde/``: backward solves of six driver pairs, with and without
  Picard, single and batched: ``u``, the stored layers, ``eta``,
  ``eta_layer`` and ``y_at``;
- ``identity/``: whether the heat solve and the backward solves with the
  zero generator and with ``0*y``/``0*z`` have the same bytes;
- ``failure/``: the class, message, layer and row of failing marches
  (a failing representation-limit check among them), and the refusals of grids whose CFL step count is not finite or whose
  time labels no float64 array can hold, and of a sub-interval span that
  is not finite, from the library and, with the exit code and stderr,
  from ``gexpect gexp``;
- ``conditional/``: conditional tables, cell reads and ``values``;
- ``tree/``: tree, batch and K-tree roots;
- ``paths/``: seeded paths of every policy (``times``, ``b``, ``a`` and
  ``qv``) and their K series, on a grid of 25 steps and on one of 1023
  steps whose draws cross the generator's table blocks;
- ``convexity/``: scan witnesses (as (k, 4) rows), cells and verdicts,
  Jensen and replimit results (one replimit from t0 = 0.3 with drivers
  that read t), and condition gaps over A arrays of many
  blocks (a 100 000-point line, a 2-d A and its transpose, and an A whose
  G overflows to +-inf);
- ``draws/``: ``max_difference_quotient`` of every driver the manifest
  builds, and the refusal of a pair declared below its sampled quotient:
  what the Lipschitz spot check's fixed draw decides;
- ``cli/``: every ``report.json`` and ``data.csv`` of the six commands on
  README-style configs (``oracle-check`` also on function texts that
  csv must quote, ``gexp`` also on a grid given by ``x_min``/``x_max``
  and ``theta``, ``jensen`` also from s > 0, ``convexity`` also on a
  scan whose every gap overflows to -inf) and on the benchmark
  workloads' CLI configs, each file as its numbers (``numbers``), its
  number tokens exactly as written, compared as text (``digits``: ``1``
  and ``1.0`` differ there though their values tie), and its text with
  the numbers taken out (``text``).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import gexpect as gx
from gexpect.cli import run as run_cli

BANDS = {"b12": gx.VolatilityBand(1.0, 2.0), "b0317": gx.VolatilityBand(0.3, 1.7)}
TEXTS = ("x^2", "tanh(x)", "sin(3*x) + 0.1*x^2", "-bump(x)", "x^4")
DRIVERS = (
    ("-y", "0.2*y"),
    ("0.5*z", "0.1*y"),
    ("-abs_smooth(z)", "0"),
    ("sin(y) - t", "0.3*t*y"),
    ("0.2*y + 0.3*z", "0.1*z"),
    ("0*y", "0*z"),
)
POLICIES = ("const-low", "const-high", "random", "markov")
WORKLOAD_SEEDS = (3, 7)
# a number as the CLI writes one: "%.17g", or JSON's repr of a float
_NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?inf|nan")


def _grids(band):
    return {"nx41": gx.make_grid(band, 1.0, nx=41), "nx101": gx.make_grid(band, 0.5, nx=101)}


def _parts(name, value):
    """``value`` as (name, leaf) pairs: numbers and arrays as arrays, text as text."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _parts(f"{name}/{key}", item)
    elif isinstance(value, str):
        yield name, value
    elif isinstance(value, (list, tuple)) and any(isinstance(v, (str, dict)) for v in value):
        for i, item in enumerate(value):
            yield from _parts(f"{name}[{i}]", item)
    else:
        yield name, np.asarray(value)


def _failure(march) -> str:
    """The class, message, layer and row of what ``march()`` raises; else the text it returns, or "returned"."""
    try:
        result = march()
    except Exception as exc:  # the record is the output: any class is compared
        return f"{type(exc).__name__}: {exc} (layer {getattr(exc, 'layer', None)}, row {getattr(exc, 'row', None)})"
    return result if isinstance(result, str) else "returned"


def _cli_refusal(command, body, root: Path) -> str:
    """The exit code and stderr of one CLI run on ``body`` (a config without its band), as text."""
    config = root / "config.json"
    config.write_text(json.dumps({"schema_version": 1, "band": BAND, **body}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = run_cli(command, config, root / "out")
    return f"exit {status}: {err.getvalue()}"


def _field(name, field):
    """A field's stored layers, one layer read by a segment re-march, then ``u``."""
    nt = field.grid.nt
    stride = max(1, math.isqrt(nt))
    if nt > 2 * stride:  # a layer between two checkpoints: its segment is re-marched
        yield f"{name}/layer{stride + 1}", field.layer(stride + 1)
    for k in sorted(set(range(0, nt + 1, stride)) | {nt - 1, nt}):
        yield f"{name}/layer{k}", field.layer(k)
    yield f"{name}/u", field.u


def _expr():
    xs = np.linspace(-2.0, 2.0, 41)
    for text in TEXTS:
        fn = gx.parse_scalar(text)
        yield f"expr/scalar/{text}/text", fn.to_string()
        yield f"expr/scalar/{text}/value", fn(xs)
        for part, values in zip(("h", "dh", "d2h"), fn.eval2(xs)):
            yield f"expr/scalar/{text}/{part}", values
    t, y, z = np.linspace(0.0, 1.0, 41), np.linspace(-3.0, 3.0, 41), np.linspace(2.0, -2.0, 41)
    for text in dict.fromkeys(text for pair in DRIVERS for text in pair):
        fn = gx.parse_tri(text)
        yield f"expr/driver/{text}/text", fn.to_string()
        yield f"expr/driver/{text}/variables", ",".join(sorted(fn.variables))
        yield f"expr/driver/{text}/value", fn(t, y, z)


def _heat():
    for bname, band in BANDS.items():
        for gname, grid in _grids(band).items():
            phis = [gx.parse_scalar(text) for text in TEXTS]
            for text, field in zip(TEXTS, gx.solve_g_heat_batch(band, phis, grid)):
                yield from _field(f"heat/{bname}/{gname}/batch/{text}", field)
            yield from _field(f"heat/{bname}/{gname}/single/{TEXTS[1]}", gx.solve_g_heat(band, phis[1], grid))
            for text, phi in zip(TEXTS, phis):
                for t in (0.5 * grid.horizon, grid.horizon):
                    yield f"heat/{bname}/{gname}/g_expectation/{text}/t{t:g}", gx.g_expectation(band, phi, t, grid)


def _gbsde():
    for bname, band in BANDS.items():
        for gname, grid in _grids(band).items():
            terminals = [gx.parse_scalar(text) for text in TEXTS[:3]]
            for g, f in DRIVERS:
                gen = gx.GeneratorPair(gx.parse_tri(g), gx.parse_tri(f), 1.0)
                for picard in (False, True):
                    case = f"gbsde/{bname}/{gname}/{g}|{f}/picard{int(picard)}"
                    sols = gx.solve_gbsde_batch(band, gen, terminals, grid, picard=picard)
                    for text, sol in zip(TEXTS, sols):
                        yield from _field(f"{case}/batch/{text}", sol.field)
                        yield f"{case}/batch/{text}/eta", sol.eta
                        yield f"{case}/batch/{text}/y_at", sol.y_at(0.0, 0.0)
                    sol = gx.solve_gbsde(band, gen, terminals[0], grid, picard=picard)
                    nt = grid.nt
                    for k in (0, nt // 2, nt):
                        yield f"{case}/single/{TEXTS[0]}/eta_layer{k}", sol.eta_layer(k)
                    yield from _field(f"{case}/single/{TEXTS[0]}", sol.field)


def _identity():
    zero_valued = gx.GeneratorPair(gx.parse_tri("0*y"), gx.parse_tri("0*z"), 0.0)
    for bname, band in BANDS.items():
        for gname, grid in _grids(band).items():
            for text in TEXTS + ("3e-308*tanh(5*x)", "-2e-308*sin(3*x)"):
                phi = gx.parse_scalar(text)
                heat = gx.solve_g_heat(band, phi, grid).u.tobytes()
                for gen_name, gen in (("zero", gx.zero_generator()), ("zero-valued", zero_valued)):
                    for picard in (False, True):
                        u = gx.solve_gbsde(band, gen, phi, grid, picard=picard).field.u.tobytes()
                        verdict = "bit-identical" if u == heat else "differs"
                        yield f"identity/{bname}/{gname}/{text}/heat-vs-{gen_name}/picard{int(picard)}", verdict


def _failures():
    band = BANDS["b12"]
    grid = gx.make_grid(band, 1.0, nx=101)
    plain = lambda g, f: SimpleNamespace(g=gx.parse_tri(g), f=gx.parse_tri(f))  # no Lipschitz check
    mixed = [gx.parse_scalar("100*tanh(x)^2"), gx.parse_scalar("10*tanh(x)")]
    cases = {
        "nan-datum": lambda: gx.solve_g_heat(band, gx.parse_scalar("1/x"), grid),
        "heat-overflow": lambda: gx.solve_g_heat(band, gx.parse_scalar("1.7e308*tanh(x)"), grid),
        "heat-batch-overflow": lambda: gx.solve_g_heat_batch(
            band, [gx.parse_scalar("tanh(x)"), gx.parse_scalar("-1.7e308*sin(x)")], grid
        ),
        "driver-divides-by-zero": lambda: gx.solve_gbsde(band, plain("1/(y - 1)", "0"), gx.parse_scalar("x + 1"), grid),
        "driver-overflows": lambda: gx.solve_gbsde(band, plain("exp(y)", "0"), gx.parse_scalar("800*x"), grid),
        "picard-driver-overflows": lambda: gx.solve_gbsde(
            band, plain("y*y", "0"), gx.parse_scalar("1e200*x"), grid, picard=True
        ),
        "envelope-blow-up": lambda: gx.solve_gbsde(
            band, plain("3*y", "0"), gx.parse_scalar("tanh(x) - 2"), grid, envelope_factor=1.2
        ),
        "growing-driver": lambda: gx.solve_gbsde_batch(
            band, plain("8*y", "0"), [gx.parse_scalar("1e300*(2 + tanh(x))"), gx.parse_scalar("1e305*(2 + tanh(x))")],
            gx.make_grid(band, 1.0, nx=41), envelope_factor=1e300,  # the envelope is clamped to the largest float
        ),
        "mixed-scale-rows": lambda: gx.solve_gbsde_batch(band, plain("-y", "0"), mixed, grid),
        "source-1e308": lambda: gx.solve_gbsde(
            gx.VolatilityBand(0.25, 0.5), plain("0", "1e308"), gx.parse_scalar("0"),
            gx.make_grid(gx.VolatilityBand(0.25, 0.5), 1.0, nx=21),
        ),
    }
    # grids whose CFL step count is not finite (theta * dx^2 underflows to 0, or the count
    # overflows) and sub-intervals that are not finite
    b12 = gx.VolatilityBand(1, 2)
    cases["grid-dx-squared-underflows"] = lambda: gx.make_grid(b12, 1.0, nx=3, half_width=1e-300)
    cases["grid-step-count-overflows"] = lambda: gx.make_grid(b12, 1.0, nx=3, half_width=1e-160)
    cases["grid-over-nan"] = lambda: grid.over(math.nan)
    cases["grid-over-inf"] = lambda: grid.over(math.inf)
    # a replimit whose two largest eps blow up, the first in fewer layers
    cases["replimit-blow-up"] = lambda: gx.representation_limit_check(
        band, plain("y*y", "0"), gx.parse_scalar("3 + tanh(x)^2"), 0.0, [1.0, 0.5, 0.2, 0.1], nx=21
    )
    # a step count whose nt + 1 time labels no float64 array can hold (nothing is allocated)
    most = np.iinfo(np.intp).max // 8
    cases["grid-nt-beyond-any-array"] = lambda: gx.SpaceTimeGrid(1.0, -1.0, 1.0, 3, most)
    with tempfile.TemporaryDirectory(prefix="bit_manifest-") as scratch:
        cli_grids = {
            "theta": {**GRID, "theta": 1e-320},
            "half-width": {**GRID, "half_width": 1e-300},
            "ends": {"horizon": 1.0, "nx": 201, "x_min": -1e-300, "x_max": 1e-300},
            "huge-nt": {**GRID, "theta": 1e-300},  # nt about 2.8e302: its labels are refused unallocated
        }
        for key, grid_config in cli_grids.items():
            body = {**CONFIGS["gexp"], "grid": grid_config}
            cases[f"cli-gexp-grid-{key}"] = lambda body=body: _cli_refusal("gexp", body, Path(scratch))
        for name, march in cases.items():
            yield f"failure/{name}", _failure(march)
    sols = gx.solve_gbsde_batch(band, plain("-y", "0"), mixed, grid)
    for text, sol in zip(("100*tanh(x)^2", "10*tanh(x)"), sols):
        yield f"failure/mixed-scale-rows/{text}/u", sol.field.u


def _conditional():
    band = BANDS["b12"]
    cases = (
        ("two", gx.CylinderPayoff((0.5, 1.0), lambda a, b: np.maximum(a + b, 0.0) - 0.3 * a), 1, 41),
        ("three", gx.CylinderPayoff((0.3, 0.6, 1.0), lambda a, b, c: np.tanh(a - b) + 0.2 * c * c), 2, 21),
    )
    for name, payoff, i, nx in cases:
        table = gx.conditional_g_expectation(band, payoff, i, gx.make_grid(band, 1.0, nx=nx))
        for point in ((-0.3,) * i, (0.1,) * i, (0.45, -0.2)[:i]):
            yield f"conditional/{name}/read{point}", table(*point)
        yield f"conditional/{name}/values", table.values


def _trees():
    for bname, band in BANDS.items():
        phis = [gx.parse_scalar(text) for text in TEXTS]
        for text, phi in zip(TEXTS, phis):
            for steps in (1, 33, 500):
                yield f"tree/{bname}/{text}/steps{steps}", gx.tree_expectation(band, phi, 1.0, steps)
        yield f"tree/{bname}/batch", gx.tree_expectation_batch(band, phis, [0.25, 0.5, 1.0], 400)
        grid = gx.make_grid(band, 0.5, nx=41)
        for g, f in DRIVERS[:3]:
            sol = gx.solve_gbsde(band, gx.GeneratorPair(gx.parse_tri(g), gx.parse_tri(f), 1.0), phis[2], grid)
            yield f"tree/{bname}/k-root/{g}|{f}", gx.tree_k_expectation(band, sol)


def _paths():
    band = gx.VolatilityBand(0.7, 2.3)
    # nt 25, and nt 1023 on [-1, 1], whose draws cross table blocks of 256 and whose paths leave the grid
    for grid in (gx.make_grid(band, 0.5, nx=41), gx.make_grid(band, 0.5, nx=41, half_width=1.0)):
        for g, f in DRIVERS[:2]:
            sol = gx.solve_gbsde(band, gx.GeneratorPair(gx.parse_tri(g), gx.parse_tri(f), 1.0),
                                 gx.parse_scalar("sin(3*x) + 0.1*x^2"), grid)
            for policy in POLICIES:
                for seed in range(5):
                    path = gx.simulate_path(band, policy, grid, seed, field=sol)
                    name = f"paths/nt{grid.nt}/{g}|{f}/{policy}/seed{seed}"
                    for part in ("times", "b", "a", "qv"):
                        yield f"{name}/{part}", getattr(path, part)
                    yield f"{name}/k", gx.k_along_path(sol, path)


def _convexity():
    band = BANDS["b12"]
    gens = {
        "zero": gx.zero_generator(),
        "linear": gx.GeneratorPair(gx.parse_tri("-y"), gx.parse_tri("0.2*y"), 1.0),
        "mixed": gx.GeneratorPair(gx.parse_tri("0.5*z"), gx.parse_tri("0.1*y"), 1.0),
    }
    for gname, gen in gens.items():
        for h in ("exp(x)", "-(x^2)", "tanh(x)"):
            report = gx.check_g_convexity(band, gen, gx.parse_scalar(h), (-2.0, 2.0), (-2.0, 2.0), 33)
            # (y, z, A, gap) rows: an empty scan's are (0, 4) whether a tuple or an array holds them
            yield f"convexity/scan/{gname}/{h}/witnesses", np.reshape(report.witnesses, (-1, 4))
            for part in ("min_gap", "cells", "verdict"):
                yield f"convexity/scan/{gname}/{h}/{part}", getattr(report, part)
        grid = gx.make_grid(band, 1.0, nx=101)
        result = gx.jensen_experiment(band, gen, gx.parse_scalar("x^2"), gx.parse_scalar("tanh(x)"), 0.0, 1.0, grid)
        yield f"convexity/jensen/{gname}", result
    limit = gx.representation_limit_check(
        band, gens["linear"], gx.parse_scalar("x^2 + 1"), 0.0, [0.1, 0.05, 0.025], nx=101
    )
    yield from _parts("convexity/replimit", limit)
    # per-row clocks: each eps's solve runs from t0 = 0.3, with drivers that read t
    clocked = gx.GeneratorPair(gx.parse_tri("sin(y) - t"), gx.parse_tri("0.3*t*y"), 1.0)
    limit = gx.representation_limit_check(band, clocked, gx.parse_scalar("x^2 + 1"), 0.3, [0.2, 0.1, 0.05, 0.025], nx=101)
    yield from _parts("convexity/replimit-t0.3", limit)
    # condition_gap over A arrays of many blocks: the dense-cells oracle's line, a 2-d A and its
    # transpose, and A values whose G overflows on a wide band (at y = +-1e-10 a third of the gaps are -+inf)
    line, square = np.linspace(-1e3, 1e3, 100_000), np.linspace(-50.0, 50.0, 30_000).reshape(100, 300)
    for gname, gen in gens.items():
        for h, y, z in (("exp(x)", 0.3, -1.2), ("-(x^2)", 0.0, 1.0), ("tanh(x)", -0.7, 0.4)):
            gap = lambda A: gx.condition_gap(band, gen, gx.parse_scalar(h), 0.0, y, z, A)
            yield f"convexity/gap/{gname}/{h}/y{y}z{z}/line", gap(line)
            yield f"convexity/gap/{gname}/{h}/y{y}z{z}/square", gap(square)
            yield f"convexity/gap/{gname}/{h}/y{y}z{z}/square.T", gap(square.T)
    wide, huge = gx.VolatilityBand(3.0, 12.0), 1.7e308 * np.linspace(-1.0, 1.0, 20_001)
    for y in (1e-10, -1e-10):
        yield f"convexity/gap/overflow/y{y}", gx.condition_gap(wide, gens["zero"], gx.parse_scalar("x^2"), 0.0, y, 0.25, huge)


BAND = {"sigma_min_sq": 1.0, "sigma_max_sq": 2.0}
GRID = {"horizon": 1.0, "half_width": 8.5, "nx": 201}
GENERATOR = {"g": "-y", "f": "0", "lipschitz_L": 1.0, "h6": False}
CONFIGS = {
    "gexp": {"grid": GRID, "functions": {"phi": "x^2"}, "params": {"times": [0.0, 0.5, 1.0]}},
    "gbsde": {"grid": GRID, "generator": GENERATOR, "functions": {"terminal": "x^2 + 1"}, "params": {"times": [0.0, 0.5]}},
    "convexity": {
        "generator": GENERATOR, "functions": {"h": "exp(x)"},
        "params": {"y_range": [-2.0, 2.0], "z_range": [-2.0, 2.0], "resolution": 33},
    },
    "jensen": {
        "grid": GRID, "generator": GENERATOR, "functions": {"h": "exp(x)", "phi": "tanh(x)"},
        "params": {"horizons": [0.5, 1.0]},
    },
    "replimit": {"generator": GENERATOR, "functions": {"terminal": "x^2 + 1"}, "params": {"eps_list": [0.1, 0.05, 0.025]}},
    "oracle-check": {"grid": GRID, "params": {"functions": ["x^2", "tanh(x)"], "times": [0.5, 1.0], "steps": 800}},
}
# function texts that csv quotes ("\n") or writes bare ("\r" on Python 3.11), which the parser reads as spaces
QUOTED = ("oracle-check", {
    "grid": GRID, "params": {"functions": ["x^2\n+ 1", " tanh(x)\r"], "times": [0.5, 1.0], "steps": 800},
})
# a grid given by its ends and a CFL fraction, which make_grid does not build
ENDS = ("gexp", {
    "grid": {"horizon": 1.0, "x_min": -6.0, "x_max": 9.0, "nx": 151, "theta": 0.3},
    "functions": {"phi": "x^2"}, "params": {"times": [0.0, 0.5, 1.0]},
})
# g(t, h(y), .) overflows at every cell: each gap is -inf, null in the report and -inf in the csv
INFINITE = ("convexity", {
    "generator": {"g": "-1e300*y", "f": "0", "lipschitz_L": 1e300}, "functions": {"h": "x + 1e10"},
    "params": {"y_range": [0.5, 0.95], "z_range": [-1.0, 1.0], "resolution": 16},
})
# horizons from s > 0, each checked against the grid's horizon from s
LATE = ("jensen", {**CONFIGS["jensen"], "params": {"horizons": [0.25, 0.5], "s": 0.5}})
# Y grows by e^40 over the horizon and leaves its envelope: a numerical-failure report
FAILING = ("gbsde", {
    "grid": GRID, "generator": {"g": "40*y", "f": "0", "lipschitz_L": 40.0},
    "functions": {"terminal": "x^2"}, "params": {"times": [0.0]},
})


def _draws():
    texts = [text for pair in DRIVERS for text in pair] + [GENERATOR["g"], FAILING[1]["generator"]["g"]]
    for text in dict.fromkeys(texts):
        yield f"draws/quotient/{text}", gx.parse_tri(text).max_difference_quotient()
    steep = lambda: gx.GeneratorPair(gx.parse_tri("tanh(20*z)"), gx.parse_tri("0"), 0.5)  # slope 20, sampled below 1
    yield "draws/refusal/tanh(20*z) at 0.5", _failure(steep)


def _file_parts(name, text):
    """One written file as its numbers' values, its number tokens as written, and its text around them."""
    tokens = _NUMBER.findall(text)
    yield f"{name}/numbers", np.array([float(token) for token in tokens])
    yield f"{name}/digits", "\n".join(tokens)
    yield f"{name}/text", _NUMBER.sub("#", text)


def _cli_files(name, command, config, out):
    """The exit code and every file of one CLI run, each file as ``_file_parts``."""
    yield f"{name}/exit", run_cli(command, config, out)
    for path in sorted(out.glob(f"{command}.*")):
        yield from _file_parts(f"{name}/{path.name}", path.read_text())


def _cli():
    with tempfile.TemporaryDirectory(prefix="bit_manifest-") as scratch:
        root = Path(scratch)
        runs = [(f"cli/{command}", command, body) for command, body in CONFIGS.items()]
        runs += [("cli/oracle-check-quoted", *QUOTED), ("cli/gbsde-failing", *FAILING)]
        runs += [("cli/gexp-ends", *ENDS), ("cli/jensen-late", *LATE), ("cli/convexity-infinite", *INFINITE)]
        for name, command, body in runs:
            config = root / f"{name.replace('/', '_')}.json"
            config.write_text(json.dumps({"schema_version": 1, "band": BAND, **body}))
            yield from _cli_files(name, command, config, root / name.replace("/", "_"))
        sys.path.insert(0, str(Path.cwd() / "perfbench"))  # the benchmark's own configs
        import inputs
        import workloads

        commands = {"heat-oracle": "oracle-check", "backward-paths": "jensen", "convexity-scan": "convexity"}
        for workload, command in commands.items():
            for seed in WORKLOAD_SEEDS:
                out = root / f"{workload}-{seed}"
                out.mkdir()
                config = workloads.SETUP[workload](inputs.generate(workload, seed), out)["config"]
                yield from _cli_files(f"cli/{workload}/seed{seed}", command, config, out / "cli")


def outputs():
    """Every output, family by family, as (name, value) pairs."""
    for family in (_expr, _heat, _gbsde, _identity, _failures, _conditional, _trees, _paths, _convexity, _draws, _cli):
        for name, value in family():
            yield from _parts(name, value)
