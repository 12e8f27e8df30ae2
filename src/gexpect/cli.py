"""Configuration-driven experiment runner.

One JSON config per run, one command per invocation::

    gexpect <command> --config experiment.json [--out DIR]

Each run writes ``<out>/<command>.report.json`` (inputs echo, results,
tolerances, pass flag) and ``<out>/<command>.data.csv`` (one row per grid
point / eps / scan cell, floats with 17 significant digits).  Exit status
0 on success (verdicts are data, not failures), 1 on config errors, 2 on
numerical failures.  ``_COMMANDS`` declares what each command reads
besides ``band`` and ``params`` (optional params in brackets)::

    command       sections                    functions  params
    gexp          grid, functions             phi        times
    gbsde         grid, generator, functions  terminal   times
    convexity     generator, functions        h          y_range, z_range, [resolution, t]
    jensen        grid, generator, functions  h, phi     horizons, [s]
    replimit      generator, functions        terminal   eps_list, [t, nx]
    oracle-check  grid                        -          functions, times, [steps, tolerance]

A command accepts exactly these, plus the schema-v1 top-level keys
``seed``, ``threads`` and ``out_dir``.  ``generator.picard`` applies to
``gbsde`` only; ``grid`` takes ``nt`` or ``theta``, not both.  The config
is checked before any solve, and every rejected input, a param value that
a library routine refuses included, exits 1 naming its field, never with
a traceback.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .core import CflError, SpaceTimeGrid, VolatilityBand, cfl_time_steps
from .expr import EvalDomainError, ParseError, parse_scalar, parse_tri
from .gbsde import BlowUpError, GeneratorPair, solve_gbsde
from .gheat import NonFiniteError, solve_g_heat
from .convexity import (
    check_g_convexity,
    jensen_experiment,
    representation_limit_check,
)
from .oracle import tree_expectation

__all__ = ["ConfigError", "ExperimentConfig", "run", "main"]

SCHEMA_VERSION = 1

_NUMERICAL_ERRORS = (CflError, BlowUpError, NonFiniteError, EvalDomainError)


class ConfigError(ValueError):
    """Invalid configuration; ``field`` names the offending entry."""

    def __init__(self, field: str, message: str):
        super().__init__(f"config error at {field}: {message}")
        self.field = field


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _require(obj: dict, path: str, required: dict, optional: dict | None = None) -> None:
    optional = optional or {}
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected an object, got {type(obj).__name__}")
    for key, kind in required.items():
        if key not in obj:
            raise ConfigError(f"{path}.{key}", "missing required field")
        _check_type(obj[key], f"{path}.{key}", kind)
    for key in obj:
        if key not in required and key not in optional:
            raise ConfigError(f"{path}.{key}", "unknown field")
        if key in optional:
            _check_type(obj[key], f"{path}.{key}", optional[key])


def _is_number(value) -> bool:  # an int or a finite float; Python's json also reads NaN and Infinity
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, int) or math.isfinite(value)


def _check_type(value, path: str, kind) -> None:
    if kind == "number":
        if not _is_number(value):
            raise ConfigError(path, f"expected a finite number, got {value!r}")
    elif kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(path, f"expected an integer, got {value!r}")
    elif kind == "bool":
        if not isinstance(value, bool):
            raise ConfigError(path, f"expected a boolean, got {value!r}")
    elif kind == "string":
        if not isinstance(value, str):
            raise ConfigError(path, f"expected a string, got {value!r}")
    elif kind == "number-list":
        if not isinstance(value, list) or not value or not all(map(_is_number, value)):
            raise ConfigError(path, f"expected a non-empty list of finite numbers, got {value!r}")
    elif kind == "number-pair":
        if not isinstance(value, list) or len(value) != 2 or not all(map(_is_number, value)):
            raise ConfigError(path, f"expected a [lo, hi] pair of finite numbers, got {value!r}")
    elif kind == "string-list":
        if not isinstance(value, list) or not value or any(not isinstance(v, str) for v in value):
            raise ConfigError(path, f"expected a non-empty list of strings, got {value!r}")
    elif kind == "object":
        if not isinstance(value, dict):
            raise ConfigError(path, f"expected an object, got {type(value).__name__}")
    else:  # pragma: no cover
        raise AssertionError(kind)


class _Command(NamedTuple):
    """What one command reads from its config besides ``band`` and ``params``."""

    runner: Callable
    sections: tuple[str, ...]
    functions: tuple[str, ...]
    params: dict[str, str]  # required param -> kind
    optional: dict[str, str] = {}
    picard: bool = False  # whether generator.picard drives the run


class ExperimentConfig:
    """Validated view of a raw config document for one command."""

    def __init__(self, command: str, raw: dict):
        spec = _COMMANDS[command]
        self.command = command
        self.raw = raw
        required = {"schema_version": "int", "band": "object", "params": "object"}
        required.update(dict.fromkeys(spec.sections, "object"))
        _require(raw, "config", required, {"seed": "int", "threads": "int", "out_dir": "string"})
        if raw["schema_version"] != SCHEMA_VERSION:
            raise ConfigError(
                "config.schema_version",
                f"expected {SCHEMA_VERSION}, got {raw['schema_version']}",
            )
        # "seed" and "threads" are accepted for schema v1 and validated, but nothing reads them.
        if raw.get("threads", 1) < 1:
            raise ConfigError("config.threads", f"must be >= 1, got {raw['threads']}")
        self.band = self._band(raw["band"])
        # a section is in raw exactly when the command uses it
        self.grid = self._grid(raw["grid"]) if "grid" in raw else None
        self.generator = self._generator(raw["generator"], spec.picard) if "generator" in raw else None
        _require(raw.get("functions", {}), "config.functions", dict.fromkeys(spec.functions, "string"))
        self.functions = {
            name: self._parse(raw["functions"][name], f"config.functions.{name}", parse_scalar)
            for name in spec.functions
        }
        _require(raw["params"], "config.params", spec.params, spec.optional)
        self.params = raw["params"]

    def _band(self, obj: dict) -> VolatilityBand:
        _require(obj, "config.band", {"sigma_min_sq": "number", "sigma_max_sq": "number"})
        try:
            return VolatilityBand(obj["sigma_min_sq"], obj["sigma_max_sq"])
        except ValueError as exc:
            raise ConfigError("config.band", str(exc)) from exc

    def _grid(self, obj: dict) -> SpaceTimeGrid:
        _require(
            obj,
            "config.grid",
            {"horizon": "number", "nx": "int"},
            {"half_width": "number", "x_min": "number", "x_max": "number", "nt": "int", "theta": "number"},
        )
        if "half_width" in obj and ("x_min" in obj or "x_max" in obj):
            raise ConfigError("config.grid.half_width", "give either half_width or x_min/x_max")
        if "nt" in obj and "theta" in obj:
            raise ConfigError("config.grid.theta", "give either nt or theta")
        horizon = obj["horizon"]
        if "half_width" in obj:
            x_min, x_max = -obj["half_width"], obj["half_width"]
        elif "x_min" in obj or "x_max" in obj:
            if "x_min" not in obj or "x_max" not in obj:
                raise ConfigError("config.grid.x_min", "x_min and x_max go together")
            x_min, x_max = obj["x_min"], obj["x_max"]
        else:  # empty for a horizon <= 0, which the grid rejects by its horizon
            half = 6.0 * self.band.sigma_max * float(np.sqrt(max(horizon, 0.0)))
            x_min, x_max = -half, half
        try:
            # nt = 1 stands in until the grid has checked horizon and nx, which dx needs
            grid = SpaceTimeGrid(horizon=horizon, x_min=x_min, x_max=x_max, nx=obj["nx"], nt=obj.get("nt", 1))
            if "nt" not in obj:
                grid = replace(grid, nt=cfl_time_steps(self.band, horizon, grid.dx, obj.get("theta", 0.45)))
            grid.check_cfl(self.band)
        except ValueError as exc:
            raise ConfigError("config.grid", str(exc)) from exc
        nearest = float(grid.xs[grid.center_index])  # what every result "at x = 0" reads
        if abs(nearest) > 1e-9 * grid.dx:
            raise ConfigError("config.grid", f"x = 0 is not a grid node (nearest node {nearest!r})")
        return grid

    def _generator(self, obj: dict, picard: bool) -> GeneratorPair:
        _require(
            obj,
            "config.generator",
            {"g": "string", "f": "string", "lipschitz_L": "number"},
            {"h6": "bool", "picard": "bool"} if picard else {"h6": "bool"},
        )
        g = self._parse(obj["g"], "config.generator.g", parse_tri)
        f = self._parse(obj["f"], "config.generator.f", parse_tri)
        try:
            return GeneratorPair(g, f, obj["lipschitz_L"], h6=obj.get("h6", False))
        except ValueError as exc:
            raise ConfigError("config.generator", str(exc)) from exc

    @staticmethod
    def _parse(text: str, path: str, parser):
        try:
            return parser(text)
        except ParseError as exc:
            raise ConfigError(path, str(exc)) from exc


# ---------------------------------------------------------------------------
# Command bodies: return (report dict, csv header, csv rows)
# ---------------------------------------------------------------------------

def _times(cfg: ExperimentConfig) -> list:
    """The ``times`` parameter, each inside [0, horizon] of the grid."""
    times = cfg.params["times"]
    for t in times:
        if not 0.0 <= t <= cfg.grid.horizon:
            raise ConfigError("config.params.times", f"time {t} outside [0, {cfg.grid.horizon}]")
    return times


def _run_gexp(cfg: ExperimentConfig):
    times = _times(cfg)
    field = solve_g_heat(cfg.band, cfg.functions["phi"], cfg.grid)
    values = {}
    rows = []
    for t in times:
        values[_fmt(t)] = field.value_at(t, 0.0)
        k = field.nearest_layer(t)
        for x, u in zip(cfg.grid.xs, field.u[k]):
            rows.append((field.times[k], x, u))
    report = {"values_at_zero": values}
    return report, ("t", "x", "u"), rows


def _run_gbsde(cfg: ExperimentConfig):
    times = _times(cfg)
    picard = cfg.raw["generator"].get("picard", False)
    sol = solve_gbsde(cfg.band, cfg.generator, cfg.functions["terminal"], cfg.grid, picard=picard)
    rows = []
    for t in times:
        k = sol.field.nearest_layer(t)
        for x, y, z, eta in zip(cfg.grid.xs, sol.field.u[k], sol.field.z[k], sol.eta[k]):
            rows.append((sol.field.times[k], x, y, z, eta))
    report = {"y_at_start": sol.y_at(0.0, 0.0), "horizon": cfg.grid.horizon}
    return report, ("t", "x", "y", "z", "eta"), rows


def _run_convexity(cfg: ExperimentConfig):
    report_obj = check_g_convexity(
        cfg.band,
        cfg.generator,
        cfg.functions["h"],
        tuple(cfg.params["y_range"]),
        tuple(cfg.params["z_range"]),
        resolution=cfg.params.get("resolution", 33),
        t=cfg.params.get("t", 0.0),
    )
    rows = report_obj.cells.reshape(-1, 4).tolist()
    report = {
        "verdict": report_obj.verdict,
        "min_gap": report_obj.min_gap,
        "witness_count": len(report_obj.witnesses),
        "witnesses": [list(w) for w in report_obj.witnesses[:100]],
        "tolerance": 1e-9,
    }
    return report, ("y", "z", "argmin_A", "inf_gap"), rows


def _run_jensen(cfg: ExperimentConfig):
    horizons = cfg.params["horizons"]
    s = cfg.params.get("s", 0.0)
    for tau in horizons:
        if s + tau > cfg.grid.horizon + 1e-12:
            raise ConfigError("config.params.horizons", f"s + {tau} exceeds grid horizon")
    h, phi = cfg.functions["h"], cfg.functions["phi"]
    rows = []
    for tau in horizons:
        lhs, rhs, gap = jensen_experiment(cfg.band, cfg.generator, h, phi, s, s + tau, cfg.grid)
        rows.append((tau, lhs, rhs, gap))
    report = {
        "gaps": {_fmt(r[0]): r[3] for r in rows},
        "min_gap": min(r[3] for r in rows),
        # jets at 0 actually used by the experiment (phi and the composition)
        "phi_jet": list(phi.eval2(0.0)),
        "h_phi_jet": list(h.compose(phi).eval2(0.0)),
    }
    return report, ("horizon", "lhs", "rhs", "gap"), rows


def _run_replimit(cfg: ExperimentConfig):
    eps_list = cfg.params["eps_list"]
    t = cfg.params.get("t", 0.0)
    nx = cfg.params.get("nx", 201)
    result = representation_limit_check(
        cfg.band, cfg.generator, cfg.functions["terminal"], t, eps_list, nx=nx
    )
    rows = [(eps, quotient, result["formula"], err) for eps, quotient, err in result["rows"]]
    report = {
        "formula": result["formula"],
        "order": result["order"],
        "decreasing": result["decreasing"],
        "final_ok": result["final_ok"],
        "passed": result["passed"],
        "tolerance": {"final_rel_error": 0.05},
    }
    return report, ("eps", "quotient", "formula", "abs_error"), rows


def _run_oracle_check(cfg: ExperimentConfig):
    texts = cfg.params["functions"]
    times = _times(cfg)
    phis = [ExperimentConfig._parse(text, "config.params.functions", parse_scalar) for text in texts]
    steps = cfg.params.get("steps", 2000)
    tolerance = cfg.params.get("tolerance", 5e-3)
    rows = []
    worst = 0.0
    for text, phi in zip(texts, phis):
        field = solve_g_heat(cfg.band, phi, cfg.grid)
        for t in times:
            pde = field.value_at(t, 0.0)
            tree = tree_expectation(cfg.band, phi, t, steps)
            diff = abs(pde - tree)
            worst = max(worst, diff)
            rows.append((text, t, pde, tree, diff))
    report = {
        "max_abs_diff": worst,
        "tolerance": tolerance,
        "passed": worst <= tolerance,
        "steps": steps,
    }
    return report, ("function", "t", "pde", "tree", "abs_diff"), rows


_COMMANDS = {
    # runner, sections besides band and params, function names, params, optional params
    "gexp": _Command(_run_gexp, ("grid", "functions"), ("phi",), {"times": "number-list"}),
    "gbsde": _Command(
        _run_gbsde, ("grid", "generator", "functions"), ("terminal",), {"times": "number-list"}, picard=True
    ),
    "convexity": _Command(
        _run_convexity, ("generator", "functions"), ("h",),
        {"y_range": "number-pair", "z_range": "number-pair"}, {"resolution": "int", "t": "number"},
    ),
    "jensen": _Command(
        _run_jensen, ("grid", "generator", "functions"), ("h", "phi"),
        {"horizons": "number-list"}, {"s": "number"},
    ),
    "replimit": _Command(
        _run_replimit, ("generator", "functions"), ("terminal",),
        {"eps_list": "number-list"}, {"t": "number", "nx": "int"},
    ),
    "oracle-check": _Command(
        _run_oracle_check, ("grid",), (),
        {"functions": "string-list", "times": "number-list"}, {"steps": "int", "tolerance": "number"},
    ),
}
COMMANDS = tuple(_COMMANDS)


def run(command: str, config_path: str | Path, out_dir: str | Path | None = None) -> int:
    """Execute one command; returns the process exit status."""
    if command not in COMMANDS:
        print(f"unknown command {command!r}; choose from {', '.join(COMMANDS)}", file=sys.stderr)
        return 1
    try:
        raw = json.loads(Path(config_path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error at config: cannot read {config_path}: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = ExperimentConfig(command, raw)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    out = Path(out_dir) if out_dir is not None else Path(raw.get("out_dir", "out"))
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / f"{command}.report.json"
    data_path = out / f"{command}.data.csv"
    try:
        report, header, rows = _COMMANDS[command].runner(cfg)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except _NUMERICAL_ERRORS as exc:
        failure = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "config": raw,
            "status": "numerical-failure",
            "diagnostic": f"{type(exc).__name__}: {exc}",
        }
        report_path.write_text(json.dumps(failure, indent=2) + "\n")
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # a library routine refused a param value (resolution < 16, ...)
        print(str(ConfigError("config.params", str(exc))), file=sys.stderr)
        return 1
    document = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": raw,
        "status": "ok",
        "results": report,
    }
    report_path.write_text(json.dumps(document, indent=2) + "\n")
    with data_path.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else _fmt(v) for v in row])
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gexpect",
        description="Sublinear-expectation experiments under volatility uncertainty",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default=None, help="output directory (default: config out_dir or ./out)")
    args = parser.parse_args(argv)
    return run(args.command, args.config, args.out)


if __name__ == "__main__":
    sys.exit(main())
