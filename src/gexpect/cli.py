"""Configuration-driven experiment runner.

One JSON config per run, one command per invocation::

    gexpect <command> --config experiment.json [--out DIR]

Each run writes ``<out>/<command>.report.json`` (inputs echo, results,
tolerances, pass flag) and ``<out>/<command>.data.csv`` (one row per grid
point / eps / scan cell, floats with 17 significant digits).  Exit status
0 on success (verdicts are data, not failures), 1 on config errors, 2 on
numerical failures, whose report gives the error's class, and the time
layer and batch row where the march failed (null when it names none).
``_COMMANDS`` declares what each command reads besides ``band`` and
``params`` (optional params in brackets)::

    command       sections                    functions  params
    gexp          grid, functions             phi        times
    gbsde         grid, generator, functions  terminal   times
    convexity     generator, functions        h          y_range, z_range, [resolution, t]
    jensen        grid, generator, functions  h, phi     horizons, [s]
    replimit      generator, functions        terminal   eps_list, [t, nx]
    oracle-check  grid                        -          functions, times, [steps, tolerance]

A command accepts exactly these, plus the optional top-level key
``out_dir``; ``grid`` takes ``nt`` or ``theta``, not both.  The config
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

from .core import CflError, SpaceTimeGrid, VolatilityBand, cfl_time_steps, make_grid
from .expr import EvalDomainError, parse_scalar, parse_tri
from .gbsde import BlowUpError, GeneratorPair, solve_gbsde
from .gheat import NonFiniteError, solve_g_heat, solve_g_heat_batch
from .convexity import (
    REPLIMIT_TOL,
    WITNESS_TOL,
    check_g_convexity,
    jensen_experiment,
    representation_limit_check,
)
from .oracle import tree_expectation_batch

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
    _check_type(obj, path, "object")
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


def _list_of(value, test) -> bool:
    return isinstance(value, list) and bool(value) and all(map(test, value))


# kind -> (what the message says a value must be, the test it must pass)
_KINDS = {
    "number": ("a finite number", _is_number),
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "bool": ("a boolean", lambda v: isinstance(v, bool)),
    "string": ("a string", lambda v: isinstance(v, str)),
    "number-list": ("a non-empty list of finite numbers", lambda v: _list_of(v, _is_number)),
    "number-pair": ("a [lo, hi] pair of finite numbers", lambda v: _list_of(v, _is_number) and len(v) == 2),
    "string-list": ("a non-empty list of strings", lambda v: _list_of(v, lambda item: isinstance(item, str))),
    "object": ("an object", lambda v: isinstance(v, dict)),
}


def _check_type(value, path: str, kind: str) -> None:
    what, test = _KINDS[kind]
    if not test(value):
        raise ConfigError(path, f"expected {what}, got {value!r}")


def _checked(path: str, call: Callable, *args, **kwargs):
    """``call(*args, **kwargs)``, with a ValueError it raises refused as a ConfigError at ``path``."""
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


class _Command(NamedTuple):
    """What one command reads from its config besides ``band`` and ``params``."""

    runner: Callable
    sections: tuple[str, ...]
    functions: tuple[str, ...]
    params: dict[str, str]  # required param -> kind
    optional: dict[str, str] = {}


class ExperimentConfig:
    """Validated view of a raw config document for one command."""

    def __init__(self, command: str, raw: dict):
        spec = _COMMANDS[command]
        required = {"schema_version": "int", "band": "object", "params": "object"}
        required.update(dict.fromkeys(spec.sections, "object"))
        _require(raw, "config", required, {"out_dir": "string"})
        if raw["schema_version"] != SCHEMA_VERSION:
            raise ConfigError(
                "config.schema_version",
                f"expected {SCHEMA_VERSION}, got {raw['schema_version']}",
            )
        self.band = self._band(raw["band"])
        # a section is in raw exactly when the command uses it
        self.grid = self._grid(raw["grid"]) if "grid" in raw else None
        self.generator = self._generator(raw["generator"]) if "generator" in raw else None
        _require(raw.get("functions", {}), "config.functions", dict.fromkeys(spec.functions, "string"))
        self.functions = {
            name: _checked(f"config.functions.{name}", parse_scalar, raw["functions"][name])
            for name in spec.functions
        }
        _require(raw["params"], "config.params", spec.params, spec.optional)
        self.params = raw["params"]

    def _band(self, obj: dict) -> VolatilityBand:
        _require(obj, "config.band", {"sigma_min_sq": "number", "sigma_max_sq": "number"})
        return _checked("config.band", VolatilityBand, obj["sigma_min_sq"], obj["sigma_max_sq"])

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
        if ("x_min" in obj) != ("x_max" in obj):
            raise ConfigError("config.grid.x_min", "x_min and x_max go together")
        theta = {"theta": obj["theta"]} if "theta" in obj else {}  # absent: the library's default
        try:
            if "x_min" in obj:
                # nt = 1 stands in until the grid has checked horizon and nx, which dx needs
                grid = SpaceTimeGrid(obj["horizon"], obj["x_min"], obj["x_max"], obj["nx"], nt=1)
                grid = replace(grid, nt=cfl_time_steps(self.band, grid.horizon, grid.dx, **theta))
            else:
                grid = make_grid(self.band, obj["horizon"], obj["nx"], obj.get("half_width"), **theta)
            if "nt" in obj:
                grid = replace(grid, nt=obj["nt"])
            grid.check_cfl(self.band)
        except ValueError as exc:
            raise ConfigError("config.grid", str(exc)) from exc
        return grid

    def _generator(self, obj: dict) -> GeneratorPair:
        _require(obj, "config.generator", {"g": "string", "f": "string", "lipschitz_L": "number"}, {"h6": "bool"})
        g = _checked("config.generator.g", parse_tri, obj["g"])
        f = _checked("config.generator.f", parse_tri, obj["f"])
        return _checked("config.generator", GeneratorPair, g, f, obj["lipschitz_L"], h6=obj.get("h6", False))


# ---------------------------------------------------------------------------
# Command bodies: return (report dict, csv header, csv rows)
# ---------------------------------------------------------------------------

def _times(cfg: ExperimentConfig) -> list:
    """The ``times`` parameter, each one a t that ``grid.check_interval(0, t)`` accepts."""
    times = cfg.params["times"]
    for t in times:
        _checked("config.params.times", cfg.grid.check_interval, 0.0, t)
    return times


def _run_gexp(cfg: ExperimentConfig):
    times = _times(cfg)
    field = solve_g_heat(cfg.band, cfg.functions["phi"], cfg.grid)
    values = {}
    rows = []
    for t in times:
        values[_fmt(t)] = field.value_at(t, 0.0)
        k = field.nearest_layer(t)
        for x, u in zip(cfg.grid.xs, field.layer(k)):
            rows.append((field.times[k], x, u))
    report = {"values_at_zero": values}
    return report, ("t", "x", "u"), rows


def _run_gbsde(cfg: ExperimentConfig):
    times = _times(cfg)
    sol = solve_gbsde(cfg.band, cfg.generator, cfg.functions["terminal"], cfg.grid)
    rows = []
    for t in times:
        k = sol.field.nearest_layer(t)
        columns = sol.field.layer(k), sol.field.z_layer(k), sol.eta_layer(k)
        for x, y, z, eta in zip(cfg.grid.xs, *columns):
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
        **{key: cfg.params[key] for key in ("resolution", "t") if key in cfg.params},  # the library's defaults
    )
    rows = report_obj.cells.reshape(-1, 4).tolist()
    report = {
        "verdict": report_obj.verdict,
        "min_gap": report_obj.min_gap,
        "witness_count": len(report_obj.witnesses),
        "witnesses": [list(w) for w in report_obj.witnesses[:100]],
        "tolerance": WITNESS_TOL,
    }
    return report, ("y", "z", "argmin_A", "inf_gap"), rows


def _run_jensen(cfg: ExperimentConfig):
    horizons = cfg.params["horizons"]
    s = cfg.params.get("s", 0.0)
    for tau in horizons:
        _checked("config.params.horizons", cfg.grid.check_interval, 0.0, s + tau)
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
    result = representation_limit_check(
        cfg.band, cfg.generator, cfg.functions["terminal"], t, eps_list,
        **{key: cfg.params[key] for key in ("nx",) if key in cfg.params},  # the library's default
    )
    rows = [(eps, quotient, result["formula"], err) for eps, quotient, err in result["rows"]]
    report = {
        "formula": result["formula"],
        "order": result["order"],
        "decreasing": result["decreasing"],
        "final_ok": result["final_ok"],
        "passed": result["passed"],
        "tolerance": {"final_rel_error": REPLIMIT_TOL},
    }
    return report, ("eps", "quotient", "formula", "abs_error"), rows


def _run_oracle_check(cfg: ExperimentConfig):
    tolerance = cfg.params.get("tolerance", 5e-3)
    if tolerance < 0:  # no difference is below it, so every check would fail; no library call reads it
        raise ConfigError("config.params.tolerance", f"must be >= 0, got {tolerance}")
    texts = cfg.params["functions"]
    times = _times(cfg)
    phis = [_checked("config.params.functions", parse_scalar, text) for text in texts]
    steps = cfg.params.get("steps", 2000)
    fields = solve_g_heat_batch(cfg.band, phis, cfg.grid)
    trees = tree_expectation_batch(cfg.band, phis, times, steps).tolist()
    rows = []
    for text, field, tree_row in zip(texts, fields, trees):
        for t, tree in zip(times, tree_row):
            pde = field.value_at(t, 0.0)
            rows.append((text, t, pde, tree, abs(pde - tree)))
    diffs = [row[-1] for row in rows]
    # a NaN or infinite difference fails the check; max() would pass over a NaN, and the
    # report writes the worst as null, since JSON has no NaN or infinity
    worst = max(diffs, default=0.0) if all(map(math.isfinite, diffs)) else None
    report = {
        "max_abs_diff": worst,
        "tolerance": tolerance,
        "passed": worst is not None and worst <= tolerance,
        "steps": steps,
    }
    return report, ("function", "t", "pde", "tree", "abs_diff"), rows


_COMMANDS = {
    # runner, sections besides band and params, function names, params, optional params
    "gexp": _Command(_run_gexp, ("grid", "functions"), ("phi",), {"times": "number-list"}),
    "gbsde": _Command(_run_gbsde, ("grid", "generator", "functions"), ("terminal",), {"times": "number-list"}),
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
            "error": type(exc).__name__,
            # NonFiniteError and BlowUpError name where the march failed; the others name no layer
            "layer": getattr(exc, "layer", None),
            "row": getattr(exc, "row", None),
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
        _write_rows(handle, header, rows)
    return 0


def _write_rows(handle, header: tuple[str, ...], rows: list) -> None:
    """Write ``header`` and ``rows`` as CSV, numbers with 17 significant digits.

    Rows of numbers only go out through one format string, a line at a
    time: ``"%.17g" % x`` is ``format(float(x), ".17g")`` for every int,
    float and numpy scalar.  Rows that hold a string (``oracle-check``'s
    function text) go through ``csv.writer``, which quotes it where needed;
    the first row says which kind a command's rows are.
    """
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header)
    if rows and any(isinstance(v, str) for v in rows[0]):
        writer.writerows([v if isinstance(v, str) else _fmt(v) for v in row] for row in rows)
    else:
        line = ",".join(["%.17g"] * len(header)) + "\n"
        handle.writelines(line % tuple(row) for row in rows)


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
