"""Configuration-driven experiment runner.

One JSON config per run, one command per invocation::

    gexpect <command> --config experiment.json [--out DIR]

Each run writes ``<out>/<command>.report.json`` (inputs echo, results,
tolerances, pass flag; strict JSON, with every NaN or infinite number
written as null) and ``<out>/<command>.data.csv`` (one row per grid
point / eps / scan cell, floats with 17 significant digits).  A command
with a mesh (``gexp``, ``gbsde``: reported time by x; ``convexity``: y by
z; ``oracle-check``: function by t) hands the writer its axes and one
array of numbers per further column, and each axis value is formatted
once, a function text quoted by csv's rule, for every row it heads.
``jensen`` and ``replimit`` hand over columns alone.  Exit status
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
a traceback.  So does an output directory that cannot be made: it is
named ``--out`` or ``config.out_dir``, by where it came from.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import DEFAULT_CFL_THETA, CflError, SpaceTimeGrid, VolatilityBand, _cfl_grid, make_grid
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
        theta = obj.get("theta", DEFAULT_CFL_THETA)
        try:
            if "x_min" in obj:
                grid = _cfl_grid(self.band, obj["horizon"], obj["x_min"], obj["x_max"], obj["nx"], theta)
            else:
                grid = make_grid(self.band, obj["horizon"], obj["nx"], obj.get("half_width"), theta)
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
# Command bodies: return (report dict, csv header, csv columns, csv axes); see _write_rows
# ---------------------------------------------------------------------------

def _times(cfg: ExperimentConfig, key: str = "times", offset=0) -> list:
    """The ``key`` parameter, each entry a t for which ``grid.check_interval(0, offset + t)`` passes.

    The int offset 0 leaves a t's type, so a refusal prints it as the config wrote it.
    """
    times = cfg.params[key]
    for t in times:
        _checked(f"config.params.{key}", cfg.grid.check_interval, 0.0, offset + t)
    return times


def _run_gexp(cfg: ExperimentConfig):
    times = _times(cfg)
    field = solve_g_heat(cfg.band, cfg.functions["phi"], cfg.grid)
    values = {_fmt(t): field.value_at(t, 0.0) for t in times}
    ks = [field.nearest_layer(t) for t in times]
    u = np.stack([field.layer(k) for k in ks])
    report = {"values_at_zero": values}
    return report, ("t", "x", "u"), (u,), (field.times[ks], cfg.grid.xs)


def _run_gbsde(cfg: ExperimentConfig):
    times = _times(cfg)
    sol = solve_gbsde(cfg.band, cfg.generator, cfg.functions["terminal"], cfg.grid)
    ks = [sol.field.nearest_layer(t) for t in times]
    columns = [np.stack(column) for column in zip(*map(sol.yz_eta_layer, ks))]
    report = {"y_at_start": sol.y_at(0.0, 0.0), "horizon": cfg.grid.horizon}
    return report, ("t", "x", "y", "z", "eta"), columns, (sol.field.times[ks], cfg.grid.xs)


def _run_convexity(cfg: ExperimentConfig):
    report_obj = check_g_convexity(
        cfg.band,
        cfg.generator,
        cfg.functions["h"],
        tuple(cfg.params["y_range"]),
        tuple(cfg.params["z_range"]),
        **{key: cfg.params[key] for key in ("resolution", "t") if key in cfg.params},  # the library's defaults
    )
    cells = report_obj.cells  # cells[i, j] is (ys[i], zs[j], argmin_A, inf_gap)
    ys, zs = cells[:, 0, 0], cells[0, :, 1]
    report = {
        "verdict": report_obj.verdict,
        "min_gap": report_obj.min_gap,
        "witness_count": len(report_obj.witnesses),
        "witnesses": report_obj.witnesses[:100].tolist(),
        "tolerance": WITNESS_TOL,
    }
    return report, ("y", "z", "argmin_A", "inf_gap"), (cells[..., 2], cells[..., 3]), (ys, zs)


def _run_jensen(cfg: ExperimentConfig):
    s = cfg.params.get("s", 0.0)
    horizons = _times(cfg, "horizons", s)
    h, phi = cfg.functions["h"], cfg.functions["phi"]
    results = [jensen_experiment(cfg.band, cfg.generator, h, phi, s, s + tau, cfg.grid) for tau in horizons]
    lhs, rhs, gaps = zip(*results)
    report = {
        "gaps": {_fmt(tau): gap for tau, gap in zip(horizons, gaps)},
        "min_gap": min(gaps),
        # jets at 0 actually used by the experiment (phi and the composition)
        "phi_jet": list(phi.eval2(0.0)),
        "h_phi_jet": list(h.compose(phi).eval2(0.0)),
    }
    return report, ("horizon", "lhs", "rhs", "gap"), (horizons, lhs, rhs, gaps), ()


def _run_replimit(cfg: ExperimentConfig):
    eps_list = cfg.params["eps_list"]
    t = cfg.params.get("t", 0.0)
    result = representation_limit_check(
        cfg.band, cfg.generator, cfg.functions["terminal"], t, eps_list,
        **{key: cfg.params[key] for key in ("nx",) if key in cfg.params},  # the library's default
    )
    eps, quotients, errors = zip(*result["rows"])
    report = {
        "formula": result["formula"],
        "order": result["order"],
        "decreasing": result["decreasing"],
        "final_ok": result["final_ok"],
        "passed": result["passed"],
        "tolerance": {"final_rel_error": REPLIMIT_TOL},
    }
    columns = (eps, quotients, [result["formula"]] * len(eps), errors)
    return report, ("eps", "quotient", "formula", "abs_error"), columns, ()


def _run_oracle_check(cfg: ExperimentConfig):
    tolerance = cfg.params.get("tolerance", 5e-3)
    if tolerance < 0:  # no difference is below it, so every check would fail; no library call reads it
        raise ConfigError("config.params.tolerance", f"must be >= 0, got {tolerance}")
    texts = cfg.params["functions"]
    times = _times(cfg)
    phis = [_checked("config.params.functions", parse_scalar, text) for text in texts]
    steps = cfg.params.get("steps", 2000)
    fields = solve_g_heat_batch(cfg.band, phis, cfg.grid)
    pde = np.array([[field.value_at(t, 0.0) for t in times] for field in fields])
    try:
        tree = tree_expectation_batch(cfg.band, phis, times, steps)
    except MemoryError as exc:  # the lattice is sized by steps, not by the grid
        raise ConfigError("config.params.steps", f"steps = {steps} needs a lattice too large to allocate: {exc}") from exc
    diffs = np.abs(pde - tree)
    worst = float(diffs.max())  # a NaN or infinite difference fails the check
    report = {
        "max_abs_diff": worst,
        "tolerance": tolerance,
        "passed": worst <= tolerance,
        "steps": steps,
    }
    return report, ("function", "t", "pde", "tree", "abs_diff"), (pde, tree, diffs), (texts, times)


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
    document = {"schema_version": SCHEMA_VERSION, "command": command, "config": raw}
    try:
        cfg = ExperimentConfig(command, raw)
        out = _output_dir(raw, out_dir)
        try:
            report, header, columns, axes = _COMMANDS[command].runner(cfg)
        except MemoryError as exc:  # numpy cannot allocate the run's arrays: its grid, or its params, is too large
            if cfg.grid is None:
                raise ConfigError("config.params", f"the run's arrays cannot be allocated: {exc}") from exc
            raise ConfigError(
                "config.grid", f"nx = {cfg.grid.nx} and nt = {cfg.grid.nt} need arrays too large to allocate: {exc}"
            ) from exc
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except _NUMERICAL_ERRORS as exc:
        error = type(exc).__name__
        # NonFiniteError and BlowUpError name where the march failed; the others name no layer
        document.update(status="numerical-failure", diagnostic=f"{error}: {exc}", error=error,
                        layer=getattr(exc, "layer", None), row=getattr(exc, "row", None))
        print(f"numerical failure: {exc}", file=sys.stderr)
    except ValueError as exc:  # a library routine refused a param value (resolution < 16, ...)
        print(str(ConfigError("config.params", str(exc))), file=sys.stderr)
        return 1
    else:
        document.update(status="ok", results=report)
        with (out / f"{command}.data.csv").open("w", newline="") as handle:
            _write_rows(handle, header, columns, axes)
    # JSON has no NaN or infinity: every number of the report that is not finite is written as null
    document = json.loads(json.dumps(document), parse_constant=lambda token: None)
    (out / f"{command}.report.json").write_text(json.dumps(document, indent=2) + "\n")
    return 0 if document["status"] == "ok" else 2


def _output_dir(raw: dict, out_dir: str | Path | None) -> Path:
    """The output directory, made: ``out_dir`` (``--out``), else the config's ``out_dir``, else ``out``."""
    field, path = ("--out", out_dir) if out_dir is not None else ("config.out_dir", raw.get("out_dir", "out"))
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # an existing file, a path under a file, no permission
        raise ConfigError(field, f"cannot make the output directory: {exc}") from exc
    return Path(path)


_CHUNK_ROWS = 256  # rows formatted by one format string and written at once


def _write_rows(handle, header: tuple[str, ...], columns: Sequence, axes: Sequence = ()) -> None:
    """Write ``header`` and the rows of ``axes`` and ``columns`` as CSV, numbers with 17 significant digits.

    The rows run over the outer product of the ``axes`` in C order, and
    each row is its axis values followed by one value of every column; a
    column holds one number per row, as a sequence or as an array shaped
    like the product.  With no axes the columns alone give the rows.
    Each axis value, a number or a text (``oracle-check``'s rows are
    function by t), is formatted or quoted once and reused in every row
    it heads.  Column values go out through ``"%.17g"``, which is
    ``format(float(x), ".17g")`` for every int, float and numpy scalar,
    ``_CHUNK_ROWS`` rows to one format string, one list of Python numbers
    and one write, so no list of all the lines or all the numbers is built.
    """
    columns = [np.ravel(column) for column in columns]
    heads = [""]
    for axis in axes:
        texts = list(map(_lead, axis))
        heads = [head + text for head in heads for text in texts]
    if not axes:
        heads *= columns[0].size if columns else 0
    if any(column.size != len(heads) for column in columns):
        raise ValueError(f"every column needs one value per row, {len(heads)} in all")
    handle.write(",".join(header) + "\n")
    if heads:
        width = len(columns)
        line = ",".join(["%.17g"] * width) + "\n"
        values = np.stack(columns, axis=-1)  # row by row
        for start in range(0, len(heads), _CHUNK_ROWS):
            chunk = heads[start:start + _CHUNK_ROWS]
            text = line.join(chunk) + line  # each head, then its row's format
            handle.write(text % tuple(values[start:start + _CHUNK_ROWS].ravel().tolist()))


def _lead(value) -> str:
    """An axis value as it opens a row, then a comma: a number with 17 significant digits, or text as csv quotes it.

    The text enters the row format, so each ``%`` in it is written ``%%``.
    """
    if not isinstance(value, str):
        return _fmt(value) + ","
    line = io.StringIO()
    # csv's quoting rule reads the line terminator; a second, empty field keeps a lone "" unquoted
    csv.writer(line, lineterminator="\n").writerow([value, ""])
    return line.getvalue()[:-1].replace("%", "%%")


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
