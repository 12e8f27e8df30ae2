"""Span tracing at the package's layer boundaries, installed from outside.

``Tracer.install`` swaps the public functions and methods of the layers
``core``, ``expr``, ``gheat``, ``gbsde``, ``oracle``, ``convexity`` and
``cli`` for timing wrappers, in every ``gexpect`` module namespace that
binds them, so calls between modules pass through the wrappers too;
``uninstall`` puts the originals back.  Nothing under ``src/`` changes.

Calls at a coarse boundary (a solve, a scan, a tree, a path, a CLI run)
are kept as spans: name, start, end, parent span, item id, self time and a
few sizes read from the arguments.  Calls made once per scan cell or per
expression evaluation (``reduce_over_A`` and the ``expr`` function
objects) would be hundreds of thousands of spans per pass; they are
counted and timed in aggregate per (name, outermost open span) instead.
A span's self time is its duration minus the time its child spans and
aggregated calls cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

import gexpect
from gexpect import cli, convexity, core, expr, gbsde, gheat, oracle
from metrics import LAYERS

_MODULES = (gexpect, core, expr, gheat, gbsde, oracle, convexity, cli)
_FAILED = object()


def _grid_info(a, result):
    return {"nx": a["grid"].nx, "nt": a["grid"].nt}


def _heat_info(a, result):
    return {**_grid_info(a, result), "bytes": result.u.nbytes}


def _bsde_info(a, result):
    return {**_grid_info(a, result), "picard": bool(a["picard"])}


# (module, function name, span name, sizes read from the bound arguments)
_SPANS = (
    (core, "make_grid", "core.make_grid", None),
    (gheat, "solve_g_heat", "gheat.solve_g_heat", _heat_info),
    (gheat, "g_expectation", "gheat.g_expectation", None),
    (gheat, "conditional_g_expectation", "gheat.conditional_g_expectation", None),
    (gbsde, "solve_gbsde", "gbsde.solve_gbsde", _bsde_info),
    (gbsde, "nonlinear_expectation", "gbsde.nonlinear_expectation", None),
    (gbsde, "k_along_path", "gbsde.k_along_path", None),
    (oracle, "tree_expectation", "oracle.tree_expectation", lambda a, r: {"steps": a["steps"]}),
    (oracle, "simulate_path", "oracle.simulate_path", _grid_info),
    (oracle, "tree_k_expectation", "oracle.tree_k_expectation", None),
    (convexity, "check_g_convexity", "convexity.check_g_convexity",
     lambda a, r: {"cells": a["resolution"] ** 2}),
    (convexity, "jensen_experiment", "convexity.jensen_experiment", None),
    (convexity, "representation_limit_check", "convexity.representation_limit_check", None),
    (convexity, "witness_to_phi", "convexity.witness_to_phi", None),
    (cli, "run", "cli.run", None),
)

# Aggregated calls: module-level functions, then (class, method) pairs.
_LEAF_FUNCTIONS = ((convexity, "reduce_over_A", "convexity.reduce_over_A"),)
_LEAF_METHODS = (
    (expr.ScalarFunction, "__call__", "expr.scalar"),
    (expr.ScalarFunction, "eval2", "expr.jet"),
    (expr.TriFunction, "__call__", "expr.tri"),
)
_SPAN_METHODS = ((cli.ExperimentConfig, "__init__", "cli.config"),)


class Tracer:
    """In-memory spans and aggregated call counts for one traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start, end, parent, item, self_s, info)
        self.leaves = defaultdict(lambda: [0, 0.0, 0.0])  # (name, root, phase) -> calls, s, self s
        self.counts = defaultdict(float)  # name -> value, from the traced passes
        self.item = "setup"
        self._stack: list[list] = []  # open calls: [span index or -1, child seconds, name]
        self._patches: list[tuple] = []

    @property
    def phase(self) -> str:
        return "setup" if self.item == "setup" else "pass"

    def add(self, name: str, value: float) -> None:
        """Count something the benchmark measures itself, such as bytes written."""
        self.counts[name] += value

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, info):
        signature = inspect.signature(fn)
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [index, 0.0, name]
            stack.append(frame)
            start = clock()
            result = _FAILED
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                sizes = {}
                if info is not None and result is not _FAILED:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    sizes = info(bound.arguments, result)
                spans[index] = (name, start, end, parent, self.item, end - start - frame[1], sizes)

        return wrapper

    def _leaf(self, name, fn):
        stack, leaves, clock = self._stack, self.leaves, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [-1, 0.0, name]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                record = leaves[(name, stack[0][2] if stack else name, self.phase)]
                record[0] += 1
                record[1] += duration
                record[2] += duration - frame[1]

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        for module, attr, name, info in _SPANS:
            self._patch_function(getattr(module, attr), self._span(name, getattr(module, attr), info))
        for module, attr, name in _LEAF_FUNCTIONS:
            self._patch_function(getattr(module, attr), self._leaf(name, getattr(module, attr)))
        for cls, attr, name in _LEAF_METHODS:
            self._patch_method(cls, attr, self._leaf(name, cls.__dict__[attr]))
        for cls, attr, name in _SPAN_METHODS:
            self._patch_method(cls, attr, self._span(name, cls.__dict__[attr], None))

    def _patch_function(self, original, wrapper) -> None:
        for module in _MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    def _patch_method(self, cls, attr, wrapper) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output -----------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span and aggregate as JSON; times are seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        document = {
            "span_fields": ["name", "start", "end", "parent", "item", "self_s", "sizes"],
            "spans": [
                [n, s - origin, e - origin, p, item, self_s, sizes]
                for n, s, e, p, item, self_s, sizes in self.spans
            ],
            "aggregated_fields": ["name", "outermost_span", "phase", "calls", "seconds", "self_s"],
            "aggregated": [[*key, *value] for key, value in sorted(self.leaves.items())],
        }
        with open(path, "w") as handle:
            json.dump(document, handle)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer values from the traced passes (and core.grid_s from set-up)."""
    calls = defaultdict(float)
    seconds = defaultdict(float)
    self_s = defaultdict(float)
    sums = defaultdict(float)
    largest_field = (0, 1)  # (bytes, layers)
    setup_grid_s = 0.0
    for index, (name, start, end, _, item, own, sizes) in enumerate(tracer.spans):
        if item == "setup":
            if name == "core.make_grid":
                setup_grid_s += end - start
            continue
        calls[name] += 1
        seconds[name] += end - start
        self_s[name.split(".")[0]] += own
        if name == "gheat.solve_g_heat":
            sums[f"heat.nt.nx{sizes['nx']}"] += sizes["nt"]
            sums[f"heat.s.nx{sizes['nx']}"] += end - start
            sums["heat.nt"] += sizes["nt"]
            largest_field = max(largest_field, (sizes["bytes"], sizes["nt"] + 1))
        elif name == "gbsde.solve_gbsde":
            sums["bsde.nt"] += sizes["nt"]
            if sizes["nx"] == 201:
                kind = "picard" if sizes["picard"] else "plain"
                sums[f"bsde.nt.{kind}"] += sizes["nt"]
                sums[f"bsde.s.{kind}"] += end - start
        elif name == "oracle.tree_expectation":
            sums["tree.steps"] += sizes["steps"]
        elif name == "oracle.simulate_path":
            sums["path.steps"] += sizes["nt"]
        elif name == "convexity.check_g_convexity":
            sums["cells"] += sizes["cells"]
            if _root(tracer.spans, index) == "cli.run":
                sums["cli.cells"] += sizes["cells"]
    cli_reduce_calls = 0.0
    for (name, root, phase), (n, total, own) in tracer.leaves.items():
        if phase != "pass":
            continue
        calls[name] += n
        seconds[name] += total
        self_s[name.split(".")[0]] += own
        if name == "convexity.reduce_over_A" and root == "cli.run":
            cli_reduce_calls += n

    per = 1.0 / max(passes, 1)
    m = {
        "expr.tri_calls": calls["expr.tri"] * per,
        "expr.tri_s": seconds["expr.tri"] * per,
        "expr.jet_calls": calls["expr.jet"] * per,
        "expr.jet_s": seconds["expr.jet"] * per,
        "expr.us_per_jet": _ratio(seconds["expr.jet"], calls["expr.jet"], 1e6),
        "expr.scalar_calls": calls["expr.scalar"] * per,
        "expr.scalar_s": seconds["expr.scalar"] * per,
        "gheat.solve_calls": calls["gheat.solve_g_heat"] * per,
        "gheat.layers": sums["heat.nt"] * per,
        "gheat.solve_s": seconds["gheat.solve_g_heat"] * per,
        "gheat.cond_s": seconds["gheat.conditional_g_expectation"] * per,
        "gheat.field_mb": largest_field[0] / 1e6,
        "gheat.bytes_per_layer": largest_field[0] / largest_field[1],
        "gbsde.solve_calls": calls["gbsde.solve_gbsde"] * per,
        "gbsde.layers": sums["bsde.nt"] * per,
        "gbsde.solve_s": seconds["gbsde.solve_gbsde"] * per,
        "gbsde.us_per_layer": _ratio(sums["bsde.s.plain"], sums["bsde.nt.plain"], 1e6),
        "gbsde.picard_us_per_layer": _ratio(sums["bsde.s.picard"], sums["bsde.nt.picard"], 1e6),
        "gbsde.expectation_calls": calls["gbsde.nonlinear_expectation"] * per,
        "gbsde.kpath_calls": calls["gbsde.k_along_path"] * per,
        "gbsde.kpath_s": seconds["gbsde.k_along_path"] * per,
        "oracle.tree_calls": calls["oracle.tree_expectation"] * per,
        "oracle.tree_steps": sums["tree.steps"] * per,
        "oracle.tree_s": seconds["oracle.tree_expectation"] * per,
        "oracle.paths": calls["oracle.simulate_path"] * per,
        "oracle.path_steps": sums["path.steps"] * per,
        "oracle.path_s": seconds["oracle.simulate_path"] * per,
        "oracle.us_per_path_step": _ratio(seconds["oracle.simulate_path"], sums["path.steps"], 1e6),
        "oracle.tree_k_s": seconds["oracle.tree_k_expectation"] * per,
        "convexity.scan_calls": calls["convexity.check_g_convexity"] * per,
        "convexity.cells": sums["cells"] * per,
        "convexity.reduce_calls": calls["convexity.reduce_over_A"] * per,
        "convexity.scan_s": seconds["convexity.check_g_convexity"] * per,
        "convexity.us_per_cell": _ratio(seconds["convexity.check_g_convexity"], sums["cells"], 1e6),
        "convexity.useful_ratio": _ratio(sums["cells"], calls["convexity.reduce_over_A"]),
        "convexity.cli_cells": sums["cli.cells"] * per,
        "convexity.cli_reduce_calls": cli_reduce_calls * per,
        "convexity.jensen_s": seconds["convexity.jensen_experiment"] * per,
        "convexity.replimit_s": seconds["convexity.representation_limit_check"] * per,
        "cli.runs": calls["cli.run"] * per,
        "cli.config_s": seconds["cli.config"] * per,
        "cli.bytes_written": tracer.counts["cli.bytes_written"] * per,
        "core.grid_s": setup_grid_s,
    }
    for nx in (201, 401, 801):
        m[f"gheat.us_per_layer.nx{nx}"] = _ratio(sums[f"heat.s.nx{nx}"], sums[f"heat.nt.nx{nx}"], 1e6)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer] * per
    return m


def _root(spans, index: int) -> str:
    while spans[index][3] >= 0:
        index = spans[index][3]
    return spans[index][0]
