"""The package's public names: each module's ``__all__``, republished once."""

import os
import subprocess
import sys
import types
from pathlib import Path

import gexpect
from gexpect import convexity, core, expr, gbsde, gheat, oracle

EXPORTED = {
    "BlowUpError", "BsdeSolution", "CflError", "ConvexityReport", "CylinderPayoff", "EvalDomainError",
    "FieldSolution", "GeneratorPair", "GridResolutionError", "LatticePath", "NonFiniteError", "ParseError",
    "RNG_ALGORITHM", "ScalarFunction", "SpaceTimeGrid", "TabulatedFunction", "TriFunction", "VolatilityBand",
    "cfl_time_steps", "check_g_convexity", "condition_gap", "conditional_g_expectation", "g_eval",
    "g_expectation", "gauss_hermite_expectation", "jensen_experiment", "k_along_path", "k_increment",
    "make_grid", "mutual_variation", "nonlinear_expectation", "parse", "parse_scalar", "parse_tri",
    "quadratic_variation", "reduce_over_A", "representation_formula", "representation_limit_check",
    "representation_quotient", "simulate_path", "solve_g_heat", "solve_g_heat_batch", "solve_gbsde",
    "solve_gbsde_batch", "tree_expectation", "tree_expectation_batch", "tree_k_expectation", "witness_to_phi",
    "zero_generator",
}


def test_the_public_names_are_the_union_of_the_modules_lists():
    public = {
        name for name, value in vars(gexpect).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    modules = (core, expr, gheat, gbsde, oracle, convexity)
    assert public == set().union(*(module.__all__ for module in modules))
    assert public == EXPORTED and len(EXPORTED) == 49
    for module in modules:
        for name in module.__all__:
            assert getattr(gexpect, name) is getattr(module, name)



# runs in a fresh interpreter: the spot checks, a conditional table and four CLI commands, then
# whether numpy.random was ever imported; the one argument is the output directory
_NO_NUMPY_RANDOM = r"""
import json, sys
from pathlib import Path
import numpy as np
import gexpect as gx
from gexpect.cli import run

out = Path(sys.argv[1])
band = gx.VolatilityBand(1.0, 2.0)
gx.zero_generator()
gx.GeneratorPair(gx.parse_tri("z"), gx.parse_tri("0.5*z"), 1.0, h6=True)
payoff = gx.CylinderPayoff((0.5, 1.0), lambda a, b: np.maximum(a + b, 0.0))
gx.conditional_g_expectation(band, payoff, 1, gx.make_grid(band, 1.0, nx=41))(0.1)
grid = {"horizon": 1.0, "half_width": 8.5, "nx": 101}
generator = {"g": "0.5*z", "f": "0.1*z", "lipschitz_L": 1.0, "h6": True}
configs = {
    "gbsde": {"grid": grid, "generator": generator, "functions": {"terminal": "x^2 + 1"}, "params": {"times": [0.0]}},
    "jensen": {"grid": grid, "generator": generator, "functions": {"h": "exp(x)", "phi": "tanh(x)"},
               "params": {"horizons": [0.5, 1.0]}},
    "convexity": {"generator": generator, "functions": {"h": "exp(x)"},
                  "params": {"y_range": [-2.0, 2.0], "z_range": [-2.0, 2.0], "resolution": 17}},
    "replimit": {"generator": generator, "functions": {"terminal": "x^2 + 1"}, "params": {"eps_list": [0.1, 0.05, 0.025]}},
}
for command, body in configs.items():
    config = out / f"{command}.json"
    config.write_text(json.dumps({"schema_version": 1, "band": {"sigma_min_sq": 1.0, "sigma_max_sq": 2.0}, **body}))
    assert run(command, config, out / command) == 0, command
print("numpy.random" in sys.modules)
"""


def test_the_package_never_loads_numpy_random(tmp_path):
    # every fixed draw comes from the package's own splitmix64 stream, so numpy.random, some
    # 6 MB of a run's peak memory, is never imported
    src = Path(gexpect.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_RANDOM, str(tmp_path)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
