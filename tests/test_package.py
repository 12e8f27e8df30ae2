"""The package's public names: each module's ``__all__``, republished once."""

import types

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

