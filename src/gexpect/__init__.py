"""Numerical laboratory for sublinear expectations under volatility
uncertainty: expectations via a monotone scheme for the nonlinear heat
equation, backward lattice solutions of the associated BSDEs, worst-case
tree oracles, and convexity / Jensen-inequality experiments.
"""

from .core import (
    CflError,
    SpaceTimeGrid,
    VolatilityBand,
    cfl_time_steps,
    g_eval,
    make_grid,
)
from .expr import (
    EvalDomainError,
    ParseError,
    ScalarFunction,
    TriFunction,
    parse,
    parse_scalar,
    parse_tri,
)
from .gheat import (
    BlowUpError,
    CylinderPayoff,
    FieldSolution,
    GridResolutionError,
    NonFiniteError,
    TabulatedFunction,
    conditional_g_expectation,
    g_expectation,
    solve_g_heat,
    solve_g_heat_batch,
)
from .gbsde import (
    BsdeSolution,
    GeneratorPair,
    k_along_path,
    k_increment,
    nonlinear_expectation,
    solve_gbsde,
    solve_gbsde_batch,
    zero_generator,
)
from .oracle import (
    LatticePath,
    RNG_ALGORITHM,
    gauss_hermite_expectation,
    mutual_variation,
    quadratic_variation,
    simulate_path,
    tree_expectation,
    tree_expectation_batch,
    tree_k_expectation,
)
from .convexity import (
    ConvexityReport,
    check_g_convexity,
    condition_gap,
    jensen_experiment,
    reduce_over_A,
    representation_formula,
    representation_limit_check,
    representation_quotient,
    witness_to_phi,
)

__version__ = "0.1.0"
