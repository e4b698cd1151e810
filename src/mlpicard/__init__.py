"""Multilevel Picard estimation for semilinear heat equations.

The estimator approximates u(t, x) for

    d/dt u = Lap(u) + f(u)        (forward form; a backward form with
                                   terminal data and unit-rate noise is
                                   also supported)

in arbitrary dimension d by a nested Monte Carlo recursion whose work
grows polynomially in d and in 1/accuracy.  The package provides:

  * `estimate` / `estimate_batch`: the estimator itself, one realization
    or K of them in the problem's own orientation, deterministic given
    (problem, parameters, seed), with an exact tally of every random draw
    and function evaluation.
  * `problem`: problem definitions, built-in nonlinearities and data
    (addressable by name), and the truncated reaction.
  * `bounds`: the L2 error bound, cost model and closed-form cost bound,
    accuracy-driven level selection, and rho_min, the solution's a-priori
    bound: the one truncation radius that estimation and level selection
    use.
  * `oracles`: independent low-dimensional references (ODE reduction,
    1-D finite differences), a Feynman-Kac fixed-point residual check
    and the maximum-principle check.
  * `experiments`: RMSE/scaling/sweep tables; `write_rows` writes any of
    them as CSV, one column per row field.
  * `cli`: the `mlpicard` command. Run `mlpicard --help-config` for the
    configuration grammar.

All randomness derives from a counter-based generator keyed by
(seed, tree address), so results are bit-identical across runs, thread
counts and batch splits.
"""

from .bounds import (
    BoundConstants,
    CapExceededError,
    apriori_sup_bound,
    cost_bound,
    cost_recursion,
    cumulative_cost,
    error_bound,
    rho_min,
    select_levels,
    surrogate_constants,
)
from .estimator import (
    CostTally,
    EstimateResult,
    EstimatorProbe,
    MlpParams,
    estimate,
    estimate_batch,
    transform_to_backward,
)
from .experiments import (
    ConvergenceRow,
    RunningStats,
    ScalingResult,
    SweepResult,
    dimension_scaling,
    epsilon_sweep,
    rmse_vs_oracle,
    write_rows,
)
from .oracles import (
    Boundary,
    FdOracle1d,
    FdSolution,
    MaxPrincipleReport,
    OdeOracle,
    OracleError,
    allen_cahn_constant_solution,
    allen_cahn_reference,
    fd_refinement_gap,
    fd_solve_1d,
    fixed_point_residual,
    max_principle_check,
    ode_solve,
)
from .problem import (
    DataFunction,
    Nonlinearity,
    Orientation,
    PdeProblem,
    builtin_data,
    builtin_nonlinearity,
    eval_truncated_f,
    make_problem,
    truncate_value,
)
from .randomness import NodeId, StreamKey, gaussian_vector, path_digest, uniform01

__version__ = "0.1.0"

__all__ = [
    "BoundConstants",
    "Boundary",
    "CapExceededError",
    "ConvergenceRow",
    "CostTally",
    "DataFunction",
    "EstimateResult",
    "EstimatorProbe",
    "FdOracle1d",
    "FdSolution",
    "MaxPrincipleReport",
    "MlpParams",
    "NodeId",
    "Nonlinearity",
    "OdeOracle",
    "OracleError",
    "Orientation",
    "PdeProblem",
    "RunningStats",
    "ScalingResult",
    "StreamKey",
    "SweepResult",
    "allen_cahn_constant_solution",
    "allen_cahn_reference",
    "apriori_sup_bound",
    "builtin_data",
    "builtin_nonlinearity",
    "cost_bound",
    "cost_recursion",
    "cumulative_cost",
    "dimension_scaling",
    "epsilon_sweep",
    "error_bound",
    "estimate",
    "estimate_batch",
    "eval_truncated_f",
    "fd_refinement_gap",
    "fd_solve_1d",
    "fixed_point_residual",
    "gaussian_vector",
    "make_problem",
    "max_principle_check",
    "ode_solve",
    "path_digest",
    "rho_min",
    "rmse_vs_oracle",
    "select_levels",
    "surrogate_constants",
    "transform_to_backward",
    "truncate_value",
    "uniform01",
    "write_rows",
]
