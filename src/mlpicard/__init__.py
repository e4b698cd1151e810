"""Multilevel Picard estimation for semilinear heat equations.

The estimator approximates u(t, x) for

    d/dt u = Lap(u) + f(u)        (forward form; a backward form with
                                   terminal data and unit-rate noise is
                                   also supported)

in arbitrary dimension d by a nested Monte Carlo recursion whose work
grows polynomially in d and in 1/accuracy.  Each name is imported from
its module; importing the package itself loads nothing else.

  * `mlpicard.estimator`: `estimate_batch`, K realizations in the
    problem's own orientation (one is `estimate_batch(..., 1)[0]`),
    deterministic given (problem, `MlpParams`, seed), with an exact
    `CostTally` of every random draw and function evaluation;
    `transform_to_backward`.
  * `mlpicard.problem`: `make_problem`, `PdeProblem`, the builtin
    nonlinearities and data (`builtin_nonlinearity`, `builtin_data`,
    addressable by name) and the truncated reaction `eval_truncated_f`.
  * `mlpicard.bounds`: `error_bound`, `cost_recursion`, `cost_bound`,
    `level_bounds` (the diagonal bounds, computed once; their `select`
    is accuracy-driven level selection) and `rho_min`, the solution's
    a-priori bound: the one truncation radius that estimation and level
    selection use.
  * `mlpicard.oracles`: independent low-dimensional references
    (`ode_solve`, `fd_solve_1d`, `allen_cahn_reference`), the
    Feynman-Kac `fixed_point_residual` and `max_principle_check`.
  * `mlpicard.experiments`: `rmse_vs_oracle`, `dimension_scaling` and
    `epsilon_sweep` tables; `write_rows` writes any of them as CSV, one
    column per row field.
  * `mlpicard.randomness`: the counter-based generator, as scalar
    (seed, path, counter) functions (`raw_word`, `uniform01`,
    `gaussian_vector`) over vectorized kernels, and its golden values.
  * `mlpicard.cli`: the `mlpicard` command. Run `mlpicard --help-config`
    for the configuration grammar.

All randomness derives from a counter-based generator keyed by
(seed, tree address), so results are bit-identical across runs, thread
counts and batch splits.
"""
