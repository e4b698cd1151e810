"""Statistical harness: RMSE tables, scaling studies, epsilon sweeps.

Every table here is desk-scale numerical evidence produced by this package;
the underlying theory contributes the bound columns, not the measurements.
RMSE is always taken against an oracle value, not a pooled mean, so it is
the Monte Carlo analogue of the L2 distance the error bound controls:
RMSE^2 = bias^2 + variance.

CSV files use RFC-4180-style quoting with one header row and '\n' line
endings.  With a fixed config and seed the files are byte-identical across
runs and thread counts, except for wall-time columns, which are
informational only and explicitly non-deterministic.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, fields
from typing import Callable, Optional, Sequence

import numpy as np

from .bounds import (
    BoundConstants,
    cost_bound,
    cost_recursion,
    cumulative_cost,
    error_bound,
    level_bounds,
    rho_min,
)
from .estimator import MlpParams, estimate_batch
from .problem import PdeProblem


def run_checked(problem, n, t, x, K, seed, worker_count, branching=None,
                radius=None):
    """K realizations at level n, timed and checked.

    ``branching`` None is the diagonal M = max(n, 1) and ``radius`` None is
    ``rho_min(problem)``.  Measured draws <= cost_recursion <= cost_bound
    is re-verified before anything is returned.  Returns the K values as
    one array, the tally of one realization, the wall time, the cost model
    and the MlpParams run.
    """
    M = max(n, 1) if branching is None else branching
    r = rho_min(problem) if radius is None else radius
    params = MlpParams(levels=n, branching=M, truncation_radius=r, seed=seed)
    start = time.perf_counter()
    results = estimate_batch(problem, params, t, x, K, worker_count)
    wall = time.perf_counter() - start
    d, tally = problem.dimension, results[0].tally
    model = cost_recursion(d, n, M)
    if tally.total_draws > model:
        raise AssertionError(
            f"measured draws {tally.total_draws} exceed cost model {model} "
            f"at n={n}, M={M}, d={d}"
        )
    if n >= 1 and model > cost_bound(d, n, M):
        raise AssertionError(
            f"cost model {model} exceeds closed-form bound at n={n}"
        )
    return np.array([res.value for res in results]), tally, wall, model, params


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    radius: float
    repetitions: int
    rmse: float
    se_mean: float
    error_bound: float
    gaussians_measured: int
    cost_model: int
    wall_time_s: float


def rmse_vs_oracle(
    problem: PdeProblem,
    oracle_value: float,
    t: float,
    x,
    n_list: Sequence[int],
    K: int = 1000,
    seed: int = 0,
    worker_count: int = 1,
    radius: Optional[float] = None,
) -> list[ConvergenceRow]:
    """Diagonal (M = n) RMSE table against a fixed oracle value.

    The radius is ``radius`` or else ``rho_min(problem)``.  Every row
    re-verifies measured draws <= cost_recursion <= cost_bound.
    """
    if K < 2:
        raise ValueError(f"K must be >= 2 for a standard error, got {K}")
    consts = BoundConstants.from_problem(problem)
    rows = []
    for n in n_list:
        values, tally, wall, model, params = run_checked(
            problem, n, t, x, K, seed, worker_count, radius=radius)
        r = params.truncation_radius
        rows.append(
            ConvergenceRow(
                n=n,
                radius=r,
                repetitions=K,
                rmse=float(np.sqrt(np.mean((values - oracle_value) ** 2))),
                se_mean=float(values.std(ddof=1) / math.sqrt(K)),
                error_bound=error_bound(consts, n, params.branching, r),
                gaussians_measured=tally.gaussian_scalars,
                cost_model=model,
                wall_time_s=wall,
            )
        )
    return rows


@dataclass(frozen=True)
class ScalingRow:
    d: int
    gaussians_measured: int
    draws_measured: int
    cost_model: int
    wall_time_s: float


@dataclass(frozen=True)
class ScalingResult:
    rows: tuple
    cost_affine_exact: bool
    draws_affine_exact: bool


def _affine_exact(ds: Sequence[int], values: Sequence[int]) -> bool:
    # the line through the first two points, cross-multiplied so that it
    # stays in integers; the caller rejects repeated dimensions, so
    # ds[1] != ds[0]
    (d0, d1), (v0, v1) = ds[:2], values[:2]
    return all((v - v0) * (d1 - d0) == (v1 - v0) * (d - d0)
               for d, v in zip(ds, values))


def dimension_scaling(
    problem_template: Callable[[int], PdeProblem],
    d_list: Sequence[int],
    n: int = 3,
    t: Optional[float] = None,
    K: int = 1,
    seed: int = 0,
    worker_count: int = 1,
) -> ScalingResult:
    """Draw counts and model cost across dimensions at fixed n = M, at x = 0.

    The cost model and the measured draws are both affine in d at fixed
    (n, M); each affine check fits the first two dimensions exactly
    (integer arithmetic) and requires every further point to match.
    """
    if len(d_list) < 2:
        raise ValueError("d_list needs at least two dimensions")
    if any(d < 1 for d in d_list):
        raise ValueError(f"dimensions must be >= 1, got {list(d_list)}")
    repeated = sorted({d for d in d_list if list(d_list).count(d) > 1})
    if repeated:
        raise ValueError(f"dimensions must differ, got {repeated} more than "
                         f"once in {list(d_list)}")
    rows = []
    for d in d_list:
        problem = problem_template(d)
        _, tally, wall, model, _ = run_checked(
            problem, n, problem.horizon if t is None else t, np.zeros(d), K,
            seed, worker_count)
        rows.append(
            ScalingRow(
                d=d,
                gaussians_measured=tally.gaussian_scalars,
                draws_measured=tally.total_draws,
                cost_model=model,
                wall_time_s=wall,
            )
        )

    ds = [row.d for row in rows]
    return ScalingResult(
        rows=tuple(rows),
        cost_affine_exact=_affine_exact(ds, [row.cost_model for row in rows]),
        draws_affine_exact=_affine_exact(
            ds, [row.draws_measured for row in rows]),
    )


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    d: int
    levels: int
    cumulative_cost: int
    scaled_cost: float  # cumulative_cost * epsilon^{2+delta} / d


@dataclass(frozen=True)
class SweepResult:
    rows: tuple
    scaled_max: float
    scaled_min: float


def epsilon_sweep(
    consts: BoundConstants,
    delta: float,
    epsilon_list: Sequence[float],
    d_list: Sequence[int],
    n_max: int = 64,
) -> SweepResult:
    """Levels and cumulative model cost over an accuracy grid.

    scaled_cost = cumulative_cost * eps^{2+delta} / d is the quantity the
    complexity theory asserts stays bounded as eps -> 0; its max/min over
    the grid is reported.  Cap failures from level selection propagate.
    """
    if not delta > 0.0:
        raise ValueError(f"delta must be > 0, got {delta}")
    rows = []
    table = level_bounds(consts, n_max)
    for eps in epsilon_list:
        levels = table.select(eps)
        for d in d_list:
            total = cumulative_cost(d, levels)
            scaled = total * eps ** (2.0 + delta) / d
            rows.append(
                SweepRow(
                    epsilon=eps,
                    d=d,
                    levels=levels,
                    cumulative_cost=total,
                    scaled_cost=scaled,
                )
            )
    scaled = [row.scaled_cost for row in rows]
    return SweepResult(
        rows=tuple(rows),
        scaled_max=max(scaled),
        scaled_min=min(scaled),
    )


# CSV emission ------------------------------------------------------------

# wall-time columns are excluded from byte-identity comparisons
NONDETERMINISTIC_COLUMNS = ("wall_time_s",)


def write_csv(path, header, rows) -> None:
    """One header row, then ``rows``; every CSV the package writes uses this."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_rows(path, row_type, rows) -> None:
    """A table of ``row_type`` dataclass rows, one column per field.

    The csv module writes a float with ``str``, which for Python floats is
    ``repr`` and for numpy floats the same digits without the type name;
    the NONDETERMINISTIC_COLUMNS are written as ``.6f``.
    """
    names = [f.name for f in fields(row_type)]
    write_csv(path, names, (
        [f"{getattr(row, name):.6f}" if name in NONDETERMINISTIC_COLUMNS
         else getattr(row, name) for name in names]
        for row in rows
    ))
