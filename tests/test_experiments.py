"""RMSE tables, scaling, sweeps, CSV reproducibility."""

import math

import numpy as np
import pytest

from mlpicard import bounds
from mlpicard.bounds import CapExceededError, rho_min, surrogate_constants
from mlpicard.experiments import (
    ConvergenceRow,
    ScalingRow,
    SweepRow,
    _affine_exact,
    dimension_scaling,
    epsilon_sweep,
    rmse_vs_oracle,
    write_rows,
)
from mlpicard.oracles import allen_cahn_reference
from mlpicard.problem import make_problem


def test_rmse_identity_on_synthetic_values():
    rng = np.random.default_rng(7)
    values = rng.normal(loc=1.3, scale=0.4, size=500)
    oracle = 1.0
    rmse_sq = float(np.mean((values - oracle) ** 2))
    bias_sq = float((values.mean() - oracle) ** 2)
    var_pop = float(values.var(ddof=0))
    assert math.isclose(rmse_sq, bias_sq + var_pop, rel_tol=1e-12)


TAME = dict(horizon=0.1, t=0.1, K=200, seed=5)


@pytest.fixture(scope="module")
def tame_rows():
    prob = make_problem(dimension=1, horizon=TAME["horizon"])
    oracle = allen_cahn_reference(2.0, TAME["t"])
    return prob, oracle, rmse_vs_oracle(
        prob, oracle, TAME["t"], np.zeros(1), n_list=(0, 1, 2, 3, 4),
        K=TAME["K"], seed=TAME["seed"],
    )


def test_zero_level_row_rmse_is_oracle_magnitude(tame_rows):
    _, oracle, rows = tame_rows
    assert rows[0].n == 0
    assert rows[0].rmse == abs(oracle)
    assert rows[0].gaussians_measured == 0
    assert rows[0].cost_model == 0


def test_rmse_nonincreasing_on_short_horizon(tame_rows):
    _, _, rows = tame_rows
    rmse = [row.rmse for row in rows]
    for a, b in zip(rmse, rmse[1:]):
        assert b <= 1.2 * a, rmse  # nonincreasing up to 20% slack


def test_row_invariants_and_radius_floor(tame_rows):
    prob, _, rows = tame_rows
    floor = rho_min(prob)
    for row in rows:
        assert row.gaussians_measured <= row.cost_model
        assert row.error_bound > 0.0
        assert row.radius >= floor
        assert row.repetitions == TAME["K"]
        assert row.se_mean >= 0.0


def test_rmse_row_reconstructs_bias_variance_split(tame_rows):
    # rmse^2 = (mean - oracle)^2 + population variance, reconstructed from
    # the emitted (rmse, se_mean) pair
    prob, oracle, rows = tame_rows
    from mlpicard.estimator import MlpParams, estimate_batch

    row = rows[3]
    params = MlpParams(levels=row.n, branching=row.n,
                       truncation_radius=row.radius, seed=TAME["seed"])
    values = np.array([
        res.value
        for res in estimate_batch(prob, params, TAME["t"], np.zeros(1),
                                  row.repetitions)
    ])
    K = row.repetitions
    var_pop = (row.se_mean**2 * K) * (K - 1) / K
    bias_sq = (values.mean() - oracle) ** 2
    assert math.isclose(row.rmse**2, bias_sq + var_pop, rel_tol=1e-10)


def test_rmse_requires_two_repetitions():
    prob = make_problem(dimension=1, horizon=0.1)
    with pytest.raises(ValueError):
        rmse_vs_oracle(prob, 1.0, 0.1, np.zeros(1), n_list=(1,), K=1)


def test_dimension_scaling_exact_affinity_and_ratio():
    for n, d_list in ((3, [1, 10, 100]), (2, [1, 10, 100, 1000])):
        result = dimension_scaling(
            lambda d: make_problem(dimension=d, horizon=0.5),
            d_list, n=n, t=0.5, K=1, seed=0,
        )
        assert result.cost_affine_exact
        assert result.draws_affine_exact
        by_d = {row.d: row for row in result.rows}
        ratio = by_d[100].gaussians_measured / by_d[10].gaussians_measured
        assert 9.5 <= ratio <= 10.5
        for row in result.rows:
            assert row.draws_measured <= row.cost_model


def test_affine_check_rejects_a_point_off_the_line():
    assert _affine_exact([1, 3, 7], [10, 14, 22])
    assert not _affine_exact([1, 3, 7], [10, 14, 23])
    # a slope of 1/2: the line runs through (6, 4) but not through (5, 3)
    assert _affine_exact([0, 2, 6], [1, 2, 4])
    assert not _affine_exact([0, 2, 5], [1, 2, 3])
    # above 2**53 a float fit would round this one-draw miss away
    assert float(2**53 + 5) == float(2**53 + 4)
    assert not _affine_exact([0, 1, 2], [2**53, 2**53 + 2, 2**53 + 5])


def test_dimension_scaling_validation():
    template = lambda d: make_problem(dimension=d, horizon=0.5)
    with pytest.raises(ValueError):
        dimension_scaling(template, [4], n=2)
    with pytest.raises(ValueError):
        dimension_scaling(template, [0, 4], n=2)
    # the affine check divides by the first two dimensions' difference
    for d_list in ([5, 5], [5, 6, 5]):
        with pytest.raises(ValueError, match="dimensions must differ"):
            dimension_scaling(template, d_list, n=2)


def test_epsilon_sweep_shape_and_monotone_levels():
    result = epsilon_sweep(
        surrogate_constants(), delta=1.0,
        epsilon_list=[2.0**-k for k in range(1, 7)], d_list=[1, 10, 100],
    )
    assert len(result.rows) == 18
    assert result.scaled_max >= result.scaled_min > 0.0
    levels = {}
    for row in result.rows:
        levels.setdefault(row.epsilon, row.levels)
        assert row.cumulative_cost > 0
        assert math.isclose(
            row.scaled_cost,
            row.cumulative_cost * row.epsilon**3 / row.d,
        )
    eps_sorted = sorted(levels)  # increasing epsilon
    n_values = [levels[e] for e in eps_sorted]
    assert n_values == sorted(n_values, reverse=True)


def test_epsilon_sweep_validation_and_cap():
    consts = surrogate_constants()
    with pytest.raises(ValueError):
        epsilon_sweep(consts, 0.0, [0.5], [1])
    with pytest.raises(CapExceededError):
        epsilon_sweep(consts, 1.0, [1e-6], [1], n_max=10)


def test_epsilon_sweep_computes_each_level_bound_once(monkeypatch):
    # the bounds do not depend on epsilon: six epsilon read one scan
    calls = []
    error_bound = bounds.error_bound

    def counted(*args):
        calls.append(args[1:3])
        return error_bound(*args)

    monkeypatch.setattr(bounds, "error_bound", counted)
    epsilon_sweep(surrogate_constants(), 1.0,
                  [2.0**-k for k in range(1, 7)], [1, 10], n_max=64)
    assert calls == [(m, m) for m in range(1, 65)]


def strip_wall_column(text: str) -> list:
    return [",".join(line.split(",")[:-1]) for line in text.splitlines()]


def test_csv_writers_reproducible(tmp_path, tame_rows):
    prob, oracle, rows = tame_rows
    first = tmp_path / "a.csv"
    write_rows(str(first), ConvergenceRow, rows)
    again = rmse_vs_oracle(prob, oracle, TAME["t"], np.zeros(1),
                           n_list=(0, 1, 2, 3, 4), K=TAME["K"],
                           seed=TAME["seed"], worker_count=4)
    second = tmp_path / "b.csv"
    write_rows(str(second), ConvergenceRow, again)
    a = strip_wall_column(first.read_text(encoding="utf-8"))
    b = strip_wall_column(second.read_text(encoding="utf-8"))
    assert a == b
    assert a[0] == "n,radius,repetitions,rmse,se_mean,error_bound,gaussians_measured,cost_model"


def test_scaling_and_sweep_csv_headers(tmp_path):
    scaling = dimension_scaling(
        lambda d: make_problem(dimension=d, horizon=0.5), [1, 2], n=2,
        t=0.5, K=1,
    )
    spath = tmp_path / "s.csv"
    write_rows(str(spath), ScalingRow, scaling.rows)
    lines = spath.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "d,gaussians_measured,draws_measured,cost_model,wall_time_s"
    assert len(lines) == 3

    sweep = epsilon_sweep(surrogate_constants(), 1.0,
                          [0.5, 0.25], [1])
    wpath = tmp_path / "w.csv"
    write_rows(str(wpath), SweepRow, sweep.rows)
    wlines = wpath.read_text(encoding="utf-8").splitlines()
    assert wlines[0] == "epsilon,d,levels,cumulative_cost,scaled_cost"
    assert len(wlines) == 3
    # sweep CSV has no wall column: two writes are byte-identical
    wpath2 = tmp_path / "w2.csv"
    write_rows(str(wpath2), SweepRow, sweep.rows)
    assert wpath.read_bytes() == wpath2.read_bytes()


def test_sweep_csv_from_numpy_epsilons_matches_list(tmp_path):
    # numpy floats carry their type name in repr; the CSV holds digits only
    paths = []
    for epsilons in (np.array([0.5, 0.25]), [0.5, 0.25]):
        sweep = epsilon_sweep(surrogate_constants(), 1.0,
                              epsilons, [1, 10])
        paths.append(tmp_path / f"sweep{len(paths)}.csv")
        write_rows(str(paths[-1]), SweepRow, sweep.rows)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_text(encoding="utf-8").splitlines()[1] == "0.5,1,4,7952,994.0"


# bytes the per-table writers produced before write_rows replaced them
WRITTEN_ROWS = {
    ConvergenceRow: (
        "n,radius,repetitions,rmse,se_mean,error_bound,gaussians_measured,"
        "cost_model,wall_time_s\n"
        "3,0.1,7,0.3333333333333333,1e-05,2.5e+20,11,12,0.123457\n"
    ),
    ScalingRow: (
        "d,gaussians_measured,draws_measured,cost_model,wall_time_s\n"
        "4,5,6,7,0.123457\n"
    ),
    SweepRow: (
        "epsilon,d,levels,cumulative_cost,scaled_cost\n"
        "1e-05,2,3,4,2.5e+20\n"
        "0.1,1,2,9,0.3333333333333333\n"
    ),
}


def test_write_rows_bytes_pinned(tmp_path):
    rows = {
        ConvergenceRow: [ConvergenceRow(
            n=3, radius=0.1, repetitions=7, rmse=1 / 3, se_mean=1e-05,
            error_bound=2.5e+20, gaussians_measured=11, cost_model=12,
            wall_time_s=0.1234567)],
        ScalingRow: [ScalingRow(d=4, gaussians_measured=5, draws_measured=6,
                                cost_model=7, wall_time_s=0.1234567)],
        SweepRow: [SweepRow(epsilon=1e-05, d=2, levels=3, cumulative_cost=4,
                            scaled_cost=2.5e+20),
                   SweepRow(epsilon=0.1, d=1, levels=2, cumulative_cost=9,
                            scaled_cost=1 / 3)],
    }
    for row_type, expected in WRITTEN_ROWS.items():
        path = tmp_path / f"{row_type.__name__}.csv"
        write_rows(str(path), row_type, rows[row_type])
        assert path.read_bytes() == expected.encode("utf-8")
