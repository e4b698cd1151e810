"""Reference solvers and consistency checks against each other."""

import dataclasses
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import mlpicard
from mlpicard import oracles
from mlpicard.experiments import write_csv
from mlpicard.oracles import (
    Boundary,
    FdOracle1d,
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
from mlpicard.problem import (
    DataFunction,
    Nonlinearity,
    builtin_constant_data,
    builtin_data,
    builtin_nonlinearity,
    make_problem,
)


def allen_cahn_f(y):
    return y - y**3


def constant_problem(value=2.0, horizon=0.5, d=1):
    return make_problem(dimension=d, horizon=horizon,
                        data=builtin_constant_data(value))


def true_solution(u0):
    def u_ref(ts, xs):
        ts = np.asarray(ts, dtype=np.float64)
        return u0 * np.exp(ts) / np.sqrt(1.0 + u0 * u0 * np.expm1(2.0 * ts))

    return u_ref


# ODE oracle ----------------------------------------------------------------


def test_equilibria_are_fixed():
    for u0 in (0.0, 1.0, -1.0):
        oracle = OdeOracle(f=allen_cahn_f, u0=u0, horizon=1.0)
        for t in (0.0, 0.3, 1.0):
            assert ode_solve(oracle, t) == u0


def test_closed_form_satisfies_the_ode():
    h = 1e-6
    for u0 in (2.0, 0.5, -3.0):
        for t in (0.1, 0.5, 1.0):
            y = allen_cahn_constant_solution(u0, t)
            dy = (allen_cahn_constant_solution(u0, t + h)
                  - allen_cahn_constant_solution(u0, t - h)) / (2.0 * h)
            assert abs(dy - allen_cahn_f(y)) < 1e-6, (u0, t)


def test_reference_value_at_half():
    ref = allen_cahn_reference(2.0, 0.5)
    assert abs(ref - 1.17517) < 1e-4
    assert abs(ref - allen_cahn_constant_solution(2.0, 0.5)) <= 1e-8


def test_ode_step_validation():
    with pytest.raises(ValueError):
        OdeOracle(f=allen_cahn_f, u0=1.0, horizon=1.0, h=0.5)  # > T/100
    with pytest.raises(ValueError):
        OdeOracle(f=allen_cahn_f, u0=1.0, horizon=0.0)
    oracle = OdeOracle(f=allen_cahn_f, u0=2.0, horizon=1.0)
    with pytest.raises(ValueError):
        ode_solve(oracle, 1.5)
    assert ode_solve(oracle, 0.0) == 2.0


def test_ode_blow_up_detected():
    oracle = OdeOracle(f=lambda y: y * y, u0=2.0, horizon=1.0)
    with pytest.raises(OracleError):
        ode_solve(oracle, 0.9)  # y' = y^2 from 2 blows up at t = 0.5


def test_ode_step_doubling_check_fires_on_coarse_step():
    # strongly expanding linear flow: the default step is too coarse for
    # the 1e-10 doubling tolerance, which must be reported, not ignored
    oracle = OdeOracle(f=lambda y: 60.0 * y, u0=2.0, horizon=1.0)
    with pytest.raises(OracleError):
        ode_solve(oracle, 1.0)


# FD oracle -----------------------------------------------------------------


FD = FdOracle1d(half_width=6.0, grid_points=201, dt=1e-4)


def test_fd_constant_datum_tracks_ode_within_1e6():
    prob = constant_problem(2.0)
    ode_val = allen_cahn_reference(2.0, 0.5)
    for oracle in (FD, FdOracle1d(half_width=6.0, grid_points=200, dt=1e-4,
                                  boundary=Boundary.PERIODIC)):
        sol = fd_solve_1d(prob, oracle, 0.5)
        assert np.max(np.abs(sol.values - ode_val)) < 1e-6


def test_fd_zero_datum_stays_zero():
    prob = constant_problem(0.0)
    sol = fd_solve_1d(prob, FD, 0.5)
    assert sol.sup_abs == 0.0


def test_fd_even_datum_neumann_solution_even():
    prob = make_problem(dimension=1, horizon=0.5,
                        data=builtin_data("cosine_mean", 1, kappa=2.0))
    sol = fd_solve_1d(prob, FD, 0.5)
    assert np.max(np.abs(sol.values - sol.values[::-1])) < 1e-10


def test_fd_refinement_gap_below_1e4():
    prob = constant_problem(2.0)
    assert fd_refinement_gap(prob, FD, 0.5) < 1e-4
    periodic = FdOracle1d(half_width=6.0, grid_points=64, dt=5e-4,
                          boundary=Boundary.PERIODIC)
    assert fd_refinement_gap(prob, periodic, 0.5) < 1e-4


def test_fd_blow_up_reports_suggested_step():
    prob = constant_problem(5.0)
    coarse = FdOracle1d(half_width=6.0, grid_points=41, dt=0.1)
    with pytest.raises(OracleError) as err:
        fd_solve_1d(prob, coarse, 0.5)
    assert "dt" in str(err.value)


def test_fd_preconditions():
    prob2 = constant_problem(2.0, d=2)
    with pytest.raises(ValueError):
        fd_solve_1d(prob2, FD, 0.5)
    from mlpicard.problem import Orientation

    bwd = make_problem(dimension=1, horizon=0.5,
                       orientation=Orientation.BACKWARD)
    with pytest.raises(ValueError):
        fd_solve_1d(bwd, FD, 0.5)
    with pytest.raises(ValueError):
        fd_solve_1d(constant_problem(), FD, 0.7)
    with pytest.raises(ValueError):
        FdOracle1d(half_width=6.0, grid_points=2, dt=1e-4)


def test_fd_degenerate_grid_or_datum_is_value_error():
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="half_width"):
            FdOracle1d(half_width=bad, grid_points=201, dt=1e-4)
        with pytest.raises(ValueError, match="dt"):
            FdOracle1d(half_width=6.0, grid_points=201, dt=bad)
    prob = constant_problem(2.0)
    for J in (201, 3):
        # dx^2 underflows to 0 (J = 201) or to a subnormal (J = 3)
        tiny = FdOracle1d(half_width=1e-160, grid_points=J, dt=1e-4)
        with pytest.raises(ValueError, match="dt/dx"):
            fd_solve_1d(prob, tiny, 0.1)
    # builtins reject a non-finite kappa, so declare a finite one that lies
    nan_datum = make_problem(dimension=1, horizon=0.5, data=DataFunction(
        eval=lambda x: np.full(np.asarray(x).shape[:-1], math.nan),
        sup_bound_kappa=1.0))
    for boundary in Boundary:
        oracle = dataclasses.replace(FD, boundary=boundary)
        with pytest.raises(ValueError, match="datum"):
            fd_solve_1d(nan_datum, oracle, 0.1)


def test_fd_non_finite_reaction_is_oracle_error_on_both_boundaries():
    # exp(800) overflows on the first reaction substep
    exp_f = Nonlinearity(eval=lambda t, x, u: np.exp(u),
                         lipschitz_local=math.exp, coercivity_c=0.0)
    prob = make_problem(dimension=1, horizon=0.5, nonlinearity=exp_f,
                        data=builtin_constant_data(800.0))
    for boundary in Boundary:
        oracle = FdOracle1d(half_width=6.0, grid_points=21, dt=1e-3,
                            boundary=boundary)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(OracleError, match="blow-up"):
                fd_solve_1d(prob, oracle, 0.01)


# Mirror of fd_solve_1d at grid indices (0, J//4, J//2, J-1) and of
# fd_refinement_gap, as float.hex: (f, datum, kappa, half_width, J, dt,
# boundary, t, values, gap).  Pins the one Fourier diffusion solve bit for
# bit on both boundaries; test_fd_cosine_mode_matches_discrete_growth is
# the check that those bits are right.  The Neumann rows were re-pinned
# when that solve replaced a tridiagonal one and moved their values by
# rounding only (at most 2.9e-13 at J = 201 and 5.6e-14 at J = 41).
FD_MIRROR = [
    ("allen_cahn", "cosine_mean", 2.0, 6.0, 201, 1e-4, Boundary.NEUMANN, 0.1,
     ("0x1.60019d9bd914ep+0", "-0x1.820b33de5d248p+0",
      "0x1.84a391449d667p+0", "0x1.60019d9bd92d5p+0"),
     "0x1.580834e5da000p-13"),
    ("sine", "gaussian_bump", 1.5, 6.0, 41, 5e-4, Boundary.NEUMANN, 0.25,
     ("0x1.a4c8ac1000000p-23", "0x1.054d56a676dfap-6",
      "0x1.4a813ff179fc0p+0", "0x1.a4c8ac8800000p-23"),
     "0x1.420473b7fe000p-8"),
    ("allen_cahn", "cosine_mean", 1.0, math.pi, 64, 5e-4, Boundary.PERIODIC,
     0.25,
     ("-0x1.aca57cecdacd0p-1", "0x1.97afabfb78569p-49",
      "0x1.aca57cecdacd0p-1", "-0x1.aae8d31b14ec5p-1"),
     "0x1.2ffe898ef9800p-13"),
    ("sine", "gaussian_bump", 1.5, 6.0, 200, 1e-4, Boundary.PERIODIC, 0.1,
     ("0x1.8a295c28f5c29p-36", "0x1.2a752fbf08948p-9",
      "0x1.5d18873f00d45p+0", "0x1.bce6b851eb852p-36"),
     "0x1.944987ffbc000p-13"),
]


@pytest.mark.parametrize("case", FD_MIRROR, ids=lambda c: f"{c[0]}-{c[6].value}")
def test_fd_hardcoded_mirror(case):
    f, data, kappa, half_width, J, dt, boundary, t, values, gap = case
    prob = make_problem(dimension=1, horizon=0.5,
                        nonlinearity=builtin_nonlinearity(f),
                        data=builtin_data(data, 1, kappa=kappa))
    oracle = FdOracle1d(half_width=half_width, grid_points=J, dt=dt,
                        boundary=boundary)
    sol = fd_solve_1d(prob, oracle, t)
    got = tuple(sol.values[i].hex() for i in (0, J // 4, J // 2, J - 1))
    assert got == values
    assert fd_refinement_gap(prob, oracle, t).hex() == gap


def _fresh_interpreter(code):
    # stdout of code run in a new interpreter that imports this package
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(pathlib.Path(mlpicard.__file__).resolve().parents[1]),
        env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.strip()


def test_import_leaves_lapack_unloaded():
    # neither an import nor an FD solve on either boundary loads scipy.linalg
    assert _fresh_interpreter(
        "import sys, mlpicard, mlpicard.cli\n"
        "from mlpicard.oracles import Boundary, FdOracle1d, fd_solve_1d\n"
        "from mlpicard.problem import make_problem\n"
        "prob = make_problem(dimension=1, horizon=0.5)\n"
        "for boundary in Boundary:\n"
        "    fd_solve_1d(prob, FdOracle1d(half_width=6.0, grid_points=41,\n"
        "                                 dt=1e-3, boundary=boundary), 0.01)\n"
        "print('scipy.linalg' in sys.modules)") == "False"


def test_residual_oracle_loads_no_estimator_code():
    # the residual must not share code with the estimator it checks
    assert _fresh_interpreter(
        "import sys\n"
        "import numpy as np\n"
        "from mlpicard.oracles import fixed_point_residual\n"
        "from mlpicard.problem import make_problem\n"
        "fixed_point_residual(lambda t, x: np.full(len(t), 2.0),\n"
        "                     make_problem(dimension=1, horizon=0.5), 0.5,\n"
        "                     np.zeros(1), samples=100)\n"
        "print([m for m in ('mlpicard.estimator', 'mlpicard.experiments')\n"
        "       if m in sys.modules])") == "[]"


def test_fd_grid_geometry_and_interpolation():
    oracle = FdOracle1d(half_width=2.0, grid_points=5, dt=1e-3)
    assert oracle.dx == 1.0
    assert np.array_equal(oracle.grid(), np.array([-2.0, -1.0, 0.0, 1.0, 2.0]))
    prob = constant_problem(2.0)
    sol = fd_solve_1d(prob, oracle, 0.0)
    assert sol.at(0.37) == 2.0
    assert sol.sup_abs == 2.0
    periodic = FdOracle1d(half_width=2.0, grid_points=4, dt=1e-3,
                          boundary=Boundary.PERIODIC)
    assert periodic.dx == 1.0


@pytest.mark.parametrize("boundary", ["neumann", "periodic"])
def test_fd_boundary_word_builds_the_same_grid_as_the_member(boundary):
    # the word is converted, not read as "not Neumann", so a Neumann grid
    # keeps dx = 1.0 and reaches the right edge
    word = FdOracle1d(half_width=2.0, grid_points=5, dt=1e-3,
                      boundary=boundary)
    member = FdOracle1d(half_width=2.0, grid_points=5, dt=1e-3,
                        boundary=Boundary(boundary))
    assert word == member
    assert word.boundary is Boundary(boundary)


def test_fd_unknown_boundary_word_is_value_error():
    with pytest.raises(ValueError, match="'dirichlet' is not a valid"):
        FdOracle1d(half_width=2.0, grid_points=5, dt=1e-3,
                   boundary="dirichlet")


def _cosine_problem(a, kappa):
    return make_problem(dimension=1, horizon=0.5,
                        nonlinearity=builtin_nonlinearity("linear", a=a),
                        data=builtin_data("cosine_mean", 1, kappa=kappa))


def test_fd_periodic_interpolation_wraps_at_the_seam():
    oracle = FdOracle1d(half_width=math.pi, grid_points=64, dt=1e-3,
                        boundary=Boundary.PERIODIC)
    sol = fd_solve_1d(_cosine_problem(0.0, 1.0), oracle, 0.0)
    # halfway between the last node and the first one, a period on
    got = sol.at(math.pi - oracle.dx / 2.0)
    assert got == pytest.approx((sol.values[-1] + sol.values[0]) / 2.0,
                                abs=1e-15)
    assert got == pytest.approx(-0.997592, abs=1e-6)
    assert sol.at(3.0 * math.pi) == sol.at(math.pi) == sol.values[0]


def test_fd_neumann_interpolation_refuses_points_outside_the_domain():
    oracle = FdOracle1d(half_width=math.pi, grid_points=65, dt=1e-3)
    sol = fd_solve_1d(_cosine_problem(0.0, 1.0), oracle, 0.0)
    assert sol.at(math.pi) == sol.values[-1]
    for outside in (10.0, -math.pi - 1e-9, math.nan):
        with pytest.raises(ValueError, match="point"):
            sol.at(outside)


@pytest.mark.parametrize("boundary, J", [
    (Boundary.NEUMANN, 41), (Boundary.NEUMANN, 201),
    (Boundary.PERIODIC, 40), (Boundary.PERIODIC, 200)])
def test_fd_cosine_mode_matches_discrete_growth(boundary, J):
    # cos(x_i) is an eigenvector of the discrete Laplacian on both grids
    # (eigenvalue -(2 - 2 cos dx)/dx^2), so with f(u) = a u each step
    # multiplies it by the trapezoid factor over the implicit diffusion one
    a, kappa, t = -0.7, 1.5, 0.1
    oracle = FdOracle1d(half_width=math.pi, grid_points=J, dt=1e-3,
                        boundary=boundary)
    sol = fd_solve_1d(_cosine_problem(a, kappa), oracle, t)
    steps = math.ceil(t / oracle.dt)
    h = t / steps
    alpha = h / oracle.dx**2
    g = (1.0 + a * h + (a * h) ** 2 / 2.0) / (
        1.0 + alpha * (2.0 - 2.0 * math.cos(oracle.dx)))
    exact = kappa * g**steps * np.cos(oracle.grid())
    assert np.max(np.abs(sol.values - exact)) <= 1e-12 * kappa * g**steps


# Feynman-Kac fixed point ----------------------------------------------------


def test_residual_of_true_solution_within_3_se():
    prob = constant_problem(2.0)
    res, se = fixed_point_residual(true_solution(2.0), prob, 0.5, np.zeros(1),
                                   samples=10**5, seed=7)
    assert se > 0.0
    assert abs(res) <= 3.0 * se


def test_residual_detects_perturbed_reference():
    prob = constant_problem(2.0)
    shifted = lambda ts, xs: true_solution(2.0)(ts, xs) + 0.1
    res, se = fixed_point_residual(shifted, prob, 0.5, np.zeros(1),
                                   samples=10**5, seed=7)
    assert abs(res) > 3.0 * se
    assert abs(res) > 0.05  # bounded away from zero, not a marginal trip


def test_residual_zero_reference_zero_datum_exact():
    prob = constant_problem(0.0)
    zero_ref = lambda ts, xs: np.zeros(len(np.atleast_1d(ts)))
    res, se = fixed_point_residual(zero_ref, prob, 0.5, np.zeros(1),
                                   samples=1000, seed=3)
    assert res == 0.0
    assert se == 0.0


def test_residual_standard_error_scaling():
    prob = constant_problem(2.0)
    _, se4 = fixed_point_residual(true_solution(2.0), prob, 0.5, np.zeros(1),
                                  samples=10**4, seed=11)
    _, se6 = fixed_point_residual(true_solution(2.0), prob, 0.5, np.zeros(1),
                                  samples=10**6, seed=11)
    ratio = se4 / se6
    assert abs(ratio - 10.0) <= 2.0  # within 20% of samples^{-1/2} scaling


def test_residual_does_not_depend_on_chunk_size(monkeypatch):
    # d = 300 and 20 000 samples take three chunks by default
    d = 300
    prob = make_problem(dimension=d, horizon=0.5)
    u_ref = lambda ts, xs: np.exp(-np.asarray(ts)) * np.cos(xs.mean(axis=-1))
    x = np.linspace(-1.0, 1.0, d)
    default = fixed_point_residual(u_ref, prob, 0.5, x, samples=20_000, seed=4)
    monkeypatch.setattr(oracles, "_RESIDUAL_CHUNK", 300 * d)
    small = fixed_point_residual(u_ref, prob, 0.5, x, samples=20_000, seed=4)
    assert small == default


def test_residual_preconditions():
    prob = constant_problem(2.0)
    with pytest.raises(ValueError):
        fixed_point_residual(true_solution(2.0), prob, 0.5, np.zeros(1),
                             samples=1)
    with pytest.raises(ValueError):
        fixed_point_residual(true_solution(2.0), prob, 0.7, np.zeros(1),
                             samples=10)
    from mlpicard.problem import Orientation

    bwd = make_problem(dimension=1, horizon=0.5,
                       orientation=Orientation.BACKWARD)
    with pytest.raises(ValueError):
        fixed_point_residual(true_solution(2.0), bwd, 0.5, np.zeros(1),
                             samples=10)


# maximum principle ----------------------------------------------------------


def test_max_principle_ladder_passes():
    prob = constant_problem(2.0)
    gap = fd_refinement_gap(prob, FD, 0.5)
    ladder = [fd_solve_1d(prob, FD, t) for t in (0.0, 0.1, 0.25, 0.5)]
    report = max_principle_check(ladder, c=1.0, kappa=2.0,
                                 tolerance=1e-6 + gap)
    assert report.passed
    assert report.worst_margin < 0.0  # strict headroom, not tolerance-saved


def test_max_principle_zero_datum_passes():
    prob = constant_problem(0.0)
    sol = fd_solve_1d(prob, FD, 0.5)
    report = max_principle_check([sol], c=1.0, kappa=0.0, tolerance=0.0)
    assert report.passed  # bound >= 1 everywhere, solution identically 0


def test_max_principle_flags_injected_violation():
    prob = constant_problem(2.0)
    sol = fd_solve_1d(prob, FD, 0.5)
    bad_values = sol.values.copy()
    bad_values[17] = 10.0
    bad = dataclasses.replace(sol, values=bad_values)
    report = max_principle_check([bad], c=1.0, kappa=2.0, tolerance=1e-6)
    assert not report.passed
    assert report.worst_margin > 0.0


# CSV export ------------------------------------------------------------------


def test_write_curve_csv(tmp_path):
    path = tmp_path / "curve.csv"
    write_csv(str(path), ("t", "x", "value"), [(0.0, 0, 1.0), (0.5, 0, 1.175)])
    assert path.read_bytes() == b"t,x,value\n0.0,0,1.0\n0.5,0,1.175\n"
