"""What the FD oracle and the fixed-point residual certify.

FD: a one-dimensional finite-difference solve handles non-constant data
and certifies the growth envelope e^(ct) sqrt(1 + kappa^2) on sup|u|.
Residual: a Monte Carlo fixed-point test accepts or rejects a candidate
solution without ever solving anything, so it cross-checks the ODE
reference (`mlpicard oracle --config demos/ode_reference.ini`) and the FD
solve.
"""

import numpy as np

from mlpicard.bounds import apriori_sup_bound
from mlpicard.oracles import (
    FdOracle1d,
    fd_refinement_gap,
    fd_solve_1d,
    fixed_point_residual,
    max_principle_check,
)
from mlpicard.problem import builtin_cosine_mean_data, make_problem


def main():
    print("FD oracle, cosine datum, growth envelope check:")
    cosine = make_problem(dimension=1, horizon=0.5,
                          data=builtin_cosine_mean_data(2.0, 1))
    oracle = FdOracle1d(half_width=6.0, grid_points=201, dt=1e-4)
    times = (0.0, 0.1, 0.25, 0.5)
    solutions = [fd_solve_1d(cosine, oracle, t) for t in times]
    gap = fd_refinement_gap(cosine, oracle, 0.5)
    for t, sol in zip(times, solutions):
        print(f"  t={t:<5} sup|u|={sol.sup_abs:.6f}  "
              f"envelope={apriori_sup_bound(1.0, 2.0, t):.6f}")
    report = max_principle_check(solutions, c=1.0, kappa=2.0,
                                 tolerance=1e-6 + gap)
    print(f"  refinement gap {gap:.2e}; envelope check "
          f"{'passed' if report.passed else 'FAILED'} "
          f"(worst margin {report.worst_margin:+.3f})")

    print("\nfixed-point residual (accepts truth, rejects a 0.1 shift):")
    prob = make_problem(dimension=1, horizon=0.5)

    def u_ref(ts, xs):
        ts = np.asarray(ts, dtype=np.float64)
        return 2.0 * np.exp(ts) / np.sqrt(1.0 + 4.0 * np.expm1(2.0 * ts))

    res, se = fixed_point_residual(u_ref, prob, 0.5, np.zeros(1),
                                   samples=10 ** 5, seed=7)
    print(f"  reference: residual {res:+.5f} +- {se:.5f} "
          f"({abs(res) / se:.2f} se)")
    res, se = fixed_point_residual(lambda ts, xs: u_ref(ts, xs) + 0.1,
                                   prob, 0.5, np.zeros(1),
                                   samples=10 ** 5, seed=7)
    print(f"  shifted:   residual {res:+.5f} +- {se:.5f} "
          f"({abs(res) / se:.1f} se)")


if __name__ == "__main__":
    main()
