"""Empirical RMSE of the diagonal scheme n = M against an ODE reference.

With a constant datum the solution is constant in space and solves the
scalar ODE y' = f(y), so the reference is cheap and independent of the
estimator.  On a short horizon the Picard fixed-point iteration that the
scheme samples is contractive and the measured RMSE falls with n; the
printed error bound is the analytic envelope, which is loose but shares
the trend.  Writes convergence.csv next to the script output.
"""

import numpy as np

from mlpicard.experiments import ConvergenceRow, rmse_vs_oracle, write_rows
from mlpicard.oracles import allen_cahn_reference
from mlpicard.problem import make_problem


def main():
    horizon = 0.1
    prob = make_problem(dimension=1, horizon=horizon)
    oracle = allen_cahn_reference(2.0, horizon)
    print(f"reference u(T, 0) = {oracle:.10f}  (T = {horizon}, datum 2)")

    rows = rmse_vs_oracle(prob, oracle, horizon, np.zeros(1),
                          n_list=(0, 1, 2, 3, 4, 5), K=400, seed=5)
    print(f"\n{'n=M':>4} {'rmse':>10} {'se(mean)':>10} "
          f"{'bound':>12} {'draws':>9} {'model':>9}")
    for row in rows:
        print(f"{row.n:>4} {row.rmse:>10.5f} {row.se_mean:>10.5f} "
              f"{row.error_bound:>12.4e} {row.gaussians_measured:>9} "
              f"{row.cost_model:>9}")

    write_rows("convergence.csv", ConvergenceRow, rows)
    print("\nwrote convergence.csv")
    ratios = [rows[i].rmse / rows[i + 1].rmse for i in range(1, len(rows) - 1)]
    print("rmse contraction per level:",
          " ".join(f"{r:.2f}x" for r in ratios))


if __name__ == "__main__":
    main()
