"""Forward and backward twins of one problem agree in law.

Allen-Cahn reaction f(u) = u - u^3 with constant datum 2 on a short
horizon, d = 10.  The backward twin of the problem (terminal datum at T)
is estimated at (0, 0), where it has the same law as the forward
estimator at (T, 0); the two batch means agree within their standard
errors.  The forward estimate itself, with its standard error and cost,
is `mlpicard estimate --config demos/point_estimate.ini`.
"""

import numpy as np

from mlpicard.bounds import rho_min
from mlpicard.estimator import MlpParams, estimate_batch, transform_to_backward
from mlpicard.problem import make_problem


def main():
    d = 10
    horizon = 0.05
    prob = make_problem(dimension=d, horizon=horizon)
    twin = transform_to_backward(prob)
    params = MlpParams(levels=4, branching=4, truncation_radius=rho_min(prob),
                       seed=1)
    one = estimate_batch(twin, params, 0.0, np.zeros(d), 1)[0]
    print(f"backward twin, n = M = 4, one realization at (0, 0): "
          f"{one.value:+.6f}")
    twin_reps = 100
    stats = []
    for label, problem, t in (("forward at (T, 0)", prob, horizon),
                              ("backward at (0, 0)", twin, 0.0)):
        batch = estimate_batch(problem, params, t, np.zeros(d),
                               repetitions=twin_reps)
        values = np.array([r.value for r in batch])
        stats.append((values.mean(), values.std(ddof=1) / np.sqrt(twin_reps)))
        print(f"  {label:<18}  mean = {stats[-1][0]:+.6f} "
              f"+- {stats[-1][1]:.6f}  ({twin_reps} repetitions)")
    (fwd, fwd_se), (bwd, bwd_se) = stats
    print(f"  |forward - backward| = "
          f"{abs(fwd - bwd) / np.hypot(fwd_se, bwd_se):.2f} standard errors")


if __name__ == "__main__":
    main()
