"""Smallest possible run: one multilevel Picard estimate at a point.

Allen-Cahn reaction f(u) = u - u^3 with constant datum 2 on a short
horizon.  One realization is repetition 0 of a batch; a batch of K
repetitions draws K independent realizations, and their mean is the
estimate.  The backward twin of the problem (terminal datum at T) is
estimated at (0, 0), where it has the same law as the forward estimator
at (T, 0).
"""

import numpy as np

from mlpicard.bounds import cost_recursion, rho_min
from mlpicard.estimator import MlpParams, estimate_batch, transform_to_backward
from mlpicard.oracles import allen_cahn_reference
from mlpicard.problem import make_problem


def main():
    d = 10
    horizon = 0.05
    prob = make_problem(dimension=d, horizon=horizon)
    radius = rho_min(prob)
    print(f"problem: d={d}, T={horizon}, f(u)=u-u^3, datum 2")
    print(f"truncation radius floor rho = {radius:.6f} "
          "(any r >= rho leaves the true solution unclamped)")

    params = MlpParams(levels=5, branching=5, truncation_radius=radius, seed=0)
    one = estimate_batch(prob, params, horizon, np.zeros(d), 1)[0]
    print(f"\nsingle realization:  value = {one.value:+.6f}")
    print(f"  scalar draws = {one.tally.total_draws}, "
          f"cost model = {cost_recursion(d, 5, 5)}")

    reps = 200
    batch = estimate_batch(prob, params, horizon, np.zeros(d),
                           repetitions=reps)
    values = np.array([r.value for r in batch])
    mean = values.mean()
    se = values.std(ddof=1) / np.sqrt(reps)
    oracle = allen_cahn_reference(2.0, horizon)
    print(f"\n{reps} repetitions:  mean = {mean:+.6f} +- {se:.6f}")
    print(f"reference value:  {oracle:+.6f} "
          f"(|mean - ref| = {abs(mean - oracle) / se:.2f} standard errors)")

    twin = transform_to_backward(prob)
    small = MlpParams(levels=4, branching=4, truncation_radius=radius, seed=1)
    one = estimate_batch(twin, small, 0.0, np.zeros(d), 1)[0]
    print(f"\nbackward twin, n = M = 4, one realization at (0, 0): "
          f"{one.value:+.6f}")
    twin_reps = 100
    stats = []
    for label, problem, t in (("forward at (T, 0)", prob, horizon),
                              ("backward at (0, 0)", twin, 0.0)):
        batch = estimate_batch(problem, small, t, np.zeros(d),
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
