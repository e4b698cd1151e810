"""The draw-count model: exact recursion, closed-form bound, measured tallies.

Three views of the same quantity:
  1. the recursion counting every scalar the estimator may draw,
  2. the closed-form envelope d(5M)^n that caps it,
  3. instrumented tallies from live runs, which never exceed the model
     (the model charges for reaction terms the zero-at-zero shortcut skips).
The model is exactly affine in the dimension, which is the whole point:
refining accuracy raises the exponent base, never the power of d.
"""

import numpy as np

from mlpicard.bounds import cost_bound, cost_recursion
from mlpicard.estimator import MlpParams, estimate_batch
from mlpicard.problem import make_problem


def main():
    print(f"{'d':>4} {'n':>2} {'M':>2} {'model':>12} {'bound d(5M)^n':>14}")
    for d in (1, 10, 100):
        for n, M in ((1, 1), (2, 2), (4, 4), (6, 6)):
            print(f"{d:>4} {n:>2} {M:>2} {cost_recursion(d, n, M):>12} "
                  f"{cost_bound(d, n, M):>14}")

    n, M = 3, 3
    c1, c2 = cost_recursion(1, n, M), cost_recursion(2, n, M)
    slope, intercept = c2 - c1, 2 * c1 - c2
    print(f"\naffinity at n = M = {n}: model(d) = {slope}*d + {intercept}")
    for d in (5, 50, 500):
        assert cost_recursion(d, n, M) == slope * d + intercept
        print(f"  d={d:>4}: predicted {slope * d + intercept:>8}, "
              f"recursion {cost_recursion(d, n, M):>8}")

    print(f"\nmeasured tallies vs model (T = 0.5, datum 2, r = 5):")
    print(f"{'d':>4} {'draws':>8} {'model':>8} {'slack':>7}")
    for d in (1, 10, 100):
        prob = make_problem(dimension=d, horizon=0.5)
        params = MlpParams(levels=n, branching=M, truncation_radius=5.0,
                           seed=0)
        tally = estimate_batch(prob, params, 0.5, np.zeros(d), 1)[0].tally
        model = cost_recursion(d, n, M)
        print(f"{d:>4} {tally.total_draws:>8} {model:>8} "
              f"{model - tally.total_draws:>7}")


if __name__ == "__main__":
    main()
