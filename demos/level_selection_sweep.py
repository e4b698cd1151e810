"""Accuracy-to-level rule and the near-linear cost-in-dimension sweep.

level_bounds(consts).select(eps) returns the least diagonal depth n = M
whose error envelope stays below eps from there on.  Feeding its output
into the cumulative cost and scaling by eps^(2+delta)/d flattens the table
if the cost law C = O(d eps^-(2+delta)) holds: the scaled column varies by
a bounded factor while raw cost spans orders of magnitude.  Constants here
are the flat-Lipschitz surrogate, whose diagonal envelope e^(m/2) m^(-m/2)
settles quickly; writes sweep.csv.
"""

from mlpicard.bounds import (
    cumulative_cost,
    error_bound,
    level_bounds,
    surrogate_constants,
)
from mlpicard.experiments import SweepRow, epsilon_sweep, write_rows


def main():
    consts = surrogate_constants()

    print("diagonal error envelope under the surrogate constants:")
    for m in (1, 2, 3, 4, 6, 8, 12, 16):
        print(f"  n = M = {m:>2}: bound = {error_bound(consts, m, m, 1.0):.3e}")

    eps_grid = [2.0 ** -k for k in range(1, 7)]
    table = level_bounds(consts)
    print(f"\n{'eps':>10} {'N(eps)':>7} {'cost at d=10':>13}")
    for eps in eps_grid:
        n = table.select(eps)
        print(f"{eps:>10.6f} {n:>7} {cumulative_cost(10, n):>13}")

    delta = 1.0
    sweep = epsilon_sweep(consts, delta=delta,
                          epsilon_list=eps_grid, d_list=[1, 10, 100])
    print(f"\nscaled cost = cumulative * eps^(2+{delta})/d:")
    print(f"{'eps':>10} {'d':>4} {'levels':>7} {'cumulative':>12} {'scaled':>12}")
    for row in sweep.rows:
        print(f"{row.epsilon:>10.6f} {row.d:>4} {row.levels:>7} "
              f"{row.cumulative_cost:>12} {row.scaled_cost:>12.1f}")
    spread = sweep.scaled_max / sweep.scaled_min
    print(f"\nscaled spread max/min = {spread:.1f}x "
          f"(raw cost spans {max(r.cumulative_cost for r in sweep.rows) / min(r.cumulative_cost for r in sweep.rows):.0f}x)")

    write_rows("sweep.csv", SweepRow, sweep.rows)
    print("wrote sweep.csv")


if __name__ == "__main__":
    main()
