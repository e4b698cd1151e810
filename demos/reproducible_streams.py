"""Counter-based randomness: every draw is addressed, none are sequenced.

Each node of the recursion tree owns a stream keyed by (seed, path); a
draw is a pure function of that address, so results cannot depend on
evaluation order, chunk size, or thread count.  The frozen recipe is
pinned by golden values shipped with the package.
"""

import importlib.resources

import numpy as np

from mlpicard.estimator import MlpParams, estimate_batch
from mlpicard.problem import make_problem
from mlpicard.randomness import gaussian_vector, uniform01


def main():
    print("node-addressed draws (seed 0):")
    # a child's path extends its parent's by (k, m)
    for path in ((4,), (4, 0, 1), (4, 0, -1), (4, 2, 1)):
        z = gaussian_vector(0, path, 1, 2)
        print(f"  node {str(path):>14}: u = {uniform01(0, path, 0):.6f}, "
              f"z = ({z[0]:+.4f}, {z[1]:+.4f})")
    print("  (sign of the child index separates the minuend and subtrahend")
    print("   streams of one correction; they never share draws)")

    print("\nfirst golden lines pinning the recipe:")
    golden = importlib.resources.files("mlpicard") / "golden_rng.txt"
    lines = [line for line in golden.read_text(encoding="utf-8").splitlines()
             if line.strip() and not line.startswith("#")]
    for line in lines[:4]:
        print(" ", line)

    prob = make_problem(dimension=3, horizon=0.5)
    params = MlpParams(levels=3, branching=3, truncation_radius=10.0, seed=1)
    runs = {
        w: [r.value for r in estimate_batch(prob, params, 0.5, np.zeros(3),
                                            repetitions=16, worker_count=w)]
        for w in (1, 4)
    }
    print("\nsame batch with 1 worker and 4 workers:")
    print(f"  first three values: {[f'{v:.9f}' for v in runs[1][:3]]}")
    print(f"  bit-identical: {runs[1] == runs[4]}")

    shifted = MlpParams(levels=3, branching=3, truncation_radius=10.0, seed=2)
    other = [r.value for r in estimate_batch(prob, shifted, 0.5, np.zeros(3),
                                             repetitions=16)]
    print(f"  different seed differs:  {other != runs[1]}")


if __name__ == "__main__":
    main()
