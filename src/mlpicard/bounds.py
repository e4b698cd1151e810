"""A-priori bounds, L2 error bounds, cost model, and level selection.

Everything here is closed-form arithmetic on declared constants:

  * a-priori solution bound   e^{c t} (1 + kappa^2)^{1/2}, which also gives
    the smallest truncation radius rho_min the error theory accepts;
  * the L2 error bound        e^{L(r)T} [kappa + T |f(0)|]
                                  * e^{M/2} (1 + 2 L(r) T)^n M^{-n/2};
  * the cost recursion        C(d,0,M) = 0,
        C(d,n,M) = (2d+1) M^n
                 + sum_{l=1..n-1} M^{n-l} (d + 1 + C(d,l,M) + C(d,l-1,M)),
    an equality-defined model of draws per realization, bounded by d (5M)^n;
  * the level-selection rule  N(eps) = least n with sup_{m >= n} bound(m,m,
    rho_min) <= eps, realized as a capped scan with a decreasing-tail check
    (the cap n_max at most N_MAX_LIMIT), built once per sweep.

rho_min is the package's one truncation-radius rule: estimation defaults
to it and level selection evaluates the bound at it.

Cost values are exact Python integers (arbitrary precision, so overflow
cannot occur silently or otherwise); an a-priori bound that overflows a
float raises OverflowError.  The error bound is a theorem only for
r >= rho_min; it is computed regardless.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

from .problem import PdeProblem

# log of the largest finite float: math.exp raises beyond it
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


class CapExceededError(RuntimeError):
    """Raised when ``LevelBounds.select`` finds no admissible level under
    its cap n_max; the message says why and gives the bound at n_max."""


@dataclass(frozen=True)
class BoundConstants:
    """Constants entering the error bound."""

    kappa: float
    f0_abs: float
    horizon: float
    coercivity_c: float
    lipschitz_local: Callable[[float], float]

    def __post_init__(self):
        if self.kappa < 0.0 or self.f0_abs < 0.0 or self.coercivity_c < 0.0:
            raise ValueError("kappa, f0_abs and coercivity_c must be >= 0")
        if not self.horizon > 0.0:
            raise ValueError(f"horizon must be > 0, got {self.horizon}")

    @classmethod
    def from_problem(cls, problem: PdeProblem) -> "BoundConstants":
        nl = problem.nonlinearity
        if nl.f_at_zero is None:
            raise ValueError("nonlinearity has no declared f_at_zero")
        return cls(
            kappa=problem.data.sup_bound_kappa,
            f0_abs=abs(nl.f_at_zero),
            horizon=problem.horizon,
            coercivity_c=nl.coercivity_c,
            lipschitz_local=nl.lipschitz_local,
        )


def surrogate_constants() -> BoundConstants:
    """L == 0, kappa = 1, f0 = 0: the bound collapses to e^{M/2} M^{-n/2}.

    Useful as a nonlinearity-free yardstick for level selection and
    complexity sweeps.
    """
    return BoundConstants(
        kappa=1.0,
        f0_abs=0.0,
        horizon=1.0,
        coercivity_c=0.0,
        lipschitz_local=lambda r: 0.0,
    )


def apriori_sup_bound(c: float, kappa: float, elapsed: float) -> float:
    """Growth bound on the solution: e^{c * elapsed} (1 + kappa^2)^{1/2}."""
    if not (c >= 0.0 and kappa >= 0.0):
        raise ValueError(f"c and kappa must be >= 0, got c={c}, kappa={kappa}")
    if elapsed < 0.0:
        raise ValueError(f"elapsed must be >= 0, got {elapsed}")
    bound = math.exp(c * elapsed) * math.sqrt(1.0 + kappa * kappa)
    if not math.isfinite(bound):
        raise OverflowError(
            f"a-priori bound e^(c t) (1 + kappa^2)^(1/2) overflows at c={c}, "
            f"kappa={kappa}, t={elapsed}"
        )
    return bound


def rho_min(problem: PdeProblem) -> float:
    """Smallest truncation radius for which the error bound is a theorem.

    Any r >= rho_min dominates the solution's a-priori sup over [0, T], so
    the truncation never bites on the exact solution.
    """
    return apriori_sup_bound(
        problem.nonlinearity.coercivity_c,
        problem.data.sup_bound_kappa,
        problem.horizon,
    )


def error_bound(consts: BoundConstants, n: int, M: int, r: float) -> float:
    """L2 error bound for the level-n estimator with branching M, radius r.

    A theorem only when r >= rho_min; computed unconditionally.  It never
    raises on size: inf where the bound exceeds the largest float, 0.0
    where it underflows or kappa + T |f(0)| is 0.
    """
    if n < 0 or M < 1:
        raise ValueError(f"need n >= 0 and M >= 1, got n={n}, M={M}")
    if not r > 0.0:
        raise ValueError(f"radius must be > 0, got {r}")
    L = consts.lipschitz_local(r)
    T = consts.horizon
    scale = consts.kappa + T * consts.f0_abs
    if scale == 0.0:
        return 0.0
    # summed in log space: a factor alone may overflow a float while the
    # product is finite or underflows; an exponent past the largest float
    # gives inf
    exponent = (L * T + M / 2.0 + math.log(scale)
                + n * (math.log1p(2.0 * L * T) - 0.5 * math.log(M)))
    return math.exp(exponent) if exponent < _LOG_FLOAT_MAX else math.inf


def cost_recursion(d: int, n: int, M: int) -> int:
    """Exact draw-count model per realization (equality-defined).

    Exact integer arithmetic throughout; Python integers are unbounded, so
    extreme (n, M) cannot wrap around.
    """
    if d < 1 or n < 0 or M < 1:
        raise ValueError(f"need d >= 1, n >= 0, M >= 1, got d={d}, n={n}, M={M}")
    costs = [0] * (n + 1)
    for level in range(1, n + 1):
        total = (2 * d + 1) * M**level
        for l in range(1, level):
            total += M ** (level - l) * (d + 1 + costs[l] + costs[l - 1])
        costs[level] = total
    return costs[n]


def cost_bound(d: int, n: int, M: int) -> int:
    """Closed-form bound d (5M)^n on the cost recursion."""
    if d < 1 or n < 1 or M < 1:
        raise ValueError(f"need d >= 1, n >= 1, M >= 1, got d={d}, n={n}, M={M}")
    return d * (5 * M) ** n


# the largest n_max level selection accepts.  The scan evaluates one bound
# per level up to n_max (10^6 levels took 7 s and 100 MB over a six-epsilon
# sweep), while no level past a few dozen can be run: a realization costs
# about d (5M)^n draws
N_MAX_LIMIT = 10_000


@dataclass(frozen=True)
class LevelBounds:
    """The diagonal error bounds of levels 1..n_max at the a-priori radius,
    computed once (``level_bounds``) and read for any epsilon."""

    bounds: tuple  # error_bound(m, m, r) for m = 1..n_max

    def select(self, epsilon: float) -> int:
        """Least n with bounds[m] <= epsilon for all m in [n, n_max].

        The true rule takes a supremum over all m >= n; the scan caps it at
        n_max and additionally requires the bound sequence to be
        nonincreasing on the last three levels, a finite proxy for the
        vanishing tail.  It scans down from n_max to the last level whose
        bound exceeds epsilon and returns the level above it (1 when no
        bound does).  When the cap binds a CapExceededError is raised: its
        message names n_max and the last three bounds when the tail is not
        settling, else epsilon, n_max and the bound at n_max, which then
        exceeds epsilon.
        """
        if not 0.0 < epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
        bounds, n_max = self.bounds, len(self.bounds)
        if not bounds[-3] >= bounds[-2] >= bounds[-1]:
            raise CapExceededError(
                f"cap exceeded: bound sequence not decreasing at n_max={n_max} "
                f"(tail {bounds[-3]:.3e}, {bounds[-2]:.3e}, {bounds[-1]:.3e}); "
                "the capped scan cannot stand in for the tail supremum")
        if not bounds[-1] <= epsilon:
            raise CapExceededError(
                f"cap exceeded: no level n <= {n_max} achieves bound <= "
                f"{epsilon:.3e} (bound at n_max {bounds[-1]:.3e})")
        n = n_max
        while n > 1 and bounds[n - 2] <= epsilon:
            n -= 1
        return n


def level_bounds(consts: BoundConstants, n_max: int = 64) -> LevelBounds:
    """error_bound(m, m, r) for m = 1..n_max, at r the a-priori bound of
    ``consts`` (rho_min of their problem).  n_max must lie in
    [3, N_MAX_LIMIT]; it is checked before any bound is computed."""
    if not 3 <= n_max <= N_MAX_LIMIT:
        raise ValueError(
            f"n_max must lie in [3, {N_MAX_LIMIT}], got {n_max}")
    r = apriori_sup_bound(consts.coercivity_c, consts.kappa, consts.horizon)
    return LevelBounds(tuple(error_bound(consts, m, m, r)
                             for m in range(1, n_max + 1)))


def cumulative_cost(d: int, N: int) -> int:
    """Total model cost of running the diagonal family n = M = 1..N."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    return sum(cost_recursion(d, n, n) for n in range(1, N + 1))
