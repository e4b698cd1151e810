"""Error bound, cost model, closed-form cost bound, level selection."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlpicard.bounds import (
    BoundConstants,
    CapExceededError,
    LevelBounds,
    apriori_sup_bound,
    cost_bound,
    cost_recursion,
    cumulative_cost,
    error_bound,
    level_bounds,
    rho_min,
    surrogate_constants,
)
from mlpicard.problem import make_problem


def test_apriori_sup_bound_values():
    assert apriori_sup_bound(0.0, 0.0, 3.7) == 1.0
    assert math.isclose(apriori_sup_bound(1.0, 2.0, 0.5),
                        math.exp(0.5) * math.sqrt(5.0))
    assert abs(apriori_sup_bound(1.0, 2.0, 0.5) - 3.6867) < 1e-3
    assert apriori_sup_bound(1.0, 3.0, 0.0) == math.sqrt(10.0)
    # kappa^2 overflows a float: an error, not an infinite radius
    with pytest.raises(OverflowError):
        apriori_sup_bound(1.0, 1e200, 0.5)
    with pytest.raises(ValueError):
        apriori_sup_bound(1.0, math.nan, 0.5)


def test_rho_min_values():
    prob = make_problem(dimension=1, horizon=0.5)
    assert math.isclose(rho_min(prob), math.exp(0.5) * math.sqrt(5.0))
    longer = make_problem(dimension=1, horizon=1.0)
    assert rho_min(longer) >= rho_min(prob)


def test_error_bound_surrogate_values():
    consts = surrogate_constants()  # kappa=1, f0=0, T=1, L(r) = 0
    assert math.isclose(error_bound(consts, 0, 1, 1.0), math.exp(0.5))
    diag16 = error_bound(consts, 16, 16, 1.0)
    assert math.isclose(diag16, math.exp(8.0) / 16.0**8)
    assert abs(diag16 - 6.94e-7) < 1e-9
    # diagonal decay: eventually decreasing and -> 0
    diag = [error_bound(consts, n, n, 1.0) for n in range(1, 61)]
    assert all(b > a for a, b in zip(diag[5:], diag[4:]))  # decreasing tail
    assert diag[-1] < 1e-30


def test_error_bound_allen_cahn_form():
    prob = make_problem(dimension=1, horizon=0.5)
    consts = BoundConstants.from_problem(prob)
    r = rho_min(prob)
    L = consts.lipschitz_local(r)
    n, M = 3, 3
    expected = (math.exp(L * 0.5) * (2.0 + 0.5 * 0.0) * math.exp(M / 2.0)
                * (1.0 + 2.0 * L * 0.5) ** n * M ** (-n / 2.0))
    assert math.isclose(error_bound(consts, n, M, r), expected)


def test_cost_recursion_hand_values():
    assert cost_recursion(1, 1, 2) == 6
    assert cost_recursion(1, 2, 2) == 28
    assert cost_recursion(10, 1, 3) == 63
    assert cost_recursion(5, 0, 4) == 0
    assert cost_recursion(7, 0, 1) == 0


def test_cost_recursion_validation():
    with pytest.raises(ValueError):
        cost_recursion(0, 1, 1)
    with pytest.raises(ValueError):
        cost_recursion(1, -1, 1)
    with pytest.raises(ValueError):
        cost_recursion(1, 1, 0)


def test_cost_bound_dominates_model_exhaustively():
    for d in (1, 10, 100):
        for n in range(1, 7):
            for M in range(1, 7):
                assert cost_recursion(d, n, M) <= cost_bound(d, n, M), (d, n, M)
    assert cost_bound(1, 1, 2) == 10
    assert cost_bound(1, 2, 2) == 100
    assert cost_bound(10, 1, 3) == 150


def test_cost_recursion_exactly_affine_in_d():
    for n, M in ((1, 1), (2, 3), (4, 2), (5, 5)):
        c1 = cost_recursion(1, n, M)
        c2 = cost_recursion(2, n, M)
        slope = c2 - c1
        intercept = c1 - slope
        for d in (3, 17, 100):
            assert cost_recursion(d, n, M) == slope * d + intercept, (n, M, d)


def test_cost_recursion_no_wraparound_at_large_inputs():
    # python integers are unbounded; the value must be exact, not clipped
    value = cost_recursion(100, 12, 12)
    assert value > 12**12  # far beyond any fixed-width wraparound artifact
    assert isinstance(value, int)


def test_cumulative_cost_telescoping_and_offset():
    assert cumulative_cost(1, 1) == cost_recursion(1, 1, 1) == 3
    for d in (1, 10):
        for N in range(1, 6):
            lhs = cumulative_cost(d, N + 1) - cumulative_cost(d, N)
            assert lhs == cost_recursion(d, N + 1, N + 1)
    with pytest.raises(ValueError):
        cumulative_cost(1, 0)


@pytest.mark.parametrize("alpha", [1, 2, 5])
def test_partial_sum_bound(alpha):
    # sum_{m=1..n} (alpha m)^m <= 2 (alpha n)^n
    for n in range(1, 11):
        total = sum((alpha * m) ** m for m in range(1, n + 1))
        assert total <= 2 * (alpha * n) ** n, (alpha, n)


def test_select_levels_surrogate_scan():
    consts = surrogate_constants()
    assert level_bounds(consts).select(1e-6) == 16
    # diagonal bound e^{m/2} m^{-m/2}: 1.649, 1.359, 0.862, ... so the
    # first level whose tail stays below 1.0 is 3
    assert level_bounds(consts).select(1.0) == 3
    grid = [2.0**-k for k in range(1, 7)]
    levels = [level_bounds(consts).select(eps) for eps in grid]
    assert levels == sorted(levels)  # nonincreasing in eps = nondecreasing here
    assert levels[0] == 4


def test_select_levels_returns_one_when_bound_tiny_everywhere():
    tiny = BoundConstants(kappa=1e-9, f0_abs=0.0, horizon=1.0,
                          coercivity_c=0.0, lipschitz_local=lambda r: 0.0)
    assert level_bounds(tiny).select(1.0) == 1
    zero = BoundConstants(kappa=0.0, f0_abs=0.0, horizon=1.0,
                          coercivity_c=0.0, lipschitz_local=lambda r: 0.0)
    assert level_bounds(zero).select(0.5) == 1


@given(st.floats(min_value=1e-8, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_select_levels_monotone_in_epsilon(eps):
    consts = surrogate_constants()
    n_lo = level_bounds(consts).select(eps)
    n_hi = level_bounds(consts).select(min(1.0, eps * 2.0))
    assert n_lo >= n_hi


def test_select_levels_cap_error_carries_diagnostics():
    consts = surrogate_constants()
    with pytest.raises(CapExceededError) as err:
        level_bounds(consts, 10).select(1e-6)
    # e^5 10^-5 = 1.484e-3 is the surrogate bound at n_max = 10
    assert str(err.value) == (
        "cap exceeded: no level n <= 10 achieves bound <= 1.000e-06 "
        "(bound at n_max 1.484e-03)")


_BOUND = st.one_of(st.floats(min_value=0.0, max_value=4.0),
                   st.sampled_from([0.0, 0.5, 1.0, math.inf]))


@given(st.lists(_BOUND, min_size=3, max_size=12),
       st.one_of(st.floats(min_value=1e-3, max_value=1.0),
                 st.sampled_from([0.5, 1.0])))
@settings(max_examples=300, deadline=None)
def test_select_matches_the_brute_force_rule(bounds, eps):
    # the least n with max(bounds[n-1:]) <= eps, or the cap error when the
    # last three bounds are not nonincreasing or no such n exists
    decreasing = bounds[-3] >= bounds[-2] >= bounds[-1]
    admissible = [n for n in range(1, len(bounds) + 1)
                  if max(bounds[n - 1:]) <= eps]
    if decreasing and admissible:
        assert LevelBounds(tuple(bounds)).select(eps) == admissible[0]
    else:
        with pytest.raises(CapExceededError):
            LevelBounds(tuple(bounds)).select(eps)


def test_select_levels_rejects_bad_epsilon():
    consts = surrogate_constants()
    for eps in (0.0, -1.0, 1.5):
        with pytest.raises(ValueError):
            level_bounds(consts).select(eps)


def test_bound_constants_validation():
    with pytest.raises(ValueError):
        BoundConstants(kappa=-1.0, f0_abs=0.0, horizon=1.0, coercivity_c=0.0,
                       lipschitz_local=lambda r: 0.0)
    with pytest.raises(ValueError):
        BoundConstants(kappa=1.0, f0_abs=0.0, horizon=0.0, coercivity_c=0.0,
                       lipschitz_local=lambda r: 0.0)


def test_from_problem_requires_declared_f0():
    from mlpicard.problem import Nonlinearity

    nl = Nonlinearity(eval=lambda t, x, u: u, lipschitz_local=lambda r: 1.0,
                      coercivity_c=1.0, autonomous=True, f_at_zero=None)
    prob = make_problem(dimension=1, horizon=0.5, nonlinearity=nl)
    with pytest.raises(ValueError):
        BoundConstants.from_problem(prob)


@pytest.mark.parametrize("horizon", [0.05, 0.5])
def test_select_levels_evaluates_the_bound_at_rho_min(horizon):
    # the error bound is a theorem only for r >= rho_min; selection must not
    # leave that range at any level it scans
    prob = make_problem(dimension=1, horizon=horizon)
    consts = BoundConstants.from_problem(prob)
    radii = []

    def recording(r):
        radii.append(r)
        return consts.lipschitz_local(r)

    recorded = dataclasses.replace(consts, lipschitz_local=recording)
    try:
        level_bounds(recorded).select(0.5)
    except CapExceededError:
        pass  # T = 0.5: the bound still rises at the cap, after a full scan
    assert len(radii) == 64
    assert set(radii) == {rho_min(prob)}
