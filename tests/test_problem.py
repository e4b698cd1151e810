"""Problem definitions, clamp semantics, schedules, sampled diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlpicard.problem import (
    Orientation,
    PdeProblem,
    TruncationSchedule,
    builtin_allen_cahn,
    builtin_data,
    builtin_linear,
    builtin_nonlinearity,
    builtin_sine,
    check_coercivity,
    check_data_bound,
    constant_schedule,
    default_schedule,
    diagnose_schedule,
    eval_truncated_f,
    make_problem,
    sampled_lipschitz,
    truncate_value,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e12, max_value=1e12)
radii = st.floats(min_value=1e-6, max_value=1e9)


def test_allen_cahn_values():
    nl = builtin_allen_cahn()
    t = np.zeros(1)
    x = np.zeros((1, 2))
    assert float(nl.eval(t, x, np.array([2.0]))[0]) == -6.0
    assert nl.lipschitz_local(1.0) == 6.0
    assert nl.coercivity_c == 1.0
    assert nl.f_at_zero == 0.0
    assert nl.autonomous


def test_allen_cahn_coercivity_hand_example():
    nl = builtin_allen_cahn()
    v = 3.0
    fv = float(nl.eval(np.zeros(1), np.zeros((1, 1)), np.array([v]))[0])
    assert v * fv <= nl.coercivity_c * (1.0 + v * v)
    assert v * fv == -72.0


def test_linear_and_sine_metadata():
    lin = builtin_linear(-0.5)
    assert float(lin.eval(np.zeros(1), np.zeros((1, 1)), np.array([4.0]))[0]) == -2.0
    assert lin.lipschitz_local(123.0) == 0.5
    assert lin.coercivity_c == 0.0
    sine = builtin_sine()
    assert sine.lipschitz_local(99.0) == 1.0
    assert sine.coercivity_c == 1.0
    assert sine.f_at_zero == 0.0


def test_nonlinearity_registry():
    assert builtin_nonlinearity("allen_cahn").name == "allen_cahn"
    assert builtin_nonlinearity("linear", a=2.0).name == "linear"
    with pytest.raises(ValueError):
        builtin_nonlinearity("linear")  # missing a
    with pytest.raises(ValueError):
        builtin_nonlinearity("allen_cahn", a=1.0)  # stray parameter
    with pytest.raises(ValueError):
        builtin_nonlinearity("cubic")


def test_data_registry():
    const = builtin_data("constant", 3, value=2.0)
    assert const.constant_value == 2.0
    assert const.sup_bound_kappa == 2.0
    with pytest.raises(ValueError):
        builtin_data("constant", 3)
    with pytest.raises(ValueError):
        builtin_data("cosine_mean", 3, kappa=1.0, extra=1)
    with pytest.raises(ValueError):
        builtin_data("mystery", 3)


def test_cosine_and_bump_respect_kappa():
    d = 4
    xs = np.random.default_rng(0).normal(size=(256, d)) * 3.0
    for name in ("cosine_mean", "gaussian_bump"):
        data = builtin_data(name, d, kappa=2.0)
        values = np.asarray(data.eval(xs))
        assert values.shape == (256,)
        assert np.all(np.abs(values) <= 2.0 + 1e-12)
        assert data.constant_value is None
    bump = builtin_data("gaussian_bump", d, kappa=2.0)
    assert float(np.asarray(bump.eval(np.zeros((1, d))))[0]) == 2.0


def test_default_schedule_values():
    sched = default_schedule()
    assert math.isclose(sched.radius_at(2), math.log(1.0 + math.log(2.0)))
    assert abs(sched.radius_at(2) - 0.5266) < 5e-4
    assert sched.radius_at(1) == sched.radius_at(2)
    assert sched.radius_at(10) > sched.radius_at(3)
    for n in (1, 2, 5, 64):
        assert sched.radius_at(n) > 0.0


def test_schedule_validation():
    sched = default_schedule()
    with pytest.raises(ValueError):
        sched.radius_at(0)
    with pytest.raises(ValueError):
        constant_schedule(0.0)
    assert constant_schedule(2.5).radius_at(17) == 2.5


def test_schedule_floor():
    sched = default_schedule(floor=3.0)
    assert sched.radius_at(2) == 3.0


@given(finite_floats, radii)
@settings(max_examples=300, deadline=None)
def test_clamp_idempotent_and_bounded(u, r):
    once = truncate_value(np.array([u]), r)[0]
    twice = truncate_value(np.array([once]), r)[0]
    assert once == twice
    assert abs(once) <= r


@given(finite_floats, radii)
@settings(max_examples=300, deadline=None)
def test_clamp_identity_inside_radius(u, r):
    if abs(u) <= r:
        assert truncate_value(np.array([u]), r)[0] == u


@given(finite_floats, finite_floats, radii)
@settings(max_examples=300, deadline=None)
def test_clamp_nonexpansive(v, w, r):
    cv = truncate_value(np.array([v]), r)[0]
    cw = truncate_value(np.array([w]), r)[0]
    assert abs(cv - cw) <= abs(v - w) * (1.0 + 1e-15) + 1e-300


def test_truncated_f_matches_plain_f_inside_radius():
    nl = builtin_allen_cahn()
    t = np.zeros(5)
    x = np.zeros((5, 1))
    u = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    for r1, r2 in ((1.0, 2.0), (1.0, 1.0), (1.5, 10.0)):
        lhs = eval_truncated_f(nl, t, x, u, r1)
        rhs = eval_truncated_f(nl, t, x, u, r2)
        plain = nl.eval(t, x, u)
        assert np.array_equal(lhs, rhs)
        assert np.array_equal(lhs, plain)


def test_truncated_f_globally_lipschitz():
    nl = builtin_allen_cahn()
    rng = np.random.default_rng(42)
    for r in (0.5, 1.0, 2.0, 5.0):
        L = nl.lipschitz_local(r)
        u = rng.normal(scale=10.0, size=4096)
        v = rng.normal(scale=10.0, size=4096)
        t = np.zeros(4096)
        x = np.zeros((4096, 1))
        fu = eval_truncated_f(nl, t, x, u, r)
        fv = eval_truncated_f(nl, t, x, v, r)
        assert np.all(np.abs(fu - fv) <= L * np.abs(u - v) + 1e-12)


def test_problem_validation():
    with pytest.raises(ValueError):
        make_problem(dimension=0, horizon=0.5)
    with pytest.raises(ValueError):
        make_problem(dimension=1, horizon=0.0)
    for horizon in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            make_problem(dimension=1, horizon=horizon)
    prob = make_problem(dimension=2, horizon=0.5,
                        orientation=Orientation.BACKWARD)
    assert prob.orientation is Orientation.BACKWARD
    assert isinstance(prob, PdeProblem)


def test_diagnose_default_schedule():
    nl = builtin_allen_cahn()
    diag = diagnose_schedule(default_schedule(), nl.lipschitz_local)
    assert diag.proxy
    assert diag.radii_nondecreasing
    assert diag.ratio_nonincreasing
    assert diag.ok


def test_sampled_lipschitz_below_declared():
    nl = builtin_allen_cahn()
    for r in (0.5, 1.0, 3.0):
        sampled = sampled_lipschitz(nl, r, dimension=2)
        assert sampled <= nl.lipschitz_local(r) + 1e-9


def test_check_coercivity_and_data_bound():
    nl = builtin_allen_cahn()
    assert check_coercivity(nl, dimension=2)
    data = builtin_data("cosine_mean", 3, kappa=2.0)
    assert check_data_bound(data, dimension=3)


def test_check_data_bound_catches_lying_kappa():
    from mlpicard.problem import DataFunction

    liar = DataFunction(
        eval=lambda x: np.full(np.asarray(x).shape[:-1], 5.0),
        sup_bound_kappa=1.0,
        constant_value=5.0,
        name="liar",
    )
    assert not check_data_bound(liar, dimension=2)
