"""Problem definitions, clamp semantics, metadata grid checks."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlpicard.bounds import rho_min
from mlpicard.problem import (
    DataFunction,
    Orientation,
    PdeProblem,
    builtin_allen_cahn,
    builtin_data,
    builtin_linear,
    builtin_nonlinearity,
    builtin_sine,
    eval_truncated_f,
    make_problem,
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


def test_allen_cahn_reaction_is_faithfully_rounded():
    # u - (u * u) * u rounds three times; against the exact rational u - u^3
    # it stays within 2 ulp of max(|u|, |u|^3), on [-r, r] for
    # r = ln(1 + ln 2), ln(1 + ln 64) and the default problem's rho_min
    nl = builtin_allen_cahn()
    f = lambda u: nl.eval(np.zeros(u.size), np.zeros((u.size, 1)), u)
    radii = (math.log(1.0 + math.log(2.0)), math.log(1.0 + math.log(64.0)),
             rho_min(make_problem(dimension=1, horizon=0.5)))
    tiny = math.ulp(0.0)
    u = np.concatenate([np.linspace(-r, r, 2001) for r in radii]
                       + [np.array([0.0, 1.0, -1.0, tiny, -tiny])])
    fu = f(u)
    for ui, fi in zip(u.tolist(), fu.tolist()):
        error = abs(Fraction(fi) - (Fraction(ui) - Fraction(ui) ** 3))
        assert error <= 2 * Fraction(math.ulp(max(abs(ui), abs(ui) ** 3))), ui
    # odd: equal nonzero floats share their bits, and f(1) = f(-1) = +0
    assert np.array_equal(f(-u), -fu)
    # |u|^3 past the float range overflows to the sign of -u, as pow does
    with np.errstate(over="ignore"):
        assert f(np.array([1e154, -1e154])).tolist() == [-math.inf, math.inf]
    # the estimator's skip_f0 path adds f_at_zero in place of f(0)
    assert f(np.zeros(1))[0].hex() == nl.f_at_zero.hex()
    assert float(nl.eval(0.0, np.zeros(1), 0.0)).hex() == nl.f_at_zero.hex()


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
    # each name reaches its own builder: L(1) = 6 is Allen-Cahn's, c = a linear's
    assert builtin_nonlinearity("allen_cahn").lipschitz_local(1.0) == 6.0
    assert builtin_nonlinearity("linear", a=2.0).coercivity_c == 2.0
    with pytest.raises(ValueError):
        builtin_nonlinearity("linear")  # missing a
    with pytest.raises(ValueError):
        builtin_nonlinearity("allen_cahn", a=1.0)  # stray parameter
    with pytest.raises(ValueError):
        builtin_nonlinearity("cubic")
    for a in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            builtin_nonlinearity("linear", a=a)


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
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            builtin_data("constant", 3, value=bad)
        with pytest.raises(ValueError, match="finite"):
            builtin_data("gaussian_bump", 3, kappa=bad)


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


def test_builtins_equal_their_textbook_forms_bit_for_bit():
    # each builtin evaluates in place in one new array; on arrays and on
    # scalars it must give the plain expression's bits and leave its input
    # as it was
    d, kappa = 3, 1.7
    rng = np.random.default_rng(5)
    textbook = {
        "cosine_mean": lambda x: kappa * np.cos(x.mean(axis=-1)),
        "gaussian_bump": lambda x: kappa * np.exp(-(x * x).sum(axis=-1) / d),
    }
    for x in (rng.normal(size=(257, d)) * 4.0, rng.normal(size=d)):
        before = x.copy()
        for name, plain in textbook.items():
            got = builtin_data(name, d, kappa=kappa).eval(x)
            want = plain(x)
            assert np.shape(got) == np.shape(want), name
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name
            assert x.tobytes() == before.tobytes(), name
    f = builtin_allen_cahn().eval
    u = np.concatenate([rng.normal(size=300) * 3.0, [0.0, -0.0, 1.0, -1e100]])
    before = u.copy()
    got = f(0.0, 0.0, u)
    assert got.tobytes() == (u - u * u * u).tobytes()
    assert u.tobytes() == before.tobytes()
    for v in (1.3, -0.25, 0.0, np.float64(2.5), np.array(-1.5)):
        got = f(0.0, 0.0, v)
        assert np.shape(got) == ()
        assert np.float64(got).tobytes() == np.float64(v - v * v * v).tobytes()


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


# grid checks of each builtin's declared metadata

METADATA_NONLINEARITIES = (
    ("allen_cahn", {}), ("linear", {"a": -0.5}), ("linear", {"a": 2.0}),
    ("sine", {}),
)


def test_sampled_lipschitz_below_declared():
    # |f(v) - f(w)| <= L(r) |v - w| for all pairs of a 201-point grid on [-r, r]
    for name, params in METADATA_NONLINEARITIES:
        nl = builtin_nonlinearity(name, **params)
        for r in (0.5, 1.0, 3.0):
            grid = np.linspace(-r, r, 201)
            f = nl.eval(np.zeros(grid.size), np.zeros((grid.size, 1)), grid)
            gap = np.abs(grid[:, None] - grid[None, :])
            lhs = np.abs(f[:, None] - f[None, :])
            bound = nl.lipschitz_local(r) * gap * (1.0 + 1e-12) + 1e-12
            assert np.all(lhs <= bound), (name, params, r)


def _within_kappa(data, dimension):
    """|g| <= kappa on a grid of [-10, 10]^d (21 points per axis, 2001 at d = 1)."""
    axis = np.linspace(-10.0, 10.0, 2001 if dimension == 1 else 21)
    x = np.stack(np.meshgrid(*[axis] * dimension), axis=-1).reshape(-1, dimension)
    return bool(np.all(np.abs(data.eval(x)) <= data.sup_bound_kappa))


def test_check_coercivity_and_data_bound():
    v = np.linspace(-10.0, 10.0, 2001)
    for name, params in METADATA_NONLINEARITIES:
        nl = builtin_nonlinearity(name, **params)
        fv = nl.eval(np.zeros(v.size), np.zeros((v.size, 1)), v)
        assert np.all(v * fv <= nl.coercivity_c * (1.0 + v * v) + 1e-9), name
    for name, param in (("constant", "value"), ("cosine_mean", "kappa"),
                        ("gaussian_bump", "kappa")):
        for d in (1, 3):
            for amplitude in (-1.5, 2.0):
                data = builtin_data(name, d, **{param: amplitude})
                assert _within_kappa(data, d), (name, d, amplitude)


def test_check_data_bound_catches_lying_kappa():
    # the grid check flags a datum whose declared kappa is too small
    liar = DataFunction(eval=lambda x: np.full(np.asarray(x).shape[:-1], 5.0),
                        sup_bound_kappa=1.0)
    assert not _within_kappa(liar, 2)
