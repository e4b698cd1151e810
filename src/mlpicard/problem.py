"""Problem definitions: reaction terms, bounded data, truncation machinery.

A problem couples a semilinear heat equation with one of two orientations:

    Forward   d/dt u = Lap_x u + f(t, x, u),  datum u(0,.) given,
              diffusion sampled as x + sqrt(2) * (W_t - W_s)
    Backward  d/dt u + (1/2) Lap_x u + f(t, x, u) = 0,  datum u(T,.) given,
              diffusion sampled as x + (W_s - W_t)

The estimator never sees f directly; it sees the truncated reaction

    f_r(t, x, u) = f(t, x, min{r, max{-r, u}})

which is globally Lipschitz with constant ``lipschitz_local(r)`` whenever f
is locally Lipschitz.  The one radius rule is ``bounds.rho_min``: the
solution's a-priori bound, the smallest r for which the error bound is a
theorem.

Reaction and data callables must accept numpy arrays and broadcast: ``eval``
is called with t of shape (B,), x of shape (B, d), u of shape (B,) and must
return shape (B,).  Scalars work too.  All callables must be pure.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class Orientation(enum.Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


@dataclass(frozen=True)
class Nonlinearity:
    """Reaction term f with the metadata the error theory consumes.

    ``eval(t, x, u)`` gets one block of rows at a time, t (B,), x (B, d) and
    u (B,), with B set by the estimator's tiling; it must treat the rows
    independently, so that no value depends on how they are blocked.
    """

    eval: Callable[..., np.ndarray]
    lipschitz_local: Callable[[float], float]
    coercivity_c: float
    autonomous: bool = False
    f_at_zero: Optional[float] = None

    def __post_init__(self):
        if self.coercivity_c < 0.0:
            raise ValueError(f"coercivity_c must be >= 0, got {self.coercivity_c}")


@dataclass(frozen=True)
class DataFunction:
    """Bounded datum with its declared sup bound kappa.

    kappa enters the error constants; no finite sample can compute a true
    supremum, so it is declared (finite and >= 0), never measured.
    ``eval(x)`` gets one block of rows x (B, d) at a time, with B set by the
    estimator's tiling, and returns (B,); it must treat the rows
    independently, so that no value depends on how they are blocked.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    sup_bound_kappa: float
    constant_value: Optional[float] = None

    def __post_init__(self):
        if not 0.0 <= self.sup_bound_kappa < math.inf:
            raise ValueError(
                f"sup_bound_kappa must be finite and >= 0, got {self.sup_bound_kappa}"
            )


@dataclass(frozen=True)
class PdeProblem:
    dimension: int
    horizon: float
    orientation: Orientation
    nonlinearity: Nonlinearity
    data: DataFunction

    def __post_init__(self):
        if int(self.dimension) != self.dimension or self.dimension < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.dimension}")
        if not 0.0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be finite and > 0, got {self.horizon}")


def truncate_value(u, r: float):
    """Clamp to [-r, r]: min{r, max{-r, u}}.  Total, idempotent, nonexpansive."""
    if not r > 0.0:
        raise ValueError(f"truncation radius must be > 0, got {r}")
    return np.clip(u, -r, r)


def eval_truncated_f(nl: Nonlinearity, t, x, u, r: float):
    """The truncated reaction f_r(t,x,u) = f(t, x, clamp(u, r))."""
    return nl.eval(t, x, truncate_value(u, r))


# built-in nonlinearities, addressable by name from config files


def builtin_allen_cahn() -> Nonlinearity:
    """f(u) = u - u**3, evaluated as u - (u * u) * u.

    Two multiplies cost about a tenth of numpy's float ``power`` (80-100 ns
    per element), and f runs in every Picard correction and every FD
    reaction substep.  The product rounds twice where ``pow`` rounds once;
    it stays within 2 ulp of max(|u|, |u|^3), odd bit for bit, and exact
    at 0, so ``f_at_zero`` holds.  The cube is formed in its own array and
    the difference written over it, so an array u costs one new array.

    On [-r, r]: |f(v)-f(w)| <= (1 + v^2 + vw + w^2)|v-w| <= 2(1+2r^2)|v-w|,
    and v f(v) = v^2 - v^4 <= 1 + v^2, so L(r) = 2(1+2r^2) and c = 1.
    """
    def _eval(t, x, u):
        v = u * u
        v *= u
        if isinstance(v, np.ndarray):
            return np.subtract(u, v, out=v)
        return u - v  # scalar u

    return Nonlinearity(
        eval=_eval,
        lipschitz_local=lambda r: 2.0 * (1.0 + 2.0 * r * r),
        coercivity_c=1.0,
        autonomous=True,
        f_at_zero=0.0,
    )


def builtin_linear(a: float) -> Nonlinearity:
    """f(u) = a*u; L(r) = |a|, c = max(a, 0)."""
    if not math.isfinite(a):
        raise ValueError(f"linear coefficient a must be finite, got {a}")
    return Nonlinearity(
        eval=lambda t, x, u: a * u,
        lipschitz_local=lambda r: abs(a),
        coercivity_c=max(a, 0.0),
        autonomous=True,
        f_at_zero=0.0,
    )


def builtin_sine() -> Nonlinearity:
    """f(u) = sin(u); L(r) = 1 and v sin(v) <= |v| <= 1 + v^2, so c = 1."""
    return Nonlinearity(
        eval=lambda t, x, u: np.sin(u),
        lipschitz_local=lambda r: 1.0,
        coercivity_c=1.0,
        autonomous=True,
        f_at_zero=0.0,
    )


# built-in data functions


def builtin_constant_data(value: float) -> DataFunction:
    def _eval(x):
        x = np.asarray(x, dtype=np.float64)
        return np.full(x.shape[:-1], value, dtype=np.float64)

    return DataFunction(
        eval=_eval,
        sup_bound_kappa=abs(value),
        constant_value=value,
    )


def builtin_cosine_mean_data(kappa: float, dimension: int) -> DataFunction:
    """g(x) = kappa * cos(mean(x)); |g| <= kappa everywhere.

    Evaluated in the array of the means, so rows of x cost one new array.
    """

    def _eval(x):
        x = np.asarray(x, dtype=np.float64)
        g = np.asarray(x.mean(axis=-1))
        np.cos(g, out=g)
        g *= kappa
        return g[()]  # a scalar for a single point

    return DataFunction(eval=_eval, sup_bound_kappa=abs(kappa))


def builtin_gaussian_bump_data(kappa: float, dimension: int) -> DataFunction:
    """g(x) = kappa * exp(-|x|^2 / d); |g| <= kappa everywhere.

    Evaluated in the array of the squared norms, so past x * x, rows of x
    cost one new array.
    """
    d = dimension

    def _eval(x):
        x = np.asarray(x, dtype=np.float64)
        g = np.asarray((x * x).sum(axis=-1))
        np.negative(g, out=g)
        g /= d
        np.exp(g, out=g)
        g *= kappa
        return g[()]  # a scalar for a single point

    return DataFunction(eval=_eval, sup_bound_kappa=abs(kappa))


# kind -> name -> (parameter or None, its default or None if a caller must
# set it, builder): the one place that says which builtins config files
# name and which parameter each reads
_BUILTINS = {
    "nonlinearity": {
        "allen_cahn": (None, None, builtin_allen_cahn),
        "linear": ("a", None, builtin_linear),
        "sine": (None, None, builtin_sine),
    },
    "data": {
        "constant": ("value", 2.0,
                     lambda value, dimension: builtin_constant_data(value)),
        "cosine_mean": ("kappa", None, builtin_cosine_mean_data),
        "gaussian_bump": ("kappa", None, builtin_gaussian_bump_data),
    },
}


def builtin_parameters(kind: str) -> dict:
    """{name: (the parameter it reads or None, its default or None)} for
    each builtin of kind ("nonlinearity" or "data"), in registry order."""
    return {name: entry[:2] for name, entry in _BUILTINS[kind].items()}


def builtin_nonlinearity(name: str, **params) -> Nonlinearity:
    return _build_builtin("nonlinearity", name, params)


def builtin_data(name: str, dimension: int, **params) -> DataFunction:
    return _build_builtin("data", name, params, dimension)


def _build_builtin(kind, name, params, *args):
    registry = _BUILTINS[kind]
    if name not in registry:
        raise ValueError(f"unknown {kind} {name!r}; known: {', '.join(registry)}")
    param, default, build = registry[name]
    value = params.pop(param, default)  # None if the builtin reads none
    if params:
        raise ValueError(f"{name} {kind} reads no parameter {', '.join(params)}")
    if param is not None and value is None:
        raise ValueError(f"{name} {kind} needs parameter {param}")
    return build(*args) if param is None else build(float(value), *args)


def make_problem(
    dimension: int,
    horizon: float,
    orientation: Orientation = Orientation.FORWARD,
    nonlinearity: Optional[Nonlinearity] = None,
    data: Optional[DataFunction] = None,
) -> PdeProblem:
    """Convenience builder; defaults to Allen-Cahn with the constant datum
    at its default value."""
    return PdeProblem(
        dimension=dimension,
        horizon=horizon,
        orientation=orientation,
        nonlinearity=nonlinearity or builtin_allen_cahn(),
        data=data or builtin_data("constant", dimension),
    )
