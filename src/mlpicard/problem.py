"""Problem definitions: reaction terms, bounded data, truncation machinery.

A problem couples a semilinear heat equation with one of two orientations:

    Forward   d/dt u = Lap_x u + f(t, x, u),  datum u(0,.) given,
              diffusion sampled as x + sqrt(2) * (W_t - W_s)
    Backward  d/dt u + (1/2) Lap_x u + f(t, x, u) = 0,  datum u(T,.) given,
              diffusion sampled as x + (W_s - W_t)

The estimator never sees f directly; it sees the truncated reaction

    f_r(t, x, u) = f(t, x, min{r, max{-r, u}})

which is globally Lipschitz with constant ``lipschitz_local(r)`` whenever f
is locally Lipschitz.  Truncation radii come from a per-level schedule.

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

from .randomness import NodeId


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
    name: str = "custom"

    def __post_init__(self):
        if self.coercivity_c < 0.0:
            raise ValueError(f"coercivity_c must be >= 0, got {self.coercivity_c}")


@dataclass(frozen=True)
class DataFunction:
    """Bounded datum with its declared sup bound kappa.

    kappa enters the error constants; no finite sample can compute a true
    supremum, so it is declared, and invariant checks only spot-verify it.
    ``eval(x)`` gets one block of rows x (B, d) at a time, with B set by the
    estimator's tiling, and returns (B,); it must treat the rows
    independently, so that no value depends on how they are blocked.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    sup_bound_kappa: float
    constant_value: Optional[float] = None
    name: str = "custom"

    def __post_init__(self):
        if self.sup_bound_kappa < 0.0:
            raise ValueError(f"sup_bound_kappa must be >= 0, got {self.sup_bound_kappa}")


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


@dataclass(frozen=True)
class TruncationSchedule:
    """Level-indexed truncation radii: radius_at(n) = max(raw(n), floor)."""

    raw: Callable[[int], float]
    floor: float = 0.0
    name: str = "custom"

    def __post_init__(self):
        if self.floor < 0.0:
            raise ValueError(f"floor must be >= 0, got {self.floor}")

    def radius_at(self, n: int) -> float:
        if n < 1:
            raise ValueError(f"schedule level must be >= 1, got {n}")
        r = max(float(self.raw(n)), self.floor)
        if not r > 0.0:
            raise ValueError(f"schedule produced nonpositive radius {r} at level {n}")
        return r


def truncate_value(u, r: float):
    """Clamp to [-r, r]: min{r, max{-r, u}}.  Total, idempotent, nonexpansive."""
    if not r > 0.0:
        raise ValueError(f"truncation radius must be > 0, got {r}")
    return np.clip(u, -r, r)


def eval_truncated_f(nl: Nonlinearity, t, x, u, r: float):
    """The truncated reaction f_r(t,x,u) = f(t, x, clamp(u, r))."""
    return nl.eval(t, x, truncate_value(u, r))


def default_schedule(floor: float = 0.0) -> TruncationSchedule:
    """radius_at(n) = ln(1 + ln(max(n, 2))).

    The argument clamps at 2 so level 1 gets a positive radius; the level-1
    scheme applies no truncated f anyway (its correction sum is empty).
    """
    return TruncationSchedule(
        raw=lambda n: math.log(1.0 + math.log(max(n, 2))),
        floor=floor,
        name="default",
    )


def constant_schedule(r: float) -> TruncationSchedule:
    if not r > 0.0:
        raise ValueError(f"constant schedule needs r > 0, got {r}")
    return TruncationSchedule(raw=lambda n: r, floor=0.0, name=f"constant({r:g})")


# built-in nonlinearities, addressable by name from config files


def builtin_allen_cahn() -> Nonlinearity:
    """f(u) = u - u**3.

    On [-r, r]: |f(v)-f(w)| <= (1 + v^2 + vw + w^2)|v-w| <= 2(1+2r^2)|v-w|,
    and v f(v) = v^2 - v^4 <= 1 + v^2, so L(r) = 2(1+2r^2) and c = 1.
    """
    return Nonlinearity(
        eval=lambda t, x, u: u - u**3,
        lipschitz_local=lambda r: 2.0 * (1.0 + 2.0 * r * r),
        coercivity_c=1.0,
        autonomous=True,
        f_at_zero=0.0,
        name="allen_cahn",
    )


def builtin_linear(a: float) -> Nonlinearity:
    """f(u) = a*u; L(r) = |a|, c = max(a, 0)."""
    return Nonlinearity(
        eval=lambda t, x, u: a * u,
        lipschitz_local=lambda r: abs(a),
        coercivity_c=max(a, 0.0),
        autonomous=True,
        f_at_zero=0.0,
        name="linear",
    )


def builtin_sine() -> Nonlinearity:
    """f(u) = sin(u); L(r) = 1 and v sin(v) <= |v| <= 1 + v^2, so c = 1."""
    return Nonlinearity(
        eval=lambda t, x, u: np.sin(u),
        lipschitz_local=lambda r: 1.0,
        coercivity_c=1.0,
        autonomous=True,
        f_at_zero=0.0,
        name="sine",
    )


def builtin_nonlinearity(name: str, **params) -> Nonlinearity:
    if name == "allen_cahn":
        _reject_params("allen_cahn", params)
        return builtin_allen_cahn()
    if name == "linear":
        a = params.pop("a", None)
        _reject_params("linear", params)
        if a is None:
            raise ValueError("linear nonlinearity needs parameter a")
        return builtin_linear(float(a))
    if name == "sine":
        _reject_params("sine", params)
        return builtin_sine()
    raise ValueError(f"unknown nonlinearity {name!r}; known: allen_cahn, linear, sine")


# built-in data functions


def builtin_constant_data(value: float) -> DataFunction:
    def _eval(x):
        x = np.asarray(x, dtype=np.float64)
        return np.full(x.shape[:-1], value, dtype=np.float64)

    return DataFunction(
        eval=_eval,
        sup_bound_kappa=abs(value),
        constant_value=value,
        name="constant",
    )


def builtin_cosine_mean_data(kappa: float, dimension: int) -> DataFunction:
    """g(x) = kappa * cos(mean(x)); |g| <= kappa everywhere."""

    def _eval(x):
        x = np.asarray(x, dtype=np.float64)
        return kappa * np.cos(x.mean(axis=-1))

    return DataFunction(eval=_eval, sup_bound_kappa=abs(kappa), name="cosine_mean")


def builtin_gaussian_bump_data(kappa: float, dimension: int) -> DataFunction:
    """g(x) = kappa * exp(-|x|^2 / d); |g| <= kappa everywhere."""
    d = dimension

    def _eval(x):
        x = np.asarray(x, dtype=np.float64)
        return kappa * np.exp(-(x * x).sum(axis=-1) / d)

    return DataFunction(eval=_eval, sup_bound_kappa=abs(kappa), name="gaussian_bump")


def builtin_data(name: str, dimension: int, **params) -> DataFunction:
    if name == "constant":
        value = params.pop("value", None)
        _reject_params("constant", params)
        if value is None:
            raise ValueError("constant data needs parameter value")
        return builtin_constant_data(float(value))
    if name == "cosine_mean":
        kappa = params.pop("kappa", None)
        _reject_params("cosine_mean", params)
        if kappa is None:
            raise ValueError("cosine_mean data needs parameter kappa")
        return builtin_cosine_mean_data(float(kappa), dimension)
    if name == "gaussian_bump":
        kappa = params.pop("kappa", None)
        _reject_params("gaussian_bump", params)
        if kappa is None:
            raise ValueError("gaussian_bump data needs parameter kappa")
        return builtin_gaussian_bump_data(float(kappa), dimension)
    raise ValueError(
        f"unknown data function {name!r}; known: constant, cosine_mean, gaussian_bump"
    )


def _reject_params(name, params):
    if params:
        raise ValueError(f"unexpected parameters for {name}: {sorted(params)}")


def make_problem(
    dimension: int,
    horizon: float,
    orientation: Orientation = Orientation.FORWARD,
    nonlinearity: Optional[Nonlinearity] = None,
    data: Optional[DataFunction] = None,
) -> PdeProblem:
    """Convenience builder; defaults to Allen-Cahn with constant datum 2."""
    if nonlinearity is None:
        nonlinearity = builtin_allen_cahn()
    if data is None:
        data = builtin_constant_data(2.0)
    return PdeProblem(
        dimension=dimension,
        horizon=horizon,
        orientation=orientation,
        nonlinearity=nonlinearity,
        data=data,
    )


# sampled diagnostics: spot checks of the declared metadata, never proofs


@dataclass(frozen=True)
class ScheduleDiagnostic:
    """Finite-window proxy for schedule admissibility.

    The theory needs L(rho_n)/ln(n) -> 0 and rho_n -> infinity; no finite
    window can verify a limit, so this reports monotonicity trends on
    [2, n_max] and is labeled a proxy.
    """

    window: tuple[int, int]
    radii_nondecreasing: bool
    ratio_nonincreasing: bool
    proxy: bool = True

    @property
    def ok(self) -> bool:
        return self.radii_nondecreasing and self.ratio_nonincreasing


def diagnose_schedule(
    schedule: TruncationSchedule,
    lipschitz_local: Callable[[float], float],
    n_max: int = 64,
) -> ScheduleDiagnostic:
    levels = range(2, n_max + 1)
    radii = [schedule.radius_at(n) for n in levels]
    ratios = [lipschitz_local(r) / math.log(n) for n, r in zip(levels, radii)]
    eps = 1e-12
    nondec = all(b >= a - eps for a, b in zip(radii, radii[1:]))
    noninc = all(b <= a + eps for a, b in zip(ratios, ratios[1:]))
    return ScheduleDiagnostic(
        window=(2, n_max),
        radii_nondecreasing=nondec,
        ratio_nonincreasing=noninc,
    )


def sampled_lipschitz(
    nl: Nonlinearity,
    r: float,
    dimension: int = 1,
    samples: int = 512,
    seed: int = 0,
    t_range: tuple[float, float] = (0.0, 1.0),
    x_scale: float = 1.0,
) -> float:
    """Sampled sup of |f(t,x,v)-f(t,x,w)| / |v-w| over [-r, r] pairs.

    Diagnostic only: a sampled estimate never certifies a Lipschitz constant.
    """
    node = NodeId((90001,))
    us = _probe_uniforms(node, seed, samples * (dimension + 3))
    us = us.reshape(samples, dimension + 3)
    t0, t1 = t_range
    t = t0 + (t1 - t0) * us[:, 0]
    x = x_scale * (2.0 * us[:, 1 : dimension + 1] - 1.0)
    v = r * (2.0 * us[:, dimension + 1] - 1.0)
    w = r * (2.0 * us[:, dimension + 2] - 1.0)
    gap = np.abs(v - w)
    keep = gap > 1e-9
    fv = nl.eval(t[keep], x[keep], v[keep])
    fw = nl.eval(t[keep], x[keep], w[keep])
    return float(np.max(np.abs(fv - fw) / gap[keep]))


def check_coercivity(
    nl: Nonlinearity,
    dimension: int = 1,
    samples: int = 512,
    seed: int = 0,
    v_scale: float = 10.0,
    t_range: tuple[float, float] = (0.0, 1.0),
    x_scale: float = 1.0,
) -> bool:
    """Spot check v*f(t,x,v) <= c(1+v^2) on a random grid."""
    node = NodeId((90002,))
    us = _probe_uniforms(node, seed, samples * (dimension + 2))
    us = us.reshape(samples, dimension + 2)
    t0, t1 = t_range
    t = t0 + (t1 - t0) * us[:, 0]
    x = x_scale * (2.0 * us[:, 1 : dimension + 1] - 1.0)
    v = v_scale * (2.0 * us[:, dimension + 1] - 1.0)
    lhs = v * nl.eval(t, x, v)
    rhs = nl.coercivity_c * (1.0 + v * v)
    return bool(np.all(lhs <= rhs + 1e-9))


def check_data_bound(data: DataFunction, dimension: int, samples: int = 512,
                     seed: int = 0, x_scale: float = 10.0) -> bool:
    """Spot check |g(x)| <= kappa on a random grid."""
    node = NodeId((90003,))
    us = _probe_uniforms(node, seed, samples * dimension).reshape(samples, dimension)
    x = x_scale * (2.0 * us - 1.0)
    vals = data.eval(x)
    return bool(np.all(np.abs(vals) <= data.sup_bound_kappa + 1e-9))


def _probe_uniforms(node: NodeId, seed: int, count: int) -> np.ndarray:
    from .randomness import path_digest, uniforms_vec

    digest = np.uint64(path_digest(seed, node.path))
    return uniforms_vec(digest, np.arange(count))
