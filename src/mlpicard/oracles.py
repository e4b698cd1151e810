"""Independent reference solutions and consistency checks.

None of this shares code with the estimator: the point is to catch a wrong
estimator with machinery that cannot be wrong in the same way.

  * ODE reduction: with a spatially constant datum and autonomous f, the
    solution of either orientation is constant in x and solves y' = f(y).
    Classical fixed-step RK4 with a step-doubling self-check.
  * 1-D finite differences for d/dt u = u_xx + f(u): implicit diffusion
    (unconditionally stable), solved in Fourier space on either boundary
    (numpy's FFT; a Neumann grid through its even extension, the DCT-I),
    plus explicit reaction (IMEX), reaction
    substep by the explicit trapezoid rule so spatially constant states
    follow the ODE reduction to second order in dt.  The explicit part
    needs dt < 2 / sup|f'(u)| along the solution; the solver does not know
    f', so the margin is the caller's job and blow-up detection is the
    backstop.
  * Feynman-Kac fixed-point residual: a true solution satisfies
        u(t,x) = E[ u(0, X_{0,t,x}) + t * f(R, X_{R,t,x}, u(R, X_{R,t,x})) ]
    with R uniform on [0, t] (single uniform time in place of the time
    integral, the same identity the estimator uses).  The residual of a
    candidate reference is estimated by Monte Carlo with its standard
    error; a broken reference shows up as a residual many SEs from zero.
  * Maximum principle: sup_x |u(t,x)| <= e^{c t} (1 + kappa^2)^{1/2} for
    coercive f, checked on FD output ladders.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .problem import Orientation, PdeProblem
from .randomness import absorb_vec, gaussians_vec, path_digest, uniforms_vec


class OracleError(RuntimeError):
    """Numeric failure inside an oracle (blow-up, failed self-check)."""


def allen_cahn_constant_solution(u0: float, t: float) -> float:
    """Closed form for y' = y - y^3, y(0) = u0:

        y(t) = u0 e^t (1 + u0^2 (e^{2t} - 1))^{-1/2}

    The radicand is >= 1 for t >= 0, so the form is stable as written.
    """
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    e2t = math.expm1(2.0 * t)  # e^{2t} - 1, accurate near 0
    return u0 * math.exp(t) / math.sqrt(1.0 + u0 * u0 * e2t)


@dataclass(frozen=True)
class OdeOracle:
    """Fixed-step classical RK4 for y' = f(y), y(0) = u0."""

    f: Callable[[float], float]
    u0: float
    horizon: float
    h: float = 0.0  # 0 means horizon / 1000

    BLOWUP = 1e10
    DOUBLING_TOL = 1e-10

    def __post_init__(self):
        if not math.isfinite(self.u0):
            raise ValueError(f"u0 must be finite, got {self.u0}")
        if not self.horizon > 0.0:
            raise ValueError(f"horizon must be > 0, got {self.horizon}")
        h = self.h if self.h else self.horizon / 1000.0
        if not 0.0 < h <= self.horizon / 100.0:
            raise ValueError(
                f"step must satisfy 0 < h <= horizon/100, got h={h}"
            )
        object.__setattr__(self, "h", h)

    def _integrate(self, t: float, steps: int) -> float:
        y = float(self.u0)
        dt = t / steps
        f = self.f
        for _ in range(steps):
            k1 = f(y)
            k2 = f(y + 0.5 * dt * k1)
            k3 = f(y + 0.5 * dt * k2)
            k4 = f(y + dt * k3)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not math.isfinite(y) or abs(y) > self.BLOWUP:
                raise OracleError(
                    f"ODE blow-up: |y| > {self.BLOWUP:g} during integration"
                )
        return y


def ode_solve(oracle: OdeOracle, t: float) -> float:
    """y(t) with a step-doubling self-check below 1e-10.

    Integrates with steps <= h and again with half steps; disagreement
    beyond the tolerance is an error (the step is too coarse for this f).
    """
    if not 0.0 <= t <= oracle.horizon:
        raise ValueError(f"t must lie in [0, {oracle.horizon}], got {t}")
    if t == 0.0:
        return float(oracle.u0)
    steps = max(1, math.ceil(t / oracle.h))
    coarse = oracle._integrate(t, steps)
    fine = oracle._integrate(t, 2 * steps)
    if abs(coarse - fine) >= oracle.DOUBLING_TOL:
        raise OracleError(
            f"step-doubling check failed: |{coarse!r} - {fine!r}| = "
            f"{abs(coarse - fine):.3e} >= {oracle.DOUBLING_TOL:g}; reduce h"
        )
    return fine


def allen_cahn_reference(u0: float, t: float) -> float:
    """RK4 value for y' = y - y^3 cross-checked against the closed form.

    The two must agree to 1e-8; tests that consume this value inherit the
    gate.  Returns the RK4 (step-doubled) value.
    """
    oracle = OdeOracle(f=lambda y: y - y**3, u0=u0, horizon=max(t, 1e-6))
    rk4 = ode_solve(oracle, t)
    closed = allen_cahn_constant_solution(u0, t)
    if abs(rk4 - closed) > 1e-8:
        raise OracleError(
            f"RK4 and closed form disagree: {rk4!r} vs {closed!r} "
            f"(gap {abs(rk4 - closed):.3e} > 1e-8)"
        )
    return rk4


class Boundary(enum.Enum):
    NEUMANN = "neumann"
    PERIODIC = "periodic"


@dataclass(frozen=True)
class FdOracle1d:
    """IMEX grid solver for d/dt u = u_xx + f(u) on [-half_width, half_width]."""

    half_width: float
    grid_points: int
    dt: float
    boundary: Boundary = Boundary.NEUMANN

    def __post_init__(self):
        # a boundary word is converted; an unknown one is a ValueError
        object.__setattr__(self, "boundary", Boundary(self.boundary))
        if not 0.0 < self.half_width < math.inf:
            raise ValueError(
                f"half_width must be finite and > 0, got {self.half_width}"
            )
        if self.grid_points < 3:
            raise ValueError(f"grid_points must be >= 3, got {self.grid_points}")
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")

    @property
    def dx(self) -> float:
        if self.boundary is Boundary.NEUMANN:
            return 2.0 * self.half_width / (self.grid_points - 1)
        return 2.0 * self.half_width / self.grid_points

    def grid(self) -> np.ndarray:
        return -self.half_width + self.dx * np.arange(self.grid_points)


@dataclass(frozen=True)
class FdSolution:
    t: float
    values: np.ndarray
    oracle: FdOracle1d

    @property
    def x(self) -> np.ndarray:
        return self.oracle.grid()

    def at(self, point: float) -> float:
        """Linear interpolation of the grid values.  A periodic grid wraps
        at its seam; a point outside a Neumann domain is a ValueError."""
        half_width = self.oracle.half_width
        if self.oracle.boundary is Boundary.PERIODIC:
            return float(np.interp(point, self.x, self.values,
                                   period=2.0 * half_width))
        if not -half_width <= point <= half_width:
            raise ValueError(
                f"point must lie in [-{half_width}, {half_width}], got {point}"
            )
        return float(np.interp(point, self.x, self.values))

    @property
    def sup_abs(self) -> float:
        return float(np.max(np.absolute(self.values)))


def fd_solve_1d(problem: PdeProblem, oracle: FdOracle1d, t: float) -> FdSolution:
    """Grid approximation of u(t, .) for the forward d = 1 problem.

    Diffusion steps implicitly, the reaction explicitly.  The effective
    step is t/ceil(t/dt) <= dt.  NaN/inf or |u| > 1e10 aborts with a
    suggested dt.

    Both boundaries share one diffusion solve: a real FFT, a division by
    the eigenvalues of (I - dt Lap) and the inverse FFT.  A Neumann grid
    is solved through its even extension (a DCT-I; Strang, SIAM Review
    41, 1999), so its values agree with a tridiagonal solve to rounding,
    not bit for bit.  A datum that is not finite on the grid, or a grid so
    fine that dt/dx^2 is not finite, is a ValueError.
    """
    if problem.orientation is not Orientation.FORWARD:
        raise ValueError("fd_solve_1d expects the forward orientation")
    if problem.dimension != 1:
        raise ValueError(f"fd_solve_1d is 1-D only, got d={problem.dimension}")
    if not 0.0 <= t <= problem.horizon:
        raise ValueError(f"t must lie in [0, {problem.horizon}], got {t}")

    x = oracle.grid()
    u = np.asarray(problem.data.eval(x[:, None]), dtype=np.float64).copy()
    if not np.all(np.isfinite(u)):
        raise ValueError("the datum is not finite on the FD grid")
    if t == 0.0:
        return FdSolution(0.0, u, oracle)

    steps = max(1, math.ceil(t / oracle.dt))
    dt = t / steps
    dx2 = oracle.dx**2
    alpha = dt / dx2 if dx2 > 0.0 else math.inf
    if not math.isfinite(alpha):
        raise ValueError(
            f"dt/dx^2 is not finite (dx = {oracle.dx:g}); the grid is too fine"
        )
    nl = problem.nonlinearity
    J = oracle.grid_points

    # (I - dt Lap) is circulant on a periodic grid; with mirrored ghosts it
    # is the circulant operator on the Neumann nodes' even extension, of
    # period 2(J - 1).  Either way its Fourier modes diagonalise it.
    neumann = oracle.boundary is Boundary.NEUMANN
    period = 2 * (J - 1) if neumann else J
    modes = np.arange(period // 2 + 1)
    eig = 1.0 + alpha * (2.0 - 2.0 * np.cos(2.0 * np.pi * modes / period))

    time = 0.0
    for _ in range(steps):
        # explicit trapezoid for the reaction, then implicit diffusion
        fu = np.asarray(nl.eval(time, x[:, None], u), dtype=np.float64)
        pred = u + dt * fu
        fp = np.asarray(nl.eval(time + dt, x[:, None], pred), dtype=np.float64)
        rhs = u + 0.5 * dt * (fu + fp)
        if neumann:
            rhs = np.concatenate((rhs, rhs[-2:0:-1]))
        u = np.fft.irfft(np.fft.rfft(rhs) / eig, n=period)[:J]
        time += dt
        if not np.abs(u).max() <= 1e10:  # also true for NaN
            raise OracleError(
                f"FD blow-up at t={time:.6g}; the explicit reaction step is "
                f"unstable here, retry with dt <= {dt / 4.0:g}"
            )
    return FdSolution(t, u, oracle)


def fd_refinement_gap(problem: PdeProblem, oracle: FdOracle1d, t: float) -> float:
    """Max change at shared grid points when doubling J and halving dt."""
    coarse = fd_solve_1d(problem, oracle, t)
    if oracle.boundary is Boundary.NEUMANN:
        fine_J = 2 * oracle.grid_points - 1
    else:
        fine_J = 2 * oracle.grid_points
    fine_oracle = FdOracle1d(
        half_width=oracle.half_width,
        grid_points=fine_J,
        dt=oracle.dt / 2.0,
        boundary=oracle.boundary,
    )
    fine = fd_solve_1d(problem, fine_oracle, t)
    return float(np.max(np.abs(coarse.values - fine.values[::2])))


# elements of the largest (samples, d) gaussian block the residual holds at once
_RESIDUAL_CHUNK = 1 << 21


def fixed_point_residual(
    u_ref: Callable[..., np.ndarray],
    problem: PdeProblem,
    t: float,
    x,
    samples: int,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo residual of the fixed-point identity for a reference.

        residual = u_ref(t,x)
                 - mean_j [ u_ref(0, X_j) + t * f(R_j, Y_j, u_ref(R_j, Y_j)) ]

    with X_j at elapsed t, R_j uniform on [0, t], Y_j at elapsed t - R_j
    (forward orientation, variance scale 2).  Returns (residual, standard
    error).  u_ref must broadcast over (t-array, x-array) inputs.

    Sample j draws from node (j,): slot 0 the uniform, slots 1..d the
    gaussians for Y_j, slots d+1..2d the gaussians for X_j.
    """
    if problem.orientation is not Orientation.FORWARD:
        raise ValueError("fixed_point_residual expects the forward orientation")
    if not 0.0 <= t <= problem.horizon:
        raise ValueError(f"t must lie in [0, {problem.horizon}], got {t}")
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    x = np.asarray(x, dtype=np.float64).reshape(problem.dimension)
    d = problem.dimension
    nl = problem.nonlinearity

    terms = np.empty(samples)
    root = np.uint64(path_digest(seed, ()))
    chunk = max(1, _RESIDUAL_CHUNK // max(d, 1))
    for start in range(0, samples, chunk):
        stop = min(start + chunk, samples)
        js = np.arange(start, stop, dtype=np.int64)
        digs = absorb_vec(root, 1, js)[:, None]
        u = uniforms_vec(digs[:, 0], 0)
        r_times = t * u
        zf = gaussians_vec(digs, np.arange(1, d + 1, dtype=np.uint64))
        y = x + np.sqrt(2.0 * (t - r_times))[:, None] * zf
        zd = gaussians_vec(digs, np.arange(d + 1, 2 * d + 1, dtype=np.uint64))
        xd = x + math.sqrt(2.0 * t) * zd
        ref_at_y = np.asarray(u_ref(r_times, y), dtype=np.float64)
        terms[start:stop] = (
            np.asarray(u_ref(np.zeros(js.size), xd), dtype=np.float64)
            + t * np.asarray(nl.eval(r_times, y, ref_at_y), dtype=np.float64)
        )

    lhs = float(np.asarray(u_ref(np.array([t]), x[None, :])).reshape(()))
    return lhs - float(terms.mean()), math.sqrt(terms.var(ddof=1) / samples)


@dataclass(frozen=True)
class MaxPrincipleReport:
    rows: tuple  # (t, sup_abs, bound, ok) per ladder time
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(ok for (_, _, _, ok) in self.rows)

    @property
    def worst_margin(self) -> float:
        """Largest sup_abs - bound over the ladder (negative = safe)."""
        return max(sup - bound for (_, sup, bound, _) in self.rows)


def max_principle_check(
    solutions: Sequence[FdSolution],
    c: float,
    kappa: float,
    tolerance: float,
) -> MaxPrincipleReport:
    """Check sup |u(t,.)| <= e^{c t}(1 + kappa^2)^{1/2} + tolerance."""
    from .bounds import apriori_sup_bound

    rows = []
    for sol in solutions:
        bound = apriori_sup_bound(c, kappa, sol.t)
        sup = sol.sup_abs
        rows.append((sol.t, sup, bound, sup <= bound + tolerance))
    return MaxPrincipleReport(rows=tuple(rows), tolerance=tolerance)
