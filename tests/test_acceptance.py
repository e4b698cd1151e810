"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Each criterion runs at its stated tolerance against an independent oracle
or an exact model; nothing here may be loosened to make a run green.  The
printed line carries the measured numbers so a failure is diagnosable
from the log alone.
"""

import importlib.resources
import math
import random

import numpy as np

from mlpicard.bounds import (
    cost_bound,
    cost_recursion,
    level_bounds,
    rho_min,
    surrogate_constants,
)
from mlpicard.estimator import MlpParams, estimate_batch, transform_to_backward
from mlpicard.experiments import dimension_scaling, epsilon_sweep, rmse_vs_oracle
from mlpicard.oracles import (
    FdOracle1d,
    allen_cahn_reference,
    fd_refinement_gap,
    fd_solve_1d,
    fixed_point_residual,
    max_principle_check,
)
from mlpicard.problem import (
    Nonlinearity,
    Orientation,
    builtin_allen_cahn,
    builtin_constant_data,
    builtin_cosine_mean_data,
    builtin_linear,
    builtin_sine,
    make_problem,
    truncate_value,
)
from mlpicard.randomness import (
    absorb_vec,
    gaussians_vec,
    path_digest,
    uniforms_vec,
    verify_golden,
)


def _report(num: int, label: str, ok: bool, detail: str = ""):
    line = f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


# 1. constant-datum oracle agreement ------------------------------------------
#
# Allen-Cahn, forward, datum 2, d in {1, 10, 100}, K = 1000, seed 0, radius
# r = rho_min.  The solution is constant in space and solves y' = y - y^3, so
# the level-n estimator samples the n-th Picard iterate of the truncated ODE
#
#     u^0 = 0,   u^{k+1}(t) = 2 + int_0^t f(clamp(u^k(s), r)) ds,
#
# and the proved L2 bound, e^{LT}(kappa + T|f(0)|) e^{M/2} (1+2LT)^n M^{-n/2},
# only promises that the estimator reaches the fixed point as n = M -> oo.
# At n = M <= 5 it promises neither zero bias nor a falling RMSE.
#
# At the pinned T = 0.5, L(rho_min) T = 28.18 and the iterates oscillate:
# 2, -1, 1.625, 0.473, 1.447, 0.990, 1.242, 1.150, ... -> 1.1752.  So the
# estimator is checked against the iterates it samples, in closed form with
# a = f(2) - f(0) = -6 and F(y) = y^2/2 - y^4/4:
#   - u^1 = 2 and u^2 = 2 + aT = -1 exactly: every repetition at n = M = 1
#     and n = M = 2 equals them to 1e-12 (U_1 = 2 and U_2(t) = 2 - 6t carry
#     no randomness for a constant datum with f(0) = 0);
#   - u^3 = 2 + (F(2 + aT) - F(2))/a = 1.625: the n = M = 3 sample mean lies
#     within 3 standard errors.  Level 3 is the deepest level whose mean is
#     exact for every M: its corrections average f(U_2(R)) over a uniform
#     sample time R, U_2 is a deterministic function of R, and on [-1, 2]
#     the clamp at rho_min never bites.  From level 4 on, E[f(U)] != f(E[U])
#     adds a finite-M bias (the n = M = 4 mean is 0.338 against u^4 = 0.473
#     and the fixed point 1.175), printed but not asserted.
# The same three checks run at the interior time t = T/2 (u^2 = 0.5,
# u^3 = 1.6484).  At t = T a sample time drawn on [0, T] instead of [0, t]
# is indistinguishable at the root, and below level 4 no nested value
# depends on it; at t = T/2 it moves the level-3 mean by ~0.16.
#
# At T = 0.1 (the contractive horizon of README and convergence_table.ini) the
# iterates' errors against the ODE reference fall monotonically (0.390,
# 0.210, 0.054, 0.012, 0.002), so there the estimator's RMSE over
# n = M = 1..5 must not rise by more than 20% from one level to the next.
# At T = 0.5 the iterates' own errors (0.825, 2.175, 0.450, 0.702, 0.271)
# are not monotone, so no correct estimator passes a trend check there.


def _allen_cahn_f(u):
    return u - u**3


def _closed_form_iterates(t: float) -> tuple[float, float, float]:
    """u^1, u^2, u^3 at time t for datum 2, by hand integration."""
    a = _allen_cahn_f(2.0) - _allen_cahn_f(0.0)

    def antiderivative(y):
        return y * y / 2.0 - y**4 / 4.0

    u2 = 2.0 + a * t
    u3 = 2.0 + (antiderivative(u2) - antiderivative(2.0)) / a
    return 2.0, u2, u3


def _quadrature_iterates(horizon: float, count: int, radius: float,
                         grid_points: int = 20001) -> list[float]:
    """u^1..u^count at t = horizon: the truncated Picard map for datum 2,
    started at u^0 = 0 and integrated with the trapezoid rule."""
    s = np.linspace(0.0, horizon, grid_points)
    half_h = 0.5 * (s[1] - s[0])
    u = np.zeros_like(s)
    out = []
    for _ in range(count):
        g = _allen_cahn_f(np.clip(u, -radius, radius))
        u = 2.0 + np.concatenate(([0.0], np.cumsum(half_h * (g[1:] + g[:-1]))))
        out.append(float(u[-1]))
    return out


def test_criterion_1_exact_model_matches_hand_values():
    u_half = _closed_form_iterates(0.5)
    u_tenth = _closed_form_iterates(0.1)
    quad_half = _quadrature_iterates(0.5, 3, rho_min(make_problem(1, 0.5)))
    r_tenth = rho_min(make_problem(1, 0.1))
    quad_tenth = _quadrature_iterates(0.1, 9, r_tenth)
    reference = allen_cahn_reference(2.0, 0.1)
    ok = (
        abs(u_half[1] + 1.0) <= 1e-12
        and abs(u_half[2] - 1.625) <= 1e-12
        and abs(u_tenth[1] - 1.4) <= 1e-12
        and abs(u_tenth[2] - 1.66340) <= 1e-12
        and max(abs(q - u) for q, u in zip(quad_half, u_half)) <= 1e-6
        and max(abs(q - u) for q, u in zip(quad_tenth, u_tenth)) <= 1e-6
        and abs(quad_tenth[8] - reference) <= 1e-6
    )
    _report(1, "exact model: closed-form and quadrature iterates", ok,
            f"T=0.5 u1..u3={u_half}, T=0.1 u1..u3={u_tenth}, "
            f"quadrature T=0.1 u9-u*={quad_tenth[8] - reference:.2e}")


def test_criterion_1_constant_datum_oracle_agreement():
    K = 1000
    failures = []
    measured = []

    # exact-model agreement at the pinned T = 0.5 and at t = T/2
    fixed_point = allen_cahn_reference(2.0, 0.5)
    prob_half = make_problem(dimension=1, horizon=0.5)
    r_half = rho_min(prob_half)
    lip_t = prob_half.nonlinearity.lipschitz_local(r_half) * 0.5
    iterates = _quadrature_iterates(0.5, 8, r_half)
    for d in (1, 10, 100):
        prob = make_problem(dimension=d, horizon=0.5)
        samples = {}
        for n, t in ((1, 0.5), (2, 0.5), (3, 0.5), (4, 0.5),
                     (1, 0.25), (2, 0.25), (3, 0.25)):
            params = MlpParams(levels=n, branching=n, truncation_radius=r_half,
                               seed=0)
            samples[n, t] = np.array([res.value for res in estimate_batch(
                prob, params, t, np.zeros(d), repetitions=K,
                worker_count=2)])
        for t in (0.5, 0.25):
            u_exact = _closed_form_iterates(t)
            for n in (1, 2):
                gap = float(np.max(np.abs(samples[n, t] - u_exact[n - 1])))
                if gap > 1e-12:
                    failures.append(f"d={d}: t={t} n=M={n} max|U-u{n}|={gap:.3e}")
            mean3 = float(samples[3, t].mean())
            se3 = float(samples[3, t].std(ddof=1) / math.sqrt(K))
            if abs(mean3 - u_exact[2]) > 3.0 * se3:
                failures.append(f"d={d}: t={t} n=M=3 |mean-u3|="
                                f"{abs(mean3 - u_exact[2]):.4f} vs 3*se={3.0 * se3:.4f}")
            measured.append(f"d={d} t={t} n=3 mean={mean3:.5f}+-{se3:.5f} "
                            f"(z={(mean3 - u_exact[2]) / se3:.2f})")
        mean4 = float(samples[4, 0.5].mean())
        rmse_half = [float(np.sqrt(np.mean((samples[n, 0.5] - fixed_point) ** 2)))
                     for n in (1, 2, 3, 4)]
        measured.append(
            f"d={d} T=0.5 n=4 mean={mean4:.4f} (gap to fixed point "
            f"{abs(mean4 - fixed_point):.4f}), rmse n=1..4=["
            + " ".join(f"{v:.4f}" for v in rmse_half) + "]")

    # oracle agreement in trend at the contractive T = 0.1
    oracle = allen_cahn_reference(2.0, 0.1)
    r_tenth = rho_min(make_problem(dimension=1, horizon=0.1))
    iterate_err = [abs(u - oracle)
                   for u in _quadrature_iterates(0.1, 5, r_tenth)]
    for d in (1, 10, 100):
        prob = make_problem(dimension=d, horizon=0.1)
        rows = rmse_vs_oracle(prob, oracle, 0.1, np.zeros(d),
                              n_list=(1, 2, 3, 4, 5), K=K, seed=0,
                              worker_count=2)
        seq = [row.rmse for row in rows]
        for a, b in zip(seq, seq[1:]):
            if b > 1.2 * a:
                failures.append(f"d={d}: T=0.1 rmse rose {a:.4f} -> {b:.4f}")
                break
        measured.append("d=%d T=0.1 rmse=[%s]"
                        % (d, " ".join(f"{v:.4f}" for v in seq)))

    context = (
        f"L(rho_min)T={lip_t:.2f} at T=0.5; T=0.5 u1..u3="
        + " ".join(f"{u:g}" for u in _closed_form_iterates(0.5))
        + ", u4..u8=" + " ".join(f"{u:.4f}" for u in iterates[3:])
        + f", fixed point {fixed_point:.4f}, iterate errors u1..u5=["
        + " ".join(f"{abs(u - fixed_point):.4f}" for u in iterates[:5])
        + "]; T=0.1 iterate errors u1..u5=["
        + " ".join(f"{e:.4f}" for e in iterate_err) + "]"
    )
    _report(1, "constant-datum exact-model and oracle agreement", not failures,
            "; ".join(failures + [context] + measured))


# 2. cost law ------------------------------------------------------------------


def test_criterion_2_cost_model_bound_and_measured_tallies():
    bad = []
    for d in (1, 10, 100):
        for n in range(1, 7):
            for M in range(1, 7):
                if cost_recursion(d, n, M) > cost_bound(d, n, M):
                    bad.append(f"model>bound at {(d, n, M)}")
    rng = random.Random(0)
    nonlinearities = [builtin_allen_cahn(), builtin_sine(), builtin_linear(-0.5)]
    for i in range(100):
        d = rng.randint(1, 8)
        n = rng.randint(0, 4)
        M = rng.randint(1, 4)
        horizon = rng.choice([0.25, 0.5])
        orientation = rng.choice([Orientation.FORWARD, Orientation.BACKWARD])
        data = rng.choice([builtin_constant_data(2.0),
                           builtin_cosine_mean_data(2.0, d)])
        prob = make_problem(d, horizon, orientation=orientation,
                            nonlinearity=rng.choice(nonlinearities), data=data)
        t = rng.choice([0.0, horizon / 2.0, horizon])
        params = MlpParams(levels=n, branching=M, truncation_radius=5.0, seed=i)
        result = estimate_batch(prob, params, t, np.zeros(d), 1)[0]
        if result.tally.total_draws > cost_recursion(d, n, M):
            bad.append(f"draws>model at config {i}: {(d, n, M)}")
    _report(2, "cost model bounds draws, closed form bounds model", not bad,
            "; ".join(bad) or "108 table cells + 100 measured runs")


# 3. cost linear in dimension ---------------------------------------------------


def test_criterion_3_cost_linear_in_dimension():
    result = dimension_scaling(
        lambda d: make_problem(dimension=d, horizon=0.5),
        [1, 10, 100], n=3, t=0.5, K=1, seed=0,
    )
    by_d = {row.d: row for row in result.rows}
    ratio = by_d[100].gaussians_measured / by_d[10].gaussians_measured
    ok = result.cost_affine_exact and 9.5 <= ratio <= 10.5
    _report(3, "cost affine in d, Gaussian draws scale ~10x", ok,
            f"affine={result.cost_affine_exact}, d=10->100 ratio={ratio:.3f}")


# 4. level selection and scaled-cost sweep --------------------------------------


def test_criterion_4_level_selection_monotone_and_sweep_finite():
    # The flat-Lipschitz surrogate is the one constant set whose diagonal
    # bound settles within a practical level cap; the Allen-Cahn constants
    # at an admissible radius have L(rho) ~ 56, so their diagonal only
    # starts decaying near level L^2 and level selection rightly refuses the
    # capped scan (covered by the CapExceededError tests).
    eps_grid = sorted(2.0 ** -k for k in range(1, 7))
    table = level_bounds(surrogate_constants())
    levels = [table.select(e) for e in eps_grid]
    monotone = levels == sorted(levels, reverse=True)
    n_tiny = table.select(1e-6)
    sweep = epsilon_sweep(surrogate_constants(), delta=1.0,
                          epsilon_list=eps_grid, d_list=[1, 10, 100])
    finite = (math.isfinite(sweep.scaled_max) and math.isfinite(sweep.scaled_min)
              and sweep.scaled_min > 0.0)
    ok = monotone and n_tiny == 16 and finite
    _report(4, "level rule monotone, N(1e-6)=16, scaled cost finite", ok,
            f"N over eps {eps_grid[0]}..{eps_grid[-1]}={levels}, "
            f"N(1e-6)={n_tiny}, scaled range [{sweep.scaled_min:.1f}, "
            f"{sweep.scaled_max:.1f}]")


# 5. maximum principle ----------------------------------------------------------


def test_criterion_5_fd_solution_respects_apriori_bound():
    prob = make_problem(dimension=1, horizon=0.5)
    oracle = FdOracle1d(half_width=6.0, grid_points=201, dt=1e-4)
    solutions = [fd_solve_1d(prob, oracle, t) for t in (0.0, 0.1, 0.25, 0.5)]
    gap = fd_refinement_gap(prob, oracle, 0.5)
    report = max_principle_check(
        solutions,
        c=prob.nonlinearity.coercivity_c,
        kappa=prob.data.sup_bound_kappa,
        tolerance=1e-6 + gap,
    )
    _report(5, "FD sup norm under the growth envelope", report.passed,
            f"worst margin {report.worst_margin:.3e}, refinement gap {gap:.3e}")


# 6. fixed-point residual ---------------------------------------------------------


def test_criterion_6_fixed_point_residual_detects_perturbation():
    prob = make_problem(dimension=1, horizon=0.5)

    def u_ref(ts, xs):
        ts = np.asarray(ts, dtype=np.float64)
        return 2.0 * np.exp(ts) / np.sqrt(1.0 + 4.0 * np.expm1(2.0 * ts))

    res, se = fixed_point_residual(u_ref, prob, 0.5, np.zeros(1),
                                   samples=10 ** 5, seed=7)
    shifted = lambda ts, xs: u_ref(ts, xs) + 0.1
    res_bad, se_bad = fixed_point_residual(shifted, prob, 0.5, np.zeros(1),
                                           samples=10 ** 5, seed=7)
    ok = abs(res) <= 3.0 * se and abs(res_bad) > 3.0 * se_bad
    _report(6, "reference passes residual test, perturbed fails", ok,
            f"true |res|={abs(res):.5f} ({abs(res) / se:.2f} se), "
            f"shifted |res|={abs(res_bad):.5f} ({abs(res_bad) / se_bad:.1f} se)")


# 7. determinism and stream quality ----------------------------------------------


def test_criterion_7_determinism_golden_values_and_moments():
    prob = make_problem(dimension=3, horizon=0.5)
    params = MlpParams(levels=3, branching=3, truncation_radius=10.0, seed=7)
    runs = {
        w: estimate_batch(prob, params, 0.5, np.zeros(3), repetitions=32,
                          worker_count=w)
        for w in (1, 4, 8)
    }
    identical = all(
        [r.value for r in runs[w]] == [r.value for r in runs[1]]
        and [r.tally for r in runs[w]] == [r.tally for r in runs[1]]
        for w in (4, 8)
    )
    golden_path = importlib.resources.files("mlpicard") / "golden_rng.txt"
    mismatches = verify_golden(
        golden_path.read_text(encoding="utf-8").splitlines())

    keys = absorb_vec(np.uint64(path_digest(0, ())), 1,
                      np.arange(10 ** 6, dtype=np.int64))
    u = uniforms_vec(keys, 0)
    z = gaussians_vec(keys[:, None], np.arange(1, dtype=np.uint64)).ravel()
    coverage = float(np.mean(np.abs(z) <= 1.96))
    moments_ok = (abs(u.mean() - 0.5) < 0.002
                  and abs(u.var() - 1.0 / 12.0) < 0.001
                  and abs(z.mean()) < 0.005
                  and abs(z.var() - 1.0) < 0.01
                  and abs(coverage - 0.95) < 0.002)
    ok = identical and not mismatches and moments_ok
    _report(7, "thread-count invariance, golden streams, moment tests", ok,
            f"identical={identical}, golden mismatches={len(mismatches)}, "
            f"u mean={u.mean():.5f} var={u.var():.6f}, z mean={z.mean():.5f} "
            f"var={z.var():.5f} coverage={coverage:.4f}")


# 8. truncation semantics ----------------------------------------------------------


def test_criterion_8_truncation_inactive_above_solution_bound(recursion_log):
    # recursion_log sees every value handed to the truncated reaction
    prob = make_problem(dimension=2, horizon=0.5)
    values = {}
    peak = None
    for radius in (1e6, 1e9):
        recursion_log.clear()
        params = MlpParams(levels=3, branching=3, truncation_radius=radius,
                           seed=3)
        values[radius] = [res.value for res in estimate_batch(
            prob, params, 0.5, np.zeros(2), 8)]
        if radius == 1e6:
            peak = recursion_log.peak
    clamp_ok = True
    for r in (0.5, 1.0, 2.0, 5.0):
        u = np.linspace(-4.0 * r, 4.0 * r, 2001)
        v = np.linspace(-3.0 * r, 3.0 * r, 2001)
        cu = truncate_value(u, r)
        inside = np.abs(u) <= r
        clamp_ok = clamp_ok and (
            bool(np.all(np.abs(cu) <= r))
            and np.array_equal(truncate_value(cu, r), cu)
            and np.array_equal(cu[inside], u[inside])
            and bool(np.all(np.abs(cu - truncate_value(v, r)) <= np.abs(u - v)))
        )
    ok = peak < 1e6 and values[1e6] == values[1e9] and clamp_ok
    _report(8, "wide radii identical when clamp certified inactive", ok,
            f"max intermediate {peak:.3f}, outputs equal="
            f"{values[1e6] == values[1e9]}, clamp properties={clamp_ok}")


def test_criterion_8_truncation_caps_every_realization_at_rho_min():
    # Where truncation bites.  U_0 = 0 and f(0) = 0, so the level-n estimator
    # is the datum plus n - 1 pairs of correction averages, each over a time
    # span <= T, and |f_r| <= max_{|v| <= r} |v - v^3| = r^3 - r for
    # r >= 2/sqrt(3).  Every truncated realization therefore satisfies
    # |U| <= kappa + 2 (n - 1) T (r^3 - r).  At r = 1e150 the clamp never
    # acts, and the same seed overshoots that cap.
    prob = make_problem(dimension=1, horizon=1.0)
    r, n, K = rho_min(prob), 4, 100
    cap = 2.0 + 2 * (n - 1) * 1.0 * (r**3 - r)
    peak = {}
    for radius in (r, 1e150):
        params = MlpParams(levels=n, branching=n, truncation_radius=radius,
                           seed=0)
        results = estimate_batch(prob, params, 1.0, np.zeros(1), K)
        peak[radius] = max(abs(res.value) for res in results)
    ok = r >= 2.0 / math.sqrt(3.0) and peak[r] <= cap < peak[1e150]
    _report(8, "truncation at rho_min caps every realization", ok,
            f"rho_min={r:.3f}, cap={cap:.1f}, max|U| truncated "
            f"{peak[r]:.1f}, untruncated {peak[1e150]:.1f}")


# 9. forward/backward transform -----------------------------------------------------


def test_criterion_9_forward_backward_orientations_agree():
    forward = make_problem(dimension=2, horizon=0.5)
    backward = transform_to_backward(forward)
    params_f = MlpParams(levels=3, branching=3, truncation_radius=10.0, seed=0)
    params_b = MlpParams(levels=3, branching=3, truncation_radius=10.0, seed=1)
    vf = [r.value for r in estimate_batch(forward, params_f, 0.5, np.zeros(2),
                                          repetitions=10 ** 4)]
    vb = [r.value for r in estimate_batch(backward, params_b, 0.0, np.zeros(2),
                                          repetitions=10 ** 4)]
    mean_f, mean_b = float(np.mean(vf)), float(np.mean(vb))
    se_f = float(np.std(vf, ddof=1)) / math.sqrt(len(vf))
    se_b = float(np.std(vb, ddof=1)) / math.sqrt(len(vb))
    combined = math.hypot(se_f, se_b)
    gap = abs(mean_f - mean_b)
    _report(9, "matched orientations agree at K=10^4", gap <= 3.0 * combined,
            f"forward {mean_f:.5f}+-{se_f:.5f}, backward {mean_b:.5f}"
            f"+-{se_b:.5f}, gap {gap / combined:.2f} combined se")


# 10. manufactured solution in d = 10 -------------------------------------------------
#
# u*(x) = cos(mean(x)) has Laplacian -u*/d, so it solves the forward equation
# u_t = Lap u + f exactly for the forced f(t, x, u) = u - u^3 + h(x) with
# h = (1/d - 1) c + c^3, c = cos(mean(x)), from the datum cos(mean(x))
# (`cosine_mean`, kappa = 1).  The target is u* at every t and x, with no
# grid: a value checked here reads every smeared point through h, so it
# checks the d-vector draws, the smear and its variance scale.  The backward
# twin (`transform_to_backward`) at (0, x) targets u* at x * sqrt(2).
#
# Fixed before the first run: d = 10, T = 0.1, x = (0.3, ..., 0.3), forward
# at t = T with seed 0 and backward at t = 0 with seed 1, n = M = 4, K = 2000
# on two workers, radius rho_min, and the tolerance |mean - u*| <= 4 se.
# The level-4 bias is bounded by the Picard error from u^0 = 0,
# sup|u*| (L T)^4 / 4! = 6.7e-5 with L = 2 = sup |d f / d u| on [-1, 1],
# about one standard error at this K, so 4 se allows 3 for noise and 1 for
# bias.  d = 1000 is not checked here (ROADMAP item 1).


def manufactured_allen_cahn(d: int) -> Nonlinearity:
    """f(t, x, u) = u - u^3 + h(x) with h = (1/d - 1) c + c^3, c = cos(mean(x)).

    Coercivity in the package's convention v f(t, x, v) <= c (1 + v^2): as
    for the builtin, v (v - v^3) <= 1 + v^2, and v h <= H |v| <= (H / 2)
    (1 + v^2) with H = sup |h|.  On c in [-1, 1], h = c^3 - a c with
    a = 1 - 1/d peaks in size at c = 1 (1/d) or at c^2 = a / 3 (2a/3 *
    sqrt(a / 3)), so c = 1 + H / 2.  Lipschitz on [-r, r]:
    |f(v) - f(w)| <= (1 + v^2 + v w + w^2) |v - w| <= (1 + 3 r^2) |v - w|.
    """
    a = 1.0 - 1.0 / d
    H = max(1.0 / d, 2.0 * a / 3.0 * math.sqrt(a / 3.0))

    def _eval(t, x, u):
        c = np.cos(np.mean(x, axis=-1))
        return u - u**3 + (1.0 / d - 1.0) * c + c**3

    return Nonlinearity(
        eval=_eval,
        lipschitz_local=lambda r: 1.0 + 3.0 * r * r,
        coercivity_c=1.0 + H / 2.0,
        autonomous=False,
        f_at_zero=None,
    )


def test_criterion_10_manufactured_solution_in_d10_both_orientations():
    d, T, n, K = 10, 0.1, 4, 2000
    x = np.full(d, 0.3)
    forward = make_problem(d, T, nonlinearity=manufactured_allen_cahn(d),
                           data=builtin_cosine_mean_data(1.0, d))
    r = rho_min(forward)
    cases = (("forward", forward, T, 0, math.cos(0.3)),
             ("backward", transform_to_backward(forward), 0.0, 1,
              math.cos(0.3 * math.sqrt(2.0))))
    failures, measured = [], []
    for name, prob, t, seed, target in cases:
        params = MlpParams(levels=n, branching=n, truncation_radius=r,
                           seed=seed)
        values = np.array([res.value for res in estimate_batch(
            prob, params, t, x, repetitions=K, worker_count=2)])
        mean = float(values.mean())
        se = float(values.std(ddof=1)) / math.sqrt(K)
        z = (mean - target) / se
        if not abs(z) <= 4.0:
            failures.append(f"{name} |z|={abs(z):.2f} > 4")
        measured.append(f"{name} {mean:.6f}+-{se:.6f} vs {target:.6f} "
                        f"(z={z:+.2f})")
    _report(10, "manufactured u* = cos(mean(x)) at d=10, n=M=4", not failures,
            "; ".join(failures + measured + [f"rho_min={r:.3f}"]))
