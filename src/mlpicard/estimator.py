"""Recursive multilevel Picard estimator with full draw accounting.

One realization of the level-n estimator at (t, x) is, in the forward
orientation (datum at time 0, variance scale 2),

    U_n(t,x) = (1/M^n) sum_{m=1..M^n} [ data(X^{0,-m}) + t * f(R^{0,m}, X^{0,m}, 0) ]
             + sum_{k=1..n-1} t / M^{n-k} sum_{m=1..M^{n-k}}
                   [ f_r(R, X, U_k^{(k,m)}(R,X)) - f_r(R, X, U_{k-1}^{(-k,m)}(R,X)) ]

with U_0 = 0, R drawn uniformly on [0, t] and X a Brownian point at the
matching elapsed time.  The backward orientation (datum at time T, variance
scale 1) replaces the outer factors t by (T - t) and draws R on [t, T].

Two structural rules carry the scheme's variance reduction and independence:

  * Sample sharing: inside one correction term the SAME (R, X) pair feeds
    both the level-k and the level-(k-1) evaluation.  The pair is drawn at
    node (theta, k, m); the two recursive evaluations root at nodes
    (theta, k, m) and (theta, -k, m).
  * Node layout: the m-th level-0 data sample draws d gaussians from node
    (theta, 0, -m); the m-th level-0 f-sample draws one uniform (slot 0)
    then d gaussians (slots 1..d) from (theta, 0, m); the (k, m)-th
    correction draws one uniform then d gaussians from (theta, k, m).

When f(.,.,0) is a known constant the level-0 f-draws are skipped and the
term is added in closed form; the tally then undercounts the cost model
strictly (the model charges those draws regardless).

The engine is vectorized across independent repetitions ("lanes"): the tree
shape depends only on (n, M), so one traversal serves a whole batch, and the
inner m-sums fold into the lane axis of the recursive calls.  Each pass
over the (lane, m) pairs of one level draws, smears and evaluates their
d-vectors in tiles of at most ``_TILE`` float64 elements, and only the
scalar results are kept whole, so memory grows with the levels and not
with M^n * d.  The smear x + sqrt(vs * elapsed) * Z takes the standard
deviation of each (lane, m) pair, computed once per level before the
tiles; the level-0 data samples of a lane share one elapsed time (its
outer factor), so they take one square root per lane.  Results are a pure
function of (seed, node path, counter): every lane and every row is
computed on its own, so tiles, chunks and thread counts cannot change a
value, a tally or a recorded entry.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .problem import Orientation, PdeProblem, eval_truncated_f
from .randomness import (
    NodeId,
    absorb_vec,
    gaussians_vec,
    path_digest,
    uniforms_vec,
)

# repetitions per chunk, the unit of parallel work: chunk * M^n * d stays
# near this many elements.  Memory is bounded by _TILE, not by chunks
_CHUNK_BUDGET = 1 << 22

# float64 elements per tile (8 * randomness._BLOCK): the recursion draws and
# evaluates its d-vectors one tile at a time, so a frame holds at most one
# tile of points and a run peaks near (levels + 1) tiles plus the scalars
_TILE = 1 << 18


@dataclass(frozen=True)
class MlpParams:
    levels: int
    branching: int
    truncation_radius: float
    seed: int = 0
    root_node: NodeId = NodeId(())

    def __post_init__(self):
        if self.levels < 0:
            raise ValueError(f"levels must be >= 0, got {self.levels}")
        if self.branching < 1:
            raise ValueError(f"branching must be >= 1, got {self.branching}")
        if not self.truncation_radius > 0.0:
            raise ValueError(
                f"truncation_radius must be > 0, got {self.truncation_radius}"
            )


@dataclass(frozen=True)
class CostTally:
    """Scalar draw and evaluation counts for one realization."""

    gaussian_scalars: int = 0
    uniforms: int = 0
    f_evals: int = 0
    data_evals: int = 0

    @property
    def total_draws(self) -> int:
        return self.gaussian_scalars + self.uniforms


@dataclass(frozen=True)
class EstimateResult:
    value: float
    tally: CostTally


class EstimatorProbe:
    """Optional instrumentation attached to a run.

    Always tracks the largest |value| handed to the truncated reaction
    (recursive intermediates, pre-clamp).  With ``record_paths`` it also
    logs, for root lane 0, every correction draw (node, k, (R, X)) and
    every recursive evaluation entry (node, level, (t, x) received), so
    tests can certify the sample-sharing and node-layout rules from
    recorded evidence.  Recording reads the folded arrays of the same
    recursion that produces every value, so draws, values and tallies are
    unchanged.  Entries arrive in breadth order across the m-siblings of
    one correction that share a tile (they share a folded call, so they
    are logged together in m order) and depth first across tiles and k.
    Recording keeps one tuple per node of the tree, so it is meant for
    small audit runs only.
    """

    def __init__(self, record_paths: bool = False):
        self.record_paths = record_paths
        self.max_recursive_abs = 0.0
        self.correction_samples: list = []
        self.eval_entries: list = []

    def saw_values(self, values: np.ndarray):
        if values.size:
            peak = float(np.max(np.abs(values)))
            if peak > self.max_recursive_abs:
                self.max_recursive_abs = peak


class _MutableTally:
    __slots__ = ("gaussian_scalars", "uniforms", "f_evals", "data_evals")

    def __init__(self):
        self.gaussian_scalars = 0
        self.uniforms = 0
        self.f_evals = 0
        self.data_evals = 0

    def freeze(self, lanes: int) -> CostTally:
        # the counts cover every lane; each lane's tree is the same shape
        return CostTally(
            self.gaussian_scalars // lanes, self.uniforms // lanes,
            self.f_evals // lanes, self.data_evals // lanes,
        )


class _Engine:
    def __init__(self, problem: PdeProblem, params: MlpParams, probe=None):
        self.params = params
        self.probe = probe
        self.forward = problem.orientation is Orientation.FORWARD
        self.d = problem.dimension
        self.horizon = problem.horizon
        self.nl = problem.nonlinearity
        self.data = problem.data
        self.skip_f0 = self.nl.f_at_zero is not None
        self.vs = 2.0 if self.forward else 1.0  # variance scale
        self.gauss_slots = np.arange(self.d, dtype=np.uint64)
        self.slots1 = self.gauss_slots + np.uint64(1)

    # orientation helpers ------------------------------------------------

    def _outer_coef(self, t):
        # multiplies the f term and every correction; also the data elapsed
        return t if self.forward else self.horizon - t

    def _sample_time(self, t, u):
        # R uniform on [0, t] forward, on [t, T] backward
        return t * u if self.forward else t + (self.horizon - t) * u

    def _scale(self, t, r):
        # Brownian standard deviation sqrt(vs * elapsed) between the
        # evaluation time t and the sampled time r, computed in place in the
        # fresh elapsed array (never in t or outer, which are read again)
        elapsed = t - r if self.forward else r - t
        elapsed *= self.vs
        return np.sqrt(elapsed, out=elapsed)

    def _smear(self, x, scale, z):
        # x + scale * z with x (B,d), scale (B,m) the standard deviation of
        # each (lane, m) pair (or a broadcast view of it) and z (B,m,d);
        # consumes z, which holds the points on return
        z *= scale[:, :, None]
        z += x[:, None, :]
        return z

    def _tiles(self, lanes, m):
        # (lane, m) rectangles of at most _TILE elements, d per pair: runs of
        # whole lanes while a lane fits, else runs of m inside one lane.
        # Each rectangle is a contiguous run of the row-major (lanes * m) fold
        rows = max(1, _TILE // self.d)
        if m <= rows:
            step = rows // m
            for b in range(0, lanes, step):
                yield slice(b, min(b + step, lanes)), slice(0, m)
        else:
            for b in range(lanes):
                for j in range(0, m, rows):
                    yield slice(b, b + 1), slice(j, min(j + rows, m))

    def _sample(self, x, scale, digests, slots, evaluate):
        # evaluate(points, tile) at the smeared gaussians of every (lane, m)
        # pair of digests (B, m), one tile at a time; returns the (B, m)
        # scalar results.  Rows are independent, so tiling changes no value
        parts = [self._sample_tile(x, scale, digests, slots, evaluate, tile)
                 for tile in self._tiles(*digests.shape)]
        out = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return out.reshape(digests.shape)

    def _sample_tile(self, x, scale, digests, slots, evaluate, tile):
        z = gaussians_vec(digests[tile][:, :, None], slots)
        pts = self._smear(x[tile[0]], scale[tile], z)
        return evaluate(pts.reshape(-1, self.d), tile)

    # the recursion ------------------------------------------------------

    def run(self, t, x, digests, depth, tally):
        recording = self.probe is not None and self.probe.record_paths
        return self._evaluate(
            self.params.levels, t, x, digests, depth, tally,
            paths=[self.params.root_node.path] if recording else None,
        )

    def _evaluate(self, n, t, x, digests, depth, tally, paths=None):
        # tally counts the draws and evaluations of all B lanes.  paths
        # (recording only) names lanes 0..len(paths)-1, the lanes that
        # descend from root lane 0: the (B, m) -> B*m folds are row-major
        B = t.shape[0]
        if paths is not None:
            self.probe.eval_entries.extend(
                (path, n, (float(t[i]), tuple(x[i].tolist())))
                for i, path in enumerate(paths)
            )
        if n == 0:
            return np.zeros(B)
        M = self.params.branching
        nl, data = self.nl, self.data
        d = self.d
        outer = self._outer_coef(t)

        # level 0: data samples at nodes (theta, 0, -m), m = 1..M^n.  Their
        # elapsed time is outer for every m, so one square root per lane
        Mn = M**n
        ms = np.arange(1, Mn + 1, dtype=np.int64)
        dig_zero = absorb_vec(digests[:, None], depth + 1, 0)
        dig_data = absorb_vec(dig_zero, depth + 2, -ms)
        vals = self._sample(
            x, np.broadcast_to(np.sqrt(self.vs * outer)[:, None], (B, Mn)),
            dig_data, self.gauss_slots, lambda pts, tile: data.eval(pts),
        )
        tally.gaussian_scalars += vals.size * d
        tally.data_evals += vals.size
        total = vals.mean(axis=1)

        # level 0: f samples at nodes (theta, 0, m); skipped when f(.,.,0)
        # is a known constant (the term is then deterministic)
        if self.skip_f0:
            total = total + outer * nl.f_at_zero
        else:
            dig_f = absorb_vec(dig_zero, depth + 2, ms)
            r_times = self._sample_time(t[:, None], uniforms_vec(dig_f, 0))
            fvals = self._sample(
                x, self._scale(t[:, None], r_times), dig_f, self.slots1,
                lambda pts, tile: nl.eval(
                    r_times[tile].reshape(-1), pts, np.zeros(len(pts))),
            )
            tally.uniforms += fvals.size
            tally.gaussian_scalars += fvals.size * d
            tally.f_evals += fvals.size
            total = total + outer * fvals.mean(axis=1)

        # corrections k = 1..n-1: (R, X) drawn once at (theta, k, m) and fed
        # to BOTH the level-k and the level-(k-1) evaluation
        for k in range(1, n):
            Mm = M ** (n - k)
            ms = np.arange(1, Mm + 1, dtype=np.int64)
            dig_km = absorb_vec(
                absorb_vec(digests[:, None], depth + 1, k), depth + 2, ms)
            # level 0 never reads its digests, so k == 1 skips their absorb
            dig_lo = None
            if k > 1:
                dig_lo = absorb_vec(
                    absorb_vec(digests[:, None], depth + 1, -k), depth + 2, ms)
            r_times = self._sample_time(t[:, None], uniforms_vec(dig_km, 0))
            hi_paths = lo_paths = None
            if paths is not None:
                hi_paths = [p + (k, m) for p in paths for m in range(1, Mm + 1)]
                lo_paths = [p + (-k, m) for p in paths for m in range(1, Mm + 1)]
            correct = functools.partial(
                self._correction, k, r_times, dig_km, dig_lo, depth + 2,
                tally, hi_paths, lo_paths,
            )
            diff = self._sample(
                x, self._scale(t[:, None], r_times), dig_km, self.slots1,
                correct)
            tally.uniforms += diff.size
            tally.gaussian_scalars += diff.size * d
            tally.f_evals += 2 * diff.size
            total = total + (outer / Mm) * diff.sum(axis=1)

        return total

    def _correction(self, k, r_times, dig_km, dig_lo, depth, tally, hi_paths,
                    lo_paths, pts, tile):
        # f_r(U_k) - f_r(U_{k-1}) at one tile of the correction draws (R, X)
        r_flat = r_times[tile].reshape(-1)
        if hi_paths is not None:
            # the recorded lanes lead the fold; keep this tile's share
            lanes, ms = tile
            first = lanes.start * r_times.shape[1] + ms.start
            hi_paths = hi_paths[first:first + len(pts)] or None
            lo_paths = lo_paths[first:first + len(pts)] or None
            self.probe.correction_samples.extend(
                (path, k, (float(r_flat[i]), tuple(pts[i].tolist())))
                for i, path in enumerate(hi_paths or ())
            )
        sub_hi = self._evaluate(k, r_flat, pts, dig_km[tile].reshape(-1),
                                depth, tally, hi_paths)
        sub_lo = self._evaluate(
            k - 1, r_flat, pts,
            None if dig_lo is None else dig_lo[tile].reshape(-1),
            depth, tally, lo_paths,
        )
        if self.probe is not None:
            self.probe.saw_values(sub_hi)
            self.probe.saw_values(sub_lo)
        rr = self.params.truncation_radius
        return (eval_truncated_f(self.nl, r_flat, pts, sub_hi, rr)
                - eval_truncated_f(self.nl, r_flat, pts, sub_lo, rr))


def _run_lanes(problem, params, t, x, elems, probe=None):
    # lane digests absorb elems after the seed; an element may be an array
    # of per-lane indices (repetition numbers).  Returns the lane values
    # and the tally of one lane.
    digests = np.array([path_digest(params.seed, ())], dtype=np.uint64)
    for depth, v in enumerate(elems, start=1):
        digests = absorb_vec(digests, depth, v)
    B = digests.shape[0]
    tally = _MutableTally()
    values = _Engine(problem, params, probe).run(
        np.full(B, float(t)), np.broadcast_to(x, (B, problem.dimension)),
        digests, len(elems), tally,
    )
    return values, tally.freeze(B)


def _validate_point(problem, t, x):
    if not 0.0 <= t <= problem.horizon:
        raise ValueError(f"t must lie in [0, {problem.horizon}], got {t}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0 and problem.dimension == 1:
        x = x.reshape(1)
    if x.shape != (problem.dimension,):
        raise ValueError(
            f"x has shape {x.shape}, problem dimension is {problem.dimension}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError(f"x must be finite, got {x}")
    return x


def _estimate(problem, params, t, x, probe):
    x = _validate_point(problem, t, x)
    if params.levels == 0:
        return EstimateResult(0.0, CostTally())
    values, tally = _run_lanes(problem, params, t, x, params.root_node.path,
                               probe)
    return EstimateResult(float(values[0]), tally)


def estimate_forward(problem: PdeProblem, params: MlpParams, t: float, x,
                     probe: EstimatorProbe | None = None) -> EstimateResult:
    """One realization of the forward estimator at (t, x)."""
    if problem.orientation is not Orientation.FORWARD:
        raise ValueError("estimate_forward requires a Forward problem")
    return _estimate(problem, params, t, x, probe)


def estimate_backward(problem: PdeProblem, params: MlpParams, t: float, x,
                      probe: EstimatorProbe | None = None) -> EstimateResult:
    """One realization of the backward estimator at (t, x)."""
    if problem.orientation is not Orientation.BACKWARD:
        raise ValueError("estimate_backward requires a Backward problem")
    return _estimate(problem, params, t, x, probe)


def estimate_batch(
    problem: PdeProblem,
    params: MlpParams,
    t: float,
    x,
    repetitions: int,
    worker_count: int = 1,
) -> list[EstimateResult]:
    """K independent realizations; repetition j roots at [j] + root_node.

    Output order is repetition order and every entry is bit-identical for
    any worker_count: each repetition's draws are a pure function of its
    own node addresses, so neither chunking nor scheduling can leak across.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if worker_count < 1:
        raise ValueError(f"worker_count must be >= 1, got {worker_count}")
    x = _validate_point(problem, t, x)
    n, M, d = params.levels, params.branching, problem.dimension
    if n == 0:
        zero = CostTally()
        return [EstimateResult(0.0, zero) for _ in range(repetitions)]

    per_lane = max(1, M**n * max(d, 1))
    chunk = int(np.clip(_CHUNK_BUDGET // per_lane, 1, repetitions))
    starts = list(range(0, repetitions, chunk))

    def run_chunk(start):
        reps = np.arange(start, min(start + chunk, repetitions), dtype=np.int64)
        return _run_lanes(problem, params, t, x, (reps, *params.root_node.path))

    if worker_count == 1 or len(starts) == 1:
        chunks = [run_chunk(s) for s in starts]
    else:
        workers = min(worker_count, len(starts))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(run_chunk, starts))

    tally = chunks[0][1]
    out = []
    for values, chunk_tally in chunks:
        if chunk_tally != tally:
            raise AssertionError("per-repetition tallies diverged across chunks")
        out.extend(EstimateResult(float(v), tally) for v in values)
    return out


def transform_to_backward(problem: PdeProblem) -> PdeProblem:
    """Matched backward problem: its estimator at (t, x) is distributed as
    the forward estimator at (T - t, x * sqrt(2)).

    Terminal datum g(x) = data(x * sqrt(2)); reaction F(t,x,w) =
    f(T - t, x * sqrt(2), w).  Metadata (kappa, L, c) is unchanged.
    """
    if problem.orientation is not Orientation.FORWARD:
        raise ValueError("transform_to_backward expects a Forward problem")
    from .problem import DataFunction, Nonlinearity

    T = problem.horizon
    nl, data = problem.nonlinearity, problem.data
    root2 = math.sqrt(2.0)

    def g(x):
        return data.eval(np.asarray(x) * root2)

    if nl.autonomous:
        F = nl.eval
    else:
        def F(t, x, w):
            return nl.eval(T - np.asarray(t), np.asarray(x) * root2, w)

    return PdeProblem(
        dimension=problem.dimension,
        horizon=T,
        orientation=Orientation.BACKWARD,
        nonlinearity=Nonlinearity(
            eval=F,
            lipschitz_local=nl.lipschitz_local,
            coercivity_c=nl.coercivity_c,
            autonomous=nl.autonomous,
            f_at_zero=nl.f_at_zero,
            name=nl.name,
        ),
        data=DataFunction(
            eval=g,
            sup_bound_kappa=data.sup_bound_kappa,
            constant_value=data.constant_value,
            name=data.name,
        ),
    )
