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
scalar results are kept whole: the points take memory that grows with the
levels and not with M^n * d, the scalar arrays lanes * M^n elements each.
The smear x + sqrt(vs * elapsed) * Z takes the standard deviation of each
(lane, m) pair, computed once per level before the tiles; the level-0
data samples of a lane share one elapsed time (its outer factor), so they
take one square root per lane.  Results are a pure function of (seed,
node path, counter): every lane and every row is computed on its own, so
tiles, chunks and thread counts cannot change a value or a tally.

The arrays the engine allocates itself (the node digests, the uniforms,
which become the sampled times in place, the standard deviations and each
tile of points) come from one scratch store per run, that is per chunk
and so per worker thread; nothing is shared across threads.  The store is
one buffer, sized before the run to the most those arrays hold at once,
handed out and taken back in stack order as the recursion enters and
leaves a frame or a tile, and released when the run returns.  So a frame
reuses the bytes of its predecessor instead of asking the allocator
again, which at d = 1 used to trim and re-fault the same pages on every
call, and the store never holds more than the run's largest live set.
A value a data or reaction callable returns is copied out when it shares
the store (a callable may return a view of its input), so no later frame
can overwrite it.

``estimate_batch`` is the one entry point: it gives K realizations in the
orientation the problem carries, repetition j rooted at node (j,), and one
realization is ``estimate_batch(..., 1)[0]``.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .problem import Orientation, PdeProblem, eval_truncated_f
from .randomness import absorb_vec, gaussians_vec, path_digest, uniforms_vec

# repetitions per chunk, the unit of parallel work: chunk * M^n * d stays
# near this many elements.  _TILE bounds the d-vectors, not the scalar
# arrays of lanes * M^n elements each frame keeps, so at small d this rule
# bounds the memory: at d = 1, n = M = 5 a chunk of 1000 lanes plans a
# 32 MiB store and traces a 159 MiB peak.  Past M^n = 2^22 a chunk is one
# lane and the scalars grow with M^n
_CHUNK_BUDGET = 1 << 22

# float64 elements per tile (1 MB, 4 * randomness._BLOCK): the recursion
# draws and evaluates its d-vectors one tile at a time, so a frame holds at
# most one tile of points and a run at most levels tiles, one per frame on
# the deepest path, plus the scalars
_TILE = 1 << 17


@dataclass(frozen=True)
class MlpParams:
    levels: int
    branching: int
    truncation_radius: float
    seed: int = 0

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


class _Scratch:
    """One run's store for the arrays the estimator allocates itself.

    It is one buffer of ``size`` uint64 elements, the most the run's
    planned takes hold at once (``_Engine._peak``).  ``take`` hands out
    C-contiguous arrays from it in stack order; ``mark`` is the offset in
    use and ``release`` restores it, so a later array reuses the bytes of
    the ones released before it and the store never holds more than the
    run's largest live set.  The plan is the contract: a take that does not fit means
    ``_peak`` and ``_evaluate`` have drifted apart, and it raises.
    """

    def __init__(self, size: int):
        self._buf = np.empty(size, dtype=np.uint64)
        self._used = 0

    def take(self, shape, dtype=np.uint64):
        size = math.prod(shape)
        if self._used + size > self._buf.size:
            raise AssertionError(
                f"scratch plan of {self._buf.size} elements is short: "
                f"{self._used} in use, {size} more taken")
        buf = self._buf[self._used:self._used + size]
        self._used += size
        return buf.view(dtype).reshape(shape)

    def mark(self) -> int:
        return self._used

    def release(self, mark: int):
        self._used = mark

    def holds(self, values) -> bool:
        # whether values share the buffer, which later takes reuse
        return np.may_share_memory(values, self._buf)


class _Engine:
    def __init__(self, problem: PdeProblem, params: MlpParams):
        self.params = params
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

    def _absorb(self, digests, depth, elems):
        # digests (B, 1) and elems a scalar or an (m,) array
        out = self.scratch.take((digests.shape[0], np.size(elems)))
        return absorb_vec(digests, depth, elems, out=out)

    def _sample_times(self, t, digests):
        # R uniform on [0, t] forward (t * u), on [t, T] backward
        # (t + (T - t) * u), formed in the uniforms' own array
        u = uniforms_vec(digests, 0,
                         out=self.scratch.take(digests.shape, np.float64))
        if self.forward:
            u *= t
        else:
            u *= self.horizon - t
            u += t
        return u

    def _scale(self, t, r):
        # Brownian standard deviation sqrt(vs * elapsed) between the
        # evaluation time t and the sampled time r, computed in place in the
        # elapsed array (never in t or outer, which are read again)
        elapsed = self.scratch.take(r.shape, np.float64)
        if self.forward:
            np.subtract(t, r, out=elapsed)
        else:
            np.subtract(r, t, out=elapsed)
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
        scratch = self.scratch
        mark = scratch.mark()
        dig = digests[tile]
        z = gaussians_vec(dig[:, :, None], slots,
                          out=scratch.take((*dig.shape, self.d), np.float64))
        pts = self._smear(x[tile[0]], scale[tile], z)
        values = evaluate(pts.reshape(-1, self.d), tile)
        # a callable may return a view of its input; the store reuses it
        if scratch.holds(values):
            values = values.copy()
        scratch.release(mark)
        return values

    def _peak(self, n, lanes, seen):
        # elements the store holds at most while _evaluate(n) runs on
        # lanes: its takes in their order, each tile's recursion above them.
        # The first tile of a pass is its largest.  seen memoizes (n, lanes)
        if n == 0:
            return 0
        if (n, lanes) in seen:
            return seen[n, lanes]
        M, d = self.params.branching, self.d

        def first_tile_rows(m):
            b, j = next(self._tiles(lanes, m))
            return (b.stop - b.start) * (j.stop - j.start)

        Mn = M**n
        # dig_zero, then dig_data or (dig_f, uniforms, scale), then a tile
        peak = lanes + (1 if self.skip_f0 else 3) * lanes * Mn \
            + first_tile_rows(Mn) * d
        for k in range(1, n):
            Mm = M ** (n - k)
            rows = first_tile_rows(Mm)
            # two absorbs per digest array (dig_lo from k = 2), uniforms
            # and scale, then a tile and the recursion at levels k, k - 1
            digs = (2 if k > 1 else 1) * (lanes + lanes * Mm)
            peak = max(peak, digs + 2 * lanes * Mm + rows * d + max(
                self._peak(k, rows, seen), self._peak(k - 1, rows, seen)))
        seen[n, lanes] = peak
        return peak

    # the recursion ------------------------------------------------------

    def run(self, t, x, digests, tally):
        # digests are the lanes' root nodes, one path element deep
        self.scratch = _Scratch(self._peak(self.params.levels, t.shape[0], {}))
        try:
            return self._evaluate(self.params.levels, t, x, digests, 1, tally)
        finally:
            self.scratch = None

    def _evaluate(self, n, t, x, digests, depth, tally):
        # tally counts the draws and evaluations of all B lanes
        B = t.shape[0]
        if n == 0:
            return np.zeros(B)
        M = self.params.branching
        nl, data = self.nl, self.data
        d = self.d
        scratch = self.scratch
        frame = scratch.mark()
        outer = self._outer_coef(t)

        # level 0: data samples at nodes (theta, 0, -m), m = 1..M^n.  Their
        # elapsed time is outer for every m, so one square root per lane
        Mn = M**n
        ms = np.arange(1, Mn + 1, dtype=np.int64)
        dig_zero = self._absorb(digests[:, None], depth + 1, 0)
        above_zero = scratch.mark()
        dig_data = self._absorb(dig_zero, depth + 2, -ms)
        vals = self._sample(
            x, np.broadcast_to(np.sqrt(self.vs * outer)[:, None], (B, Mn)),
            dig_data, self.gauss_slots, lambda pts, tile: data.eval(pts),
        )
        scratch.release(above_zero)
        tally.gaussian_scalars += vals.size * d
        tally.data_evals += vals.size
        total = vals.mean(axis=1)

        # level 0: f samples at nodes (theta, 0, m); skipped when f(.,.,0)
        # is a known constant (the term is then deterministic)
        if self.skip_f0:
            total = total + outer * nl.f_at_zero
        else:
            dig_f = self._absorb(dig_zero, depth + 2, ms)
            r_times = self._sample_times(t[:, None], dig_f)
            fvals = self._sample(
                x, self._scale(t[:, None], r_times), dig_f, self.slots1,
                lambda pts, tile: nl.eval(
                    r_times[tile].reshape(-1), pts, np.zeros(len(pts))),
            )
            tally.uniforms += fvals.size
            tally.gaussian_scalars += fvals.size * d
            tally.f_evals += fvals.size
            total = total + outer * fvals.mean(axis=1)
        scratch.release(frame)

        # corrections k = 1..n-1: (R, X) drawn once at (theta, k, m) and fed
        # to BOTH the level-k and the level-(k-1) evaluation
        for k in range(1, n):
            Mm = M ** (n - k)
            ms = np.arange(1, Mm + 1, dtype=np.int64)
            dig_km = self._absorb(
                self._absorb(digests[:, None], depth + 1, k), depth + 2, ms)
            # level 0 never reads its digests, so k == 1 skips their absorb
            dig_lo = None
            if k > 1:
                dig_lo = self._absorb(
                    self._absorb(digests[:, None], depth + 1, -k), depth + 2, ms)
            r_times = self._sample_times(t[:, None], dig_km)
            correct = functools.partial(
                self._correction, k, r_times, dig_km, dig_lo, depth + 2, tally)
            diff = self._sample(
                x, self._scale(t[:, None], r_times), dig_km, self.slots1,
                correct)
            tally.uniforms += diff.size
            tally.gaussian_scalars += diff.size * d
            tally.f_evals += 2 * diff.size
            total = total + (outer / Mm) * diff.sum(axis=1)
            scratch.release(frame)

        return total

    def _correction(self, k, r_times, dig_km, dig_lo, depth, tally, pts,
                    tile):
        # f_r(U_k) - f_r(U_{k-1}) at one tile of the correction draws (R, X)
        r_flat = r_times[tile].reshape(-1)
        sub_hi = self._evaluate(k, r_flat, pts, dig_km[tile].reshape(-1),
                                depth, tally)
        sub_lo = self._evaluate(
            k - 1, r_flat, pts,
            None if dig_lo is None else dig_lo[tile].reshape(-1),
            depth, tally,
        )
        rr = self.params.truncation_radius
        return (eval_truncated_f(self.nl, r_flat, pts, sub_hi, rr)
                - eval_truncated_f(self.nl, r_flat, pts, sub_lo, rr))


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


def estimate_batch(
    problem: PdeProblem,
    params: MlpParams,
    t: float,
    x,
    repetitions: int,
    worker_count: int = 1,
) -> list[EstimateResult]:
    """K independent realizations; repetition j roots at node (j,).

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
    per_lane = max(1, M**n * max(d, 1))
    chunk = int(np.clip(_CHUNK_BUDGET // per_lane, 1, repetitions))
    starts = list(range(0, repetitions, chunk))
    root = np.array([path_digest(params.seed, ())], dtype=np.uint64)

    def run_chunk(start):
        # the values of the chunk's lanes and the tally of one lane
        reps = np.arange(start, min(start + chunk, repetitions), dtype=np.int64)
        B = reps.size
        tally = _MutableTally()
        values = _Engine(problem, params).run(
            np.full(B, float(t)), np.broadcast_to(x, (B, d)),
            absorb_vec(root, 1, reps), tally)
        return values, tally.freeze(B)

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
        ),
        data=DataFunction(
            eval=g,
            sup_bound_kappa=data.sup_bound_kappa,
            constant_value=data.constant_value,
        ),
    )
