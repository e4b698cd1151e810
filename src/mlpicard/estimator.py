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
strictly (the model charges those draws regardless).  The tally is counted
where the work is done: the gaussians and uniforms by the elements each
kernel call writes, the data and reaction evaluations by the rows each
call receives.  So a tile that is skipped or repeated shows in it.

The engine is vectorized across independent repetitions ("lanes"): the tree
shape depends only on (n, M), so one traversal serves a whole batch, and the
inner m-sums fold into the lane axis of the recursive calls.  Each pass
over the (lane, m) pairs of one level runs in tiles of at most ``_TILE``
elements of everything their rows hold: a (lane, m) pair is one row, of
its d point elements and ``_ROW_EXTRA`` more (at a correction its two
digests, its time and scale, and a child's result), so a tile holds
``_TILE`` elements at any d, d = 1 included.  A tile absorbs the
node digests of its own pairs, draws their times, takes their standard
deviations, draws, smears and evaluates their d-vectors, and reduces the
results to its lanes' sums, which the pass yields to its frame before the
next tile starts; the frame drops them before that tile runs.  A
correction at k >= 2 runs an M-th of a tile's rows at a time: its pairs
are the lanes of its children, whose passes fold at least M samples per
lane, so that many fill a child's tile.  So no array of lanes * M^k
elements is formed: a frame keeps one result per lane, and a run holds
at most one node per frame on the deepest path and 2 + (n - 2) / M
tiles, one for a level-1 correction, one for its child and an M-th of
one for each correction above, whatever K and M^n are.  A node is part
of a lane that spans tiles: such a lane is summed along numpy's own pairwise tree
(``_PAIRWISE_BLOCK``), split where numpy splits it until a node holds at
most max(rows, 128) results, each node gathered tile by tile and reduced
in one call, and sibling nodes added as numpy adds them.  So its sum has
the bits of one reduction over the pass; summing per-tile partials would
round differently.  Every tile absorbs its own node digests with
``absorb_vec``, the one way a path element is absorbed.  The smear
x + sqrt(vs * elapsed) * Z takes the standard deviation of each (lane, m)
pair; the level-0 data samples of a lane share one elapsed time (its
outer factor), so a frame takes one square root per lane for them.
Results are a pure function of (seed, node path, counter): every lane and
every row is computed on its own, so tiles, chunks and thread counts
cannot change a value or a tally.

The arrays the engine allocates itself (each frame's results, the node
digests, the uniforms, which become the sampled times in place, the
standard deviations, each tile of points and the nodes) come from one
scratch store per run, that is per chunk and so per worker thread;
nothing is shared across threads.  The store is one buffer, sized before
the run to the most those arrays hold at once, handed out and taken back
in stack order as the recursion enters and leaves a frame, a pass or a
tile, and released when the run returns.  A frame's results are its
first take and stay in the store for its caller, which reads them and
releases them with its tile.  So a frame reuses the bytes of its
predecessor instead of asking the allocator again, which at d = 1 used to
trim and re-fault the same pages on every call, and the store never holds
more than the run's largest live set.  What a data or reaction callable
returns is reduced before its tile's takes are released, so a callable
may return a view of its input.

``estimate_batch`` is the one entry point: it gives K realizations in the
orientation the problem carries, repetition j rooted at node (j,), and one
realization is ``estimate_batch(..., 1)[0]``.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .problem import Orientation, PdeProblem, eval_truncated_f
from .randomness import absorb_vec, gaussians_vec, path_digest, uniforms_vec

# repetitions per chunk, the unit of parallel work: chunk * M^n * d stays
# near this many elements, unless that leaves a worker without a chunk.  It
# bounds the run's per-lane arrays, a few elements per lane (at n = M = 1,
# d = 1 a chunk is 2^22 lanes and plans 64.3 MiB); the tiles bound the rest
_CHUNK_BUDGET = 1 << 22

# elements per tile (1 MB, 4 * randomness._BLOCK), counting everything its
# rows hold: the recursion draws, evaluates and reduces its (lane, m) pairs
# one tile at a time, so a frame holds at most one tile (an M-th of one at a
# correction from k = 2 on, _Engine._tile_rows)
_TILE = 1 << 17

# numpy sums a contiguous float64 run along a pairwise tree (pairwise_sum in
# numpy/_core/src/umath/loops_utils.h.src): a run of at most this many
# elements in one loop of eight accumulators, a longer one as the sum of
# its two halves, split by _pairwise_half.  A lane that spans tiles is
# summed along the same tree, so its sum keeps the bits of one reduction
_PAIRWISE_BLOCK = 128

# elements a tile row holds besides its d point elements: at a correction
# its two digests (of k and -k), its time and scale, and the level-k
# child's result, kept while the level-(k - 1) child runs
_ROW_EXTRA = 5


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
        # sample indices 1..M^n are int64 node path elements
        if self.branching ** min(self.levels, 64) >= 1 << 63:
            raise ValueError(
                f"branching ** levels must be below 2**63, got "
                f"{self.branching} ** {self.levels}")
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


def _pairwise_half(n):
    # numpy's split of a run of n > _PAIRWISE_BLOCK elements: its first
    # half, cut to a multiple of the 8-way unroll
    half = n // 2
    return half - half % 8


def _largest_node(m, node):
    # the longest run that the pairwise tree of m elements leaves whole once
    # it stops splitting at runs of at most node elements.  Runs of one
    # length split alike, so the walk keeps a few lengths per depth
    largest, runs = 0, {m}
    while runs:
        n = runs.pop()
        if n <= node:
            largest = max(largest, n)
        else:
            half = _pairwise_half(n)
            runs.update((half, n - half))
    return largest


def _samples(j):
    # the sample indices m = j.start + 1 .. j.stop of a tile's slice j
    return np.arange(j.start + 1, j.stop + 1, dtype=np.int64)


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
        self.uniforms += u.size
        if self.forward:
            u *= t
        else:
            u *= self.horizon - t
            u += t
        return u

    def _scale(self, t, r):
        # Brownian standard deviation sqrt(vs * elapsed) between the
        # evaluation time t and the sampled time r, computed in place in the
        # elapsed array (never in t, which is read again)
        elapsed = self.scratch.take(r.shape, np.float64)
        if self.forward:
            np.subtract(t, r, out=elapsed)
        else:
            np.subtract(r, t, out=elapsed)
        elapsed *= self.vs
        return np.sqrt(elapsed, out=elapsed)

    def _points(self, x, scale, digests, slots):
        # x + scale * z at the gaussians of digests (b, m), with x (b, d) and
        # scale (b, m) the standard deviation of each (lane, m) pair, or
        # (b, 1) one per lane: the (b * m, d) points, formed in place in z
        z = gaussians_vec(
            digests[:, :, None], slots,
            out=self.scratch.take((*digests.shape, self.d), np.float64))
        self.gaussian_scalars += z.size
        z *= scale[:, :, None]
        z += x[:, None, :]
        return z.reshape(-1, self.d)

    def _draw(self, t, x, parents, lane, elems, depth):
        # the (R, X) draws of one tile's (lane, m) pairs under the lanes'
        # parent digests: the pairs' digests, the times R (flat) and points X
        dig = self._absorb(parents[lane], depth, elems)
        r = self._sample_times(t[lane, None], dig)
        pts = self._points(x[lane], self._scale(t[lane, None], r), dig,
                           self.slots1)
        return dig, r.reshape(-1), pts

    def _rows(self):
        # (lane, m) pairs per tile, d + _ROW_EXTRA elements each
        return max(1, _TILE // (self.d + _ROW_EXTRA))

    def _tile_rows(self, k):
        # (lane, m) pairs per tile of a level-0 pass (k = 0) or of the level-k
        # correction pass.  From k = 2 on, a tile's pairs are the lanes of
        # its level-k and level-(k - 1) children, whose passes fold at least
        # M samples per lane, so rows // M of them fill a child's tile; more
        # would only keep their points in the store while the children run.
        # A level-1 correction keeps full tiles: capped, each of its level-1
        # children runs one short data tile, and an op took ~8% longer
        if k < 2:
            return self._rows()
        return max(1, self._rows() // self.params.branching)

    def _node(self):
        # the longest run of a spanning lane that is reduced in one call
        return max(self._rows(), _PAIRWISE_BLOCK)

    def _pass(self, lanes, m, sign, sample, rows):
        # yields (lane, sums) for a slice of the lanes and their sums over
        # the pass, each reduced as if the pass were one array.
        # sample(lane, elems) gives the results of one tile's (lane, m)
        # pairs, at most rows of them, whose digests absorb the sample
        # indices elems = sign * (j.start + 1 .. j.stop) at the depth sample
        # holds; the tile's takes are released once the caller has used the
        # sums.  Tiles of whole lanes all absorb sign * (1..m); a lane that
        # spans tiles is summed by _span_sum
        if m > rows:
            for b in range(lanes):
                yield slice(b, b + 1), self._span_sum(b, 0, m, sign, sample,
                                                      rows)
            return
        scratch = self.scratch
        elems = sign * _samples(slice(0, m))
        step = rows // m
        for b in range(0, lanes, step):
            lane = slice(b, min(b + step, lanes))
            tile = scratch.mark()
            # no name holds the tile's results once they are reduced
            yield lane, np.add.reduce(sample(lane, elems).reshape(-1, m),
                                      axis=1)
            scratch.release(tile)

    def _span_sum(self, b, lo, hi, sign, sample, rows):
        # lane b's sum over its samples lo + 1 .. hi, along numpy's pairwise
        # tree: a run longer than _node() is the sum of its two halves, a
        # shorter one is gathered tile by tile, rows at a time, into one
        # take and reduced in one call.  So the sum has the bits of one
        # reduction over the lane, and no take holds more than _node()
        # results
        if hi - lo > self._node():
            cut = lo + _pairwise_half(hi - lo)
            return (self._span_sum(b, lo, cut, sign, sample, rows)
                    + self._span_sum(b, cut, hi, sign, sample, rows))
        scratch = self.scratch
        start = scratch.mark()
        node = scratch.take((hi - lo,), np.float64)
        tile = scratch.mark()
        for i in range(lo, hi, rows):
            j = slice(i, min(i + rows, hi))
            node[i - lo:j.stop - lo] = sample(slice(b, b + 1),
                                              sign * _samples(j))
            scratch.release(tile)
        total = np.add.reduce(node)
        scratch.release(start)
        return total

    def _peak(self, n, lanes, seen):
        # elements the store holds at most while _evaluate(n) runs on lanes
        # and its results wait for the caller: its takes in their order,
        # each pass's first tile (its largest) and that tile's recursion
        # above them.  seen memoizes (n, lanes)
        if n == 0:
            return lanes
        if (n, lanes) in seen:
            return seen[n, lanes]
        M, d = self.params.branching, self.d

        def first_tile(m, rows):
            # a spanning pass's largest node, then the rows of its first
            # tile, the largest of the pass
            if m > rows:
                node = _largest_node(m, self._node())
                return node, min(node, rows)
            return 0, min(lanes, rows // m) * m

        # level 0: the results and dig_zero, then a spanning pass's node and
        # the tile's digests, points and, for the f samples, times and scales
        node, r = first_tile(M**n, self._tile_rows(0))
        peak = 2 * lanes + node + r * (d + (1 if self.skip_f0 else 3))
        for k in range(1, n):
            node, r = first_tile(M ** (n - k), self._tile_rows(k))
            # the lanes' digests at k (and -k from k = 2), the node, then
            # d + _ROW_EXTRA elements per tile row (no -k digest at k = 1),
            # the last of them the level-k child's results, and above them
            # the rest of that child or the level-(k - 1) one
            digs = 1 if k == 1 else 2
            row = d + _ROW_EXTRA - (k == 1)
            peak = max(peak, lanes * (1 + digs) + node + r * row
                       + max(self._peak(k, r, seen) - r,
                             self._peak(k - 1, r, seen)))
        seen[n, lanes] = peak
        return peak

    # the recursion ------------------------------------------------------

    def run(self, t, x, digests):
        # the lanes' values and one lane's CostTally; digests are the lanes'
        # root nodes, one path element deep.  The draw and evaluation sites
        # count all lanes in the engine's fields named like CostTally's, and
        # every lane's tree has the same shape
        B, n = t.shape[0], self.params.levels
        self.gaussian_scalars = self.uniforms = 0
        self.f_evals = self.data_evals = 0
        self.scratch = _Scratch(self._peak(n, B, {}))
        try:
            values = self._evaluate(n, t, x, digests, 1).copy()
        finally:
            self.scratch = None
        return values, CostTally(
            self.gaussian_scalars // B, self.uniforms // B,
            self.f_evals // B, self.data_evals // B)

    def _evaluate(self, n, t, x, digests, depth):
        # the B results are the frame's first take; they stay in the store
        # when it returns, for the caller to read and release with its tile
        B = t.shape[0]
        scratch = self.scratch
        total = scratch.take((B,), np.float64)
        if n == 0:
            total.fill(0.0)
            return total
        M = self.params.branching
        nl, data = self.nl, self.data
        frame = scratch.mark()

        # level 0: data samples at nodes (theta, 0, -m), m = 1..M^n.  Their
        # elapsed time is outer for every m, so one standard deviation per
        # lane, taken once per frame in total, which holds it until the
        # lane's mean is written over it
        Mn = M**n
        np.multiply(self._outer_coef(t), self.vs, out=total)
        np.sqrt(total, out=total)
        dig_zero = self._absorb(digests[:, None], depth + 1, 0)

        def data_sample(lane, elems):
            dig = self._absorb(dig_zero[lane], depth + 2, elems)
            pts = self._points(x[lane], total[lane, None], dig,
                               self.gauss_slots)
            self.data_evals += len(pts)
            return data.eval(pts)

        rows = self._tile_rows(0)
        for lane, sums in self._pass(B, Mn, -1, data_sample, rows):
            np.divide(sums, Mn, out=total[lane])
            del sums  # not kept through the next tile's recursion

        # level 0: f samples at nodes (theta, 0, m); skipped when f(.,.,0)
        # is a known constant (the term is then deterministic)
        if self.skip_f0:
            total += self._outer_coef(t) * nl.f_at_zero
        else:
            def f_sample(lane, elems):
                _, r, pts = self._draw(t, x, dig_zero, lane, elems, depth + 2)
                self.f_evals += len(pts)
                return nl.eval(r, pts, np.zeros(len(pts)))

            for lane, sums in self._pass(B, Mn, 1, f_sample, rows):
                total[lane] += self._outer_coef(t[lane]) * (sums / Mn)
                del sums
        scratch.release(frame)

        # corrections k = 1..n-1: (R, X) drawn once at (theta, k, m) and fed
        # to BOTH the level-k and the level-(k-1) evaluation
        for k in range(1, n):
            Mm = M ** (n - k)
            dig_k = self._absorb(digests[:, None], depth + 1, k)
            # level 0 never reads its digests, so k == 1 skips their absorb
            dig_mk = None
            if k > 1:
                dig_mk = self._absorb(digests[:, None], depth + 1, -k)
            correct = functools.partial(
                self._correction, k, t, x, dig_k, dig_mk, depth + 2)
            for lane, sums in self._pass(B, Mm, 1, correct,
                                         self._tile_rows(k)):
                total[lane] += (self._outer_coef(t[lane]) / Mm) * sums
                del sums
            scratch.release(frame)

        return total

    def _correction(self, k, t, x, dig_k, dig_mk, depth, lane, elems):
        # f_r(U_k) - f_r(U_{k-1}) at one tile of the correction draws (R, X)
        # of nodes (theta, k, m) and their twins (theta, -k, m)
        dig_hi, r, pts = self._draw(t, x, dig_k, lane, elems, depth)
        dig_lo = None
        if dig_mk is not None:
            dig_lo = self._absorb(dig_mk[lane], depth, elems).reshape(-1)
        sub_hi = self._evaluate(k, r, pts, dig_hi.reshape(-1), depth)
        sub_lo = self._evaluate(k - 1, r, pts, dig_lo, depth)
        rr = self.params.truncation_radius
        self.f_evals += 2 * len(pts)
        return (eval_truncated_f(self.nl, r, pts, sub_hi, rr)
                - eval_truncated_f(self.nl, r, pts, sub_lo, rr))


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
    # at most one thread per CPU (os.cpu_count, not the affinity mask),
    # whatever worker_count asks for
    workers = min(worker_count, os.cpu_count() or 1)
    # at least min(K, workers) chunks, so that every worker gets one
    chunk = int(np.clip(_CHUNK_BUDGET // (M**n * d), 1,
                        -(-repetitions // workers)))
    starts = list(range(0, repetitions, chunk))
    root = np.array([path_digest(params.seed, ())], dtype=np.uint64)

    def run_chunk(start):
        # the values of the chunk's lanes and the tally of one lane
        reps = np.arange(start, min(start + chunk, repetitions), dtype=np.int64)
        B = reps.size
        return _Engine(problem, params).run(
            np.full(B, float(t)), np.broadcast_to(x, (B, d)),
            absorb_vec(root, 1, reps))

    workers = min(workers, len(starts))
    if workers == 1:
        chunks = [run_chunk(s) for s in starts]
    else:
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
