"""Estimator semantics: exact base cases, draw accounting, sharing, truncation."""

import collections
import dataclasses
import hashlib
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

from mlpicard import estimator
from mlpicard.bounds import cost_bound, cost_recursion
from mlpicard.estimator import (
    CostTally,
    MlpParams,
    estimate_batch,
    transform_to_backward,
)
from mlpicard.problem import (
    Nonlinearity,
    Orientation,
    builtin_data,
    make_problem,
)


def forward_problem(d=1, horizon=0.5, data=None):
    return make_problem(dimension=d, horizon=horizon, data=data)


def no_skip_allen_cahn() -> Nonlinearity:
    """Allen-Cahn without a declared f(0), forcing the level-0 f draws."""
    return Nonlinearity(
        eval=lambda t, x, u: u - u**3,
        lipschitz_local=lambda r: 2.0 * (1.0 + 2.0 * r * r),
        coercivity_c=1.0,
        autonomous=True,
        f_at_zero=None,
    )


def forced_allen_cahn() -> Nonlinearity:
    """Allen-Cahn plus a forcing in (t, x), with no declared f(0): the
    level-0 f samples are drawn, and their values read the smeared points."""
    return Nonlinearity(
        eval=lambda t, x, u: u - u**3 + 0.5 * t * np.cos(x.sum(axis=-1)),
        lipschitz_local=lambda r: 2.0 * (1.0 + 2.0 * r * r),
        coercivity_c=1.5,
        autonomous=False,
        f_at_zero=None,
    )


def params_for(n, M, r=4.0, seed=0):
    return MlpParams(levels=n, branching=M, truncation_radius=r, seed=seed)


def test_zero_levels_is_zero_with_zero_tally():
    prob = forward_problem(d=3)
    res = estimate_batch(prob, params_for(0, 1), 0.5, np.zeros(3), 1)[0]
    assert res.value == 0.0
    assert res.tally == CostTally()


def test_single_level_single_branch_returns_datum():
    for d in (1, 2, 7):
        prob = forward_problem(d=d)
        res = estimate_batch(prob, params_for(1, 1), 0.5, np.zeros(d), 1)[0]
        assert res.value == 2.0  # constant datum, f(0) contribution skipped at 0
        assert res.tally.gaussian_scalars == d
        assert res.tally.uniforms == 0
        assert res.tally.data_evals == 1
        assert res.tally.f_evals == 0


def test_two_levels_constant_datum_exact_value():
    # datum 2, f(u) = u - u^3: every level-1 inner value is exactly 2, so
    # U_2 = 2 + t * f(2) = 2 - 3 = -1 at t = 0.5 regardless of d, M, seed
    for d in (1, 4):
        for seed in (0, 99):
            prob = forward_problem(d=d)
            res = estimate_batch(prob, params_for(2, 2, seed=seed), 0.5,
                                 np.zeros(d), 1)[0]
            assert res.value == -1.0


def test_forward_at_time_zero_returns_datum():
    prob = forward_problem(d=2)
    res = estimate_batch(prob, params_for(3, 2), 0.0, np.ones(2), 1)[0]
    assert res.value == 2.0


def test_backward_at_horizon_returns_terminal_datum():
    data = builtin_data("cosine_mean", 3, kappa=2.0)
    prob = make_problem(dimension=3, horizon=0.5,
                        orientation=Orientation.BACKWARD, data=data)
    x = np.array([0.3, -1.2, 0.5])
    res = estimate_batch(prob, params_for(1, 1), 0.5, x, 1)[0]
    expected = float(np.asarray(data.eval(x[None, :]))[0])
    assert res.value == expected


def test_point_validation():
    prob = forward_problem(d=2)
    p = params_for(1, 1)
    with pytest.raises(ValueError):
        estimate_batch(prob, p, 0.7, np.zeros(2), 1)  # t > T
    with pytest.raises(ValueError):
        estimate_batch(prob, p, -0.1, np.zeros(2), 1)
    with pytest.raises(ValueError):
        estimate_batch(prob, p, 0.5, np.zeros(3), 1)  # wrong dimension
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            estimate_batch(prob, p, 0.5, np.array([0.0, bad]), 1)
        with pytest.raises(ValueError, match="finite"):
            estimate_batch(prob, p, 0.5, np.array([bad, 0.0]), 2)
    scalar_ok = estimate_batch(forward_problem(d=1), p, 0.5, 0.0, 1)[0]
    assert scalar_ok.value == 2.0


def test_parameter_validation():
    with pytest.raises(ValueError):
        params_for(-1, 1)
    with pytest.raises(ValueError):
        params_for(1, 0)
    with pytest.raises(ValueError):
        params_for(1, 1, r=0.0)


def test_path_elements_beyond_int64_are_rejected():
    # sample indices 1..M^n are int64 node path elements, so M^n must stay
    # below 2**63; the check comes before any plan or allocation
    for n, M in ((30, 30), (63, 2), (10**6, 2)):
        with pytest.raises(ValueError, match=r"below 2\*\*63"):
            params_for(n, M)
    params_for(62, 2)
    params_for(10**6, 1)
    # a shape just below the limit plans one node per frame, not M^n floats
    prob = forward_problem(d=1)
    plan = estimator._Engine(prob, params_for(15, 15))._peak(15, 1, {})
    assert 8 * plan < 16 * 2**20, plan


def test_tally_matches_cost_model_without_f_at_zero():
    nl = no_skip_allen_cahn()
    for d, n, M in [(1, 1, 1), (1, 1, 2), (1, 2, 2), (1, 3, 2), (2, 2, 2),
                    (3, 2, 3), (2, 3, 3)]:
        prob = make_problem(dimension=d, horizon=0.5, nonlinearity=nl)
        res = estimate_batch(prob, params_for(n, M), 0.25, np.zeros(d), 1)[0]
        model = cost_recursion(d, n, M)
        assert res.tally.total_draws == model, (d, n, M)
        assert model <= cost_bound(d, n, M)


def test_declared_f_at_zero_strictly_saves_draws():
    d, n, M = 1, 3, 3
    skip = forward_problem(d=d)
    res_skip = estimate_batch(skip, params_for(n, M), 0.5, np.zeros(d), 1)[0]
    model = cost_recursion(d, n, M)
    assert res_skip.tally.total_draws < model
    # the skipped draws are exactly the level-0 f-samples: 1 uniform + d
    # gaussians per omitted sample, and the model still charges for them
    assert res_skip.tally.uniforms < res_skip.tally.gaussian_scalars


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("f_at_zero", [True, False])
@pytest.mark.parametrize("tiny", [False, True])
def test_tally_counts_what_the_kernels_and_callables_receive(monkeypatch, d,
                                                             f_at_zero, tiny):
    # the tally is counted where the work is done: times the lanes it is
    # the elements the gaussian and uniform kernels write and the rows the
    # data and reaction callables receive.  Tiny tiles (7 rows at d = 1, 2
    # at d = 3) split every lane over tiles, and at n = M = 4 the top
    # pass's 256 samples into two nodes of 128
    counts = collections.Counter()

    def counting(key, fn, size):
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts[key] += size(out, *args)
            return out
        return counted

    def written(out, *args):
        return out.size

    for name, key in (("gaussians_vec", "gaussian_scalars"),
                      ("uniforms_vec", "uniforms")):
        monkeypatch.setattr(estimator, name,
                            counting(key, getattr(estimator, name), written))
    if tiny:
        monkeypatch.setattr(estimator, "_TILE",
                            (7 if d == 1 else 2) * (d + estimator._ROW_EXTRA))
    base = make_problem(dimension=d, horizon=0.5,
                        nonlinearity=None if f_at_zero else no_skip_allen_cahn(),
                        data=builtin_data("cosine_mean", d, kappa=1.0))
    nl, data = base.nonlinearity, base.data
    prob = dataclasses.replace(
        base,
        nonlinearity=dataclasses.replace(nl, eval=counting(
            "f_evals", nl.eval, lambda out, t, x, u: len(x))),
        data=dataclasses.replace(data, eval=counting(
            "data_evals", data.eval, lambda out, x: len(x))))
    K = 3
    for n, M in ((3, 3), (4, 4)):
        counts.clear()
        batch = estimate_batch(prob, params_for(n, M, r=3.0, seed=2), 0.4,
                               np.linspace(-0.4, 0.3, d), K)
        tally = batch[0].tally
        assert dict(counts) == {key: K * value for key, value in
                                dataclasses.asdict(tally).items()}, (n, M)
        if not f_at_zero:
            assert tally.total_draws == cost_recursion(d, n, M), (n, M)


def test_repetitions_are_independent_of_the_batch_around_them(monkeypatch):
    # repetition j is a function of its own root alone: a 4-repetition
    # batch is the head of a 7-repetition batch run as 2-lane chunks
    prob = forward_problem(d=2)
    params = params_for(3, 2, seed=11)
    short = estimate_batch(prob, params, 0.5, np.zeros(2), 4)
    monkeypatch.setattr(estimator, "_CHUNK_BUDGET", 2 * 2**3 * 2)
    long = estimate_batch(prob, params, 0.5, np.zeros(2), 7, worker_count=2)
    assert [(r.value, r.tally) for r in long[:4]] == [
        (r.value, r.tally) for r in short]


def test_batch_bit_identical_across_worker_counts():
    prob = forward_problem(d=3)
    params = params_for(3, 3, seed=5)
    runs = {
        w: estimate_batch(prob, params, 0.5, np.zeros(3), 8, worker_count=w)
        for w in (1, 4, 8)
    }
    base = [res.value for res in runs[1]]
    for w in (4, 8):
        assert [res.value for res in runs[w]] == base
        assert [res.tally for res in runs[w]] == [res.tally for res in runs[1]]


def test_caller_point_is_never_written(monkeypatch):
    # the Brownian smear writes in place; it must never reach the caller's x
    monkeypatch.setattr(estimator, "_CHUNK_BUDGET", 4 * 3**3 * 3)
    fwd = make_problem(dimension=3, horizon=0.5,
                       nonlinearity=no_skip_allen_cahn(),
                       data=builtin_data("cosine_mean", 3, kappa=1.0))
    bwd = transform_to_backward(fwd)
    params = params_for(3, 3, seed=2)
    x = np.array([0.25, -0.5, 1.0])
    before = x.copy()
    estimate_batch(fwd, params, 0.5, x, 1)
    estimate_batch(bwd, params, 0.1, x, 1)
    for prob in (fwd, bwd):
        # three 4-lane chunks over two workers
        estimate_batch(prob, params, 0.2, x, 10, worker_count=2)
    assert x.flags.writeable
    assert x.tobytes() == before.tobytes()


def _recording_pool(monkeypatch):
    # the max_workers of every pool estimate_batch starts, in order
    requested = []

    class RecordingPool(estimator.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            requested.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(estimator, "ThreadPoolExecutor", RecordingPool)
    return requested


def test_batch_pool_starts_no_more_workers_than_chunks(monkeypatch):
    requested = _recording_pool(monkeypatch)
    # d = 3, n = M = 2: 12 elements per lane, so 4-lane chunks by the
    # budget, but 64 workers for 10 repetitions make 10 one-lane chunks
    monkeypatch.setattr(estimator, "_CHUNK_BUDGET", 4 * 2**2 * 3)
    prob = forward_problem(d=3)
    params = params_for(2, 2, seed=4)
    wide = estimate_batch(prob, params, 0.5, np.zeros(3), 10, worker_count=64)
    assert requested == [10]
    serial = estimate_batch(prob, params, 0.5, np.zeros(3), 10)
    assert [r.value for r in wide] == [r.value for r in serial]


def test_batch_gives_every_worker_a_chunk(monkeypatch):
    # d = 1, n = M = 4: the budget fits both repetitions in one chunk, but
    # two workers get one chunk each, with the values of one worker
    requested = _recording_pool(monkeypatch)
    prob = forward_problem(d=1, data=builtin_data("cosine_mean", 1, kappa=1.0))
    params = params_for(4, 4, seed=3)
    pair = estimate_batch(prob, params, 0.5, np.zeros(1), 2, worker_count=2)
    assert requested == [2]
    serial = estimate_batch(prob, params, 0.5, np.zeros(1), 2)
    assert requested == [2]
    assert [(r.value, r.tally) for r in pair] == [
        (r.value, r.tally) for r in serial]


def _tile_run(log, prob, params, t, x):
    # a multi-chunk batch on 2 workers, with every node it evaluates
    log.clear()
    batch = estimate_batch(prob, params, t, x, 7, worker_count=2)
    return ([(r.value, r.tally) for r in batch], log.peak,
            sorted(log.entries(params.seed, params.levels, params.branching,
                               7)))


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("data_name", ["constant", "cosine_mean",
                                       "gaussian_bump"])
@pytest.mark.parametrize("f_at_zero", [True, False])
def test_tiny_tiles_change_nothing(monkeypatch, recursion_log, d, data_name,
                                   f_at_zero):
    # tiles of 7 rows at d = 1 (runs of whole lanes at M^k <= 3, runs
    # inside a lane above) and of 2 rows at d = 3 (runs inside a lane), so
    # lanes and rows split across tiles at every level
    tiny = (7 if d == 1 else 2) * (d + estimator._ROW_EXTRA)
    params_ = {"value": 2.0} if data_name == "constant" else {"kappa": 1.5}
    data = builtin_data(data_name, d, **params_)
    nl = None if f_at_zero else no_skip_allen_cahn()
    fwd = make_problem(dimension=d, horizon=0.5, nonlinearity=nl, data=data)
    x = np.linspace(-0.4, 0.3, d)
    for prob, t in ((fwd, 0.4), (transform_to_backward(fwd), 0.1)):
        for n, M in ((3, 3), (4, 2)):
            params = params_for(n, M, r=3.0, seed=6)
            with monkeypatch.context() as patch:
                # 3 lanes per chunk, so 3 chunks of the 7 repetitions
                patch.setattr(estimator, "_CHUNK_BUDGET", 3 * M**n * d)
                default = _tile_run(recursion_log, prob, params, t, x)
                patch.setattr(estimator, "_TILE", tiny)
                tiled = _tile_run(recursion_log, prob, params, t, x)
            assert tiled == default, (prob.orientation, n, M)


def _tile_bound(n):
    # bytes one lane may hold at n = M levels, d = 1000: n tiles of points,
    # one per frame on the deepest path of the recursion (as _Engine._peak
    # plans them), and a few scalar arrays of M^n doubles
    return n * estimator._TILE * 8 + 16 * 8 * n**n


def _traced_peak(run):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [3, 4, 5])
def test_peak_memory_is_bounded_by_tiles(n):
    # one lane at d = 1000: the points live in at most n tiles; what grows
    # with M^n is only a few scalar arrays.  Unbounded, the level-0 array
    # alone is M^n * d doubles (25 MB at n = M = 5)
    d = 1000
    prob = make_problem(dimension=d, horizon=0.05)
    params = params_for(n, n, r=3.0, seed=1)
    peak = _traced_peak(
        lambda: estimate_batch(prob, params, 0.05, np.zeros(d), 1))
    bound = _tile_bound(n)
    assert peak <= bound, (n, peak, bound)


def test_peak_memory_of_two_workers_is_twice_one_workers_bound(monkeypatch):
    # the cli_d1000_2w shape (backward, d = 1000, n = M = 4, two chunks on
    # two workers) at two lanes per chunk: each worker holds its own store,
    # and together they stay within twice the one-worker bound above
    n, d, K = 4, 1000, 4
    monkeypatch.setattr(estimator, "_CHUNK_BUDGET", 2 * n**n * d)
    prob = make_problem(dimension=d, horizon=0.05,
                        orientation=Orientation.BACKWARD)
    params = params_for(n, n, r=3.0, seed=1)
    peak = _traced_peak(lambda: estimate_batch(
        prob, params, 0.0, np.zeros(d), K, worker_count=2))
    bound = 2 * _tile_bound(n)
    assert peak <= bound, (peak, bound)


def test_peak_memory_is_bounded_by_tiles_at_d1():
    # the table_d1 shape: K = 2 lanes at d = 1, n = M = 6.  Every level
    # folds K * M^n (lane, sample) pairs, so a tile holds at most
    # min(_TILE, K * M^n * d) elements, and n of them plus the
    # scalar arrays of the d = 1000 cases, K times over, bound the run
    n, K, d = 6, 2, 1
    prob = make_problem(dimension=d, horizon=0.1,
                        data=builtin_data("cosine_mean", d, kappa=1.0))
    params = params_for(n, n, r=3.0, seed=1)
    peak = _traced_peak(
        lambda: estimate_batch(prob, params, 0.1, np.zeros(d), K))
    bound = n * min(estimator._TILE, K * n**n * d) * 8 + 16 * 8 * K * n**n
    assert peak <= bound, (peak, bound)


def _store_bound(n, d):
    # elements the store holds at most at n levels, whatever K and M^n, when
    # no lane spans a tile and a chunk's lanes fit in one tile's rows: per
    # frame on the deepest path one tile of points and eight arrays of one
    # element per tile row (the frame's results, its two parent digests, a
    # tile's two digests, times and scales, and a child's results)
    rows = max(1, estimator._TILE // d)
    return n * (estimator._TILE + 8 * rows)


def test_peak_memory_does_not_grow_with_repetitions(monkeypatch):
    # d = 1, n = M = 4, K = 4000: one chunk of 4000 lanes.  The store and
    # one tile of outputs bound the run; lanes * M^n arrays would not fit
    n, d, K = 4, 1, 4000
    plans = []

    class Planned(estimator._Scratch):
        def __init__(self, size):
            super().__init__(size)
            plans.append(size)

    monkeypatch.setattr(estimator, "_Scratch", Planned)
    prob = make_problem(dimension=d, horizon=0.1,
                        data=builtin_data("cosine_mean", d, kappa=1.0))
    params = params_for(n, n, r=3.0, seed=1)
    peak = _traced_peak(
        lambda: estimate_batch(prob, params, 0.1, np.zeros(d), K))
    rows = max(1, estimator._TILE // d)
    assert len(plans) == 1 and plans[0] <= _store_bound(n, d), plans
    bound = 8 * (_store_bound(n, d) + rows)
    assert peak <= bound, (peak, bound)


def _plan_bound(n, M, K):
    # elements the store may plan for K lanes at n levels, whatever d.  A
    # path of the recursion has at most n frames with passes (levels n..1),
    # each holding at most one tile of _TILE elements, d + 5 per row (a
    # correction row's points, two digests, time, scale and the level-k
    # child's result), and at most one spanning pass's one-lane buffer, of
    # at most M^level elements.  Besides, a frame holds at most three
    # elements per lane (its result and two digests); the top frame has K
    # lanes, each deeper one the rows of one tile, at most _TILE / 6
    return (n * estimator._TILE + 3 * K + (n - 1) * (estimator._TILE // 2)
            + sum(M**j for j in range(1, n + 1)))


def test_plan_bound_does_not_depend_on_dimension():
    # a tile's rows count everything they hold, so a frame plans about one
    # tile of elements at any d, d = 1 included
    for d, n, K, nl in itertools.product(
            (1, 2, 7, 100, 1000), (3, 4, 5), (1, 2, 1000),
            (None, no_skip_allen_cahn())):
        prob = make_problem(dimension=d, horizon=0.5, nonlinearity=nl)
        plan = estimator._Engine(prob, params_for(n, n))._peak(n, K, {})
        assert plan <= _plan_bound(n, n, K), (d, n, K, plan)


def test_each_pass_drops_its_sums_before_the_next_tile(monkeypatch):
    # every tile's sample call finds each earlier tile's results and
    # whole-lane sums freed, so no frame keeps a stale array on the heap
    # through the next tile's recursion
    original = estimator._Engine._pass
    earlier = []

    def watched(self, lanes, m, sign, sample):
        def checked(*args):
            alive = sum(ref() is not None for ref in earlier)
            assert not alive, f"{alive} earlier arrays still alive"
            values = sample(*args)
            earlier.append(weakref.ref(values))
            return values

        for item in original(self, lanes, m, sign, checked):
            if isinstance(item[1], np.ndarray):
                earlier.append(weakref.ref(item[1]))
            yield item
            del item

    monkeypatch.setattr(estimator._Engine, "_pass", watched)
    # 7 rows per tile: passes of M^k <= 3 samples run two or more lanes per
    # tile and take several tiles
    monkeypatch.setattr(estimator, "_TILE", 7 * (1 + estimator._ROW_EXTRA))
    prob = forward_problem(d=1, data=builtin_data("cosine_mean", 1, kappa=1.0))
    estimate_batch(prob, params_for(3, 3), 0.4, np.zeros(1), 20)
    assert len(earlier) >= 10


@pytest.mark.parametrize("tile", [None, 7])
def test_scratch_holds_exactly_the_largest_live_set(monkeypatch, tile):
    # the store is sized by its plan before the run: a take that does not
    # fit raises, and no byte of it may go unused at the peak
    runs = []

    class Audited(estimator._Scratch):
        def __init__(self, size):
            super().__init__(size)
            self.high = 0
            runs.append(self)

        def take(self, shape, dtype=np.uint64):
            out = super().take(shape, dtype)
            self.high = max(self.high, self._used)
            return out

    monkeypatch.setattr(estimator, "_Scratch", Audited)
    if tile is not None:
        monkeypatch.setattr(estimator, "_TILE", tile)
    for d, n, M, K, nl in itertools.product(
            (1, 3, 100), (1, 2, 4), (1, 3), (1, 5),
            (None, no_skip_allen_cahn())):
        if M**n * d * K > 1e5:
            continue
        runs.clear()
        prob = make_problem(dimension=d, horizon=0.5, nonlinearity=nl)
        estimate_batch(prob, params_for(n, M, seed=1), 0.4, np.zeros(d), K)
        [run] = runs
        assert run.high == run._buf.size, (d, n, M, K)


@pytest.mark.parametrize("n", [7, 8, 9])
def test_plan_of_spanning_lanes_holds_one_node_per_frame(n):
    # d = 1, n = M, K = 1: every pass from M^level > 21845 samples up spans
    # tiles.  The bound is _plan_bound with its buffer term, M^level floats
    # per frame, replaced by one node of a spanning lane, at most
    # max(rows, _PAIRWISE_BLOCK) floats per frame: n tiles, three elements
    # per lane of the top frame and half a tile per deeper one, and n
    # nodes.  The one-lane buffers planned 6.6, 128 and 2956 MiB at n = 7,
    # 8, 9; at most 6 MiB is the figure this bound is kept for
    d, K = 1, 1
    rows = estimator._TILE // (d + estimator._ROW_EXTRA)
    bound = (n * estimator._TILE + 3 * K + (n - 1) * (estimator._TILE // 2)
             + n * max(rows, estimator._PAIRWISE_BLOCK))
    prob = make_problem(dimension=d, horizon=0.5)
    plan = estimator._Engine(prob, params_for(n, n))._peak(n, K, {})
    assert plan <= bound, (plan, bound)
    assert 8 * plan <= 6 * 2**20, plan


def test_spanning_lanes_keep_the_bits_of_one_reduction(monkeypatch):
    # at tiles of 7 rows (d = 1), n = M = 4, each lane's 256 top-level
    # samples are summed along numpy's pairwise tree, as two nodes of 128
    # gathered from 19 tiles each; at the default tile the lane is one
    # array.  Values and tallies agree, and the store's high-water mark is
    # its plan.  The datum exp(10 x) spans many binades, so a sum added in
    # another order (a node cap of 32, say) changes bits
    d, K = 1, 3
    data = dataclasses.replace(builtin_data("cosine_mean", d, kappa=1.0),
                               eval=lambda x: np.exp(10.0 * x[:, 0]))
    prob = make_problem(dimension=d, horizon=0.5,
                        nonlinearity=no_skip_allen_cahn(), data=data)
    params = params_for(4, 4, r=3.0, seed=5)
    want = [(r.value, r.tally)
            for r in estimate_batch(prob, params, 0.4, np.zeros(d), K)]
    runs = []

    class Audited(estimator._Scratch):
        def __init__(self, size):
            super().__init__(size)
            self.high = 0
            runs.append(self)

        def take(self, shape, dtype=np.uint64):
            out = super().take(shape, dtype)
            self.high = max(self.high, self._used)
            return out

    monkeypatch.setattr(estimator, "_Scratch", Audited)
    monkeypatch.setattr(estimator, "_TILE", 7 * (d + estimator._ROW_EXTRA))
    got = [(r.value, r.tally)
           for r in estimate_batch(prob, params, 0.4, np.zeros(d), K)]
    assert got == want
    [run] = runs
    assert run.high == run._buf.size, (run.high, run._buf.size)


def test_scratch_take_beyond_its_plan_raises():
    # a plan that falls short is a bug in _peak, never a silent allocation
    scratch = estimator._Scratch(4)
    scratch.take((1, 3))
    with pytest.raises(AssertionError, match="short"):
        scratch.take((2,))

def _aliasing_problems(orientation):
    # callables that return views of their inputs (the data a column of the
    # points, the reactions u or t), and twins that return copies
    def problem(data, reaction):
        nl = Nonlinearity(eval=reaction, lipschitz_local=lambda r: 1.0,
                          coercivity_c=1.0, autonomous=False)
        return make_problem(dimension=2, horizon=0.5, orientation=orientation,
                            nonlinearity=nl,
                            data=dataclasses.replace(
                                builtin_data("cosine_mean", 2, kappa=1.0),
                                eval=data))

    for reaction, twin in ((lambda t, x, u: u, lambda t, x, u: u.copy()),
                           (lambda t, x, u: t, lambda t, x, u: t.copy())):
        yield (problem(lambda x: x[:, 0], reaction),
               problem(lambda x: x[:, 0].copy(), twin))


@pytest.mark.parametrize("orientation", list(Orientation))
def test_callables_returning_views_see_no_reused_memory(monkeypatch,
                                                        orientation):
    # the store reuses its buffer as soon as a tile is done, so a value that
    # still shares it must be copied first
    params = params_for(3, 3, r=3.0, seed=8)
    x = np.array([0.3, -0.2])
    for viewing, copying in _aliasing_problems(orientation):
        for tile in (estimator._TILE, 7):
            with monkeypatch.context() as patch:
                patch.setattr(estimator, "_TILE", tile)
                # 2 lanes per chunk, so 3 chunks of the 5 repetitions
                patch.setattr(estimator, "_CHUNK_BUDGET", 2 * 3**3 * 2)
                for workers in (1, 2):
                    got, want = (
                        [(r.value, r.tally) for r in estimate_batch(
                            prob, params, 0.2, x, 5, worker_count=workers)]
                        for prob in (viewing, copying))
                    assert got == want, (tile, workers)


def test_correction_nodes_share_time_and_point(recursion_log):
    # inside one correction the level-k evaluation at (theta, k, m) and the
    # level-(k-1) one at (theta, -k, m) receive the same (R, X).  The k = 1
    # lower evaluation is level 0 and carries no digest: it is the call
    # right after its level-1 partner, which makes no call of its own
    prob = forward_problem(d=2)
    estimate_batch(prob, params_for(3, 2, seed=3), 0.5, np.zeros(2), 1)
    points = {path: (t, x)
              for path, _, t, x in recursion_log.entries(3, 3, 2, 1)}
    pairs = 0
    for path, point in points.items():
        if len(path) > 1 and path[-2] > 1:
            assert points[path[:-2] + (-path[-2], path[-1])] == point, path
            pairs += 1
    calls = recursion_log.calls
    for (n, t, x, digests), (hi, t_hi, x_hi, _) in zip(calls[1:], calls):
        if digests is None:
            assert n == 0 and hi == 1
            assert t.tobytes() == t_hi.tobytes()
            assert x.tobytes() == x_hi.tobytes()
            pairs += len(t)
    # one pair per correction: 4 + 2 at the level-3 root, 2 under each of
    # its two level-2 nodes
    assert pairs == 4 + 2 + 2 * 2


def _node_count(n, M):
    # nodes of one level-n tree that read their digest: the root and, for
    # each correction (k, m), its level-k node and, for k >= 2, its twin
    return 1 + sum(M ** (n - k) * (_node_count(k, M)
                                   + (_node_count(k - 1, M) if k > 1 else 0))
                   for k in range(1, n))


def test_every_absorbed_digest_names_one_node_once(monkeypatch,
                                                   recursion_log):
    # the digests the recursion evaluates at are exactly the layout's nodes,
    # one call each, for every repetition of a multi-chunk batch
    for prob, t in ((forward_problem(d=2), 0.5),
                    (transform_to_backward(forward_problem(d=2)), 0.1)):
        for n, M, K in ((3, 3, 2), (4, 2, 3), (1, 2, 2)):
            recursion_log.clear()
            with monkeypatch.context() as patch:
                patch.setattr(estimator, "_CHUNK_BUDGET", M**n * 2)
                estimate_batch(prob, params_for(n, M, seed=4), t, np.zeros(2),
                               K, worker_count=2)
            # entries() names each digest by its layout node, or raises
            paths = [path for path, *_ in recursion_log.entries(4, n, M, K)]
            assert len(set(paths)) == len(paths) == K * _node_count(n, M)


def test_recorded_correction_draws_follow_their_laws(recursion_log):
    # each correction's (R, X), read against the (t, x) its parent received:
    # R normalised to its interval is U(0, 1), and the Brownian increment
    # scaled by sqrt(vs * elapsed) is N(0, I); vs = 2 forward, 1 backward
    d, horizon = 2, 0.5
    x0 = np.array([0.3, -0.7])
    us, zs = [], []
    for orientation, t in ((Orientation.FORWARD, 0.5),
                           (Orientation.BACKWARD, 0.1)):
        prob = make_problem(dimension=d, horizon=horizon,
                            orientation=orientation)
        forward = orientation is Orientation.FORWARD
        for seed in range(300):
            recursion_log.clear()
            estimate_batch(prob, params_for(4, 4, seed=seed), t, x0, 1)
            entries = recursion_log.entries(seed, 4, 4, 1)
            points = {path: (t_, x) for path, _, t_, x in entries}
            for path, _, r, x in entries:
                if len(path) == 1 or path[-2] < 0:
                    continue  # the root, and the lower twins of each pair
                t_par, x_par = points[path[:-2]]
                if forward:
                    us.append(r / t_par)
                    elapsed, vs = t_par - r, 2.0
                else:
                    us.append((r - t_par) / (horizon - t_par))
                    elapsed, vs = r - t_par, 1.0
                zs.append((np.array(x) - x_par) / np.sqrt(vs * elapsed))
    us, zs = np.array(us), np.concatenate(zs)
    assert np.all((0.0 <= us) & (us < 1.0))
    assert abs(us.mean() - 0.5) < 0.005
    assert abs(us.var() - 1.0 / 12.0) < 0.002
    assert abs(zs.mean()) < 0.015
    assert abs(zs.var() - 1.0) < 0.02


def test_truncation_inactive_radii_are_equivalent(recursion_log):
    prob = forward_problem(d=2)
    res_small = estimate_batch(prob, params_for(3, 3, r=1e6, seed=2), 0.5,
                               np.zeros(2), 1)[0]
    peak = recursion_log.peak
    res_large = estimate_batch(prob, params_for(3, 3, r=1e9, seed=2), 0.5,
                               np.zeros(2), 1)[0]
    assert peak < 1e6
    assert res_small.value == res_large.value


def test_truncation_active_radius_changes_value():
    prob = forward_problem(d=2)
    res_tight = estimate_batch(prob, params_for(3, 3, r=0.5, seed=2), 0.5,
                               np.zeros(2), 1)[0]
    res_loose = estimate_batch(prob, params_for(3, 3, r=1e9, seed=2), 0.5,
                               np.zeros(2), 1)[0]
    assert res_tight.value != res_loose.value


def test_transform_to_backward_matches_metadata():
    prob = forward_problem(d=3)
    twin = transform_to_backward(prob)
    assert twin.orientation is Orientation.BACKWARD
    assert twin.horizon == prob.horizon
    assert twin.dimension == prob.dimension
    x = np.array([[0.5, -1.0, 2.0]])
    expected = np.asarray(prob.data.eval(x * np.sqrt(2.0)))
    got = np.asarray(twin.data.eval(x))
    assert np.allclose(got, expected, rtol=0, atol=0)
    # autonomous nonlinearity carries over unchanged
    u = np.array([1.25])
    assert np.array_equal(
        np.asarray(twin.nonlinearity.eval(np.zeros(1), x, u)),
        np.asarray(prob.nonlinearity.eval(np.zeros(1), x, u)),
    )


def test_backward_twin_of_terminal_point_returns_transformed_datum():
    prob = forward_problem(d=2)
    twin = transform_to_backward(prob)
    # backward value at t = T is the terminal datum g(x) = data(x * sqrt 2)
    x = np.array([0.7, -0.2])
    res = estimate_batch(twin, params_for(1, 1), prob.horizon, x, 1)[0]
    expected = float(np.asarray(twin.data.eval(x[None, :]))[0])
    assert res.value == expected


# estimate_batch values (3 repetitions, seed 8, radius 3, T = 0.5) as
# float.hex, by (d, orientation, datum, nonlinearity, n, M).  The point is
# x = linspace(-0.4, 0.3, d), at t = 0.4 forward and t = 0.1 backward.
# Re-pinned when Allen-Cahn moved from u - u**3 to u - u * u * u: 27 of
# the 72 allen_cahn values moved, by at most 4.2e-15 relative; the forced
# rows (their own u**3) and every tally did not move.
ESTIMATE_MIRROR = {
    (1, "forward", "constant", "allen_cahn", 3, 3):
        ("0x1.8a4a5e1fe92dap+0", "0x1.9f494d9d93818p+0", "0x1.a7bba94a1ed48p-1"),
    (1, "forward", "constant", "allen_cahn", 4, 2):
        ("0x1.1ea0e8ffd1b20p-2", "0x1.5d12bfaa8a998p-2", "0x1.449d614213af0p-3"),
    (1, "forward", "constant", "forced", 3, 3):
        ("0x1.902f1300925bbp+0", "0x1.a083bdb49a3aap+0", "0x1.b3194514aac2cp-1"),
    (1, "forward", "constant", "forced", 4, 2):
        ("0x1.2fd73d2c0a17cp-2", "0x1.34d56bb880764p-2", "0x1.6822b9c893cbcp-3"),
    (1, "forward", "cosine_mean", "allen_cahn", 3, 3):
        ("0x1.4ccce81cb07f4p-1", "0x1.5e7a3ba5c4375p-1", "0x1.0ef23126f4a76p+0"),
    (1, "forward", "cosine_mean", "allen_cahn", 4, 2):
        ("0x1.0d264da7fa494p+0", "0x1.060d94d9aa8dfp+0", "0x1.2200fd58c282ap+0"),
    (1, "forward", "cosine_mean", "forced", 3, 3):
        ("0x1.5970e573570cdp-1", "0x1.65f3ff48a7e70p-1", "0x1.165459908c1acp+0"),
    (1, "forward", "cosine_mean", "forced", 4, 2):
        ("0x1.1489d0d7486e3p+0", "0x1.09ee49f07726fp+0", "0x1.29386d57d7957p+0"),
    (1, "forward", "gaussian_bump", "allen_cahn", 3, 3):
        ("0x1.615ad302233aap-1", "0x1.a2a393e9deab2p-1", "0x1.f0de2a01ddea3p-1"),
    (1, "forward", "gaussian_bump", "allen_cahn", 4, 2):
        ("0x1.0fa2447df7df1p+0", "0x1.fb9a8e463e493p-1", "0x1.26c387969f96ep+0"),
    (1, "forward", "gaussian_bump", "forced", 3, 3):
        ("0x1.6f836a92d7f49p-1", "0x1.abb507c4fa0c1p-1", "0x1.ff8b5392a1516p-1"),
    (1, "forward", "gaussian_bump", "forced", 4, 2):
        ("0x1.17ee60e600133p+0", "0x1.02081410ed9b5p+0", "0x1.2e922a5a4ca39p+0"),
    (1, "backward", "constant", "allen_cahn", 3, 3):
        ("0x1.eaeb69a801a16p+0", "0x1.73b77acfcd7aap+0", "0x1.f7a53e53e2ffep+0"),
    (1, "backward", "constant", "allen_cahn", 4, 2):
        ("0x1.411fcf4afa159p+0", "0x1.d0f2aeb00e780p-4", "0x1.73683756efa08p-3"),
    (1, "backward", "constant", "forced", 3, 3):
        ("0x1.f2fe3c898bbfap+0", "0x1.8a836e578b0f9p+0", "0x1.07615091205e0p+1"),
    (1, "backward", "constant", "forced", 4, 2):
        ("0x1.3ff920317ae0ep+0", "0x1.9f77192a2adb0p-4", "0x1.043d686fb9ad0p-3"),
    (1, "backward", "cosine_mean", "allen_cahn", 3, 3):
        ("0x1.00c04f38fc675p+0", "0x1.c9e2523c14c08p-1", "0x1.5059814865f1cp+0"),
    (1, "backward", "cosine_mean", "allen_cahn", 4, 2):
        ("0x1.2651dd548611ep+0", "0x1.140b2c4b50943p+0", "0x1.2fc2732d180cfp+0"),
    (1, "backward", "cosine_mean", "forced", 3, 3):
        ("0x1.07cc7347f57c8p+0", "0x1.e806c928ad67ap-1", "0x1.6053937b91d05p+0"),
    (1, "backward", "cosine_mean", "forced", 4, 2):
        ("0x1.3028bc0387714p+0", "0x1.22719c89ffcc0p+0", "0x1.3c918a677c32bp+0"),
    (1, "backward", "gaussian_bump", "allen_cahn", 3, 3):
        ("0x1.e3151ede65d22p-1", "0x1.a0abb2200dcc5p-1", "0x1.39fe6df3e6fc4p+0"),
    (1, "backward", "gaussian_bump", "allen_cahn", 4, 2):
        ("0x1.1911f62c5ff98p+0", "0x1.139f87d33fdb7p+0", "0x1.2a3f0e2f3b718p+0"),
    (1, "backward", "gaussian_bump", "forced", 3, 3):
        ("0x1.f43ca8671e1bcp-1", "0x1.ba1ee3fdc57e5p-1", "0x1.49016f0042024p+0"),
    (1, "backward", "gaussian_bump", "forced", 4, 2):
        ("0x1.26a8ba23c6cd1p+0", "0x1.21419df74b378p+0", "0x1.376bdf946cc1ep+0"),
    (3, "forward", "constant", "allen_cahn", 3, 3):
        ("0x1.8a4a5e1fe92dap+0", "0x1.9f494d9d93818p+0", "0x1.a7bba94a1ed48p-1"),
    (3, "forward", "constant", "allen_cahn", 4, 2):
        ("0x1.1ea0e8ffd1b20p-2", "0x1.5d12bfaa8a998p-2", "0x1.449d614213af0p-3"),
    (3, "forward", "constant", "forced", 3, 3):
        ("0x1.8345b79967a76p+0", "0x1.a0ecff8dfd272p+0", "0x1.b546c7a24c89cp-1"),
    (3, "forward", "constant", "forced", 4, 2):
        ("0x1.2a78de68aa990p-2", "0x1.2506028f4ab34p-2", "0x1.5b65eeaa22394p-3"),
    (3, "forward", "cosine_mean", "allen_cahn", 3, 3):
        ("0x1.823c2c4885994p-1", "0x1.d1067ddb00498p-1", "0x1.275c77c93de7ep+0"),
    (3, "forward", "cosine_mean", "allen_cahn", 4, 2):
        ("0x1.1f12663b07052p+0", "0x1.586e1ac45e006p-1", "0x1.da0724e53e2cbp-1"),
    (3, "forward", "cosine_mean", "forced", 3, 3):
        ("0x1.8723554882eccp-1", "0x1.d6d9006b44fdbp-1", "0x1.2e0a4d5c3ca72p+0"),
    (3, "forward", "cosine_mean", "forced", 4, 2):
        ("0x1.24e03bb01e546p+0", "0x1.5e42c6e687b86p-1", "0x1.e34fe6f1a4bf1p-1"),
    (3, "forward", "gaussian_bump", "allen_cahn", 3, 3):
        ("0x1.3ed09669a47dbp-1", "0x1.59a1f69f1205fp-1", "0x1.ea7cacde40210p-1"),
    (3, "forward", "gaussian_bump", "allen_cahn", 4, 2):
        ("0x1.55b4156eb082bp-1", "0x1.1d665dccde3dbp-1", "0x1.fdc13d68c0b43p-1"),
    (3, "forward", "gaussian_bump", "forced", 3, 3):
        ("0x1.49257a1707b6fp-1", "0x1.64822399e7180p-1", "0x1.f83f4d3a6e39ep-1"),
    (3, "forward", "gaussian_bump", "forced", 4, 2):
        ("0x1.6291ecf4c7ccdp-1", "0x1.2a9026944681cp-1", "0x1.045a4befc98f8p+0"),
    (3, "backward", "constant", "allen_cahn", 3, 3):
        ("0x1.eaeb69a801a16p+0", "0x1.73b77acfcd7aap+0", "0x1.f7a53e53e2ffep+0"),
    (3, "backward", "constant", "allen_cahn", 4, 2):
        ("0x1.411fcf4afa159p+0", "0x1.d0f2aeb00e780p-4", "0x1.73683756efa08p-3"),
    (3, "backward", "constant", "forced", 3, 3):
        ("0x1.cebe1739d1facp+0", "0x1.7b943b5cdc6abp+0", "0x1.0161bb0b53b3cp+1"),
    (3, "backward", "constant", "forced", 4, 2):
        ("0x1.33af0c2cf5492p+0", "0x1.b0edc48c480a8p-3", "0x1.0040dff048940p-3"),
    (3, "backward", "cosine_mean", "allen_cahn", 3, 3):
        ("0x1.f7961cb309c8cp-1", "0x1.0091943cbab79p+0", "0x1.6006a57ad74c4p+0"),
    (3, "backward", "cosine_mean", "allen_cahn", 4, 2):
        ("0x1.12333a9b49f03p+0", "0x1.a88d80a93609ep-1", "0x1.07df53281063fp+0"),
    (3, "backward", "cosine_mean", "forced", 3, 3):
        ("0x1.f030d9d407be0p-1", "0x1.0927ab2d72119p+0", "0x1.69d9fe511d08ep+0"),
    (3, "backward", "cosine_mean", "forced", 4, 2):
        ("0x1.1293164297d9ep+0", "0x1.c042e83899718p-1", "0x1.07887e8e5654ep+0"),
    (3, "backward", "gaussian_bump", "allen_cahn", 3, 3):
        ("0x1.dc1c21c596508p-1", "0x1.b9d9e22d6bc10p-1", "0x1.04d0b86e567afp+0"),
    (3, "backward", "gaussian_bump", "allen_cahn", 4, 2):
        ("0x1.11f657b9ee934p+0", "0x1.9ecc3e14dc31cp-1", "0x1.082f3a8182a51p+0"),
    (3, "backward", "gaussian_bump", "forced", 3, 3):
        ("0x1.e64e61af54caap-1", "0x1.cc222bcf9fcbdp-1", "0x1.08eab43ff003ap+0"),
    (3, "backward", "gaussian_bump", "forced", 4, 2):
        ("0x1.1b7f82c7acf92p+0", "0x1.b569453c2b91ep-1", "0x1.0ca9f95e2932ap+0"),
}

# (gaussian_scalars, uniforms, f_evals, data_evals) per repetition, by
# (d, nonlinearity, n, M); the orientation and the datum change none
ESTIMATE_MIRROR_TALLY = {
    (1, "allen_cahn", 3, 3): (138, 21, 42, 117),
    (1, "allen_cahn", 4, 2): (206, 46, 92, 160),
    (1, "forced", 3, 3): (255, 138, 159, 117),
    (1, "forced", 4, 2): (366, 206, 252, 160),
    (3, "allen_cahn", 3, 3): (414, 21, 42, 117),
    (3, "allen_cahn", 4, 2): (618, 46, 92, 160),
    (3, "forced", 3, 3): (765, 138, 159, 117),
    (3, "forced", 4, 2): (1098, 206, 252, 160),
}


def test_estimate_hardcoded_mirror(monkeypatch):
    # pins every draw, smear, evaluation and reduction of the recursion,
    # in both orientations and on the level-0 f-sample path
    monkeypatch.setattr(estimator, "_CHUNK_BUDGET", 1)  # 3 one-lane chunks
    nonlinearities = {"allen_cahn": None, "forced": forced_allen_cahn()}
    data_params = {"constant": {"value": 2.0}, "cosine_mean": {"kappa": 1.5},
                   "gaussian_bump": {"kappa": 1.5}}
    got, tallies = {}, {}
    for d, orientation, data_name, f_name, (n, M) in itertools.product(
            (1, 3), ("forward", "backward"), data_params, nonlinearities,
            ((3, 3), (4, 2))):
        prob = make_problem(
            dimension=d, horizon=0.5, orientation=Orientation(orientation),
            nonlinearity=nonlinearities[f_name],
            data=builtin_data(data_name, d, **data_params[data_name]))
        t = 0.4 if orientation == "forward" else 0.1
        batch = estimate_batch(prob, params_for(n, M, r=3.0, seed=8), t,
                               np.linspace(-0.4, 0.3, d), 3, worker_count=2)
        got[(d, orientation, data_name, f_name, n, M)] = tuple(
            res.value.hex() for res in batch)
        for res in batch:
            tallies.setdefault((d, f_name, n, M), set()).add(
                dataclasses.astuple(res.tally))
    assert got == ESTIMATE_MIRROR
    assert tallies == {key: {tally}
                       for key, tally in ESTIMATE_MIRROR_TALLY.items()}


# estimate_batch at shapes whose lanes span tiles or share them, with
# cosine_mean data (kappa = 1), so every gaussian reaches a value: by (d,
# orientation, nonlinearity), the SHA-256 of the values' float.hex joined
# by commas.  n = M = 5, seed 8, radius 3, T = 0.5, x = linspace(-0.4,
# 0.3, d), t = 0.4 forward and 0.1 backward.  At d = 100 (K = 2) the top
# data pass of a lane, 3125 samples in tiles of 1248 rows, spans three
# tiles; at d = 1 (K = 100) the top pass's tiles hold 6 whole lanes each
TILED_MIRROR = {
    (100, "forward", "allen_cahn"):
        "bfa3f305a144227ecc942d1e8430b37cefd5831167666c31728a2241cbca72ca",
    (100, "forward", "forced"):
        "6efebdf845890a9a516c281e853633de1a54ef8239ca3688e449ce4459630eec",
    (100, "backward", "allen_cahn"):
        "5f0cad5c352f1e59f26e0eadadcf5811e78ef8f62dfb6ced54e572830a5a04fa",
    (100, "backward", "forced"):
        "6e7898b1b9cae81ababcdd3d0ef0ce3579c24c2f78c8551833e5133e350c9103",
    (1, "forward", "allen_cahn"):
        "38a580af6439f423536347fd61fc802c28480ad35d492d32fabee8d3f7023d23",
    (1, "forward", "forced"):
        "0083a2f8734ad424dbff73cbc59f71e1069aaba9d5d9850e33568a56b9fb82a9",
    (1, "backward", "allen_cahn"):
        "d25e30684d2755f026c04026953665bc9f9ec3a7ee231a0b047ff292b3005b35",
    (1, "backward", "forced"):
        "be90b32a13055b78bddecc8f79627b0179a7210b552e0fd41afeb75b3275b764",
}

# (gaussian_scalars, uniforms, f_evals, data_evals) per repetition, by
# (d, nonlinearity); the orientation changes none
TILED_MIRROR_TALLY = {
    (100, "allen_cahn"): (6370500, 6080, 12160, 57625),
    (100, "forced"): (12133000, 63705, 69785, 57625),
    (1, "allen_cahn"): (63705, 6080, 12160, 57625),
    (1, "forced"): (121330, 63705, 69785, 57625),
}


def test_estimate_mirror_where_lanes_span_or_share_tiles():
    # pins the reductions of lanes split across tiles and of tiles that
    # hold many lanes, at the default tile, where every draw is live
    nonlinearities = {"allen_cahn": None, "forced": forced_allen_cahn()}
    got, tallies = {}, {}
    for (d, K), orientation, f_name in itertools.product(
            ((100, 2), (1, 100)), ("forward", "backward"), nonlinearities):
        prob = make_problem(
            dimension=d, horizon=0.5, orientation=Orientation(orientation),
            nonlinearity=nonlinearities[f_name],
            data=builtin_data("cosine_mean", d, kappa=1.0))
        t = 0.4 if orientation == "forward" else 0.1
        batch = estimate_batch(prob, params_for(5, 5, r=3.0, seed=8), t,
                               np.linspace(-0.4, 0.3, d), K)
        got[(d, orientation, f_name)] = hashlib.sha256(",".join(
            res.value.hex() for res in batch).encode()).hexdigest()
        for res in batch:
            tallies.setdefault((d, f_name), set()).add(
                dataclasses.astuple(res.tally))
    assert got == TILED_MIRROR
    assert tallies == {key: {tally}
                       for key, tally in TILED_MIRROR_TALLY.items()}
