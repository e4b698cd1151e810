"""Estimator semantics: exact base cases, draw accounting, sharing, truncation."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from mlpicard import estimator
from mlpicard.bounds import cost_bound, cost_recursion
from mlpicard.estimator import (
    CostTally,
    EstimatorProbe,
    MlpParams,
    estimate_backward,
    estimate_batch,
    estimate_forward,
    transform_to_backward,
)
from mlpicard.problem import (
    Nonlinearity,
    Orientation,
    builtin_data,
    make_problem,
)
from mlpicard.randomness import NodeId


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
        name="allen_cahn_noskip",
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
        name="forced_allen_cahn",
    )


def params_for(n, M, r=4.0, seed=0, **kw):
    return MlpParams(levels=n, branching=M, truncation_radius=r, seed=seed, **kw)


def test_zero_levels_is_zero_with_zero_tally():
    prob = forward_problem(d=3)
    res = estimate_forward(prob, params_for(0, 1), 0.5, np.zeros(3))
    assert res.value == 0.0
    assert res.tally == CostTally()


def test_single_level_single_branch_returns_datum():
    for d in (1, 2, 7):
        prob = forward_problem(d=d)
        res = estimate_forward(prob, params_for(1, 1), 0.5, np.zeros(d))
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
            res = estimate_forward(prob, params_for(2, 2, seed=seed), 0.5,
                                   np.zeros(d))
            assert res.value == -1.0


def test_forward_at_time_zero_returns_datum():
    prob = forward_problem(d=2)
    res = estimate_forward(prob, params_for(3, 2), 0.0, np.ones(2))
    assert res.value == 2.0


def test_backward_at_horizon_returns_terminal_datum():
    data = builtin_data("cosine_mean", 3, kappa=2.0)
    prob = make_problem(dimension=3, horizon=0.5,
                        orientation=Orientation.BACKWARD, data=data)
    x = np.array([0.3, -1.2, 0.5])
    res = estimate_backward(prob, params_for(1, 1), 0.5, x)
    expected = float(np.asarray(data.eval(x[None, :]))[0])
    assert res.value == expected


def test_orientation_mismatch_rejected():
    fwd = forward_problem()
    bwd = make_problem(dimension=1, horizon=0.5,
                       orientation=Orientation.BACKWARD)
    with pytest.raises(ValueError):
        estimate_backward(fwd, params_for(1, 1), 0.5, np.zeros(1))
    with pytest.raises(ValueError):
        estimate_forward(bwd, params_for(1, 1), 0.5, np.zeros(1))


def test_point_validation():
    prob = forward_problem(d=2)
    p = params_for(1, 1)
    with pytest.raises(ValueError):
        estimate_forward(prob, p, 0.7, np.zeros(2))  # t > T
    with pytest.raises(ValueError):
        estimate_forward(prob, p, -0.1, np.zeros(2))
    with pytest.raises(ValueError):
        estimate_forward(prob, p, 0.5, np.zeros(3))  # wrong dimension
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            estimate_forward(prob, p, 0.5, np.array([0.0, bad]))
        with pytest.raises(ValueError, match="finite"):
            estimate_batch(prob, p, 0.5, np.array([bad, 0.0]), 2)
    scalar_ok = estimate_forward(forward_problem(d=1), p, 0.5, 0.0)
    assert scalar_ok.value == 2.0


def test_parameter_validation():
    with pytest.raises(ValueError):
        params_for(-1, 1)
    with pytest.raises(ValueError):
        params_for(1, 0)
    with pytest.raises(ValueError):
        params_for(1, 1, r=0.0)


def test_tally_matches_cost_model_without_f_at_zero():
    nl = no_skip_allen_cahn()
    for d, n, M in [(1, 1, 1), (1, 1, 2), (1, 2, 2), (1, 3, 2), (2, 2, 2),
                    (3, 2, 3), (2, 3, 3)]:
        prob = make_problem(dimension=d, horizon=0.5, nonlinearity=nl)
        res = estimate_forward(prob, params_for(n, M), 0.25, np.zeros(d))
        model = cost_recursion(d, n, M)
        assert res.tally.total_draws == model, (d, n, M)
        assert model <= cost_bound(d, n, M)


def test_declared_f_at_zero_strictly_saves_draws():
    d, n, M = 1, 3, 3
    skip = forward_problem(d=d)
    res_skip = estimate_forward(skip, params_for(n, M), 0.5, np.zeros(d))
    model = cost_recursion(d, n, M)
    assert res_skip.tally.total_draws < model
    # the skipped draws are exactly the level-0 f-samples: 1 uniform + d
    # gaussians per omitted sample, and the model still charges for them
    assert res_skip.tally.uniforms < res_skip.tally.gaussian_scalars


def test_batch_matches_prepended_singles():
    prob = forward_problem(d=2)
    params = params_for(3, 2, seed=11)
    batch = estimate_batch(prob, params, 0.5, np.zeros(2), 4)
    for j, res in enumerate(batch):
        single = estimate_forward(
            prob, dataclasses.replace(params, root_node=NodeId((j,))),
            0.5, np.zeros(2))
        assert res.value == single.value
        assert res.tally == single.tally


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
    estimate_forward(fwd, params, 0.5, x)
    estimate_backward(bwd, params, 0.1, x)
    for prob in (fwd, bwd):
        # three 4-lane chunks over two workers
        estimate_batch(prob, params, 0.2, x, 10, worker_count=2)
    assert x.flags.writeable
    assert x.tobytes() == before.tobytes()


def test_batch_pool_starts_no_more_workers_than_chunks(monkeypatch):
    requested = []

    class RecordingPool(estimator.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            requested.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(estimator, "ThreadPoolExecutor", RecordingPool)
    # d = 3, n = M = 2: 12 elements per lane, so 4-lane chunks, 3 of them
    monkeypatch.setattr(estimator, "_CHUNK_BUDGET", 4 * 2**2 * 3)
    prob = forward_problem(d=3)
    params = params_for(2, 2, seed=4)
    wide = estimate_batch(prob, params, 0.5, np.zeros(3), 10, worker_count=64)
    assert requested == [3]
    serial = estimate_batch(prob, params, 0.5, np.zeros(3), 10)
    assert [r.value for r in wide] == [r.value for r in serial]


def _tile_run(prob, params, t, x):
    # a single recorded run and a multi-chunk batch on 2 workers
    probe = EstimatorProbe(record_paths=True)
    estimate = (estimate_forward if prob.orientation is Orientation.FORWARD
                else estimate_backward)
    single = estimate(prob, params, t, x, probe=probe)
    batch = estimate_batch(prob, params, t, x, 7, worker_count=2)
    return (single.value, single.tally, probe.max_recursive_abs,
            sorted(probe.eval_entries), sorted(probe.correction_samples),
            [(r.value, r.tally) for r in batch])


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("data_name", ["constant", "cosine_mean",
                                       "gaussian_bump"])
@pytest.mark.parametrize("f_at_zero", [True, False])
def test_tiny_tiles_change_nothing(monkeypatch, d, data_name, f_at_zero):
    # _TILE = 7 gives tiles of 7 rows at d = 1 (runs of whole lanes at
    # M^k <= 3, runs inside a lane above) and of 2 rows at d = 3 (runs
    # inside a lane), so lanes and rows split across tiles at every level
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
                default = _tile_run(prob, params, t, x)
                patch.setattr(estimator, "_TILE", 7)
                tiny = _tile_run(prob, params, t, x)
            assert tiny == default, (prob.orientation, n, M)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_peak_memory_is_bounded_by_tiles(n):
    # one lane at d = 1000: the points live in at most (n + 2) tiles; what
    # grows with M^n is only a few scalar arrays.  Unbounded, the level-0
    # array alone is M^n * d doubles (25 MB at n = M = 5)
    d = 1000
    prob = make_problem(dimension=d, horizon=0.05)
    params = params_for(n, n, r=3.0, seed=1)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        estimate_forward(prob, params, 0.05, np.zeros(d))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = (n + 2) * estimator._TILE * 8 + 16 * 8 * n**n
    assert peak <= bound, (n, peak, bound)


def test_correction_nodes_share_time_and_point():
    prob = forward_problem(d=2)
    probe = EstimatorProbe(record_paths=True)
    estimate_forward(prob, params_for(3, 2, seed=3), 0.5, np.zeros(2),
                     probe=probe)
    assert probe.correction_samples
    entries = {(path, level): point
               for path, level, point in probe.eval_entries}
    for path, k, rx in probe.correction_samples:
        hi = entries[(path, k)]
        lo_path = path[:-2] + (-k, path[-1])
        lo = entries[(lo_path, k - 1)]
        assert hi == rx, (path, k)
        assert lo == rx, (path, k)


def test_recording_leaves_values_and_tallies_unchanged():
    prob = forward_problem(d=2)
    params = params_for(3, 2, seed=3)
    probe = EstimatorProbe(record_paths=True)
    recorded = estimate_forward(prob, params, 0.5, np.zeros(2), probe=probe)
    plain = estimate_forward(prob, params, 0.5, np.zeros(2))
    assert recorded.value == plain.value
    assert recorded.tally == plain.tally


def test_recorded_correction_draws_follow_their_laws():
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
        estimate = estimate_forward if forward else estimate_backward
        for seed in range(300):
            probe = EstimatorProbe(record_paths=True)
            estimate(prob, params_for(4, 4, seed=seed), t, x0, probe=probe)
            entries = {path: point for path, _, point in probe.eval_entries}
            for path, _, (r, x) in probe.correction_samples:
                t_par, x_par = entries[path[:-2]]
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


def test_truncation_inactive_radii_are_equivalent():
    prob = forward_problem(d=2)
    probe = EstimatorProbe()
    res_small = estimate_forward(prob, params_for(3, 3, r=1e6, seed=2), 0.5,
                                 np.zeros(2), probe=probe)
    res_large = estimate_forward(prob, params_for(3, 3, r=1e9, seed=2), 0.5,
                                 np.zeros(2))
    assert probe.max_recursive_abs < 1e6
    assert res_small.value == res_large.value


def test_truncation_active_radius_changes_value():
    prob = forward_problem(d=2)
    res_tight = estimate_forward(prob, params_for(3, 3, r=0.5, seed=2), 0.5,
                                 np.zeros(2))
    res_loose = estimate_forward(prob, params_for(3, 3, r=1e9, seed=2), 0.5,
                                 np.zeros(2))
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
    res = estimate_backward(twin, params_for(1, 1), prob.horizon, x)
    expected = float(np.asarray(twin.data.eval(x[None, :]))[0])
    assert res.value == expected


# estimate_batch values (3 repetitions, seed 8, radius 3, T = 0.5) as
# float.hex, by (d, orientation, datum, nonlinearity, n, M).  The point is
# x = linspace(-0.4, 0.3, d), at t = 0.4 forward and t = 0.1 backward
ESTIMATE_MIRROR = {
    (1, "forward", "constant", "allen_cahn", 3, 3):
        ("0x1.8a4a5e1fe92dap+0", "0x1.9f494d9d93818p+0", "0x1.a7bba94a1ed44p-1"),
    (1, "forward", "constant", "allen_cahn", 4, 2):
        ("0x1.1ea0e8ffd1b18p-2", "0x1.5d12bfaa8a99cp-2", "0x1.449d614213ad8p-3"),
    (1, "forward", "constant", "forced", 3, 3):
        ("0x1.902f1300925bbp+0", "0x1.a083bdb49a3aap+0", "0x1.b3194514aac2cp-1"),
    (1, "forward", "constant", "forced", 4, 2):
        ("0x1.2fd73d2c0a17cp-2", "0x1.34d56bb880764p-2", "0x1.6822b9c893cbcp-3"),
    (1, "forward", "cosine_mean", "allen_cahn", 3, 3):
        ("0x1.4ccce81cb07f4p-1", "0x1.5e7a3ba5c4374p-1", "0x1.0ef23126f4a76p+0"),
    (1, "forward", "cosine_mean", "allen_cahn", 4, 2):
        ("0x1.0d264da7fa494p+0", "0x1.060d94d9aa8e0p+0", "0x1.2200fd58c282ap+0"),
    (1, "forward", "cosine_mean", "forced", 3, 3):
        ("0x1.5970e573570cdp-1", "0x1.65f3ff48a7e70p-1", "0x1.165459908c1acp+0"),
    (1, "forward", "cosine_mean", "forced", 4, 2):
        ("0x1.1489d0d7486e3p+0", "0x1.09ee49f07726fp+0", "0x1.29386d57d7957p+0"),
    (1, "forward", "gaussian_bump", "allen_cahn", 3, 3):
        ("0x1.615ad302233aap-1", "0x1.a2a393e9deab3p-1", "0x1.f0de2a01ddea3p-1"),
    (1, "forward", "gaussian_bump", "allen_cahn", 4, 2):
        ("0x1.0fa2447df7df1p+0", "0x1.fb9a8e463e491p-1", "0x1.26c387969f96ep+0"),
    (1, "forward", "gaussian_bump", "forced", 3, 3):
        ("0x1.6f836a92d7f49p-1", "0x1.abb507c4fa0c1p-1", "0x1.ff8b5392a1516p-1"),
    (1, "forward", "gaussian_bump", "forced", 4, 2):
        ("0x1.17ee60e600133p+0", "0x1.02081410ed9b5p+0", "0x1.2e922a5a4ca39p+0"),
    (1, "backward", "constant", "allen_cahn", 3, 3):
        ("0x1.eaeb69a801a16p+0", "0x1.73b77acfcd7aap+0", "0x1.f7a53e53e2ffep+0"),
    (1, "backward", "constant", "allen_cahn", 4, 2):
        ("0x1.411fcf4afa158p+0", "0x1.d0f2aeb00e780p-4", "0x1.73683756efa08p-3"),
    (1, "backward", "constant", "forced", 3, 3):
        ("0x1.f2fe3c898bbfap+0", "0x1.8a836e578b0f9p+0", "0x1.07615091205e0p+1"),
    (1, "backward", "constant", "forced", 4, 2):
        ("0x1.3ff920317ae0ep+0", "0x1.9f77192a2adb0p-4", "0x1.043d686fb9ad0p-3"),
    (1, "backward", "cosine_mean", "allen_cahn", 3, 3):
        ("0x1.00c04f38fc675p+0", "0x1.c9e2523c14c08p-1", "0x1.5059814865f1cp+0"),
    (1, "backward", "cosine_mean", "allen_cahn", 4, 2):
        ("0x1.2651dd548611ep+0", "0x1.140b2c4b50943p+0", "0x1.2fc2732d180d0p+0"),
    (1, "backward", "cosine_mean", "forced", 3, 3):
        ("0x1.07cc7347f57c8p+0", "0x1.e806c928ad67ap-1", "0x1.6053937b91d05p+0"),
    (1, "backward", "cosine_mean", "forced", 4, 2):
        ("0x1.3028bc0387714p+0", "0x1.22719c89ffcc0p+0", "0x1.3c918a677c32bp+0"),
    (1, "backward", "gaussian_bump", "allen_cahn", 3, 3):
        ("0x1.e3151ede65d22p-1", "0x1.a0abb2200dcc5p-1", "0x1.39fe6df3e6fc4p+0"),
    (1, "backward", "gaussian_bump", "allen_cahn", 4, 2):
        ("0x1.1911f62c5ff98p+0", "0x1.139f87d33fdb8p+0", "0x1.2a3f0e2f3b717p+0"),
    (1, "backward", "gaussian_bump", "forced", 3, 3):
        ("0x1.f43ca8671e1bcp-1", "0x1.ba1ee3fdc57e5p-1", "0x1.49016f0042024p+0"),
    (1, "backward", "gaussian_bump", "forced", 4, 2):
        ("0x1.26a8ba23c6cd1p+0", "0x1.21419df74b378p+0", "0x1.376bdf946cc1ep+0"),
    (3, "forward", "constant", "allen_cahn", 3, 3):
        ("0x1.8a4a5e1fe92dap+0", "0x1.9f494d9d93818p+0", "0x1.a7bba94a1ed44p-1"),
    (3, "forward", "constant", "allen_cahn", 4, 2):
        ("0x1.1ea0e8ffd1b18p-2", "0x1.5d12bfaa8a99cp-2", "0x1.449d614213ad8p-3"),
    (3, "forward", "constant", "forced", 3, 3):
        ("0x1.8345b79967a76p+0", "0x1.a0ecff8dfd272p+0", "0x1.b546c7a24c89cp-1"),
    (3, "forward", "constant", "forced", 4, 2):
        ("0x1.2a78de68aa990p-2", "0x1.2506028f4ab34p-2", "0x1.5b65eeaa22394p-3"),
    (3, "forward", "cosine_mean", "allen_cahn", 3, 3):
        ("0x1.823c2c4885994p-1", "0x1.d1067ddb00497p-1", "0x1.275c77c93de7ep+0"),
    (3, "forward", "cosine_mean", "allen_cahn", 4, 2):
        ("0x1.1f12663b07052p+0", "0x1.586e1ac45e005p-1", "0x1.da0724e53e2cap-1"),
    (3, "forward", "cosine_mean", "forced", 3, 3):
        ("0x1.8723554882eccp-1", "0x1.d6d9006b44fdbp-1", "0x1.2e0a4d5c3ca72p+0"),
    (3, "forward", "cosine_mean", "forced", 4, 2):
        ("0x1.24e03bb01e546p+0", "0x1.5e42c6e687b86p-1", "0x1.e34fe6f1a4bf1p-1"),
    (3, "forward", "gaussian_bump", "allen_cahn", 3, 3):
        ("0x1.3ed09669a47dbp-1", "0x1.59a1f69f1205fp-1", "0x1.ea7cacde40210p-1"),
    (3, "forward", "gaussian_bump", "allen_cahn", 4, 2):
        ("0x1.55b4156eb082bp-1", "0x1.1d665dccde3dcp-1", "0x1.fdc13d68c0b43p-1"),
    (3, "forward", "gaussian_bump", "forced", 3, 3):
        ("0x1.49257a1707b6fp-1", "0x1.64822399e7180p-1", "0x1.f83f4d3a6e39ep-1"),
    (3, "forward", "gaussian_bump", "forced", 4, 2):
        ("0x1.6291ecf4c7ccdp-1", "0x1.2a9026944681cp-1", "0x1.045a4befc98f8p+0"),
    (3, "backward", "constant", "allen_cahn", 3, 3):
        ("0x1.eaeb69a801a16p+0", "0x1.73b77acfcd7aap+0", "0x1.f7a53e53e2ffep+0"),
    (3, "backward", "constant", "allen_cahn", 4, 2):
        ("0x1.411fcf4afa158p+0", "0x1.d0f2aeb00e780p-4", "0x1.73683756efa08p-3"),
    (3, "backward", "constant", "forced", 3, 3):
        ("0x1.cebe1739d1facp+0", "0x1.7b943b5cdc6abp+0", "0x1.0161bb0b53b3cp+1"),
    (3, "backward", "constant", "forced", 4, 2):
        ("0x1.33af0c2cf5492p+0", "0x1.b0edc48c480a8p-3", "0x1.0040dff048940p-3"),
    (3, "backward", "cosine_mean", "allen_cahn", 3, 3):
        ("0x1.f7961cb309c8cp-1", "0x1.0091943cbab78p+0", "0x1.6006a57ad74c6p+0"),
    (3, "backward", "cosine_mean", "allen_cahn", 4, 2):
        ("0x1.12333a9b49f03p+0", "0x1.a88d80a9360a0p-1", "0x1.07df53281063ep+0"),
    (3, "backward", "cosine_mean", "forced", 3, 3):
        ("0x1.f030d9d407be0p-1", "0x1.0927ab2d72119p+0", "0x1.69d9fe511d08ep+0"),
    (3, "backward", "cosine_mean", "forced", 4, 2):
        ("0x1.1293164297d9ep+0", "0x1.c042e83899718p-1", "0x1.07887e8e5654ep+0"),
    (3, "backward", "gaussian_bump", "allen_cahn", 3, 3):
        ("0x1.dc1c21c596509p-1", "0x1.b9d9e22d6bc10p-1", "0x1.04d0b86e567afp+0"),
    (3, "backward", "gaussian_bump", "allen_cahn", 4, 2):
        ("0x1.11f657b9ee934p+0", "0x1.9ecc3e14dc31cp-1", "0x1.082f3a8182a50p+0"),
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
