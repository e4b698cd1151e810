"""The benchmark's recorded constants match what its ops actually run."""

import pathlib
import sys

import pytest

from mlpicard import estimator, experiments

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads
    yield workloads
    sys.modules.pop("workloads", None)


@pytest.mark.parametrize("name", ["point_d100", "table_d1", "cli_d1000_2w"])
def test_lanes_per_chunk_is_what_estimate_batch_runs(monkeypatch, tmp_path,
                                                      workloads, name):
    # one op of the workload, at its own thread count, with the lanes of
    # every _Engine.run it makes, by level, on a host with more CPUs than
    # any workload asks for workers
    monkeypatch.setattr(estimator.os, "cpu_count", lambda: 64)
    runs = []
    run = estimator._Engine.run

    def recorded(self, t, x, digests):
        runs.append((self.params.levels, t.shape[0]))
        return run(self, t, x, digests)

    monkeypatch.setattr(estimator._Engine, "run", recorded)
    # table_d1's set-up wraps experiments.estimate_batch; undone on exit
    monkeypatch.setattr(experiments, "estimate_batch",
                        experiments.estimate_batch)
    wl = workloads.WORKLOADS[name](seed=1, results_dir=str(tmp_path))
    wl.setup()
    wl.run(0)
    for call in wl.calls:
        lanes = call.constants()["lanes_per_chunk"]
        chunks = [min(lanes, call.reps - s) for s in range(0, call.reps, lanes)]
        assert sorted(b for n, b in runs if n == call.n) == sorted(chunks), (
            call.n, runs)


# the most elements one _Engine.run's store plans on each workload (table_d1
# over its n = M = 1..6 calls, cli_d1000_2w per chunk); its peak RSS moves
# with them
PLANNED_STORE = {"point_d100": 207_833, "table_d1": 159_270,
                 "cli_d1000_2w": 321_232}


@pytest.mark.parametrize("name", sorted(PLANNED_STORE))
def test_workload_plans_stay_within_their_store(monkeypatch, tmp_path,
                                                workloads, name):
    # one op of the workload, with the size of every store it plans
    plans = []

    class Recorded(estimator._Scratch):
        def __init__(self, size):
            super().__init__(size)
            plans.append(size)

    monkeypatch.setattr(estimator, "_Scratch", Recorded)
    monkeypatch.setattr(experiments, "estimate_batch",
                        experiments.estimate_batch)
    wl = workloads.WORKLOADS[name](seed=1, results_dir=str(tmp_path))
    wl.setup()
    plans.clear()
    wl.run(0)
    assert plans and max(plans) <= PLANNED_STORE[name], plans


def test_tracer_restores_every_attribute_it_patches(monkeypatch):
    # install reads each package attribute that the traced benchmark
    # patches, so a refactor that drops one fails here, not only in a
    # traced benchmark run; no op runs
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = list(tracer._saved)
    finally:
        tracer.uninstall()
        sys.modules.pop("spans", None)
    assert len(patched) == 17
    for module, attr, value in patched:
        assert getattr(module, attr) is value, (module.__name__, attr)
