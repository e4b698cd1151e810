"""mlpicard benchmark: three estimator workloads, one closed-loop client each.

    python3 bench/run.py --workload point_d100 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  ``--trace 0`` measures one workload untraced and prints its
end-to-end metrics.  ``--trace 1`` runs every workload with and without
spans and prints the per-layer metrics, named ``<workload>.<metric>``.
``--workload all`` (untraced) runs each workload in its own child process.
The last line of standard output is one JSON object; a results file with
the host details, constants, op times and values is written to
``bench/results/``.  Untraced op and set-up times are scaled to a fixed host
speed with the calibration kernel in ``hostspeed.py``; the unscaled times
are printed and saved too.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

_START = perf_counter()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH_DIR, "results")

SETUP_PROBES = 3      # fresh processes timed for setup_s; the median is reported
DIGEST_OPS = 5        # ops always run, and hashed for the bit-identity check
TRACE_MIN_OPS = 2     # traced and untraced ops per workload in a traced run


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    if not os.path.isfile(os.path.join(SRC, "mlpicard", "__init__.py")):
        fail(f"no package source at {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    start = perf_counter()
    import mlpicard
    import_s = perf_counter() - start
    if not os.path.abspath(mlpicard.__file__).startswith(SRC + os.sep):
        fail(f"imported mlpicard from {mlpicard.__file__}, not {SRC}")
    return import_s


def host_details():
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail(times):
    """Highest ladder percentile with at least ten ops beyond it (nearest
    rank).  Under 40 ops none qualifies, and it is p75: the maximum of so few
    ops swung by up to 21% from run to run on the reference host."""
    ordered = sorted(times)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p * n / 100.0)
        if n - rank >= 10:
            return ordered[rank - 1], f"p{p:g}"
    return ordered[math.ceil(0.75 * n) - 1], "p75"


def digest(outcomes):
    """SHA-256 of the ops' values as little-endian float64, in op order."""
    import numpy as np
    h = hashlib.sha256()
    for outcome in outcomes:
        h.update(np.asarray(outcome.values, dtype="<f8").tobytes())
    return h.hexdigest()


def run_op(wl, i, tracer=None, threads=None):
    """One op; returns (seconds, outcome or None, error or None)."""
    import numpy as np
    if tracer:
        tracer.begin_op(i)
    start = perf_counter()
    try:
        outcome = wl.run(i, tracer, threads)
        error = None
    except Exception as exc:  # the op failed; it is counted and the loop goes on
        outcome, error = None, f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - start
    if tracer:
        seconds = tracer.end_op()
    if outcome is not None and not np.all(np.isfinite(outcome.values)):
        outcome, error = None, "non-finite value"
    return seconds, outcome, error


def make_workload(name, seed):
    from workloads import WORKLOADS
    os.makedirs(RESULTS, exist_ok=True)
    wl = WORKLOADS[name](seed, RESULTS)
    wl.setup()
    return wl


def setup_probe(args):
    """Child process: set up, run the warm-up op, report, exit."""
    import_s = import_package()
    wl = make_workload(args.workload, args.seed)
    run_op(wl, 0)  # a failing op is reported by the measuring process
    print(json.dumps({"import_s": import_s, "reference_s": wl.reference_s}),
          flush=True)


def time_setup(args, speed):
    """Median of SETUP_PROBES fresh processes, start to ready, each scaled
    to the reference host speed by the calibrations either side of it."""
    times, raw = [], []
    before = speed.measure()
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-probe"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        line = child.stdout.readline()
        raw.append(perf_counter() - start)
        child.stdout.read()
        if child.wait() != 0 or not line:
            fail("setup probe failed")
        after = speed.measure()
        times.append(raw[-1] * speed.scale(before, after))
        before = after
    return statistics.median(times), times, raw


def run_untraced(args, import_s):
    # imported after import_package, so that import_s includes numpy and scipy
    from hostspeed import HostSpeed
    wl = make_workload(args.workload, args.seed)
    run_op(wl, 0)  # warm-up; the same inputs are checked as op 0
    setup_main_s = perf_counter() - _START
    times, raw, calibrations, outcomes, errors = [], [], [], [], []
    with HostSpeed(wl.calibration_kernels) as speed:
        setup_s, setup_times, setup_raw = time_setup(args, speed)
        calibrations.append(speed.measure())
        start = perf_counter()
        i = 0
        while i < DIGEST_OPS or perf_counter() - start < args.seconds:
            seconds, outcome, error = run_op(wl, i)
            calibrations.append(speed.measure())
            raw.append(seconds)
            times.append(seconds * speed.scale(*calibrations[-2:]))
            if outcome is None:
                errors.append(f"op {i}: {error}")
            else:
                outcomes.append(outcome)
            i += 1
    attempted, failed = len(times), len(errors)
    ok, pooled = wl.pooled_check(outcomes) if outcomes else (False, {})
    p_tail, tail_label = tail(times)
    metrics = {
        "draws_per_s": (wl.draws_per_op * len(outcomes) / sum(times), "1/s"),
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_tail": (p_tail, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    ops_failed_frac = failed / attempted
    head = outcomes[:DIGEST_OPS]
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": 0, "host": host_details(),
        "constants": [c.constants() for c in wl.calls],
        "threads": wl.threads,
        "ops": attempted, "ops_failed": failed, "ops_failed_frac": ops_failed_frac,
        "op_s_tail_percentile": tail_label, "errors": errors,
        "oracle_check": pooled, "oracle_ok": ok,
        "setup_probe_s": setup_times, "setup_probe_raw_s": setup_raw,
        "setup_main_s": setup_main_s,
        "calibration_s": calibrations, "calibration_nominal_s": speed.nominal_s,
        "import_s": import_s, "reference_s": wl.reference_s,
        "values_sha256": digest(head), "digest_ops": len(head),
        "op_s": times, "op_raw_s": raw, "op_values": [o.values for o in outcomes],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(f"workload {wl.name}: seed {args.seed}, {attempted} ops, "
          f"{wl.threads} thread(s), closed loop, 1 client")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value!r} {unit}")
    print(f"  unscaled: op_s_p50 = {statistics.median(raw)!r} s, setup_s = "
          f"{statistics.median(setup_raw)!r} s; calibration median "
          f"{statistics.median(calibrations)!r} s, nominal {speed.nominal_s} s")
    print(f"  ops_failed_frac = {ops_failed_frac!r} ({failed}/{attempted})")
    print(f"  op_s_tail is {tail_label} of {attempted} ops")
    print(f"  oracle: pooled {pooled.get('pooled_mean')!r} +- "
          f"{pooled.get('pooled_se')!r} vs {pooled.get('reference')!r} "
          f"(tolerance {pooled.get('tolerance')!r}) -> {'ok' if ok else 'FAIL'}")
    print(f"  values_sha256 (first {len(head)} ops) = {record['values_sha256']}")
    print(f"  tally per rep = "
          + ", ".join(f"n={c.n}: {c.gaussians} gaussians + {c.uniforms} uniforms"
                      for c in wl.calls))
    for line in errors[:5]:
        print(f"  FAILED {line}")
    return record, ok and failed == 0, attempted, failed, metrics


def span_errors(wl, profiles):
    """Each traced op's gaussian count and span accounting must hold."""
    errors = []
    for op, prof in profiles.items():
        if prof.count["randomness.gaussians"] != wl.gaussians_per_op:
            errors.append(f"op {op}: traced gaussians "
                          f"{prof.count['randomness.gaussians']}")
        # single-threaded, the self times of an op's spans add up to its wall
        # time; with a worker pool, chunks overlap and the sum exceeds it
        off = abs(prof.busy_s - prof.wall_s) > 1e-6 * prof.wall_s
        if prof.min_self_s < -1e-9 or (wl.threads == 1 and off):
            errors.append(f"op {op}: spans do not account for wall time")
    return errors


def layer_metrics(wl, profiles, traced, plain):
    """Per-layer metrics of one workload; ``_s`` values are seconds per op."""
    def per_op(total):
        return sum(total(p) for p in profiles.values()) / len(profiles)

    def dur(name):
        return per_op(lambda p: p.dur.get(name, 0.0))

    def selfs(*names):
        return per_op(lambda p: sum(p.self_s.get(n, 0.0) for n in names))

    digests = per_op(lambda p: p.count["randomness.absorb"])
    est_self = selfs("estimator.estimate_batch", "estimator.chunk")
    draws_per_rep = sum(c.draws for c in wl.calls)
    model = sum(c.cost_recursion for c in wl.calls)
    m = {
        "randomness.gaussians_s": (dur("randomness.gaussians"), "s"),
        "randomness.gaussian_ns": (1e9 * dur("randomness.gaussians")
                                   / wl.gaussians_per_op, "ns"),
        "randomness.gaussians": (wl.gaussians_per_op, "count"),
        "randomness.absorb_s": (dur("randomness.absorb"), "s"),
        "randomness.absorb_ns": (1e9 * dur("randomness.absorb") / digests, "ns"),
        "randomness.uniforms_s": (dur("randomness.uniforms"), "s"),
        "problem.data_eval_s": (dur("problem.data_eval"), "s"),
        "problem.reaction_s": (dur("problem.reaction"), "s"),
        "estimator.self_s": (est_self, "s"),
        "estimator.self_share": (est_self / per_op(lambda p: p.busy_s), "1"),
        "estimator.draws_per_rep": (draws_per_rep, "count"),
        "estimator.model_ratio": (draws_per_rep / model, "1"),
        "oracles.reference_s": (wl.reference_s, "s"),
        "trace.overhead_frac": (statistics.median(traced)
                                / statistics.median(plain) - 1.0, "1"),
    }
    if wl.entry_span:
        layer = wl.entry_span.split(".")[0]
        m[f"{layer}.self_s"] = (selfs(wl.entry_span), "s")
        m["bounds.s"] = (selfs("bounds"), "s")
    return m


def run_traced(args, import_s):
    """Every workload: alternate traced and untraced ops for an equal share
    of ``--seconds``; report per-layer metrics as <workload>.<metric>."""
    from spans import Tracer, profile_ops
    from workloads import WORKLOADS

    workloads = [make_workload(name, args.seed) for name in WORKLOADS]
    tracer = Tracer()
    metrics = {"setup.import_s": (import_s, "s")}
    record = {"seed": args.seed, "seconds": args.seconds, "trace": 1,
              "host": host_details(), "workloads": {}}
    attempted = failed = 0
    trace_ok = True
    op_id = 0
    budget = args.seconds / len(workloads)
    for wl in workloads:
        run_op(wl, 0)  # warm-up
        traced, plain, ids, wl_errors = [], [], [], []
        start = perf_counter()
        while len(ids) < TRACE_MIN_OPS or perf_counter() - start < budget:
            tracer.install()
            try:
                seconds, _, error = run_op(wl, op_id, tracer)
            finally:
                tracer.uninstall()
            traced.append(seconds)
            ids.append(op_id)
            wl_errors += [f"traced op {op_id}: {error}"] if error else []
            seconds, _, error = run_op(wl, op_id + 1)
            plain.append(seconds)
            wl_errors += [f"op {op_id + 1}: {error}"] if error else []
            op_id += 2
        attempted += len(traced) + len(plain)
        ids = set(ids)
        profiles = profile_ops([s for s in tracer.spans if s[0] in ids])
        bad = span_errors(wl, profiles)
        m = layer_metrics(wl, profiles, traced, plain)
        if wl.threads > 1:
            one, _, error = run_op(wl, op_id, threads=1)
            wl_errors += [f"1-thread op {op_id}: {error}"] if error else []
            op_id += 1
            attempted += 1
            m["estimator.thread_speedup"] = (one / statistics.median(plain), "x")
        for key, value in m.items():
            metrics[f"{wl.name}.{key}"] = value
        record["workloads"][wl.name] = {
            "constants": [c.constants() for c in wl.calls],
            "threads": wl.threads, "traced_op_s": traced, "op_s": plain,
            "errors": wl_errors, "trace_errors": bad,
            "accounted_frac": [p.busy_s / p.wall_s for p in profiles.values()],
        }
        print(f"workload {wl.name}: {len(traced)} traced + {len(plain)} "
              f"untraced ops")
        for key, (value, unit) in m.items():
            print(f"  {wl.name}.{key} = {value!r} {unit}")
        for line in wl_errors + bad:
            print(f"  FAILED {line}")
        failed += len(wl_errors)
        trace_ok = trace_ok and not bad
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    spans_path = os.path.join(RESULTS, f"trace-seed{args.seed}.spans.csv")
    tracer.write_csv(spans_path)
    record["spans_file"] = os.path.relpath(spans_path, ROOT)
    return record, trace_ok and not failed, attempted, failed, metrics


def run_all(args):
    """Each workload in its own child process, so setup and RSS stay its own."""
    from workloads import WORKLOADS
    metrics, attempted, failed, ok = {}, 0, 0, True
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "0"], stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines else {}
        ok = ok and child.returncode == 0 and result.get("correct", False)
        attempted += result.get("attempted", 0)
        failed += result.get("failed", 0)
        for key, value in result.get("metrics", {}).items():
            metrics[f"{name}.{key}"] = value
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if ok else 1


def check_declared(metrics, trace):
    """The emitted metric names must be the ones BENCHMARK.json declares."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return
    with open(path, encoding="utf-8") as fh:
        declared = json.load(fh)
    names = {m["name"] for m in declared["per_layer" if trace else "end_to_end"]}
    if names != set(metrics):
        fail(f"metrics {sorted(set(metrics) ^ names)} differ from BENCHMARK.json")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("point_d100", "table_d1", "cli_d1000_2w", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main():
    args = parse_args()
    if args.setup_probe:
        setup_probe(args)
        return 0
    import_s = import_package()
    if args.workload == "all" and not args.trace:
        return run_all(args)
    runner = run_traced if args.trace else run_untraced
    record, ok, attempted, failed, metrics = runner(args, import_s)
    check_declared(metrics, args.trace)
    stem = "trace" if args.trace else args.workload
    with open(os.path.join(RESULTS, f"{stem}-seed{args.seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
