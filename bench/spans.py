"""In-memory span tracer for the traced benchmark run.

Spans are recorded from the benchmark's side: the tracer replaces the module
attributes that the package's callers look up (``mlpicard.estimator`` imports
the randomness and problem functions by name, so they are wrapped there) and
restores them afterwards.  Nothing inside ``_Engine`` is instrumented.

A span is ``(op, id, parent, name, thread, start, end, count)``.  The parent
is the innermost open span of the calling thread.  Worker threads of the
estimator's chunk pool start with an empty stack, so the pool is replaced by
one whose ``map`` opens an ``estimator.chunk`` span in the worker, parented
to the span that called ``map`` (``estimate_batch``).  Spans opened outside
an op are not recorded.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import itertools
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

from mlpicard import bounds, cli, estimator, experiments


def _size(out):
    return int(out.size)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._root = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, args, kwargs, count=None, parent=None):
        op = self.op
        if op is None:
            return fn(*args, **kwargs)
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else self._root
        sid = next(self._ids)
        stack.append(sid)
        n = 0
        start = perf_counter()
        try:
            out = fn(*args, **kwargs)
            if count is not None:
                n = count(out)
            return out
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(
                (op, sid, parent, name, threading.get_ident(), start, end, n))

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs, count)
        return traced

    # ops ---------------------------------------------------------------

    def begin_op(self, op_id):
        self.op = op_id
        self._root = next(self._ids)
        self._stack().append(self._root)
        self._op_start = perf_counter()

    def end_op(self):
        end = perf_counter()
        self._stack().pop()
        self.spans.append((self.op, self._root, 0, "op",
                           threading.get_ident(), self._op_start, end, 0))
        self.op = None
        return end - self._op_start

    # installation --------------------------------------------------------

    def traced_problem(self, problem):
        """Copy of ``problem`` whose data callable records problem.data_eval."""
        data = dataclasses.replace(
            problem.data, eval=self.wrap("problem.data_eval", problem.data.eval))
        return dataclasses.replace(problem, data=data)

    def _patch(self, module, attr, value):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                parent = tracer._stack()[-1] if tracer.op is not None else None

                def chunk(*args):
                    return tracer._call("estimator.chunk", fn, args, {},
                                        parent=parent)
                return super().map(chunk, *iterables, **kwargs)

        for attr, name in (("absorb_vec", "randomness.absorb"),
                           ("gaussians_vec", "randomness.gaussians"),
                           ("uniforms_vec", "randomness.uniforms")):
            self._patch(estimator, attr,
                        self.wrap(name, getattr(estimator, attr), _size))
        self._patch(estimator, "eval_truncated_f",
                    self.wrap("problem.reaction", estimator.eval_truncated_f))
        self._patch(estimator, "ThreadPoolExecutor", TracedPool)
        for module in (estimator, experiments, cli):
            self._patch(module, "estimate_batch",
                        self.wrap("estimator.estimate_batch",
                                  module.estimate_batch))
        for attr in ("cost_recursion", "cost_bound", "error_bound", "rho_min"):
            self._patch(experiments, attr,
                        self.wrap("bounds", getattr(experiments, attr)))
        for attr in ("cost_recursion", "rho_min"):
            self._patch(bounds, attr, self.wrap("bounds", getattr(bounds, attr)))
        self._patch(experiments, "rmse_vs_oracle",
                    self.wrap("experiments.rmse_vs_oracle",
                              experiments.rmse_vs_oracle))
        self._patch(cli, "main", self.wrap("cli.main", cli.main))
        build_problem = cli.build_problem
        self._patch(cli, "build_problem",
                    lambda config: self.traced_problem(build_problem(config)))

    def uninstall(self):
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("op", "span", "parent", "name", "thread",
                             "start", "end", "count"))
            writer.writerows(self.spans)


# derivation --------------------------------------------------------------


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


@dataclasses.dataclass
class OpProfile:
    """Per-name totals of one op's spans.

    ``self_s`` of a span is its duration minus the union of its direct
    children's intervals; summed over a single-threaded op it equals the
    op's wall time.  With a worker pool, chunk spans run in parallel, so
    the sum (``busy_s``) exceeds the wall time.
    """

    wall_s: float
    dur: dict
    self_s: dict
    count: dict
    busy_s: float
    min_self_s: float


def profile_ops(spans):
    by_op = defaultdict(list)
    for span in spans:
        by_op[span[0]].append(span)
    profiles = {}
    for op, op_spans in by_op.items():
        children = defaultdict(list)
        for _, _, parent, _, _, start, end, _ in op_spans:
            children[parent].append((start, end))
        dur, selfs, count = defaultdict(float), defaultdict(float), defaultdict(int)
        wall, min_self = 0.0, float("inf")
        for _, sid, _, name, _, start, end, n in op_spans:
            own = (end - start) - _covered(children.get(sid, ()))
            dur[name] += end - start
            selfs[name] += own
            count[name] += n
            min_self = min(min_self, own)
            if name == "op":
                wall = end - start
        profiles[op] = OpProfile(wall, dur, selfs, count,
                                 sum(selfs.values()), min_self)
    return profiles
