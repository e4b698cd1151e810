"""Observe the estimator's recursion from outside, through its node digests.

The ``recursion_log`` fixture logs every ``_Engine._evaluate`` call (its
level, times, points and node digests) and every value handed to the
truncated reaction.  ``node_layout`` names each digest by the node path
that ``path_digest`` derives it from, over the documented layout:
repetition j roots at node (j,), and a node at level n has the children
(k, m) at level k and, for k >= 2, (-k, m) at level k - 1, for
k = 1..n-1 and m = 1..M^(n-k).  The lower evaluation of k = 1 is level 0,
which reads no digest, time or point, so it is called without a digest
and no layout entry names it.
"""

import dataclasses
import functools

import numpy as np
import pytest

from mlpicard import cli, estimator
from mlpicard.randomness import path_digest


@functools.lru_cache(maxsize=None)
def node_layout(seed, levels, branching, repetitions):
    """{digest: (path, level)} of every node whose evaluation reads its
    digest; raises if two nodes share a digest."""
    layout = {}

    def visit(path, n):
        digest = path_digest(seed, path)
        if digest in layout:
            raise AssertionError(f"{path} and {layout[digest][0]} collide")
        layout[digest] = (path, n)
        for k in range(1, n):
            for m in range(1, branching ** (n - k) + 1):
                visit(path + (k, m), k)
                if k > 1:
                    visit(path + (-k, m), k - 1)

    for j in range(repetitions):
        visit((j,), levels)
    return layout


class RecursionLog:
    def __init__(self):
        self.calls = []  # (level, t, x, digests or None), in call order
        self.truncated_abs = []  # max |u| of each truncated-reaction call

    def clear(self):
        self.calls.clear()
        self.truncated_abs.clear()

    @property
    def peak(self):
        """Largest |u| handed to the truncated reaction."""
        return max(self.truncated_abs, default=0.0)

    def entries(self, seed, levels, branching, repetitions):
        """(path, level, t, x) of every logged lane that carries a digest."""
        layout = node_layout(seed, levels, branching, repetitions)
        out = []
        for level, t, x, digests in self.calls:
            if digests is None:
                continue
            for i, digest in enumerate(digests.tolist()):
                path, n = layout[digest]
                assert n == level, (path, n, level)
                out.append((path, level, float(t[i]), tuple(x[i].tolist())))
        return out


@pytest.fixture
def recursion_log(monkeypatch):
    log = RecursionLog()
    evaluate = estimator._Engine._evaluate
    truncated = estimator.eval_truncated_f

    def logged_evaluate(self, n, t, x, digests, depth):
        # copies: the arrays are views of a store that later frames reuse
        log.calls.append((n, t.copy(), x.copy(),
                          None if digests is None else digests.copy()))
        return evaluate(self, n, t, x, digests, depth)

    def logged_truncated(nl, t, x, u, r):
        if u.size:
            log.truncated_abs.append(float(np.max(np.abs(u))))
        return truncated(nl, t, x, u, r)

    monkeypatch.setattr(estimator._Engine, "_evaluate", logged_evaluate)
    monkeypatch.setattr(estimator, "eval_truncated_f", logged_truncated)
    return log


@pytest.fixture
def config_reads(monkeypatch):
    """The set of RunConfig fields that code reads while the test runs.

    A read inside ``dataclasses.replace`` only copies the field, so it does
    not count, and neither does a read of a field that ``replace`` set: its
    value is the caller's, not the config file's.
    """
    reads = set()
    fields = {f.name for f in dataclasses.fields(cli.RunConfig)}
    replacing = []
    get = object.__getattribute__
    replace = dataclasses.replace

    def getattribute(self, name):
        if (not replacing and name in fields
                and name not in get(self, "__dict__").get("_replaced", ())):
            reads.add(name)
        return get(self, name)

    def recording_replace(obj, /, **changes):
        replacing.append(obj)
        try:
            new = replace(obj, **changes)
        finally:
            replacing.pop()
        if isinstance(new, cli.RunConfig):
            object.__setattr__(new, "_replaced", set(changes).union(
                get(obj, "__dict__").get("_replaced", ())))
        return new

    monkeypatch.setattr(cli.RunConfig, "__getattribute__", getattribute)
    monkeypatch.setattr(dataclasses, "replace", recording_replace)
    return reads
