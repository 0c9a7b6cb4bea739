"""Spans around the public functions of each layer, recorded from outside
the program.

``patched`` replaces each target at the module attribute its caller looks
up (``mkdv_series.series.tree_term_table`` is what ``solve_series``
calls) with a wrapper that records a span, and restores the originals on
exit.  A target that no longer exists is skipped, so its metrics read
zero calls.  Spans stay in memory; ``run.py`` writes them out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import time
import tracemalloc
from collections import defaultdict


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_table(args, kwargs, table):
    # leaf-grid rows attempted: product over leaves of the support size
    rows = math.prod(int((d.values != 0).sum()) for d in _arg(args, kwargs, 1, "leaf_data"))
    return {"rows": rows, "profiles": int(table.weights.size)}


def _count_evaluate(args, kwargs, out):
    table, ts = _arg(args, kwargs, 0, "table"), _arg(args, kwargs, 1, "ts")
    return {"profile_times": int(table.weights.size) * len(ts)}


def _count_trees(args, kwargs, trees):
    return {"trees": len(trees)}


def _count_steps(args, kwargs, traj):
    return {"steps": _arg(args, kwargs, 1, "cfg").steps}


# (module, attribute, span name, counter, trace allocations)
TARGETS = (
    ("mkdv_series.series", "solve_series", "series.solve_series", None, False),
    ("mkdv_series.series", "ode_residual", "series.ode_residual", None, False),
    ("mkdv_series.series", "tree_term_table", "ops.tree_term_table", _count_table, True),
    ("mkdv_series.series", "evaluate_term_table", "ops.evaluate_term_table", _count_evaluate, False),
    ("mkdv_series.series", "weighted_norm", "spectral.weighted_norm", None, False),
    ("mkdv_series.series", "enumerate_trees", "trees.enumerate_trees", _count_trees, False),
    ("mkdv_series.oracle", "oracle_solve_increment", "oracle.oracle_solve_increment", _count_steps, False),
    ("mkdv_series.oracle", "oracle_solve", "oracle.oracle_solve", _count_steps, False),
)


class Tracer:
    """In-memory span recorder.  ``op`` tags every span with the id of the
    operation that caused it."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._open = []

    def wrap(self, name, fn, count=None, memory=False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"op": self.op, "id": len(self.spans), "name": name,
                    "parent": self._open[-1] if self._open else None}
            self.spans.append(span)
            self._open.append(span["id"])
            if memory:
                tracemalloc.start()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
                if memory:
                    span["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
            if count is not None:
                span.update(count(args, kwargs, result))
            return result

        return traced


@contextlib.contextmanager
def patched(tracer, allocations=False, targets=TARGETS):
    """Install span wrappers on every existing target; restore on exit.

    With ``allocations`` the targets so marked also record their
    ``tracemalloc`` peak.  That slows them several times over, so such a
    pass gives memory figures only, never times."""
    saved = []
    try:
        for module_name, attr, name, count, memory in targets:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(name, fn, count, allocations and memory))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def layer_totals(spans):
    """Per span name: calls, inclusive span time, self time (span minus its
    children; calls run one at a time, so children never overlap), summed
    counts, and the largest ``peak_mb``."""
    duration = {s["id"]: s["end"] - s["start"] for s in spans}
    in_children = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            in_children[s["parent"]] += duration[s["id"]]
    totals = defaultdict(lambda: defaultdict(float))
    for s in spans:
        t = totals[s["name"]]
        t["calls"] += 1
        t["span_s"] += duration[s["id"]]
        t["self_s"] += duration[s["id"]] - in_children[s["id"]]
        for key in ("rows", "profiles", "profile_times", "trees", "steps"):
            t[key] += s.get(key, 0)
        t["peak_mb"] = max(t["peak_mb"], s.get("peak_mb", 0.0))
    return totals
