"""Spans and counters recorded from outside the package.

Each traced public function is replaced, for the duration of a
``patched`` block, at every module attribute where a caller looks it up
(``stieltjes`` is imported by name into ``model`` and ``analysis``, so
both names are patched).  A span is ``[name, parent index, start, end]``;
spans are kept in memory and summarised or written out afterwards.  The
per-call methods of the distribution classes get counters only, because
they run millions of times in a sweep.

A site that no longer exists is skipped, so a refactor that removes a
function leaves its metrics at zero instead of breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager

# span name -> attribute paths (under ``rejuvkit.``) where callers find it
SPAN_SITES = {
    "config.load_config": ("config.load_config",),
    "config.parse_config": ("config.parse_config",),
    "config.with_overrides": ("config.RunConfig.with_overrides",),
    "model.validate": ("model.validate", "toolkit.validate", "config.validate_params"),
    "model.state_events": ("model.state_events", "simulator.state_events"),
    "model.transition_matrix": (
        "model.transition_matrix",
        "analysis.transition_matrix",
        "toolkit.transition_matrix",
    ),
    "model.sojourn_times": (
        "model.sojourn_times",
        "analysis.sojourn_times",
        "toolkit.sojourn_times",
    ),
    "model.absorbing_blocks": ("model.absorbing_blocks", "analysis.absorbing_blocks"),
    "numerics.integrate": ("numerics.integrate",),
    "numerics.integrate_piecewise": ("numerics.integrate_piecewise", "model.integrate_piecewise"),
    "numerics.stieltjes": ("numerics.stieltjes", "model.stieltjes", "analysis.stieltjes"),
    "numerics.dtmc_stationary": (
        "numerics.dtmc_stationary",
        "analysis.dtmc_stationary",
        "toolkit.dtmc_stationary",
    ),
    "numerics.absorbing_visits": ("numerics.absorbing_visits", "analysis.absorbing_visits"),
    "analysis.metrics_report": ("analysis.metrics_report", "toolkit.metrics_report"),
    "analysis.completion_time": ("analysis.completion_time", "toolkit.completion_time"),
    "analysis.completion_lst_primary": (
        "analysis.completion_lst_primary",
        "toolkit.completion_lst_primary",
    ),
    "analysis.completion_lst_backup": (
        "analysis.completion_lst_backup",
        "toolkit.completion_lst_backup",
    ),
    "simulator.availability": ("simulator.simulate_availability", "toolkit.simulate_availability"),
    "simulator.mttf": ("simulator.simulate_mttf", "toolkit.simulate_mttf"),
    "simulator.completion": ("simulator.simulate_completion", "toolkit.simulate_completion"),
    "ctmc.generator": ("ctmc.generator",),
    "ctmc.availability_ctmc": ("ctmc.availability_ctmc",),
    "ctmc.mttf_ctmc": ("ctmc.mttf_ctmc",),
    "toolkit.apply_variable": ("toolkit.apply_variable",),
    "toolkit.run_analyze": ("toolkit.run_analyze",),
    "toolkit.run_sweep": ("toolkit.run_sweep",),
    "toolkit.run_simulate": ("toolkit.run_simulate",),
    "toolkit.run_validate": ("toolkit.run_validate",),
}

SIMULATOR_SPANS = ("simulator.availability", "simulator.mttf", "simulator.completion")

COUNTED_CLASSES = ("Exponential", "Erlang", "Hypoexponential", "Deterministic")
COUNTED_METHODS = ("cdf", "density", "sample")


class Tracer:
    """In-memory span list with a parent stack, plus named counters."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = [-1]

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self._stack[:] = [-1]

    def span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1], clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()

        return traced

    def counter(self, key, fn):
        counts = self.counts

        # (self, t) methods skip *args packing: they run millions of times
        if fn.__name__ in ("cdf", "density"):

            @functools.wraps(fn)
            def counted(dist, t):
                counts[key] += 1
                return fn(dist, t)

        else:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

        return counted


def _site(path):
    """(owner object, attribute name) for ``module.attr[.attr]``, or None."""
    module, *rest = path.split(".")
    try:
        owner = importlib.import_module(f"rejuvkit.{module}")
    except ImportError:
        return None
    for part in rest[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, rest[-1]):
        return None
    return owner, rest[-1]


@contextmanager
def patched(tracer, span_names=tuple(SPAN_SITES), count_distributions=True):
    """Install spans (and distribution counters) for the ``with`` body."""
    undo = []

    def swap(owner, attr, wrapper):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    try:
        for name in span_names:
            for path in SPAN_SITES[name]:
                site = _site(path)
                if site is not None:
                    swap(*site, tracer.span(name, getattr(*site)))
        if count_distributions:
            dist = importlib.import_module("rejuvkit.distributions")
            for cls_name in COUNTED_CLASSES:
                cls = getattr(dist, cls_name, None)
                for method in COUNTED_METHODS:
                    if cls is not None and method in cls.__dict__:
                        key = f"distributions.{method}"
                        swap(cls, method, tracer.counter(key, cls.__dict__[method]))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def summarize(spans, wall):
    """Per-name calls / inclusive / self seconds and per-layer totals.

    Self time is a span's duration minus the part its children cover.
    A layer's inclusive time adds the spans that have no ancestor of the
    same layer, so nested calls inside one layer are not counted twice.
    ``uncovered_s`` is the part of ``wall`` outside every top-level span.
    """
    child = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    names = {}
    layers = {}
    covered = 0.0
    for i, (name, parent, start, end) in enumerate(spans):
        duration = end - start
        rec = names.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["incl_s"] += duration
        rec["self_s"] += duration - child[i]
        layer = name.split(".")[0]
        agg = layers.setdefault(layer, {"incl_s": 0.0, "self_s": 0.0})
        agg["self_s"] += duration - child[i]
        up = parent
        while up >= 0 and spans[up][0].split(".")[0] != layer:
            up = spans[up][1]
        if up < 0:
            agg["incl_s"] += duration
        if parent < 0:
            covered += duration
    return {"names": names, "layers": layers, "uncovered_s": wall - covered}


def calls_under(spans, name, ancestor):
    """Number of ``name`` spans that run inside an ``ancestor`` span."""
    total = 0
    for span_name, parent, _, _ in spans:
        if span_name != name:
            continue
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][1]
        total += parent >= 0
    return total
