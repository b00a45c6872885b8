"""Spans around miselect's layer calls, recorded from outside the package.

`Tracer.install` replaces each wrap target with a timing wrapper where the
caller looks it up: the names `miselect.experiment` imported with `from`,
`miselect.logreg.loss_and_gradient`, `miselect.ksg.digamma` and the
`NeighborIndex` bulk methods. A target that no longer exists is recorded as
absent, not treated as an error. Spans stay in memory until the child
writes them once at the end; `rollup` turns them into per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import threading
import time

# (module, attribute path, span name). The span name's first part is the layer.
TARGETS = [
    ("miselect.experiment", "generate_pattern_images", "data.generate"),
    ("miselect.experiment", "generate_synthetic", "data.generate"),
    ("miselect.experiment", "load_idx", "data.load_idx"),
    ("miselect.experiment", "train_test_split", "data.split"),
    ("miselect.experiment", "apply_corruption", "corruption.apply"),
    ("miselect.experiment", "fit_pca", "embedding.fit_pca"),
    ("miselect.experiment", "transform", "embedding.transform"),
    ("miselect.experiment", "score_dataset", "ksg.score"),
    ("miselect.experiment", "load_scores", "ksg.cache_read"),
    ("miselect.experiment", "save_scores", "ksg.cache_write"),
    ("miselect.ksg", "digamma", "ksg.digamma"),
    ("miselect.neighbors", "NeighborIndex.kth_distance_bulk", "neighbors.kth"),
    ("miselect.neighbors", "NeighborIndex.count_within_bulk", "neighbors.count"),
    ("miselect.experiment", "select", "selection.select"),
    ("miselect.experiment", "save_selection", "selection.save"),
    ("miselect.experiment", "train", "logreg.train"),
    ("miselect.experiment", "evaluate", "logreg.evaluate"),
    ("miselect.logreg", "loss_and_gradient", "logreg.grad"),
]

ROOT_SPAN = "experiment.run"


class Tracer:
    """Records (id, parent id, name, start, end) spans, one stack per thread."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn, *args, **kwargs):
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((span_id, parent, name, start, end))

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self, targets=TARGETS):
        for module_name, path, name in targets:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            try:
                for part in parents:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except AttributeError:
                self.absent.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self._wrap(fn, name))


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


# Per-layer metrics in report order: (name, unit, spans). A metric with
# spans sums their durations (unit "s") or counts them; a metric whose
# spans all lost their wrap target is reported absent. Metrics without
# spans are derived in `rollup`.
METRICS = [
    ("data.load_s", "s", ("data.generate", "data.load_idx", "data.split")),
    ("corruption.apply_s", "s", ("corruption.apply",)),
    ("corruption.calls", "count", ("corruption.apply",)),
    ("corruption.samples", "count", None),
    ("embedding.fit_pca_s", "s", ("embedding.fit_pca",)),
    ("embedding.fit_calls", "count", ("embedding.fit_pca",)),
    ("embedding.transform_s", "s", ("embedding.transform",)),
    ("neighbors.kth_s", "s", ("neighbors.kth",)),
    ("neighbors.kth_calls", "count", ("neighbors.kth",)),
    ("neighbors.count_s", "s", ("neighbors.count",)),
    ("neighbors.count_calls", "count", ("neighbors.count",)),
    ("ksg.score_s", "s", ("ksg.score",)),
    ("ksg.score_calls", "count", ("ksg.score",)),
    ("ksg.self_s", "s", None),
    ("ksg.digamma_s", "s", ("ksg.digamma",)),
    ("ksg.cache_read_s", "s", ("ksg.cache_read",)),
    ("ksg.cache_write_s", "s", ("ksg.cache_write",)),
    ("ksg.cache_hit_ratio", "ratio", None),
    ("selection.select_s", "s", ("selection.select",)),
    ("selection.save_s", "s", ("selection.save",)),
    ("selection.cells", "count", ("selection.select",)),
    ("logreg.train_s", "s", ("logreg.train",)),
    ("logreg.cell_s", "s", None),
    ("logreg.cells", "count", ("logreg.train",)),
    ("logreg.grad_calls", "count", ("logreg.grad",)),
    ("logreg.grad_s", "s", ("logreg.grad",)),
    ("logreg.evaluate_s", "s", ("logreg.evaluate",)),
    ("experiment.self_s", "s", None),
    ("experiment.bytes_written", "bytes", None),
    ("trace.run_s", "s", None),
    ("trace.overhead_s", "s", None),
]


def rollup(spans, absent, untraced_run_s, affected_samples, bytes_written):
    """Per-layer metrics from the spans of one traced run.

    Times are busy time summed over threads. A span's self time is its
    duration minus the part of it that its child spans cover. Spans that
    start a worker thread's stack count as children of the root span.
    Returns (metrics, absent_metrics, layer_table).
    """
    root = next(s for s in spans if s[2] == ROOT_SPAN)
    spans = [(i, root[0] if p is None and i != root[0] else p, n, a, b)
             for i, p, n, a, b in spans]
    children = {}
    for _, parent, _, start, end in spans:
        children.setdefault(parent, []).append((start, end))

    def self_s(span):
        span_id, _, _, start, end = span
        return (end - start) - _covered(children.get(span_id, []))

    def of(*names):
        return [s for s in spans if s[2] in names]

    run_s = root[4] - root[3]
    cells = [end - start for _, _, _, start, end in of("logreg.train")]
    reads, scores = len(of("ksg.cache_read")), len(of("ksg.score"))
    derived = {
        "corruption.samples": affected_samples,
        "ksg.self_s": sum(self_s(s) for s in of("ksg.score")),
        "ksg.cache_hit_ratio": reads / (reads + scores) if reads + scores else 0.0,
        "logreg.cell_s": statistics.median(cells) if cells else 0.0,
        "experiment.self_s": self_s(root),
        "experiment.bytes_written": bytes_written,
        "trace.run_s": run_s,
        "trace.overhead_s": run_s - untraced_run_s,
    }
    lost = {n for m, path, n in TARGETS if f"{m}.{path}" in absent}
    lost -= {n for m, path, n in TARGETS if f"{m}.{path}" not in absent}
    metrics, absent_metrics = {}, []
    for name, unit, sources in METRICS:
        if sources is None:
            metrics[name] = derived[name]
            continue
        if set(sources) <= lost:
            absent_metrics.append(name)
        matched = of(*sources)
        metrics[name] = sum(e - s for _, _, _, s, e in matched) if unit == "s" else len(matched)

    # Layer table: a layer's total counts only spans not nested in the same layer.
    layer_of = {i: n.split(".")[0] for i, _, n, _, _ in spans}
    layers = {}
    for span in spans:
        span_id, parent, _, start, end = span
        row = layers.setdefault(layer_of[span_id], {"total_s": 0.0, "self_s": 0.0, "calls": 0})
        if layer_of.get(parent) != layer_of[span_id]:
            row["total_s"] += end - start
        row["self_s"] += self_s(span)
        row["calls"] += 1
    return metrics, absent_metrics, layers
