"""Layer tracing from outside the library: wrap public entry points, keep spans.

The tracer replaces each traced callable (a module function, a by-name
import inside another module, or a class method) by a wrapper that opens a
span named after the layer, calls the original and closes the span.
Nothing under ``src/`` changes: :meth:`Tracer.install` patches the
attributes, :meth:`Tracer.uninstall` puts the originals back, so one
process can alternate traced and untraced rounds and the difference is the
tracing overhead.

A span is ``(name, start, end, parent, busy, child)``; ``busy`` is
``end - start`` except for the pair-stream span, whose busy time is the sum
of its ``next()`` calls (they interleave with the greedy loop that consumes
them).  A layer's self time is ``busy - child``, where ``child`` is the busy
time of the spans opened inside it.  Spans stay in memory and are written
once, by :meth:`Tracer.write`.

Counts come from the values the library already returns (``metadata`` of
a :class:`~repro.core.spanner.Spanner`, ``counters()`` of a verification
result or query engine, cache manifests), read in the wrapper after the
call returns.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict
from typing import Callable, Iterator, Optional

perf = time.perf_counter

NAME, START, END, PARENT, BUSY, CHILD = range(6)


def _add(counts: dict, key: str, value: float) -> None:
    counts[key] += float(value)


def _greedy_counts(counts, args, result, before):
    meta = result.metadata
    _add(counts, "greedy.oracle_settles", meta.get("dijkstra_settles", 0))
    _add(counts, "greedy.oracle_hits", meta.get("cache_hits", 0))
    _add(counts, "greedy.oracle_queries", meta.get("distance_queries", 0))


def _parallel_greedy_counts(counts, args, result, before):
    meta = result.metadata
    _add(counts, "parallel_greedy.filter_settles", meta.get("build_filter_settles", 0))
    _add(counts, "parallel_greedy.replay_settles", meta.get("build_replay_settles", 0))
    _add(counts, "parallel_greedy.candidate_edges", meta.get("build_candidate_edges", 0))
    _add(counts, "parallel_greedy.edges_added", meta.get("edges_added", 0))


def _approx_counts(counts, args, result, before):
    meta = result.metadata
    for key in ("cluster_transition_settles", "cluster_query_settles", "approximate_queries"):
        _add(counts, f"approximate_greedy.{key}", meta.get(key, 0))


def _verification_counts(counts, args, result, before):
    _add(counts, "verification.edges_checked", result.edges_checked)
    _add(counts, "verification.sources", result.sources)
    _add(counts, "verification.settles", result.settles)


def _engine_state(args, kwargs):
    engine = args[0]
    return engine.source_count, engine.settled_count


def _query_counts(counts, args, result, before):
    engine = args[0]
    sources, settled = before
    _add(counts, "query_engine.sources", engine.source_count - sources)
    _add(counts, "query_engine.settles", engine.settled_count - settled)
    _add(counts, "query_engine.queries", len(result))


def _claim_counts(counts, args, result, before):
    _add(counts, "queue.claims", 1)


def _scan_counts(counts, args, result, before):
    _add(counts, "queue.jobs_scanned", len(result))


def _cache_get_counts(counts, args, result, before):
    _add(counts, "cache.hits" if result is not None else "cache.misses", 1)


def _cache_put_counts(counts, args, result, before):
    _add(counts, "cache.bytes_written", result.get("size_bytes", 0))


#: (layer, module, class or None, attribute, after-hook, before-hook).
#: ``layer=None`` records counts only, without a span.  The by-name imports
#: (``repro.core.greedy.sorted_pair_stream``, ``repro.service.workers.
#: run_with_degradation``, ``repro.core.approximate_greedy.
#: bounded_degree_spanner``) are patched where they are looked up; the
#: registry and the worker import the builders and the generator lazily, so
#: patching the defining module reaches them.
TARGETS: tuple = (
    ("generators", "repro.graph.generators", None, "bucketed_geometric_graph", None, None),
    ("generators", "repro.metric.generators", None, "uniform_points", None, None),
    ("greedy", "repro.core.greedy", None, "greedy_spanner_of_metric", _greedy_counts, None),
    ("parallel_greedy", "repro.core.parallel_greedy", None, "parallel_greedy_spanner",
     _parallel_greedy_counts, None),
    ("approximate_greedy", "repro.core.approximate_greedy", None, "approximate_greedy_spanner",
     _approx_counts, None),
    # Approximate-Greedy's base spanner: the net-tree bounded-degree spanner
    # on general doubling metrics, the Θ-graph on planar Euclidean points.
    ("base_spanner", "repro.core.approximate_greedy", None, "bounded_degree_spanner", None, None),
    ("base_spanner", "repro.spanners.theta_graph", None, "theta_graph_spanner", None, None),
    ("verification", "repro.spanners.verification", None, "verify_spanner_edges_detailed",
     _verification_counts, None),
    ("query_engine.init", "repro.core.query_engine", "QueryEngine", "__init__", None, None),
    ("query_engine", "repro.core.query_engine", "QueryEngine", "run_queries",
     _query_counts, _engine_state),
    ("queue.submit", "repro.service.queue", "JobQueue", "submit", None, None),
    ("queue.claim", "repro.service.queue", "JobQueue", "claim", _claim_counts, None),
    ("queue.beat", "repro.service.queue", "JobQueue", "beat", None, None),
    ("queue.complete", "repro.service.queue", "JobQueue", "complete", None, None),
    (None, "repro.service.queue", "JobQueue", "list_jobs", _scan_counts, None),
    ("cache.get", "repro.service.cache", "ArtifactCache", "get", _cache_get_counts, None),
    ("cache.put", "repro.service.cache", "ArtifactCache", "put", _cache_put_counts, None),
    ("degrade", "repro.service.workers", None, "run_with_degradation", None, None),
    ("workers", "repro.service.workers", "ServiceWorker", "run_once", None, None),
)

#: The pair stream is a generator consumed inside the greedy loop; its
#: wrapper times every ``next()`` instead of the call.
STREAM_TARGET = ("stream", "repro.core.greedy", None, "sorted_pair_stream")

#: Every span layer, in report order.
LAYERS: tuple[str, ...] = tuple(
    dict.fromkeys([STREAM_TARGET[0]] + [t[0] for t in TARGETS if t[0] is not None])
)


class Tracer:
    """Span recorder over patched library entry points."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: list[tuple[object, str, Callable]] = []
        for layer, module_name, class_name, attribute, after, before in TARGETS:
            owner = self._owner(module_name, class_name)
            original = getattr(owner, attribute)
            self._wrappers.append(
                (owner, attribute, self._wrap(layer, original, after, before))
            )
        layer, module_name, class_name, attribute = STREAM_TARGET
        owner = self._owner(module_name, class_name)
        self._wrappers.append(
            (owner, attribute, self._wrap_stream(layer, getattr(owner, attribute)))
        )

    @staticmethod
    def _owner(module_name: str, class_name: Optional[str]) -> object:
        module = importlib.import_module(module_name)
        return module if class_name is None else getattr(module, class_name)

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Patch every target; a no-op when already installed."""
        if self._patches:
            return
        for owner, attribute, wrapper in self._wrappers:
            self._patches.append((owner, attribute, owner.__dict__[attribute]))
            setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        """Restore every original attribute."""
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf(), 0.0, parent, 0.0, 0.0])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span[END] = perf()
        span[BUSY] = span[END] - span[START]
        self._stack.pop()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD] += span[BUSY]

    @contextlib.contextmanager
    def span(self, name: str):
        """A benchmark-level span (e.g. one round) around the ``with`` body."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, layer, original, after, before):
        tracer = self
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            if layer is None:
                result = original(*args, **kwargs)
            else:
                index = tracer._open(layer)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(index)
            if after is not None:
                after(counts, args, result, state)
            return result

        return wrapper

    def _wrap_stream(self, layer, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = tracer._open(layer)
            try:
                iterator = iter(original(*args, **kwargs))
            finally:
                tracer._close(index)
            return tracer._timed_iter(index, iterator)

        return wrapper

    def _timed_iter(self, index: int, iterator: Iterator) -> Iterator:
        spans, stack = self.spans, self._stack
        span = spans[index]
        advance = iterator.__next__
        pairs = 0
        try:
            while True:
                started = perf()
                try:
                    item = advance()
                except StopIteration:
                    break
                finally:
                    spent = perf() - started
                    span[BUSY] += spent
                    if stack:
                        spans[stack[-1]][CHILD] += spent
                pairs += 1
                yield item
        finally:
            span[END] = perf()
            self.counts["stream.pairs"] += pairs

    # ------------------------------------------------------------------
    def self_seconds(self) -> dict[str, float]:
        """Self time per layer name, summed over all spans."""
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span[NAME]] += span[BUSY] - span[CHILD]
        return dict(totals)

    def write(self, path) -> None:
        """Write every span as one JSON line (the only time spans hit disk)."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index,
                    "name": span[NAME],
                    "start": span[START],
                    "end": span[END],
                    "parent": span[PARENT],
                    "busy": span[BUSY],
                    "self": span[BUSY] - span[CHILD],
                }) + "\n")
