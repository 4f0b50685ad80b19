"""Layer tracing from outside the program.

The tracer replaces module and class attributes of ``coldsim`` with
wrappers that time each call and restores them on ``uninstall``. Nothing
under ``src/`` knows it is being traced.

Coarse calls (commands, trace loads, partitioning, a whole simulation) are
recorded as spans: name, parent, start, end and self time. Per-request calls
(cache probes, queue scans) would produce millions of spans, so they keep
only a call count and total seconds in memory.

A span's self time is its duration minus what its wrapped children cover.
Child spans that ran in another thread (the sweep's thread pool) belong to
the span open in the main thread; overlapping children are merged as
intervals, so self time never goes negative, while the children's own
totals are reported as measured, overlap and all.

A span marked ``peak`` also records how far the process's peak RSS rose
above its RSS at entry. That is the call's own peak whenever the call sets a
new high-water mark, as trace loading and a whole simulation do; it costs
nothing per allocation, unlike ``tracemalloc``.
"""

from __future__ import annotations

import os
import resource
import threading
from collections import defaultdict
from time import perf_counter

_PAGE_MIB = os.sysconf("SC_PAGE_SIZE") / 2**20


def _rss_mib():
    with open("/proc/self/statm", "rb") as handle:
        return int(handle.read().split()[1]) * _PAGE_MIB


def _max_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _union_length(intervals):
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


class _Frame:
    """An open span and the intervals its child spans have covered so far."""

    __slots__ = ("record", "intervals")

    def __init__(self, record):
        self.record = record
        self.intervals = []


class _ThreadState(threading.local):
    """Per thread: open spans, the nesting depth of per-request calls, and
    the seconds spent in outermost per-request calls since the innermost
    span opened."""

    def __init__(self):
        self.frames = []
        self.depth = 0
        self.call_s = 0.0


class Tracer:
    def __init__(self):
        self.origin = perf_counter()
        self.spans = []
        self.calls = defaultdict(lambda: [0, 0.0])  # name -> [calls, seconds]
        self.counts = defaultdict(int)
        self.peaks_mib = {}
        self._state = _ThreadState()
        self._main_frames = self._state.frames
        self._lock = threading.Lock()
        self._patches = []

    # -- spans ---------------------------------------------------------

    def span(self, name, fn, *args, peak=False, **kwargs):
        """Call ``fn`` inside a span named ``name`` and return its result."""
        state = self._state
        frames = state.frames
        if frames:
            parent = frames[-1]
        else:  # a pool thread: the span open in the main thread started it
            parent = self._main_frames[-1] if self._main_frames else None
        record = {"name": name, "parent": parent.record["id"] if parent else None}
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        frame = _Frame(record)
        frames.append(frame)
        outer_call_s, state.call_s = state.call_s, 0.0
        if peak:
            rss_before = _rss_mib()
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            if peak:
                growth = _max_rss_mib() - rss_before
                self.peaks_mib[name] = max(self.peaks_mib.get(name, 0.0), growth)
            frames.pop()
            covered = _union_length(frame.intervals) + state.call_s
            state.call_s = outer_call_s
            record.update(
                start_s=start - self.origin,
                end_s=end - self.origin,
                duration_s=end - start,
                self_s=max(0.0, end - start - covered),
            )
            if parent is not None:
                with self._lock:
                    parent.intervals.append((start, end))

    def wrap_span(self, owner, attr, name, peak=False, count=None):
        """Record every call of ``owner.attr`` as a span.

        ``count(result)`` returns (counter name, amount) to add after the call.
        """
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            result = self.span(name, original, *args, peak=peak, **kwargs)
            if count is not None:
                key, amount = count(result)
                self.counts[key] += amount
            return result

        self._patch(owner, attr, wrapper)

    # -- aggregated per-request calls ------------------------------------

    def wrap_calls(self, owner, attr, name, before=None, count=None):
        """Count calls of ``owner.attr`` and their total seconds, without spans.

        ``before(args)`` runs ahead of the call and its value is passed on to
        ``count(args, result, before_value)``, which returns (counter, amount).
        The wrapper allocates no container objects per call.
        """
        original = getattr(owner, attr)
        stat = self.calls[name]
        state = self._state
        counts = self.counts

        def wrapper(*args, **kwargs):
            state.depth += 1
            token = before(args) if before is not None else None
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                state.depth -= 1
                if not state.depth:
                    state.call_s += duration
                stat[0] += 1
                stat[1] += duration
            if count is not None:
                key, amount = count(args, result, token)
                counts[key] += amount
            return result

        self._patch(owner, attr, wrapper)

    # -- lifetime --------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def span_total(self, name, field="duration_s"):
        return sum(s[field] for s in self.spans if s["name"] == name and field in s)

    def span_count(self, name):
        return sum(1 for s in self.spans if s["name"] == name)


def install(tracer: Tracer) -> None:
    """Wrap the calls that the layers make into one another."""
    from coldsim import caches, cli, sim, traces

    rows = lambda trace: ("traces.rows_parsed", len(trace))
    tracer.wrap_span(cli, "load_trace", "traces.load_trace", peak=True, count=rows)
    tracer.wrap_span(cli, "load_profiles", "traces.load_profiles")
    tracer.wrap_span(cli, "popularity_cdf", "traces.popularity_cdf")
    # popularity_cdf reaches request_counts through the traces module itself
    tracer.wrap_span(cli, "request_counts", "traces.request_counts")
    tracer.wrap_span(traces, "request_counts", "traces.request_counts")

    edges = lambda graph: ("locality.graph_edges", len(graph.weights))
    tracer.wrap_span(cli, "build_dependency_graph", "locality.build_dependency_graph", count=edges)
    tracer.wrap_span(cli, "partition_clustered", "locality.partition_clustered")
    tracer.wrap_span(cli, "partition_round_robin", "locality.partition_round_robin")

    tracer.wrap_span(cli, "sweep_cache_sizes", "sim.sweep_cache_sizes")
    tracer.wrap_span(sim, "simple_lru_hit_rate", "sim.lru_replay")
    tracer.wrap_span(cli, "run", "sim.run", peak=True)
    tracer.wrap_span(cli, "write_per_request_csv", "cli.write_per_request")

    tracer.wrap_calls(sim, "classify_request", "caches.classify_request")
    tracer.wrap_calls(sim, "init_latency", "caches.init_latency")
    tracer.wrap_calls(caches.ImportCacheTree, "best_node", "caches.best_node")
    tracer.wrap_calls(
        caches.ImportCacheTree,
        "insert",
        "caches.import_insert",
        before=lambda args: len(args[0]),
        count=lambda args, _, size: ("caches.import_evictions", size + 1 - len(args[0])),
    )
    tracer.wrap_calls(
        caches.HandlerCache,
        "insert",
        "caches.handler_insert",
        count=lambda _a, victims, _s: ("caches.handler_evictions", len(victims)),
    )
    tracer.wrap_calls(
        caches.InstallCache,
        "insert",
        "caches.install_insert",
        count=lambda _a, victims, _s: ("caches.install_evictions", len(victims)),
    )
    tracer.wrap_calls(sim.Worker, "queue_len", "sim.queue_len")
    tracer.wrap_calls(sim.Worker, "expire_handler", "sim.expire_handler")
