"""Deterministic trace-driven simulation of routing, workers, and tier caches.

A run processes requests in timestamp order (ties keep trace order). Each
request is routed to a worker in its function's locality group, classified
against that worker's caches, charged the modeled initialization latency,
and executed FIFO on the worker. The function's instance is paused in the
worker's handler cache at request completion. The handler cache alone
decides keep-alive: routing asks it whether an instance is live at arrival,
and it drops expired ones when the worker starts its next request.
``_select_worker`` is the only router. Under HandlerAffinity it probes one
worker per request, the last to serve the function, since no other can
hold a live instance; it counts queues only when every candidate is busy.
Nothing here draws random numbers, so identical inputs always produce
identical results.

A handler hit is decided by one membership test after expiry, here and
nowhere else: it builds no probe, and every hit shares one breakdown, an
unpause. Only a handler miss is classified, by ``classify_request``, through
the import tree and the install cache. Either way the instance is paused
again at completion; a hit's re-pause only moves its entry, since it frees
and takes no bytes.

A run counts requests per breakdown slot (slot 0 is a hit's unpause, each
distinct miss breakdown takes the next), which gives its ``SimResult``, and
keeps no outcome. An optional consumer, such as the per-request CSV writer,
is handed each chunk of ``ROW_CHUNK`` requests as integer columns.

Locality groups share no worker, no cache and no ``last_worker`` entry, so
a pass over some groups' rows alone, in trace order, does for them exactly
what the whole run does, and a result's aggregates are exact sums of
integer counts. ``run`` therefore splits the groups into at most one shard
per usable CPU, heaviest group first onto the lightest shard. It simulates
the heaviest shard itself and each other in a forked child, which sends
back its request count per (tier, init ms) through a pipe and leaves by
``os._exit``. Each shard walks the whole trace a chunk at a time and keeps
its rows by their id code. A run takes one shard, in process, when it has a
consumer (the rows must reach it in trace order), fewer than
``SHARD_MIN_ROWS`` requests, one usable CPU, one group with requests, or no
``fork``. Every child is reaped, and killed first, before ``run`` returns
or raises; a child's error is raised in the parent as a ``RuntimeError``.

``simple_lru_hit_rate`` and ``sweep_cache_sizes`` implement the simplified
evaluation model: a single global LRU keyed by function id, bypassing
workers and groups entirely. LRU has the inclusion property, so one pass
over the trace counts each re-reference by its stack distance (the number
of distinct ids used since that id's last use), and an LRU of ``c`` entries
hits exactly the re-references at distance below ``c``. The pass keeps the
stack of the largest requested cache only: an id that falls off it misses
at every requested size.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import signal
import warnings
from bisect import bisect_left, bisect_right
from collections import Counter, deque
from dataclasses import asdict, dataclass, field
from enum import Enum
from itertools import accumulate
from operator import attrgetter
from typing import IO, Callable, Iterable, Mapping, Sequence

import numpy as np

from .caches import (
    CacheLookupResult,
    HandlerCache,
    ImportCacheTree,
    InstallCache,
    LatencyBreakdown,
    LatencyModel,
    Tier,
    classify_request,
    init_latency,
)
from .locality import Partition
from .traces import (
    MAX_TIMESTAMP_MS,
    ROW_CHUNK,
    FunctionProfile,
    Trace,
    format_rows,
    index_profiles,
    request_counts,
    text_table,
)

DEFAULT_FOOTPRINT_BYTES = 256 * 1024 * 1024  # uniform per-instance footprint
DEFAULT_PACKAGE_SIZE_BYTES = 10 * 1024 * 1024

# A run of fewer requests takes one shard, in process. Forking a shard, reading its counts and
# reaping it took about 4 ms from a 50 MiB process on 2 cores, and two shards first beat one near
# 2,000 requests; this leaves room for a slower fork from a larger process.
SHARD_MIN_ROWS = 10_000

PER_REQUEST_CSV_HEADER = (
    "timestamp_ms,function_id,worker_id,tier,load_ms,download_ms,"
    "install_ms,import_ms,create_ms,exec_ms,shutdown_ms,total_ms"
)


class RoutingPolicy(str, Enum):
    LEAST_LOADED = "LeastLoaded"
    HANDLER_AFFINITY = "HandlerAffinity"


@dataclass
class SimConfig:
    """Per-worker cache sizing, keep-alive policy, and routing choice.

    ``keep_alive_ms=None`` disables handler expiry entirely (pure capacity
    LRU); ``import_max_nodes=0`` disables the import tier so new instances
    pay full sandbox creation.
    """

    partition: Partition
    handler_capacity_bytes: int = 4 * DEFAULT_FOOTPRINT_BYTES
    install_capacity_bytes: int = 8 * 1024 * 1024 * 1024
    import_max_nodes: int = 64
    keep_alive_ms: int | None = 600_000
    latency_model: LatencyModel = field(default_factory=LatencyModel)
    routing_policy: RoutingPolicy = RoutingPolicy.HANDLER_AFFINITY
    footprint_bytes: int = DEFAULT_FOOTPRINT_BYTES
    footprint_overrides: Mapping[str, int] = field(default_factory=dict)
    package_size_bytes: int = DEFAULT_PACKAGE_SIZE_BYTES

    def __post_init__(self) -> None:
        if self.keep_alive_ms is not None and self.keep_alive_ms < 0:
            raise ValueError("keep_alive_ms must be >= 0")
        if self.import_max_nodes < 0:
            raise ValueError("import_max_nodes must be >= 0")
        # an entry no cache can hold fails here, not at the request that first inserts it
        sizes = [("footprint_bytes", self.footprint_bytes, "handler_capacity_bytes")]
        sizes += [
            (f"footprint_overrides[{fid!r}]", size, "handler_capacity_bytes")
            for fid, size in self.footprint_overrides.items()
        ]
        sizes.append(("package_size_bytes", self.package_size_bytes, "install_capacity_bytes"))
        for name, size, limit in sizes:  # both capacities are some entry's limit
            capacity = getattr(self, limit)
            if capacity < 1:
                raise ValueError(f"{limit} must be >= 1")
            if not 0 <= size <= capacity:
                raise ValueError(f"{name} = {size} is outside 0..{limit} ({capacity})")
        if isinstance(self.routing_policy, str):
            self.routing_policy = RoutingPolicy(self.routing_policy)


class Worker:
    """One simulated worker: private tier caches plus a FIFO request queue."""

    __slots__ = ("worker_id", "handler", "install", "imports", "busy_until_ms", "_starts")

    def __init__(self, worker_id: int, config: SimConfig):
        self.worker_id = worker_id
        self.handler = HandlerCache(config.handler_capacity_bytes, config.keep_alive_ms)
        self.install = InstallCache(config.install_capacity_bytes)
        self.imports = (
            ImportCacheTree(config.import_max_nodes) if config.import_max_nodes else None
        )
        self.busy_until_ms = 0
        # starts not yet seen to pass: by a queue_len call, or by ``run`` finding the worker idle
        self._starts: deque[int] = deque()

    def queue_len(self, now_ms: int) -> int:
        """Requests assigned but not yet started at ``now_ms``.

        A worker runs its requests one at a time in FIFO order, so their
        start times never decrease and the requests not yet started at
        ``now_ms`` are a suffix of ``_starts``. Calls come in arrival order,
        so ``now_ms`` never decreases either, and a start at or before it
        can be dropped for good.
        """
        starts = self._starts
        while starts and starts[0] <= now_ms:
            starts.popleft()
        return len(starts)

    def expire_handler(self, now_ms: int) -> None:
        """Forward to the handler: ``perfbench/tracer.py`` counts each request's expiry here."""
        self.handler.expire(now_ms)

    def begin(self, start_ms: int, completion_ms: int) -> None:
        self._starts.append(start_ms)
        self.busy_until_ms = completion_ms


_busy_until = attrgetter("busy_until_ms")
_AFFINITY = RoutingPolicy.HANDLER_AFFINITY  # read once: member lookups are slow


# (first row, worker ids, slots, start times, (tier, breakdown) per slot) of a chunk of requests
ChunkConsumer = Callable[[int, list[int], list[int], list[int], list[tuple[Tier, LatencyBreakdown]]], None]


@dataclass(frozen=True)
class SimResult:
    """Aggregates of one run; ``run`` hands per-request outcomes only to a consumer."""

    requests: int
    tier_counts: dict[str, int]
    hit_rate_by_tier: dict[str, float]
    mean_init_ms: float | None
    median_init_ms: float | None
    p99_init_ms: float | None
    cold_start_fraction: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def _summarize(groups: Iterable[tuple[Tier, int, int]]) -> SimResult:
    """Exact aggregates over requests given as (tier, init ms, count) groups."""
    counts = {tier.value: 0 for tier in Tier}
    init_counts: Counter[int] = Counter()
    for tier, init_ms, count in groups:
        counts[tier.value] += count
        init_counts[init_ms] += count
    n = sum(counts.values())
    if n == 0:
        return SimResult(0, counts, {t: 0.0 for t in counts}, None, None, None, 0.0)
    values = sorted(init_counts)
    ends = list(accumulate(init_counts[v] for v in values))  # ends[i]: latencies <= values[i]

    def nth(rank: int) -> int:  # the rank-th smallest latency, counted from 0
        return values[bisect_right(ends, rank)]

    rates = {t: c / n for t, c in counts.items()}
    return SimResult(
        n,
        counts,
        rates,
        sum(v * c for v, c in init_counts.items()) / n,
        (nth((n - 1) // 2) + nth(n // 2)) / 2,  # as statistics.median
        float(nth(math.ceil(0.99 * n) - 1)),
        1.0 - rates[Tier.HANDLER_HIT.value],
    )


def write_per_request_csv(
    stream: IO[str], trace: Trace, profiles: Sequence[FunctionProfile], config: SimConfig
) -> ChunkConsumer:
    """Write the CSV header to ``stream``; return a ``run`` consumer that formats each chunk's rows at once."""
    stream.write(PER_REQUEST_CSV_HEADER + "\n")
    catalog = index_profiles(profiles)
    # ``run`` refuses a function with no profile before it hands out a row
    execs = [catalog[fid].exec_duration_ms if fid in catalog else 0 for fid in trace.names]
    shutdown = config.latency_model.shutdown_ms
    if max(execs, default=0) + shutdown > MAX_TIMESTAMP_MS:  # each id has a row, whose total is at least this
        raise ValueError(f"a per-request total_ms would pass {MAX_TIMESTAMP_MS}")
    exec_ms = np.array(execs, dtype=np.int64)  # per id code
    room = (MAX_TIMESTAMP_MS - shutdown - exec_ms).astype(np.uint64)  # the init each id's total can add
    ids = text_table([f",{fid}," for fid in trace.names], trace.stamps.max(initial=0))

    def write_chunk(first, worker_ids, slots, starts, breakdowns):
        phases = [f",{tier.value},{b.load_ms},{b.download_ms},{b.install_ms},{b.import_ms},{b.create_ms},"
                  for tier, b in breakdowns]
        end = first + len(slots)
        codes = trace.codes[first:end]
        workers, slots = np.array(worker_ids), np.array(slots)
        # each row's init, capped at 2**63 so that a uint64 holds it and the compare stays exact
        init = np.array([min(b.total_ms, MAX_TIMESTAMP_MS + 1) for _, b in breakdowns], dtype=np.uint64)[slots]
        if (init > room[codes]).any():
            raise ValueError(f"a per-request total_ms would pass {MAX_TIMESTAMP_MS}")
        execs = exec_ms[codes]
        totals = init.astype(np.int64) + execs + shutdown
        once = np.zeros(len(slots), dtype=np.int8)  # each row takes a one-text table's only text
        stream.writelines(format_rows([
            (trace.stamps[first:end], ids, codes),
            (workers, text_table(phases, workers.max()), slots),
            (execs, text_table([f",{shutdown},"], execs.max()), once),
            (totals, text_table(["\n"], totals.max()), once),
        ]))

    return write_chunk


def _select_worker(
    candidates: Sequence[Worker],
    function_id: str,
    now_ms: int,
    policy: RoutingPolicy,
    last_worker: dict[str, Worker],
) -> Worker:
    """Pick the worker for one request among its group's ``candidates``.

    HandlerAffinity prefers the candidate holding a live instance. Only the
    worker that served the function last can hold one: each request goes
    to the live holder if there is one, and an instance not live at an
    arrival stays so until its worker serves the function again. So one
    probe of ``last_worker[function_id]`` decides. Otherwise, and always
    under LeastLoaded, the shortest queue wins, then earliest
    busy_until_ms, then lowest id. A worker idle at ``now_ms`` has an empty
    queue and an earlier busy_until_ms than any busy one, so if any is idle
    the earliest-idle one wins and no queue is counted. ``candidates`` must
    be in ascending worker id; the choice is recorded in ``last_worker``.
    """
    if policy is _AFFINITY:
        holder = last_worker.get(function_id)
        if holder is not None and holder.handler.live(function_id, now_ms):
            return holder
    best = min(candidates, key=_busy_until)  # ties keep the lowest id
    if best.busy_until_ms > now_ms:
        best = min(candidates, key=lambda w: (w.queue_len(now_ms), w.busy_until_ms))
    last_worker[function_id] = best
    return best


def build_workers(config: SimConfig) -> dict[int, list[Worker]]:
    """Fresh workers per group, ids assigned sequentially in group-id order."""
    by_group: dict[int, list[Worker]] = {}
    next_id = 0
    for g in sorted(config.partition.groups, key=lambda g: g.group_id):
        pool = []
        for _ in range(g.worker_count):
            pool.append(Worker(next_id, config))
            next_id += 1
        by_group[g.group_id] = pool
    return by_group


def _shards(trace: Trace, group_of: Mapping[str, int], consumer: ChunkConsumer | None) -> list[np.ndarray]:
    """Per shard, heaviest first, a mask over the trace's id codes that keeps the rows it simulates.

    A run takes one shard when a consumer needs its rows in trace order,
    when it has fewer than ``SHARD_MIN_ROWS`` requests, or when there is one
    usable CPU, one group with requests or no ``fork``. Otherwise each usable
    CPU gets at most one shard: groups go heaviest first, ties by lower id,
    each onto the shard with the fewest requests so far, ties by lower index.
    """
    whole = [np.ones(len(trace.names), dtype=bool)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if consumer is not None or len(trace) < SHARD_MIN_ROWS or cpus < 2 or not hasattr(os, "fork"):
        return whole
    load: Counter[int] = Counter()
    for fid, count in request_counts(trace).items():  # counted a chunk at a time: no whole-column copy
        load[group_of[fid]] += count
    if len(load) < 2:
        return whole
    requests = [0] * min(cpus, len(load))  # per shard
    members: list[set[int]] = [set() for _ in requests]
    for _, group_id in sorted((-count, group_id) for group_id, count in load.items()):
        lightest = requests.index(min(requests))
        requests[lightest] += load[group_id]
        members[lightest].add(group_id)
    members.insert(0, members.pop(requests.index(max(requests))))
    return [np.array([group_of[fid] in groups for fid in trace.names]) for groups in members]


def _simulate_shard(
    trace: Trace, keep: np.ndarray, per_function: list, config: SimConfig, consumer: ChunkConsumer | None
) -> list[tuple[Tier, int, int]]:
    """Simulate, in trace order, the rows whose id code ``keep`` marks; (tier, init ms, requests) per slot.

    A consumer is handed every chunk, so it is given only with a mask that keeps every row.
    """
    policy = config.routing_policy
    model = config.latency_model
    package_size = config.package_size_bytes
    last_worker: dict[str, Worker] = {}
    # slot 0 is a hit's unpause; a miss's breakdown depends only on the probe features
    # that key ``slot_of``, whose first is the tier, so equal ones share a slot
    breakdowns = [(Tier.HANDLER_HIT, init_latency(CacheLookupResult(Tier.HANDLER_HIT), model))]
    init_ms = [breakdowns[0][1].total_ms]
    requests = [0]
    slot_of: dict[tuple, int] = {}
    for first in range(0, len(trace), ROW_CHUNK):
        worker_ids, slots, starts = [], [], []  # the chunk's columns, kept only for a consumer
        end = first + ROW_CHUNK
        codes = trace.codes[first:end]
        mine = keep[codes]
        for now, code in zip(trace.stamps[first:end][mine].tolist(), codes[mine].tolist()):
            fid, profile, candidates, footprint = per_function[code]
            worker = _select_worker(candidates, fid, now, policy, last_worker)
            start = worker.busy_until_ms
            if start <= now:
                start = now
                worker._starts.clear()  # idle: every start it holds has passed, so it stays bounded
            worker.expire_handler(start)
            handler = worker.handler
            if fid in handler:
                slot = 0
            else:
                probe = classify_request(profile, worker.install, worker.imports)
                cold = probe.cold
                node = probe.forked_node_id
                key = (probe.tier, len(cold), len(probe.preinstalled), node is not None)
                if cold:
                    for pkg in sorted(cold):
                        worker.install.insert(pkg, package_size)
                if node is not None:
                    worker.imports.touch(node, start)
                    if cold or probe.preinstalled:
                        worker.imports.insert(node, profile.dependencies, start)
                slot = slot_of.get(key)
                if slot is None:
                    slot = slot_of[key] = len(breakdowns)
                    breakdowns.append((probe.tier, init_latency(probe, model)))
                    init_ms.append(breakdowns[slot][1].total_ms)
                    requests.append(0)
            requests[slot] += 1
            completion = start + init_ms[slot] + profile.exec_duration_ms
            worker.begin(start, completion)
            handler.insert(fid, footprint, completion)
            if consumer is not None:
                worker_ids.append(worker.worker_id)
                slots.append(slot)
                starts.append(start)
        if consumer is not None:
            consumer(first, worker_ids, slots, starts, breakdowns)
    return [(tier, b.total_ms, count) for (tier, b), count in zip(breakdowns, requests)]


def run(
    trace: Trace, profiles: Sequence[FunctionProfile], config: SimConfig, consumer: ChunkConsumer | None = None
) -> SimResult:
    """Simulate the full trace, handing each chunk's outcomes to ``consumer``; see the module docstring."""
    catalog = index_profiles(profiles)
    unprofiled = sorted(config.footprint_overrides.keys() - catalog.keys())
    if unprofiled:
        raise ValueError(f"footprint_overrides names {unprofiled[0]!r}, a function with no profile")
    group_of = config.partition.function_to_group()
    runtime_of = {f: g.runtime for g in config.partition.groups for f in g.function_ids}
    mixed = sorted(f for f in runtime_of.keys() & catalog.keys() if catalog[f].runtime != runtime_of[f])
    if mixed:
        fid = mixed[0]
        raise ValueError(f"function {fid!r} has runtime {catalog[fid].runtime!r}, not its group's {runtime_of[fid]!r}")
    for fid in trace.names:
        if fid not in catalog:
            raise ValueError(f"no profile for function {fid!r}")
        if fid not in group_of:
            raise ValueError(f"unpartitioned function {fid!r}")

    by_group = build_workers(config)
    # (id, profile, candidate workers, footprint) per id code, looked up once
    per_function = [
        (fid, catalog[fid], by_group[group_of[fid]], config.footprint_overrides.get(fid, config.footprint_bytes))
        for fid in trace.names
    ]
    own, *forked = _shards(trace, group_of, consumer)
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe) per forked shard
    try:
        for keep in forked:
            read_end, write_end = os.pipe()
            try:
                with warnings.catch_warnings():
                    # Python 3.12 warns on forking with threads running, here numpy's idle BLAS pool; no child calls it
                    warnings.filterwarnings("ignore", r"This process .* is multi-threaded", DeprecationWarning)
                    pid = os.fork()
            except BaseException:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:  # the child writes only to its pipe, and leaves by os._exit: no handler of the parent's runs
                try:
                    os.close(read_end)
                    try:
                        reply = _simulate_shard(trace, keep, per_function, config, None)
                    except BaseException as exc:
                        reply = f"{type(exc).__name__}: {exc}"
                    with open(write_end, "wb") as pipe:
                        pickle.dump(reply, pipe)
                finally:
                    os._exit(0)
            os.close(write_end)
            children.append((pid, read_end))
        counts = _simulate_shard(trace, own, per_function, config, consumer)
        for _, read_end in children:
            with open(read_end, "rb", closefd=False) as pipe:
                try:
                    reply = pickle.load(pipe)
                except EOFError:
                    reply = "it exited without sending its counts"
            if isinstance(reply, str):
                raise RuntimeError(f"a shard of the run failed in a forked process: {reply}")
            counts += reply
    finally:  # every child is gone before run returns or raises
        for pid, read_end in children:
            os.close(read_end)
            os.kill(pid, signal.SIGKILL)  # changes nothing for a child that has sent its reply
            os.waitpid(pid, 0)
    return _summarize(counts)


def _stack_distance_counts(codes: np.ndarray, distinct: int, depth: int) -> list[int]:
    """Re-references counted by LRU stack distance, for distances below ``depth``.

    ``codes`` are the accessed ids as codes in ``range(distinct)``.
    ``counts[d]`` is the number of accesses whose id was last used ``d``
    distinct ids ago. ``last[code]`` is the position of the id's last use,
    -1 before its first. ``times`` holds, ascending, the last-use positions
    of the ``depth`` most recently used ids; every other id's last use is
    older than ``times[0]``. ``counts`` grows with ``times``, so memory is
    bounded by the distinct ids, not by ``depth``.
    """
    last = [-1] * distinct
    times: list[int] = []
    counts: list[int] = []
    for first in range(0, len(codes), ROW_CHUNK):
        for now, code in enumerate(codes[first:first + ROW_CHUNK].tolist(), first):
            prev = last[code]
            if prev >= 0 and prev >= times[0]:
                k = bisect_left(times, prev)
                counts[len(times) - 1 - k] += 1
                del times[k]
            elif len(times) == depth:
                del times[0]  # that id has fallen out of the largest cache
            else:
                counts.append(0)
            times.append(now)
            last[code] = now
    return counts


def simple_lru_hit_rate(trace: Trace, capacity_entries: int) -> float:
    """Hit rate of one global LRU keyed by function id, counted in entries."""
    if capacity_entries < 1:
        raise ValueError("capacity_entries must be >= 1")
    return sweep_cache_sizes(trace, [capacity_entries], footprint_bytes=1)[0][1]


def sweep_cache_sizes(
    trace: Trace,
    sizes_bytes: Sequence[int],
    footprint_bytes: int = DEFAULT_FOOTPRINT_BYTES,
) -> list[tuple[int, float]]:
    """Global-LRU hit rate per cache size, entries = size // footprint.

    Rows are sorted ascending by size. The trace is read once, whatever the
    number of sizes.
    """
    if footprint_bytes < 1:
        raise ValueError("footprint_bytes must be >= 1")
    for size in sizes_bytes:
        if size < footprint_bytes:
            raise ValueError(f"cache size {size} smaller than footprint {footprint_bytes}")
    if not sizes_bytes:
        return []
    if not len(trace):
        raise ValueError("empty trace")
    counts = _stack_distance_counts(trace.codes, len(trace.names), max(sizes_bytes) // footprint_bytes)
    hits = list(accumulate(counts, initial=0))  # hits[c]: hits of a c-entry LRU, c <= len(counts)
    n = len(trace)
    return [(size, hits[min(size // footprint_bytes, len(counts))] / n) for size in sorted(sizes_bytes)]
