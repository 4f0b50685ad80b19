"""Independent brute-force oracles used by the test suite.

These are deliberately naive reimplementations (list-scan LRU, exhaustive
set-partition search, row-by-row trace parse, a whole-run simulator built
from list-scan parts, a popularity CDF in exact fractions) kept separate
from the code under test.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from coldsim.caches import CacheLookupResult, LatencyBreakdown, Tier, init_latency
from coldsim.sim import PER_REQUEST_CSV_HEADER, RoutingPolicy
from coldsim.traces import TRACE_HEADER, Trace, TraceParseError


class ReferenceLRU:
    """List-scan LRU keyed by entry count; most recent at the tail."""

    def __init__(self, capacity: int):
        assert capacity >= 1
        self.capacity = capacity
        self.items: list = []

    def access(self, key) -> bool:
        if key in self.items:
            self.items.remove(key)
            self.items.append(key)
            return True
        self.items.append(key)
        if len(self.items) > self.capacity:
            self.items.pop(0)
        return False


def reference_lru_hits(keys, capacity: int) -> list[bool]:
    lru = ReferenceLRU(capacity)
    return [lru.access(k) for k in keys]


def reference_lru_hit_rate(keys, capacity: int) -> float:
    hits = reference_lru_hits(keys, capacity)
    return sum(hits) / len(hits)


def set_partitions(items: list, k: int):
    """All unordered partitions of ``items`` into exactly k non-empty blocks."""
    n = len(items)
    if k < 1 or k > n:
        return
    if k == 1:
        yield [list(items)]
        return
    if k == n:
        yield [[item] for item in items]
        return
    head, rest = items[0], items[1:]
    for part in set_partitions(rest, k - 1):
        yield [[head]] + part
    for part in set_partitions(rest, k):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1 :]


def pooled_intra_similarity(blocks, weights) -> float:
    """Mean edge weight over all within-block pairs; 0.0 when no pairs exist."""
    total = 0.0
    pairs = 0
    for block in blocks:
        for a, b in combinations(sorted(block), 2):
            total += weights.get((a, b) if a <= b else (b, a), 0.0)
            pairs += 1
    return total / pairs if pairs else 0.0


def best_partition_score(items: list, weights, k: int) -> float:
    """Exhaustive maximum of pooled intra-block similarity over k-partitions."""
    best = None
    for part in set_partitions(items, k):
        score = pooled_intra_similarity(part, weights)
        if best is None or score > best:
            best = score
    assert best is not None
    return best


def reference_allocate_workers(groups, total_workers: int, popularity) -> list[int]:
    """Largest-remainder apportionment in exact rationals, one worker at a time.

    Floors of share·total, any zero lifted to one, then the leftover handed
    out by descending remainder (ties to the lower index); an overshoot from
    the lifts is taken back one worker per scan from the first group, by
    ascending remainder (ties to the higher index), that can spare one.
    """
    n = len(groups)
    if n == 0:
        raise ValueError("no groups to allocate")
    if total_workers < n:
        raise ValueError("insufficient workers")
    weights = [sum(popularity.get(f, 0) for f in g) for g in groups]
    total_weight = sum(weights)
    if total_weight <= 0:
        shares = [Fraction(1, n)] * n
    else:
        shares = [Fraction(w) / Fraction(total_weight) for w in weights]
    raw = [s * total_workers for s in shares]
    counts = [max(1, int(r)) for r in raw]
    remainders = [r - int(r) for r in raw]
    diff = total_workers - sum(counts)
    if diff > 0:
        order = sorted(range(n), key=lambda i: (-remainders[i], i))
        for i in order[:diff]:
            counts[i] += 1
    elif diff < 0:
        order = sorted(range(n), key=lambda i: (remainders[i], -i))
        while diff < 0:
            for i in order:
                if counts[i] > 1:
                    counts[i] -= 1
                    diff += 1
                    break
            else:
                raise ValueError("insufficient workers")
    return counts


def reference_cluster(fids, graph, target: int) -> list[frozenset]:
    """Greedy average linkage by a full scan of every live pair per merge.

    Clusters are named by their lowest member. Each step merges the pair
    with the smallest ``(-sum / (|A|·|B|), (low_a, low_b))`` among pairs
    with a positive summed cross weight; with none left, the two smallest
    clusters by (size, lowest id). A merged cluster's sum with each other
    cluster is ``sum(a, k) + sum(b, k)``: the same float additions as the
    code under test, which an exact rational oracle would not match on
    near-ties.
    """
    clusters = {f: [f] for f in sorted(fids)}
    sums = {}  # frozenset of two cluster names -> summed cross weight
    for (a, b), w in graph.weights.items():
        if a in clusters and b in clusters:
            sums[frozenset((a, b))] = w
    while len(clusters) > target:
        best = None
        for pair, total in sums.items():
            a, b = sorted(pair)
            rank = (-total / (len(clusters[a]) * len(clusters[b])), (a, b))
            if best is None or rank < best:
                best = rank
        if best is None:
            smallest = sorted(clusters, key=lambda c: (len(clusters[c]), c))[:2]
            a, b = sorted(smallest)
        else:
            a, b = best[1]
        clusters[a] += clusters.pop(b)
        sums.pop(frozenset((a, b)), None)
        for k in clusters:
            moved = sums.pop(frozenset((b, k)), None)
            if moved is not None:
                key = frozenset((a, k))
                sums[key] = sums.get(key, 0.0) + moved
    return sorted((frozenset(c) for c in clusters.values()), key=min)


def best_import_node(nodes, required: frozenset):
    """Exhaustive best-node rule: max |set| subset of required, deepest, lowest id.

    ``nodes`` is an iterable of (node_id, packages, depth) triples.
    """
    best = None
    for node_id, packages, depth in nodes:
        if not packages <= required:
            continue
        rank = (len(packages), depth, -node_id)
        if best is None or rank > best[0]:
            best = (rank, node_id)
    assert best is not None, "the root always qualifies"
    return best[1]


class ReferenceQueue:
    """A worker's in-flight requests, counted by a full scan of the queue."""

    def __init__(self):
        self.inflight: list[tuple[int, int]] = []  # (start, completion)

    def begin(self, start_ms: int, completion_ms: int) -> None:
        self.inflight.append((start_ms, completion_ms))

    def queue_len(self, now_ms: int) -> int:
        while self.inflight and self.inflight[0][1] <= now_ms:
            self.inflight.pop(0)
        return sum(1 for start, _ in self.inflight if start > now_ms)


class ReferenceImportTree:
    """Import tree kept as a flat node table; every operation scans it all.

    Eviction takes the minimum of ``(last_fork_ms, -node_id)`` over the
    non-root leaves; ``best_node`` applies ``best_import_node`` to every node.
    """

    ROOT_ID = 0

    def __init__(self, max_nodes: int):
        self.max_nodes = max_nodes
        # node_id -> [packages, parent_id, depth, last_fork_ms]
        self.nodes = {self.ROOT_ID: [frozenset(), None, 0, 0]}
        self.next_id = 1

    def best_node(self, required: frozenset):
        node_id = best_import_node(
            ((n, packages, depth) for n, (packages, _, depth, _) in self.nodes.items()),
            required,
        )
        return node_id, required - self.nodes[node_id][0]

    def touch(self, node_id: int, now_ms: int) -> None:
        self.nodes[node_id][3] = now_ms

    def insert(self, parent_id: int, packages: frozenset, now_ms: int) -> int:
        parent_packages, _, parent_depth, _ = self.nodes[parent_id]
        if not packages > parent_packages:
            raise ValueError("import tree hierarchy violated")
        node_id = self.next_id
        self.next_id += 1
        self.nodes[node_id] = [packages, parent_id, parent_depth + 1, now_ms]
        while len(self.nodes) > self.max_nodes:
            parents = {parent for _, parent, _, _ in self.nodes.values()}
            leaves = [n for n in self.nodes if n != self.ROOT_ID and n not in parents]
            del self.nodes[min(leaves, key=lambda n: (self.nodes[n][3], -n))]
        return node_id


class ReferenceHandlerTier:
    """Paused instances as ``[function_id, footprint, paused_at_ms]`` items,
    least recent first, bounded in bytes; expiry scans every item."""

    def __init__(self, capacity_bytes: int, keep_alive_ms: int | None = None):
        self.capacity_bytes = capacity_bytes
        self.keep_alive_ms = keep_alive_ms
        self.items: list[list] = []

    def __contains__(self, function_id) -> bool:
        return any(fid == function_id for fid, _, _ in self.items)

    @property
    def used_bytes(self) -> int:
        return sum(size for _, size, _ in self.items)

    def entries(self) -> list[tuple[str, int]]:
        return [(fid, size) for fid, size, _ in self.items]

    def live(self, function_id, now_ms: int) -> bool:
        return any(
            fid == function_id and (self.keep_alive_ms is None or now_ms - paused <= self.keep_alive_ms)
            for fid, _, paused in self.items
        )

    def expire(self, now_ms: int) -> None:
        self.items = [item for item in self.items if self.live(item[0], now_ms)]

    def insert(self, function_id, footprint_bytes: int, paused_at_ms: int) -> list:
        self.items = [item for item in self.items if item[0] != function_id]
        self.items.append([function_id, footprint_bytes, paused_at_ms])
        victims = []
        while self.used_bytes > self.capacity_bytes:
            victims.append(self.items.pop(0)[0])
        return victims


class ReferenceInstallLRU:
    """Packages as ``[package, size]`` items, least recent first, bounded in bytes."""

    def __init__(self, capacity_bytes: int):
        self.capacity_bytes = capacity_bytes
        self.items: list[list] = []

    def lookup(self, packages: frozenset):
        """(present, absent); the present ones become most recent in name order."""
        present = sorted(p for p, _ in self.items if p in packages)
        for p in present:
            item = next(item for item in self.items if item[0] == p)
            self.items.remove(item)
            self.items.append(item)
        return frozenset(present), packages - frozenset(present)

    def insert(self, package, size_bytes: int) -> None:
        self.items = [item for item in self.items if item[0] != package]
        self.items.append([package, size_bytes])
        while sum(size for _, size in self.items) > self.capacity_bytes:
            self.items.pop(0)


class RequestOutcome(NamedTuple):
    """One request of a run, as the per-request CSV and the tests read it."""

    timestamp_ms: int
    function_id: str
    worker_id: int
    tier: Tier
    breakdown: LatencyBreakdown
    exec_ms: int
    shutdown_ms: int
    start_ms: int
    completion_ms: int
    total_ms: int


class _ReferenceWorker:
    def __init__(self, worker_id: int, config):
        self.worker_id = worker_id
        self.queue = ReferenceQueue()
        self.busy_until_ms = 0
        self.handler = ReferenceHandlerTier(config.handler_capacity_bytes, config.keep_alive_ms)
        self.install = ReferenceInstallLRU(config.install_capacity_bytes)
        self.imports = ReferenceImportTree(config.import_max_nodes) if config.import_max_nodes else None


def reference_run(trace, profiles, config) -> list:
    """Every outcome of a run, by the most literal reading of ``coldsim.sim``.

    Per request, in trace order: route within the function's group (under
    HandlerAffinity the lowest-id worker holding an instance live at
    arrival, otherwise the shortest queue, then the earliest busy time,
    then the lowest id); expire paused instances at the start time; probe
    handler, then import tree, then install cache; charge through
    ``init_latency``; run FIFO; pause the instance at completion; install
    the cold packages in name order; fork from the chosen node at the start
    and add a node for the full dependency set when the node lacked some.
    """
    catalog = {p.function_id: p for p in profiles}
    pool_of = {}
    next_id = 0
    for group in sorted(config.partition.groups, key=lambda g: g.group_id):
        pool = [_ReferenceWorker(next_id + i, config) for i in range(group.worker_count)]
        next_id += group.worker_count
        for fid in group.function_ids:
            pool_of[fid] = pool
    model = config.latency_model
    outcomes = []
    for now, fid in zip(trace.stamps.tolist(), [trace.names[c] for c in trace.codes.tolist()]):
        profile, pool = catalog[fid], pool_of[fid]
        holders = [w for w in pool if w.handler.live(fid, now)]
        if config.routing_policy is RoutingPolicy.HANDLER_AFFINITY and holders:
            worker = holders[0]
        else:
            worker = min(pool, key=lambda w: (w.queue.queue_len(now), w.busy_until_ms, w.worker_id))
        start = max(now, worker.busy_until_ms)
        worker.handler.expire(start)
        deps = profile.dependencies
        if fid in worker.handler:
            probe = CacheLookupResult(Tier.HANDLER_HIT)
        else:
            node, remaining = (None, deps) if worker.imports is None else worker.imports.best_node(deps)
            preimported = deps - remaining
            preinstalled, cold = worker.install.lookup(remaining)
            tier = Tier.IMPORT_HIT if preimported else Tier.INSTALL_HIT if preinstalled else Tier.MISS
            probe = CacheLookupResult(tier, preimported, preinstalled, cold, node)
        breakdown = init_latency(probe, model)
        completion = start + breakdown.total_ms + profile.exec_duration_ms
        worker.queue.begin(start, completion)
        worker.busy_until_ms = completion
        footprint = config.footprint_overrides.get(fid, config.footprint_bytes)
        worker.handler.insert(fid, footprint, completion)
        if probe.tier is not Tier.HANDLER_HIT:
            for package in sorted(probe.cold):
                worker.install.insert(package, config.package_size_bytes)
            if node is not None:
                worker.imports.touch(node, start)
                if remaining:
                    worker.imports.insert(node, deps, start)
        outcomes.append(
            RequestOutcome(
                now, fid, worker.worker_id, probe.tier, breakdown, profile.exec_duration_ms,
                model.shutdown_ms, start, completion,
                breakdown.total_ms + profile.exec_duration_ms + model.shutdown_ms,
            )
        )
    return outcomes


def reference_summary(outcomes) -> dict:
    """A run's aggregates, as ``SimResult`` fields, recomputed from all of its
    outcomes by sorting every init latency."""
    counts = {tier.value: 0 for tier in Tier}
    for o in outcomes:
        counts[o.tier.value] += 1
    n = len(outcomes)
    if n == 0:
        rates = {t: 0.0 for t in counts}
        return dict(requests=0, tier_counts=counts, hit_rate_by_tier=rates, mean_init_ms=None,
                    median_init_ms=None, p99_init_ms=None, cold_start_fraction=0.0)
    rates = {t: c / n for t, c in counts.items()}
    init = sorted(o.breakdown.total_ms for o in outcomes)
    return dict(
        requests=n,
        tier_counts=counts,
        hit_rate_by_tier=rates,
        mean_init_ms=sum(init) / n,
        median_init_ms=float(statistics.median(init)),
        p99_init_ms=float(init[max(0, math.ceil(0.99 * n) - 1)]),
        cold_start_fraction=1.0 - rates[Tier.HANDLER_HIT.value],
    )


def reference_per_request_text(outcomes) -> str:
    """A run's per-request CSV text, one f-string per outcome: the definition
    that the per-request writer reproduces."""
    rows = []
    for o in outcomes:
        b = o.breakdown
        rows.append(
            f"{o.timestamp_ms},{o.function_id},{o.worker_id},{o.tier.value},"
            f"{b.load_ms},{b.download_ms},{b.install_ms},{b.import_ms},"
            f"{b.create_ms},{o.exec_ms},{o.shutdown_ms},{o.total_ms}\n"
        )
    return PER_REQUEST_CSV_HEADER + "\n" + "".join(rows)


def reference_parse_trace(stream) -> Trace:
    """Parse a normalized trace CSV one line at a time, interning each id on
    first sight and sorting the rows stably by timestamp."""
    lines = iter(stream)
    header = next(lines, None)
    if header is None:
        raise TraceParseError("line 1: missing header")
    if header.strip() != TRACE_HEADER:
        raise TraceParseError(f"line 1: expected header {TRACE_HEADER!r}")
    stamps: list[int] = []
    ids: list[str] = []
    intern = {}.setdefault
    for lineno, line in enumerate(lines, start=2):
        row = line.rstrip("\r\n")
        parts = row.split(",")
        if len(parts) != 2:
            raise TraceParseError(f"line {lineno}: expected 2 columns, got {len(parts)}")
        ts_text, function_id = parts
        try:
            ts = int(ts_text)
        except ValueError:
            raise TraceParseError(f"line {lineno}: timestamp_ms is not an integer: {ts_text!r}") from None
        if ts < 0:
            raise TraceParseError(f"line {lineno}: timestamp_ms must be >= 0")
        if ts >= 2**63:
            raise TraceParseError(f"line {lineno}: timestamp_ms must be <= {2**63 - 1}")
        if not function_id:
            raise TraceParseError(f"line {lineno}: empty function_id")
        stamps.append(ts)
        ids.append(intern(function_id, function_id))
    order = sorted(range(len(stamps)), key=stamps.__getitem__)
    return Trace(tuple(map(stamps.__getitem__, order)), tuple(map(ids.__getitem__, order)))


def reference_trace_text(trace: Trace) -> str:
    """A trace's CSV text, one f-string per row: the definition that the
    trace writer reproduces."""
    rows = zip(trace.stamps.tolist(), [trace.names[c] for c in trace.codes.tolist()])
    return TRACE_HEADER + "\n" + "".join(f"{ts},{function_id}\n" for ts, function_id in rows)


def reference_popularity_cdf(function_ids, targets) -> tuple[list[tuple[float, float]], dict[float, float]]:
    """CDF points and coverage thresholds of a list of ids, by brute force.

    Functions rank by (-count, id). Point ``i`` is ``((i + 1) / n, share)``
    after the ``i + 1`` top functions. A target ``t`` means the exact
    fraction its decimal text names, and its threshold is the first point
    whose exact request share reaches it.
    """
    ranked = sorted(Counter(function_ids).items(), key=lambda item: (-item[1], item[0]))
    n, total = len(ranked), len(function_ids)
    points, shares, covered = [], [], 0
    for i, (_, count) in enumerate(ranked):
        covered += count
        points.append(((i + 1) / n, covered / total))
        shares.append(Fraction(covered, total))
    thresholds = {}
    for t in targets:
        thresholds[t] = min((i + 1) / n for i, share in enumerate(shares) if share >= Fraction(str(t)))
    return points, thresholds
