"""Independent brute-force oracles used by the test suite.

These are deliberately naive reimplementations (list-scan LRU, exhaustive
set-partition search, row-by-row trace parse) kept separate from the code
under test.
"""

from __future__ import annotations

import math
import statistics
from itertools import combinations

from coldsim.caches import Tier
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
        if not function_id:
            raise TraceParseError(f"line {lineno}: empty function_id")
        stamps.append(ts)
        ids.append(intern(function_id, function_id))
    order = sorted(range(len(stamps)), key=stamps.__getitem__)
    return Trace(tuple(map(stamps.__getitem__, order)), tuple(map(ids.__getitem__, order)))
