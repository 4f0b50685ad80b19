"""Three cache tiers and the initialization-latency model.

Tier 1 (handler): paused, fully initialized instances held in memory, in the
order they paused, until capacity or keep-alive drops the oldest; a hit
costs one unpause. Tier 2 (install): packages pre-installed on disk and
mapped read-only into workers; a hit skips download and install. Tier 3
(import): a tree of sleeping processes with progressively larger pre-imported
package sets; a new instance forks from the best-matching node. The tree is
held flat: an index from a package to the nodes filed under it, each node
under the largest package name in its set, and a child count per node,
which is all that leaf status needs.

The handler and install tiers share one byte-bounded LRU, ``_ByteLRU``: its
``_put`` holds the size checks, the refresh and the eviction loop for both.

Each cache instance is a single-threaded mutable state machine.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import OrderedDict
from dataclasses import dataclass, fields
from enum import Enum
from typing import AbstractSet, NamedTuple

from .traces import FunctionProfile

_NONE: frozenset[str] = frozenset()


class Tier(str, Enum):
    HANDLER_HIT = "HandlerHit"
    IMPORT_HIT = "ImportHit"
    INSTALL_HIT = "InstallHit"
    MISS = "Miss"


@dataclass(frozen=True)
class LatencyModel:
    """Per-phase initialization costs in integer milliseconds.

    ``LatencyModel()`` is the one default model, the Fig. 1 calibration that
    ``presets/fig1_calibration.json`` holds in full: a single-dependency full
    miss without an import tree costs exactly 3472 ms
    (200 + 1200 + 1500 + 400 + 172), with 2 ms unpause and 6 ms shutdown.
    """

    code_load_ms: int = 200
    download_ms_per_package: int = 1200
    install_ms_per_package: int = 1500
    import_ms_per_package: int = 400
    sandbox_create_ms: int = 172
    fork_ms: int = 15
    unpause_ms: int = 2
    shutdown_ms: int = 6

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError(f"{f.name} must be >= 0")
        if self.fork_ms > self.sandbox_create_ms:
            raise ValueError("fork_ms must not exceed sandbox_create_ms")
        if self.unpause_ms > self.fork_ms:
            raise ValueError("unpause_ms must not exceed fork_ms")


@dataclass(frozen=True)
class LatencyBreakdown:
    load_ms: int
    download_ms: int
    install_ms: int
    import_ms: int
    create_ms: int
    total_ms: int


class _ByteLRU:
    """``key -> (size, stamp)``, least recent first; a put past ``capacity_bytes`` evicts the oldest."""

    def __init__(self, capacity_bytes: int):
        if capacity_bytes < 1:
            raise ValueError("capacity_bytes must be >= 1")
        self.capacity_bytes = capacity_bytes
        self._entries: OrderedDict[str, tuple[int, int]] = OrderedDict()
        self._used = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    @property
    def used_bytes(self) -> int:
        return self._used

    def _put(self, key: str, size: int, stamp: int) -> list[str]:
        """Put ``key`` at most-recent; return the keys evicted, oldest first."""
        if size < 0:
            raise ValueError("entry size must be >= 0")
        if size > self.capacity_bytes:
            raise ValueError("entry larger than cache")
        entries = self._entries
        held = entries.pop(key, None)
        used = self._used + size - (held[0] if held else 0)
        entries[key] = (size, stamp)
        evicted = []
        while used > self.capacity_bytes:
            victim, (victim_size, _) = entries.popitem(last=False)
            used -= victim_size
            evicted.append(victim)
        self._used = used
        return evicted


class HandlerCache(_ByteLRU):
    """Paused function instances, bounded by total footprint bytes.

    Each entry holds an instance's footprint and pause time as its size and
    stamp. Pause times start at 0 and never decrease, and an insert puts its
    entry last, so least-recent order is pause order: capacity evicts from
    the front, and the instances idle past ``keep_alive_ms`` (None: never)
    are a prefix.
    """

    def __init__(self, capacity_bytes: int, keep_alive_ms: int | None = None):
        super().__init__(capacity_bytes)
        self.keep_alive_ms = keep_alive_ms
        self._newest_ms = 0
        self._oldest_ms = 0  # at most the oldest instance's pause time

    def entries(self) -> list[tuple[str, int]]:
        """(id, footprint) pairs in least- to most-recent order."""
        return [(fid, footprint) for fid, (footprint, _) in self._entries.items()]

    def live(self, function_id: str, now_ms: int) -> bool:
        """Whether an instance of ``function_id`` is held and not idle beyond keep-alive."""
        entry = self._entries.get(function_id)
        return entry is not None and (self.keep_alive_ms is None or now_ms - entry[1] <= self.keep_alive_ms)

    def expire(self, now_ms: int) -> None:
        """Drop the instances no longer live at ``now_ms``: a prefix, oldest first."""
        if self.keep_alive_ms is None:
            return
        cutoff = now_ms - self.keep_alive_ms
        if cutoff <= self._oldest_ms:
            return
        entries = self._entries
        while entries:
            paused_at = next(iter(entries.values()))[1]
            if paused_at >= cutoff:
                self._oldest_ms = paused_at  # the oldest pause time never decreases
                return
            self._used -= entries.popitem(last=False)[1][0]

    def insert(self, function_id: str, footprint_bytes: int, paused_at_ms: int = 0) -> list[str]:
        """Pause or re-pause at most-recent; return ids evicted, oldest first.

        A re-pause at the footprint already held evicts nothing, so it only
        refreshes the entry.
        """
        if paused_at_ms < self._newest_ms:
            raise ValueError(f"paused_at_ms {paused_at_ms} is earlier than the last, {self._newest_ms}")
        entries = self._entries
        held = entries.get(function_id)
        if held is not None and held[0] == footprint_bytes:
            entries[function_id] = (footprint_bytes, paused_at_ms)
            entries.move_to_end(function_id)
            evicted = []
        else:
            evicted = self._put(function_id, footprint_bytes, paused_at_ms)
        self._newest_ms = paused_at_ms
        return evicted


class InstallCache(_ByteLRU):
    """LRU over pre-installed packages, bounded by total size bytes."""

    def lookup(self, packages: AbstractSet[str]) -> tuple[frozenset[str], frozenset[str]]:
        """Partition ``packages`` into (present, absent); hits move to most-recent in name order."""
        if not packages:
            return _NONE, _NONE
        found = self._entries.keys() & packages
        if not found:
            return _NONE, frozenset(packages)
        for p in sorted(found) if len(found) > 1 else found:
            self._entries.move_to_end(p)
        if found == packages:
            return frozenset(packages), _NONE
        hits = frozenset(found)
        return hits, frozenset(packages) - hits

    def insert(self, package_id: str, size_bytes: int) -> list[str]:
        return self._put(package_id, size_bytes, 0)


@dataclass(slots=True, eq=False)
class _ImportNode:
    node_id: int
    packages: frozenset[str]
    parent_id: int | None
    rank: tuple[int, int, int]  # (len(packages), depth, -node_id): best_node takes the largest
    last_fork_ms: int
    filed_under: str | None = None  # the largest package; None for the root, which is not filed
    child_count: int = 0


class ImportCacheTree:
    """Tree of sleeping processes with pre-imported package sets.

    The root holds only the bare runtime (empty package set); every child
    strictly extends its parent's set. Forks must come from a node whose set
    is a subset of the request, never a superset, so a process with
    extraneous imports is never reused.

    The tree keeps no child lists. Each non-root node is filed once, in a
    flat index, under the largest package name in its set, and counts its
    children, which is all that leaf status needs. A node fits a request
    only if all of its packages are in it, so any one of them finds it: the
    filing package changes the cost of a probe, never its answer. The
    largest name is chosen because synthetic catalogs name packages in
    popularity order, so the largest name in a set is its rarest package,
    and a rare package's bucket is short.

    The eviction candidates, the non-root leaves, are kept in one ascending
    list of ``(last_fork_ms, -node_id)``: a node enters it when it becomes a
    leaf, moves when a fork from it changes its time, and leaves it when it
    gains a child or is evicted, so its head is always the next victim.
    """

    ROOT_ID = 0

    def __init__(self, max_nodes: int):
        if max_nodes < 1:
            raise ValueError("max_nodes must be >= 1")
        self.max_nodes = max_nodes
        self._root = _ImportNode(self.ROOT_ID, frozenset(), None, (0, 0, -self.ROOT_ID), 0)
        self._nodes: dict[int, _ImportNode] = {self.ROOT_ID: self._root}
        self._filed: dict[str, list[_ImportNode]] = {}  # package -> the nodes filed under it
        self._next_id = 1
        self._leaves: list[tuple[int, int]] = []

    def __len__(self) -> int:
        return len(self._nodes)

    def node_ids(self) -> list[int]:
        return sorted(self._nodes)

    def packages(self, node_id: int) -> frozenset[str]:
        return self._nodes[node_id].packages

    def parent(self, node_id: int) -> int | None:
        return self._nodes[node_id].parent_id

    def depth(self, node_id: int) -> int:
        return self._nodes[node_id].rank[1]

    def best_node(self, required: AbstractSet[str]) -> tuple[int, frozenset[str]]:
        """Largest node whose set fits inside ``required``; the root always fits.

        Ties prefer the deepest node, then the lowest node_id. Returns the
        node and the packages still missing from it.

        Every node that fits is filed under one of ``required``'s packages,
        so only those buckets are read. A node is tested for fit only when
        it would outrank the best found so far.
        """
        required = frozenset(required)
        filed = self._filed
        best = self._root
        for package in required:
            if package in filed:
                for node in filed[package]:
                    if node.rank > best.rank and node.packages <= required:
                        best = node
        return best.node_id, required - best.packages

    def touch(self, node_id: int, now_ms: int) -> None:
        """Record a fork from ``node_id`` for eviction recency."""
        node = self._nodes[node_id]
        if not node.child_count and node_id != self.ROOT_ID:  # a leaf moves in the eviction order
            leaves = self._leaves
            del leaves[bisect_left(leaves, (node.last_fork_ms, -node_id))]
            insort(leaves, (now_ms, -node_id))
        node.last_fork_ms = now_ms

    def insert(self, parent_node_id: int, package_set: AbstractSet[str], now_ms: int) -> int:
        """Add a sleeping process under ``parent_node_id``, filed under its largest package.

        The new set must strictly extend the parent's. When the node count
        exceeds the bound, leaves with the oldest fork time are evicted
        (ties broken by highest node_id); the root is never evicted.
        """
        nodes = self._nodes
        parent = nodes[parent_node_id]
        package_set = frozenset(package_set)
        if not package_set > parent.packages:
            raise ValueError("import tree hierarchy violated")
        node_id = self._next_id
        self._next_id += 1
        rank = (len(package_set), parent.rank[1] + 1, -node_id)
        key = max(package_set)
        node = nodes[node_id] = _ImportNode(node_id, package_set, parent_node_id, rank, now_ms, key)
        filed = self._filed
        if key in filed:
            filed[key].append(node)
        else:
            filed[key] = [node]
        leaves = self._leaves
        if not parent.child_count and parent_node_id != self.ROOT_ID:
            del leaves[bisect_left(leaves, (parent.last_fork_ms, -parent_node_id))]
        parent.child_count += 1
        insort(leaves, (now_ms, -node_id))
        if len(nodes) > self.max_nodes:  # one node over the bound: one victim
            victim = nodes.pop(-leaves.pop(0)[1])  # forked from longest ago, highest id on ties
            bucket = filed[victim.filed_under]
            bucket.remove(victim)
            if not bucket:
                del filed[victim.filed_under]
            above = nodes[victim.parent_id]
            above.child_count -= 1
            if not above.child_count and above.node_id != self.ROOT_ID:
                insort(leaves, (above.last_fork_ms, -above.node_id))
        return node_id


class CacheLookupResult(NamedTuple):
    """Outcome of probing the three tiers for one request.

    ``preimported``, ``preinstalled`` and ``cold`` partition the function's
    dependency set (all empty on a handler hit); ``classify_request`` builds
    them by set difference, so they are disjoint by construction.
    ``forked_node_id`` is the import-tree node a new instance would fork
    from, or None when no tree is available and a sandbox must be created
    from scratch.
    """

    tier: Tier
    preimported: frozenset[str] = _NONE
    preinstalled: frozenset[str] = _NONE
    cold: frozenset[str] = _NONE
    forked_node_id: int | None = None


_HANDLER_HIT = CacheLookupResult(Tier.HANDLER_HIT)
_IMPORT_HIT, _INSTALL_HIT, _MISS = Tier.IMPORT_HIT, Tier.INSTALL_HIT, Tier.MISS  # read once: member lookups are slow


def classify_request(
    profile: FunctionProfile,
    handler: HandlerCache,
    install: InstallCache,
    imports: ImportCacheTree | None = None,
) -> CacheLookupResult:
    """Probe handler, then import tree, then install cache for one request.

    The handler probe is a membership test with no recency effect: the
    caller refreshes the instance when it pauses it again. The install
    lookup refreshes the packages it finds; forking the chosen import node
    (``touch``) is left to the caller, which knows the fork time. Every
    handler hit returns the same (immutable) result object.
    """
    if profile.function_id in handler._entries:
        return _HANDLER_HIT
    deps = profile.dependencies
    if imports is not None:
        node_id, remaining = imports.best_node(deps)
        preimported = deps - remaining if remaining else deps
    else:
        node_id, remaining, preimported = None, deps, _NONE
    preinstalled, cold = install.lookup(remaining)
    tier = _IMPORT_HIT if preimported else _INSTALL_HIT if preinstalled else _MISS
    return CacheLookupResult(tier, preimported, preinstalled, cold, node_id)


def init_latency(result: CacheLookupResult, model: LatencyModel) -> LatencyBreakdown:
    """Initialization cost for one request given its cache-probe outcome.

    A handler hit costs one unpause. Otherwise cold packages pay download and
    install, everything not pre-imported pays import, and instance creation
    costs a fork when an import-tree node (possibly the root) is available,
    else a full sandbox creation.
    """
    if result.tier is Tier.HANDLER_HIT:
        return LatencyBreakdown(0, 0, 0, 0, 0, model.unpause_ms)
    download = len(result.cold) * model.download_ms_per_package
    install = len(result.cold) * model.install_ms_per_package
    imported = (len(result.cold) + len(result.preinstalled)) * model.import_ms_per_package
    create = model.fork_ms if result.forked_node_id is not None else model.sandbox_create_ms
    load = model.code_load_ms
    total = load + download + install + imported + create
    return LatencyBreakdown(load, download, install, imported, create, total)
