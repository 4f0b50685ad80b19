"""Three cache tiers and the initialization-latency model.

Tier 1 (handler): paused, fully initialized instances held in memory, in the
order they paused, until capacity or keep-alive drops the oldest; a hit
costs one unpause. Tier 2 (install): packages pre-installed on disk and
mapped read-only into workers; a hit skips download and install. Tier 3
(import): a tree of sleeping processes with progressively larger pre-imported
package sets; a new instance forks from the best-matching node.

Each cache instance is a single-threaded mutable state machine.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass, fields
from enum import Enum
from typing import AbstractSet, Mapping

from .traces import FunctionProfile


class Tier(str, Enum):
    HANDLER_HIT = "HandlerHit"
    IMPORT_HIT = "ImportHit"
    INSTALL_HIT = "InstallHit"
    MISS = "Miss"


@dataclass(frozen=True)
class LatencyModel:
    """Per-phase initialization costs in integer milliseconds.

    The defaults form the ``fig1_calibration`` preset: a single-dependency
    full miss without an import tree costs exactly 3472 ms
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

    @classmethod
    def from_dict(cls, payload: Mapping) -> "LatencyModel":
        return cls(**{k: int(v) for k, v in payload.items()})

    @classmethod
    def fig1_calibration(cls) -> "LatencyModel":
        return cls()


@dataclass(frozen=True)
class LatencyBreakdown:
    load_ms: int
    download_ms: int
    install_ms: int
    import_ms: int
    create_ms: int
    total_ms: int


class HandlerCache:
    """Paused function instances, bounded by total footprint bytes.

    Each entry holds an instance's footprint and pause time. Pause times
    start at 0 and never decrease, and an insert puts its entry last, so
    least-recent order is pause order: capacity evicts from the front, and
    the instances idle past ``keep_alive_ms`` (None: never) are a prefix.
    """

    def __init__(self, capacity_bytes: int, keep_alive_ms: int | None = None):
        if capacity_bytes < 1:
            raise ValueError("capacity_bytes must be >= 1")
        self.capacity_bytes = capacity_bytes
        self.keep_alive_ms = keep_alive_ms
        self._entries: OrderedDict[str, tuple[int, int]] = OrderedDict()  # (footprint, paused_at_ms)
        self._used = 0
        self._newest_ms = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, function_id: str) -> bool:
        return function_id in self._entries

    @property
    def used_bytes(self) -> int:
        return self._used

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
        entries, cutoff = self._entries, now_ms - self.keep_alive_ms
        while entries and next(iter(entries.values()))[1] < cutoff:
            self._used -= entries.popitem(last=False)[1][0]

    def insert(self, function_id: str, footprint_bytes: int, paused_at_ms: int = 0) -> list[str]:
        """Pause or re-pause at most-recent; return ids evicted, oldest first."""
        if footprint_bytes < 0:
            raise ValueError("footprint_bytes must be >= 0")
        if footprint_bytes > self.capacity_bytes:
            raise ValueError("entry larger than cache")
        if paused_at_ms < self._newest_ms:
            raise ValueError(f"paused_at_ms {paused_at_ms} is earlier than the last, {self._newest_ms}")
        self._newest_ms = paused_at_ms
        entries = self._entries
        if function_id in entries:
            self._used -= entries.pop(function_id)[0]
        entries[function_id] = (footprint_bytes, paused_at_ms)
        self._used += footprint_bytes
        evicted = []
        while self._used > self.capacity_bytes:
            victim, (size, _) = entries.popitem(last=False)
            self._used -= size
            evicted.append(victim)
        return evicted


class InstallCache:
    """LRU over pre-installed packages, bounded by total size bytes."""

    def __init__(self, capacity_bytes: int):
        if capacity_bytes < 1:
            raise ValueError("capacity_bytes must be >= 1")
        self.capacity_bytes = capacity_bytes
        self._packages: OrderedDict[str, int] = OrderedDict()
        self._used = 0

    def __len__(self) -> int:
        return len(self._packages)

    def __contains__(self, package_id: str) -> bool:
        return package_id in self._packages

    @property
    def used_bytes(self) -> int:
        return self._used

    def lookup(self, packages: AbstractSet[str]) -> tuple[frozenset[str], frozenset[str]]:
        """Partition ``packages`` into (present, absent); hits move to most-recent."""
        hits = frozenset(self._packages.keys() & packages)
        for p in sorted(hits):
            self._packages.move_to_end(p)
        return hits, frozenset(packages) - hits

    def insert(self, package_id: str, size_bytes: int) -> list[str]:
        if size_bytes < 0:
            raise ValueError("size_bytes must be >= 0")
        if size_bytes > self.capacity_bytes:
            raise ValueError("entry larger than cache")
        if package_id in self._packages:
            self._used -= self._packages.pop(package_id)
        self._packages[package_id] = size_bytes
        self._used += size_bytes
        evicted = []
        while self._used > self.capacity_bytes:
            victim, size = self._packages.popitem(last=False)
            self._used -= size
            evicted.append(victim)
        return evicted


@dataclass(slots=True)
class _ImportNode:
    node_id: int
    packages: frozenset[str]
    parent_id: int | None
    depth: int
    last_fork_ms: int
    # child ids, filed under the smallest package each adds to this node's set
    children: dict[str, set[int]]
    key_package: str | None = None  # where the parent files this node; None for the root


class ImportCacheTree:
    """Tree of sleeping processes with pre-imported package sets.

    The root holds only the bare runtime (empty package set); every child
    strictly extends its parent's set. Forks must come from a node whose set
    is a subset of the request, never a superset, so a process with
    extraneous imports is never reused.

    Eviction candidates live in a heap of ``(last_fork_ms, -node_id)``
    entries. An entry is pushed whenever a node becomes a leaf or a leaf's
    fork time changes, and is stale once its node is gone, has children, or
    has been forked from since; stale entries are dropped when they surface.
    """

    ROOT_ID = 0
    HEAP_SLACK = 4  # rebuild the leaf heap beyond this many entries per node

    def __init__(self, max_nodes: int):
        if max_nodes < 1:
            raise ValueError("max_nodes must be >= 1")
        self.max_nodes = max_nodes
        root = _ImportNode(self.ROOT_ID, frozenset(), None, 0, 0, {})
        self._nodes: dict[int, _ImportNode] = {self.ROOT_ID: root}
        self._next_id = 1
        self._leaf_heap: list[tuple[int, int]] = []

    def __len__(self) -> int:
        return len(self._nodes)

    def node_ids(self) -> list[int]:
        return sorted(self._nodes)

    def packages(self, node_id: int) -> frozenset[str]:
        return self._nodes[node_id].packages

    def parent(self, node_id: int) -> int | None:
        return self._nodes[node_id].parent_id

    def depth(self, node_id: int) -> int:
        return self._nodes[node_id].depth

    def best_node(self, required: AbstractSet[str]) -> tuple[int, frozenset[str]]:
        """Largest node whose set fits inside ``required``; the root always fits.

        Ties prefer the deepest node, then the lowest node_id. Returns the
        node and the packages still missing from it.

        A child's set contains its parent's, so a node fits only if its
        parent does: the search descends from the root into fitting
        children only. A child is filed under one package it adds, which a
        fitting child's must be among ``required``, so only those files are
        read.
        """
        required = frozenset(required)
        nodes = self._nodes
        best = nodes[self.ROOT_ID]
        best_rank = (0, 0, -self.ROOT_ID)
        stack = [best]
        while stack:
            children = stack.pop().children
            for package in required:
                for child_id in children.get(package, ()):
                    child = nodes[child_id]
                    if child.packages <= required:
                        stack.append(child)
                        rank = (len(child.packages), child.depth, -child_id)
                        if rank > best_rank:
                            best, best_rank = child, rank
        return best.node_id, required - best.packages

    def touch(self, node_id: int, now_ms: int) -> None:
        """Record a fork from ``node_id`` for eviction recency."""
        node = self._nodes[node_id]
        node.last_fork_ms = now_ms
        if not node.children:
            self._push_leaf(node)

    def insert(self, parent_node_id: int, package_set: AbstractSet[str], now_ms: int) -> int:
        """Add a sleeping process under ``parent_node_id``.

        The new set must strictly extend the parent's. When the node count
        exceeds the bound, leaves with the oldest fork time are evicted
        (ties broken by highest node_id); the root is never evicted.
        """
        parent = self._nodes[parent_node_id]
        package_set = frozenset(package_set)
        if not package_set > parent.packages:
            raise ValueError("import tree hierarchy violated")
        node = _ImportNode(
            self._next_id,
            package_set,
            parent_node_id,
            parent.depth + 1,
            now_ms,
            {},
            min(package_set - parent.packages),
        )
        self._next_id += 1
        self._nodes[node.node_id] = node
        parent.children.setdefault(node.key_package, set()).add(node.node_id)
        self._push_leaf(node)
        while len(self._nodes) > self.max_nodes:
            self._evict_one_leaf()
        return node.node_id

    def _push_leaf(self, node: _ImportNode) -> None:
        if node.node_id == self.ROOT_ID:
            return
        heap = self._leaf_heap
        if len(heap) < self.HEAP_SLACK * self.max_nodes:
            heapq.heappush(heap, (node.last_fork_ms, -node.node_id))
            return
        # mostly stale entries: rebuild from the current leaves, ``node`` included
        heap[:] = [
            (n.last_fork_ms, -n.node_id)
            for n in self._nodes.values()
            if not n.children and n.node_id != self.ROOT_ID
        ]
        heapq.heapify(heap)

    def _evict_one_leaf(self) -> None:
        """Drop the leaf forked from longest ago, the highest id on ties."""
        nodes = self._nodes
        while True:
            fork_ms, neg_id = heapq.heappop(self._leaf_heap)
            victim = nodes.get(-neg_id)
            if victim is not None and not victim.children and victim.last_fork_ms == fork_ms:
                break
        del nodes[victim.node_id]
        parent = nodes[victim.parent_id]
        siblings = parent.children[victim.key_package]
        siblings.discard(victim.node_id)
        if not siblings:
            del parent.children[victim.key_package]
        if not parent.children:
            self._push_leaf(parent)


@dataclass(frozen=True, slots=True)
class CacheLookupResult:
    """Outcome of probing the three tiers for one request.

    ``preimported``, ``preinstalled`` and ``cold`` partition the function's
    dependency set (all empty on a handler hit). ``forked_node_id`` is the
    import-tree node a new instance would fork from, or None when no tree is
    available and a sandbox must be created from scratch.
    """

    tier: Tier
    preimported: frozenset[str] = frozenset()
    preinstalled: frozenset[str] = frozenset()
    cold: frozenset[str] = frozenset()
    forked_node_id: int | None = None

    def __post_init__(self) -> None:
        if (
            self.preimported & self.preinstalled
            or self.preimported & self.cold
            or self.preinstalled & self.cold
        ):
            raise ValueError("tier package sets must be disjoint")


_HANDLER_HIT = CacheLookupResult(Tier.HANDLER_HIT)


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
    if profile.function_id in handler:
        return _HANDLER_HIT
    deps = profile.dependencies
    if imports is not None:
        node_id, remaining = imports.best_node(deps)
        preimported = deps - remaining
    else:
        node_id, remaining, preimported = None, deps, frozenset()
    preinstalled, cold = install.lookup(remaining)
    if preimported:
        tier = Tier.IMPORT_HIT
    elif preinstalled:
        tier = Tier.INSTALL_HIT
    else:
        tier = Tier.MISS
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
