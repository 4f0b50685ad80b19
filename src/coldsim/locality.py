"""Locality groups: partition functions and workers into runtime-pure groups.

Two strategies are provided: a round-robin baseline and greedy average-linkage
agglomerative clustering over dependency overlap (Jaccard similarity). Worker
pools are apportioned to groups proportionally to popularity via the
largest-remainder method with a floor of one worker per group.
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Iterable, Mapping, Sequence

from .traces import FunctionProfile


def pair_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class DependencyGraph:
    """Similarity graph over functions; edges hold Jaccard weights in (0, 1].

    Zero-weight pairs are omitted and self-edges are never stored; keys are
    sorted pairs, so lookups are symmetric.
    """

    nodes: frozenset[str]
    weights: Mapping[tuple[str, str], float]

    def weight(self, a: str, b: str) -> float:
        if a == b:
            raise ValueError("self-similarity is not defined")
        return self.weights.get(pair_key(a, b), 0.0)


@dataclass(frozen=True)
class LocalityGroup:
    group_id: int
    runtime: str
    function_ids: frozenset[str]
    worker_count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "function_ids", frozenset(self.function_ids))
        if self.worker_count < 1:
            raise ValueError("every group needs at least one worker")


@dataclass(frozen=True)
class Partition:
    """A disjoint covering family of locality groups plus the worker total."""

    groups: tuple[LocalityGroup, ...]
    total_workers: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "groups", tuple(self.groups))
        seen_ids: set[int] = set()
        seen_fns: set[str] = set()
        for g in self.groups:
            if g.group_id in seen_ids:
                raise ValueError(f"duplicate group_id {g.group_id}")
            seen_ids.add(g.group_id)
            overlap = seen_fns & g.function_ids
            if overlap:
                raise ValueError(f"groups overlap on {sorted(overlap)[0]!r}")
            seen_fns |= g.function_ids
        if sum(g.worker_count for g in self.groups) != self.total_workers:
            raise ValueError("group worker counts must sum to total_workers")

    def function_to_group(self) -> dict[str, int]:
        return {f: g.group_id for g in self.groups for f in g.function_ids}

    def to_dict(self) -> dict:
        return {
            "groups": [
                {
                    "id": g.group_id,
                    "runtime": g.runtime,
                    "functions": sorted(g.function_ids),
                    "workers": g.worker_count,
                }
                for g in self.groups
            ]
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Partition":
        groups = tuple(
            LocalityGroup(
                group_id=int(g["id"]),
                runtime=str(g["runtime"]),
                function_ids=frozenset(g["functions"]),
                worker_count=int(g["workers"]),
            )
            for g in payload["groups"]
        )
        return cls(groups, sum(g.worker_count for g in groups))


# rebalance re-clusters only when more than this share of window requests drifted
REBALANCE_DRIFT_THRESHOLD = 0.1


def build_dependency_graph(profiles: Sequence[FunctionProfile]) -> DependencyGraph:
    """Jaccard similarity over dependency sets; pairs sharing nothing get no edge."""
    if not profiles:
        raise ValueError("profiles must be non-empty")
    deps: dict[str, frozenset[str]] = {}
    for p in profiles:
        if p.function_id in deps:
            raise ValueError(f"duplicate function_id {p.function_id!r}")
        deps[p.function_id] = p.dependencies
    by_package: dict[str, list[str]] = defaultdict(list)
    for fid in sorted(deps):
        for pkg in deps[fid]:
            by_package[pkg].append(fid)
    intersections: Counter = Counter()
    for members in by_package.values():
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                intersections[pair_key(members[i], members[j])] += 1
    weights = {}
    for (a, b), inter in intersections.items():
        union = len(deps[a]) + len(deps[b]) - inter
        weights[(a, b)] = inter / union
    return DependencyGraph(frozenset(deps), weights)


def allocate_workers(
    groups: Sequence[AbstractSet[str]],
    total_workers: int,
    popularity: Mapping[str, int],
) -> list[int]:
    """Apportion workers to groups by popularity share, largest remainder.

    Exact rational arithmetic: floors of share*total, any zero lifted to one,
    then the leftover distributed by descending fractional remainder (ties by
    group index ascending). Zero total popularity means an equal split.
    Scale-invariant in the popularity counts.
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
        # min-1 lifts overshot the total: take back from the lowest-priority
        # groups that can spare a worker
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


def _functions_by_runtime(profiles: Sequence[FunctionProfile]) -> dict[str, list[str]]:
    grouped: dict[str, list[str]] = defaultdict(list)
    seen = set()
    for p in profiles:
        if p.function_id in seen:
            raise ValueError(f"duplicate function_id {p.function_id!r}")
        seen.add(p.function_id)
        grouped[p.runtime].append(p.function_id)
    return {rt: sorted(fids) for rt, fids in sorted(grouped.items())}


def _assemble(
    member_sets: list[tuple[str, frozenset[str]]],
    total_workers: int,
    popularity: Mapping[str, int],
) -> Partition:
    counts = allocate_workers([fns for _, fns in member_sets], total_workers, popularity)
    groups = tuple(
        LocalityGroup(i, runtime, fns, counts[i])
        for i, (runtime, fns) in enumerate(member_sets)
    )
    return Partition(groups, total_workers)


def partition_round_robin(
    profiles: Sequence[FunctionProfile],
    groups_per_runtime: int,
    total_workers: int,
    popularity: Mapping[str, int],
) -> Partition:
    """Split by runtime, then deal id-sorted functions round-robin into groups.

    Groups that would come out empty (fewer functions than groups) are
    dropped; they have no routing meaning.
    """
    if groups_per_runtime < 1:
        raise ValueError("groups_per_runtime must be >= 1")
    member_sets: list[tuple[str, frozenset[str]]] = []
    for runtime, fids in _functions_by_runtime(profiles).items():
        dealt: list[list[str]] = [[] for _ in range(groups_per_runtime)]
        for i, fid in enumerate(fids):
            dealt[i % groups_per_runtime].append(fid)
        member_sets.extend((runtime, frozenset(fns)) for fns in dealt if fns)
    return _assemble(member_sets, total_workers, popularity)


def _cluster_runtime(fids: Sequence[str], graph: DependencyGraph, target: int) -> list[frozenset[str]]:
    """Greedy average-linkage agglomeration down to ``target`` clusters.

    Merge the pair with the highest mean cross-pair weight; ties go to the
    lexicographically smallest pair of lowest member ids. Once no positive
    cross weight remains, merge by ascending size then lowest id.

    Candidate pairs live in a heap with lazy invalidation: every entry
    snapshots the merge generation of both clusters, so stale entries are
    skipped on pop and each merge only re-pushes the merged cluster's pairs.
    The selection order is identical to a full argmax scan.
    """
    ordered = sorted(fids)
    members: dict[int, list[str]] = {i: [f] for i, f in enumerate(ordered)}
    low: dict[int, str] = {i: f for i, f in enumerate(ordered)}
    generation: dict[int, int] = {i: 0 for i in members}
    sums: dict[tuple[int, int], float] = {}
    neighbors: dict[int, set[int]] = defaultdict(set)
    index = {f: i for i, f in enumerate(ordered)}
    for (a, b), w in graph.weights.items():
        if a in index and b in index:
            i, j = index[a], index[b]
            key = (min(i, j), max(i, j))
            sums[key] = w
            neighbors[key[0]].add(key[1])
            neighbors[key[1]].add(key[0])
    heap = [
        (-w, (low[i], low[j]), i, j, 0, 0) for (i, j), w in sums.items()
    ]  # singleton clusters: avg weight == edge weight, names already sorted
    heapq.heapify(heap)

    while len(members) > target:
        merge = None
        while heap:
            _, _, i, j, gen_i, gen_j = heapq.heappop(heap)
            if (
                i in members
                and j in members
                and generation[i] == gen_i
                and generation[j] == gen_j
            ):
                merge = (i, j)
                break
        if merge is None:
            # no connected pairs left: merge the two smallest clusters
            order = sorted(members, key=lambda k: (len(members[k]), low[k]))
            merge = (min(order[0], order[1]), max(order[0], order[1]))
        i, j = merge
        members[i] = sorted(members[i] + members.pop(j))
        low[i] = members[i][0]
        del low[j]
        del generation[j]
        generation[i] += 1
        for k in neighbors.pop(j, set()):
            if k == i or k not in members:
                continue
            moved = sums.pop((min(j, k), max(j, k)), 0.0)
            if moved:
                key = (min(i, k), max(i, k))
                sums[key] = sums.get(key, 0.0) + moved
                neighbors[i].add(k)
                neighbors[k].add(i)
            neighbors[k].discard(j)
        sums.pop((i, j), None)
        neighbors[i].discard(i)
        neighbors[i].discard(j)
        for k in sorted(neighbors[i]):
            if k not in members:
                neighbors[i].discard(k)
                continue
            key = (min(i, k), max(i, k))
            weight = sums.get(key)
            if weight:
                avg = weight / (len(members[i]) * len(members[k]))
                names = tuple(sorted((low[i], low[k])))
                heapq.heappush(
                    heap, (-avg, names, key[0], key[1], generation[key[0]], generation[key[1]])
                )
    clusters = [frozenset(fns) for fns in members.values()]
    return sorted(clusters, key=min)


def partition_clustered(
    graph: DependencyGraph,
    profiles: Sequence[FunctionProfile],
    groups_per_runtime: int,
    total_workers: int,
    popularity: Mapping[str, int],
) -> Partition:
    """Cluster each runtime class by dependency overlap, then allocate workers."""
    if groups_per_runtime < 1:
        raise ValueError("groups_per_runtime must be >= 1")
    member_sets: list[tuple[str, frozenset[str]]] = []
    for runtime, fids in _functions_by_runtime(profiles).items():
        for cluster in _cluster_runtime(fids, graph, groups_per_runtime):
            member_sets.append((runtime, cluster))
    return _assemble(member_sets, total_workers, popularity)


def mean_intra_group_similarity(
    groups: Iterable[AbstractSet[str]], graph: DependencyGraph
) -> float:
    """Mean Jaccard weight over all within-group pairs (0.0 when no pairs)."""
    total = 0.0
    pairs = 0
    for g in groups:
        fns = sorted(g)
        for i in range(len(fns)):
            for j in range(i + 1, len(fns)):
                total += graph.weight(fns[i], fns[j])
                pairs += 1
    return total / pairs if pairs else 0.0


def rebalance(
    partition: Partition,
    window_popularity: Mapping[str, int],
    graph: DependencyGraph,
) -> Partition:
    """Refresh worker allocation against a recent popularity window.

    Group memberships are re-clustered only when drift exceeds
    ``REBALANCE_DRIFT_THRESHOLD``, where drift is the window-request share of
    functions whose group moved in the popularity ranking (current worker
    counts stand in for the previous ranking; ties in worker count form an
    exchangeable band, so an unchanged window is always a fixed point).
    """
    groups = sorted(partition.groups, key=lambda g: g.group_id)
    group_pop = {
        g.group_id: sum(window_popularity.get(f, 0) for f in g.function_ids)
        for g in groups
    }
    total_window = sum(group_pop.values())

    old_order = sorted(groups, key=lambda g: (-g.worker_count, g.group_id))
    band_by_count: dict[int, set[int]] = defaultdict(set)
    for pos, g in enumerate(old_order):
        band_by_count[g.worker_count].add(pos)
    new_order = sorted(groups, key=lambda g: (-group_pop[g.group_id], g.group_id))
    moved = {
        g.group_id
        for pos, g in enumerate(new_order)
        if pos not in band_by_count[g.worker_count]
    }
    drifted = sum(group_pop[gid] for gid in moved)
    drift = drifted / total_window if total_window else 0.0

    if drift > REBALANCE_DRIFT_THRESHOLD:
        member_sets: list[tuple[str, frozenset[str]]] = []
        by_runtime: dict[str, list[str]] = defaultdict(list)
        runtime_groups: Counter = Counter()
        for g in groups:
            by_runtime[g.runtime].extend(g.function_ids)
            runtime_groups[g.runtime] += 1
        for runtime in sorted(by_runtime):
            fids = sorted(by_runtime[runtime])
            for cluster in _cluster_runtime(fids, graph, runtime_groups[runtime]):
                member_sets.append((runtime, cluster))
        return _assemble(member_sets, partition.total_workers, window_popularity)

    counts = allocate_workers(
        [g.function_ids for g in groups], partition.total_workers, window_popularity
    )
    rebuilt = tuple(
        LocalityGroup(g.group_id, g.runtime, g.function_ids, counts[i])
        for i, g in enumerate(groups)
    )
    return Partition(rebuilt, partition.total_workers)
