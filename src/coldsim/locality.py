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
from itertools import combinations
from typing import AbstractSet, Callable, Iterable, Mapping, Sequence

from .traces import FunctionProfile, index_profiles


@dataclass(frozen=True)
class DependencyGraph:
    """Similarity graph over functions; edges hold Jaccard weights in (0, 1].

    Zero-weight pairs are omitted and self-edges are never stored; each key
    is a pair ``(a, b)`` with ``a < b``.
    """

    weights: Mapping[tuple[str, str], float]


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
        """Inverse of ``to_dict``; a missing or mistyped key raises ValueError naming it."""
        groups = tuple(
            LocalityGroup(
                group_id=_field(g, "id", int),
                runtime=_field(g, "runtime", str),
                function_ids=frozenset(_field(g, "functions", list, str)),
                worker_count=_field(g, "workers", int),
            )
            for g in _field(payload, "groups", list)
        )
        return cls(groups, sum(g.worker_count for g in groups))


def _field(obj, key: str, kind: type, item: type | None = None):
    """``obj[key]`` of partition JSON, checked to be a ``kind`` of ``item``s."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"partition JSON: expected an object with key {key!r}")
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"partition JSON: {key!r} must be {kind.__name__}, not {type(value).__name__}")
    if item is not None and not all(isinstance(x, item) for x in value):
        raise ValueError(f"partition JSON: {key!r} must hold only {item.__name__} values")
    return value


def build_dependency_graph(profiles: Sequence[FunctionProfile]) -> DependencyGraph:
    """Jaccard similarity over dependency sets; pairs sharing nothing get no edge."""
    if not profiles:
        raise ValueError("profiles must be non-empty")
    deps = {fid: p.dependencies for fid, p in index_profiles(profiles).items()}
    by_package: dict[str, list[str]] = defaultdict(list)
    for fid in sorted(deps):
        for pkg in sorted(deps[fid]):  # not set order, which follows the string hash seed
            by_package[pkg].append(fid)
    weights: Counter = Counter()  # intersection sizes, then rewritten in place to Jaccard
    for members in by_package.values():
        # members are in id order, so every pair is already a sorted key
        weights.update(combinations(members, 2))
    for (a, b), inter in weights.items():
        weights[(a, b)] = inter / (len(deps[a]) + len(deps[b]) - inter)
    return DependencyGraph(weights)


def allocate_workers(
    groups: Sequence[AbstractSet[str]],
    total_workers: int,
    popularity: Mapping[str, int],
) -> list[int]:
    """Apportion workers to groups by popularity share, largest remainder.

    Exact integer arithmetic: floors of weight*total/total_weight, any zero
    lifted to one, then the leftover distributed by descending remainder
    (ties by group index ascending). Zero total popularity means an equal
    split; a negative one is refused. Scale-invariant in the popularity counts.
    """
    n = len(groups)
    if n == 0:
        raise ValueError("no groups to allocate")
    if total_workers < n:
        raise ValueError("insufficient workers")
    negative = sorted(f for g in groups for f in g if popularity.get(f, 0) < 0)
    if negative:
        raise ValueError(f"popularity of {negative[0]!r} must be >= 0")
    weights = [sum(popularity.get(f, 0) for f in g) for g in groups]
    if not any(weights):
        weights = [1] * n
    total_weight = sum(weights)
    shares = [divmod(w * total_workers, total_weight) for w in weights]
    counts = [max(1, floor) for floor, _ in shares]
    diff = total_workers - sum(counts)
    if diff > 0:
        for i in sorted(range(n), key=lambda i: (-shares[i][1], i))[:diff]:
            counts[i] += 1
    elif diff < 0:
        # the lifts overshot; total_workers >= n leaves enough above one worker to take back
        for i in sorted(range(n), key=lambda i: (shares[i][1], -i)):
            take = min(counts[i] - 1, -diff)
            counts[i] -= take
            diff += take
    return counts


def _partition(
    profiles: Sequence[FunctionProfile],
    groups_per_runtime: int,
    total_workers: int,
    popularity: Mapping[str, int],
    split: Callable[[list[str], int], list[frozenset[str]]],
) -> Partition:
    """Split each runtime's sorted ids with ``split``; group ids follow runtime, then split, order."""
    if groups_per_runtime < 1:
        raise ValueError("groups_per_runtime must be >= 1")
    by_runtime: dict[str, list[str]] = defaultdict(list)
    for p in index_profiles(profiles).values():
        by_runtime[p.runtime].append(p.function_id)
    member_sets = [(runtime, fns) for runtime in sorted(by_runtime)
                   for fns in split(sorted(by_runtime[runtime]), groups_per_runtime)]
    counts = allocate_workers([fns for _, fns in member_sets], total_workers, popularity)
    groups = (LocalityGroup(i, runtime, fns, counts[i]) for i, (runtime, fns) in enumerate(member_sets))
    return Partition(tuple(groups), total_workers)


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
    return _partition(
        profiles, groups_per_runtime, total_workers, popularity,
        lambda fids, k: [frozenset(fids[i::k]) for i in range(min(k, len(fids)))],
    )


def _cluster_runtime(fids: Iterable[str], graph: DependencyGraph, target: int) -> list[frozenset[str]]:
    """Greedy average-linkage agglomeration down to ``target`` clusters.

    Merge the pair with the highest mean cross-pair weight; ties go to the
    lexicographically smallest pair of lowest member ids. Once no positive
    cross weight remains, merge by ascending size then lowest id.

    Cluster ``i`` keeps the index of its lowest member in ``ordered``, which
    is sorted, so cluster indices follow name order and a pair of indices
    breaks ties exactly as its pair of lowest member ids would.
    ``links[i][k]``, stored on both sides, is the summed edge weight between
    live clusters ``i`` and ``k``. Candidate pairs live in a heap with lazy
    invalidation: every entry snapshots the sizes of both clusters, and a
    merge grows the surviving cluster, so an entry whose sizes no longer
    match (or whose cluster is gone) is stale and skipped on pop. For the
    same reason no entry is pushed twice, so entries are totally ordered
    and push order cannot change pop order. Each merge only re-pushes the
    merged cluster's pairs. The selection order is identical to a full
    argmax scan.
    """
    ordered = sorted(fids)
    index = {f: i for i, f in enumerate(ordered)}
    members: dict[int, list[str]] = {i: [f] for i, f in enumerate(ordered)}
    links: dict[int, dict[int, float]] = {i: {} for i in members}
    heap = []
    for (a, b), w in graph.weights.items():
        if a in index and b in index:
            i, j = index[a], index[b]  # a < b, so i < j
            links[i][j] = links[j][i] = w
            heap.append((-w, i, j, 1, 1))  # singletons: avg weight == edge weight
    heapq.heapify(heap)

    while len(members) > target:
        while heap:
            _, i, j, size_i, size_j = heapq.heappop(heap)
            if len(members.get(i, ())) == size_i and len(members.get(j, ())) == size_j:
                break
        else:
            # no connected pairs left: merge the two smallest clusters
            i, j = sorted(sorted(members, key=lambda k: (len(members[k]), k))[:2])
        members[i] += members.pop(j)
        merged = links[i]
        merged.pop(j, None)
        for k, w in links.pop(j).items():
            if k != i:
                del links[k][j]
                merged[k] = links[k][i] = merged.get(k, 0.0) + w
        for k, w in merged.items():
            a, b = (i, k) if i < k else (k, i)
            size_a, size_b = len(members[a]), len(members[b])
            heapq.heappush(heap, (-w / (size_a * size_b), a, b, size_a, size_b))
    return sorted((frozenset(fns) for fns in members.values()), key=min)


def partition_clustered(
    graph: DependencyGraph,
    profiles: Sequence[FunctionProfile],
    groups_per_runtime: int,
    total_workers: int,
    popularity: Mapping[str, int],
) -> Partition:
    """Cluster each runtime class by dependency overlap, then allocate workers."""
    return _partition(
        profiles, groups_per_runtime, total_workers, popularity,
        lambda fids, k: _cluster_runtime(fids, graph, k),
    )


def mean_intra_group_similarity(
    groups: Iterable[AbstractSet[str]], graph: DependencyGraph
) -> float:
    """Mean Jaccard weight over all within-group pairs (0.0 when no pairs)."""
    total = 0.0
    pairs = 0
    for g in groups:
        for pair in combinations(sorted(g), 2):
            total += graph.weights.get(pair, 0.0)
            pairs += 1
    return total / pairs if pairs else 0.0

