import os
import random
import subprocess
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from coldsim.locality import (
    LocalityGroup,
    Partition,
    allocate_workers,
    build_dependency_graph,
    mean_intra_group_similarity,
    partition_clustered,
    partition_round_robin,
)
from coldsim.traces import FunctionProfile, synthesize_profiles

from conftest import REPO_ROOT
from reference import (
    best_partition_score,
    pooled_intra_similarity,
    reference_allocate_workers,
    reference_cluster,
)


def profile(fid, deps=(), runtime="python"):
    return FunctionProfile(fid, runtime, frozenset(deps))


def group_sets(partition):
    return {g.function_ids for g in partition.groups}


def check_invariants(partition, profiles, total_workers):
    by_id = {p.function_id: p for p in profiles}
    covered = set()
    for g in partition.groups:
        assert g.function_ids, "no empty groups"
        assert g.worker_count >= 1
        assert not (covered & g.function_ids), "groups must be disjoint"
        covered |= g.function_ids
        runtimes = {by_id[f].runtime for f in g.function_ids}
        assert runtimes == {g.runtime}, "groups must be runtime-pure"
    assert covered == set(by_id), "groups must cover every function"
    assert sum(g.worker_count for g in partition.groups) == total_workers


# --- dependency graph ----------------------------------------------------


def test_jaccard_identical_sets_weight_one():
    graph = build_dependency_graph([profile("a", {"numpy"}), profile("b", {"numpy"})])
    assert graph.weights.get(("a", "b"), 0.0) == 1.0


def test_jaccard_disjoint_sets_have_no_edge():
    graph = build_dependency_graph([profile("a", {"numpy"}), profile("b", {"pandas"})])
    assert ("a", "b") not in graph.weights
    assert graph.weights.get(("a", "b"), 0.0) == 0.0


def test_jaccard_partial_overlap():
    graph = build_dependency_graph([profile("a", {"x", "y"}), profile("b", {"y", "z"})])
    assert graph.weights.get(("a", "b"), 0.0) == pytest.approx(1 / 3)


def test_empty_dependency_sets_get_no_edge():
    graph = build_dependency_graph([profile("a"), profile("b")])
    assert not graph.weights
    assert graph.weights.get(("a", "b"), 0.0) == 0.0


def test_duplicate_profiles_rejected():
    a = profile("a")
    graph = build_dependency_graph([a])
    for profiles in ([a, profile("a")], [a, a]):  # a repeated id; one profile passed twice
        with pytest.raises(ValueError, match="duplicate function_id 'a'"):
            build_dependency_graph(profiles)
        with pytest.raises(ValueError, match="duplicate function_id 'a'"):
            partition_round_robin(profiles, 1, 2, {})
        with pytest.raises(ValueError, match="duplicate function_id 'a'"):
            partition_clustered(graph, profiles, 1, 2, {})


# --- round-robin baseline -------------------------------------------------


def test_round_robin_deal_order():
    profiles = [profile(f) for f in ("f1", "f2", "f3", "f4")]
    partition = partition_round_robin(profiles, 2, 4, {})
    assert partition.groups[0].function_ids == frozenset({"f1", "f3"})
    assert partition.groups[1].function_ids == frozenset({"f2", "f4"})


def test_round_robin_never_mixes_runtimes():
    profiles = [
        profile("p1", runtime="python"),
        profile("p2", runtime="python"),
        profile("j1", runtime="nodejs"),
        profile("j2", runtime="nodejs"),
    ]
    partition = partition_round_robin(profiles, 1, 4, {})
    assert len(partition.groups) == 2
    runtimes = {g.runtime for g in partition.groups}
    assert runtimes == {"python", "nodejs"}
    check_invariants(partition, profiles, 4)


def test_round_robin_drops_empty_groups():
    partition = partition_round_robin([profile("only")], 3, 2, {})
    assert len(partition.groups) == 1
    assert partition.groups[0].function_ids == frozenset({"only"})
    assert partition.total_workers == 2


def test_insufficient_workers_error():
    profiles = [profile("a"), profile("b")]
    with pytest.raises(ValueError, match="insufficient workers"):
        partition_round_robin(profiles, 2, 1, {})


# --- clustering -----------------------------------------------------------


def planted_cliques(num_cliques, size):
    profiles = []
    cliques = []
    for c in range(num_cliques):
        members = set()
        for m in range(size):
            fid = f"c{c}m{m}"
            deps = {f"c{c}base1", f"c{c}base2", f"c{c}solo{m}"}
            profiles.append(profile(fid, deps))
            members.add(fid)
        cliques.append(frozenset(members))
    return profiles, cliques


def test_clustered_recovers_two_planted_cliques():
    profiles = [
        profile("f1", {"a", "b"}),
        profile("f2", {"a", "b"}),
        profile("f3", {"a", "b"}),
        profile("f4", {"c", "d"}),
        profile("f5", {"c", "d"}),
        profile("f6", {"c", "d"}),
    ]
    graph = build_dependency_graph(profiles)
    partition = partition_clustered(graph, profiles, 2, 4, {})
    expected = {frozenset({"f1", "f2", "f3"}), frozenset({"f4", "f5", "f6"})}
    assert group_sets(partition) == expected
    # exhaustive check: the cliques maximize mean intra-group similarity
    fids = sorted(p.function_id for p in profiles)
    best = best_partition_score(fids, graph.weights, 2)
    assert pooled_intra_similarity(expected, graph.weights) == pytest.approx(best)


def test_clustered_identical_dependencies_is_deterministic():
    profiles = [profile(f, {"x", "y"}) for f in ("f1", "f2", "f3", "f4")]
    graph = build_dependency_graph(profiles)
    first = partition_clustered(graph, profiles, 2, 4, {})
    second = partition_clustered(graph, profiles, 2, 4, {})
    assert first == second
    # lowest-pair tie-break grows the cluster anchored at f1
    assert group_sets(first) == {frozenset({"f1", "f2", "f3"}), frozenset({"f4"})}


def test_clustered_no_edges_merges_by_size_then_id():
    profiles = [profile(f) for f in ("a", "b", "c", "d", "e")]
    graph = build_dependency_graph(profiles)
    partition = partition_clustered(graph, profiles, 2, 2, {})
    assert group_sets(partition) == {frozenset({"a", "b", "e"}), frozenset({"c", "d"})}


def test_clustered_fewer_functions_than_groups_keeps_singletons():
    profiles = [profile("a"), profile("b")]
    graph = build_dependency_graph(profiles)
    partition = partition_clustered(graph, profiles, 5, 4, {})
    assert group_sets(partition) == {frozenset({"a"}), frozenset({"b"})}


def random_profiles(rnd, n, runtimes=("python", "nodejs", "wasm"), packages=40):
    pool = [f"pkg{i}" for i in range(packages)]
    profiles = []
    for i in range(n):
        deps = frozenset(rnd.sample(pool, rnd.randint(0, 6)))
        profiles.append(profile(f"fn{i:03d}", deps, rnd.choice(runtimes)))
    return profiles


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_partition_invariants_on_random_corpora(seed):
    rnd = random.Random(seed)
    profiles = random_profiles(rnd, rnd.randint(10, 60))
    graph = build_dependency_graph(profiles)
    popularity = {p.function_id: rnd.randint(0, 500) for p in profiles}
    groups_per_runtime = rnd.randint(1, 4)
    total_workers = rnd.randint(12, 40)
    for strategy in (partition_round_robin, partition_clustered):
        if strategy is partition_clustered:
            partition = strategy(graph, profiles, groups_per_runtime, total_workers, popularity)
        else:
            partition = strategy(profiles, groups_per_runtime, total_workers, popularity)
        check_invariants(partition, profiles, total_workers)


@pytest.mark.parametrize("seed", range(15))
def test_clustered_never_loses_to_round_robin_on_similarity(seed):
    rnd = random.Random(100 + seed)
    profiles = random_profiles(rnd, rnd.randint(8, 40), runtimes=("python",))
    graph = build_dependency_graph(profiles)
    groups_per_runtime = rnd.randint(2, 4)
    workers = max(groups_per_runtime, 8)
    clustered = partition_clustered(graph, profiles, groups_per_runtime, workers, {})
    baseline = partition_round_robin(profiles, groups_per_runtime, workers, {})
    score_clustered = mean_intra_group_similarity(group_sets(clustered), graph)
    score_baseline = mean_intra_group_similarity(group_sets(baseline), graph)
    assert score_clustered >= score_baseline


def oracle_groups(profiles, graph, groups_per_runtime):
    by_runtime = {}
    for p in profiles:
        by_runtime.setdefault(p.runtime, []).append(p.function_id)
    return [
        (runtime, cluster)
        for runtime in sorted(by_runtime)
        for cluster in reference_cluster(by_runtime[runtime], graph, groups_per_runtime)
    ]


catalogs = st.lists(
    st.tuples(
        st.frozensets(st.sampled_from("abcdef"), max_size=4),
        st.sampled_from(("python", "nodejs", "wasm")),
    ),
    min_size=1,
    max_size=16,
).map(lambda rows: [profile(f"f{i:02d}", deps, rt) for i, (deps, rt) in enumerate(rows)])


@given(catalogs, st.integers(1, 8))
@example([profile(f) for f in "abcde"], 2)  # no edges: size-then-id merges only
@example([profile(f, {"x", "y"}) for f in "abcdef"], 2)  # identical dependency sets
# more groups than functions in each of two runtimes
@example([profile(f, {"x"}, rt) for f, rt in zip("abc", ("python", "wasm", "python"))], 5)
# after d+e merge, (a, de) ties (b, c) at 0.5: the lower names must win
@example([profile(f, deps) for f, deps in zip("abcde", ("x", "y", "yz", "xw", "xw"))], 3)
def test_clustered_matches_full_scan_oracle(profiles, groups_per_runtime):
    graph = build_dependency_graph(profiles)
    partition = partition_clustered(graph, profiles, groups_per_runtime, len(profiles), {})
    got = [(g.runtime, g.function_ids) for g in partition.groups]
    assert got == oracle_groups(profiles, graph, groups_per_runtime)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_clustered_matches_full_scan_oracle_on_zipf_catalogs(seed):
    # a Zipf package catalog chains most functions into one cluster, so
    # summed weights accumulate over long merge histories
    fids = [f"fn{i:03d}" for i in range(120)]
    profiles = synthesize_profiles(fids, catalog_size=30, deps_per_function=(0, 5), seed=seed)
    graph = build_dependency_graph(profiles)
    partition = partition_clustered(graph, profiles, 4, 8, {})
    got = [(g.runtime, g.function_ids) for g in partition.groups]
    assert got == oracle_groups(profiles, graph, 4)


# --- worker apportionment ---------------------------------------------------


def test_allocate_exact_proportions():
    groups = [{"a"}, {"b"}, {"c"}]
    assert allocate_workers(groups, 10, {"a": 50, "b": 30, "c": 20}) == [5, 3, 2]


def test_allocate_minimum_one_overrides_share():
    assert allocate_workers([{"a"}, {"b"}], 2, {"a": 90, "b": 10}) == [1, 1]


def test_allocate_largest_remainder_with_lift():
    groups = [{"a"}, {"b"}, {"c"}]
    assert allocate_workers(groups, 4, {"a": 60, "b": 25, "c": 15}) == [2, 1, 1]


def test_allocate_lift_can_reclaim_from_largest():
    groups = [{"a"}, {"b"}, {"c"}]
    assert allocate_workers(groups, 3, {"a": 90, "b": 5, "c": 5}) == [1, 1, 1]


def test_allocate_zero_popularity_splits_equally():
    assert allocate_workers([{"a"}, {"b"}, {"c"}], 4, {}) == [2, 1, 1]
    assert allocate_workers([{"a"}, {"b"}], 4, {}) == [2, 2]


def test_allocate_insufficient_workers():
    with pytest.raises(ValueError, match="insufficient workers"):
        allocate_workers([{"a"}, {"b"}], 1, {})


@given(
    st.lists(st.integers(0, 10_000), min_size=1, max_size=8),
    st.integers(1, 1000),
)
def test_allocate_scale_invariant(counts, scale):
    groups = [{f"g{i}"} for i in range(len(counts))]
    popularity = {f"g{i}": c for i, c in enumerate(counts)}
    scaled = {f"g{i}": c * scale for i, c in enumerate(counts)}
    workers = max(len(counts), 7)
    assert allocate_workers(groups, workers, popularity) == allocate_workers(
        groups, workers, scaled
    )


POPULARITY = st.one_of(st.none(), st.just(0), st.just(10**9), st.integers(0, 10**9))  # None: id absent


@given(st.lists(st.lists(POPULARITY, min_size=1, max_size=3), min_size=1, max_size=8), st.integers(0, 30))
@example([[0], [0], [0]], 1)
@example([[None], [None, None]], 0)
@example([[10**9], [1], [1], [1]], 0)
@example([[10**9, 10**9], [None, 0], [7]], 30)
def test_allocate_matches_fraction_oracle(members, extra):
    groups = [frozenset(f"g{i}m{j}" for j in range(len(m))) for i, m in enumerate(members)]
    popularity = {
        f"g{i}m{j}": count for i, m in enumerate(members) for j, count in enumerate(m) if count is not None
    }
    workers = len(groups) + extra
    assert allocate_workers(groups, workers, popularity) == reference_allocate_workers(
        groups, workers, popularity
    )


def test_allocate_rejects_negative_popularity():
    with pytest.raises(ValueError, match="popularity of 'b' must be >= 0"):
        allocate_workers([{"a"}, {"b", "c"}], 3, {"a": 5, "b": -1, "c": 2})


@given(st.lists(st.integers(0, 10_000), min_size=1, max_size=8), st.integers(1, 30))
def test_allocate_sums_and_floors(counts, extra):
    groups = [{f"g{i}"} for i in range(len(counts))]
    popularity = {f"g{i}": c for i, c in enumerate(counts)}
    workers = len(counts) + extra
    allocation = allocate_workers(groups, workers, popularity)
    assert sum(allocation) == workers
    assert all(count >= 1 for count in allocation)


# --- partition type invariants ----------------------------------------------


def test_partition_rejects_overlapping_groups():
    with pytest.raises(ValueError, match="overlap"):
        Partition(
            (
                LocalityGroup(0, "python", frozenset({"a"}), 1),
                LocalityGroup(1, "python", frozenset({"a"}), 1),
            ),
            2,
        )


def test_partition_rejects_bad_worker_sum():
    with pytest.raises(ValueError, match="sum"):
        Partition((LocalityGroup(0, "python", frozenset({"a"}), 2),), 3)


def test_partition_json_roundtrip():
    profiles = [profile(f, {"x"}) for f in ("a", "b", "c")]
    partition = partition_round_robin(profiles, 2, 5, {"a": 3, "b": 2, "c": 1})
    assert Partition.from_dict(partition.to_dict()) == partition


_GRAPH_ORDER = """
from coldsim.locality import build_dependency_graph
from coldsim.traces import synthesize_profiles
ids = [f"f{i:03d}" for i in range(200)]
graph = build_dependency_graph(synthesize_profiles(ids, catalog_size=30, seed=4))
print(list(graph.weights))
"""


def test_dependency_graph_order_does_not_follow_the_hash_seed():
    def weights_order(hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(REPO_ROOT / "src"))
        done = subprocess.run([sys.executable, "-c", _GRAPH_ORDER], env=env, capture_output=True,
                              text=True, check=True)
        return done.stdout

    first = weights_order("1")
    assert first.startswith("[(") and first == weights_order("2")
