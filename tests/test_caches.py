import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coldsim.caches import (
    CacheLookupResult,
    HandlerCache,
    ImportCacheTree,
    InstallCache,
    LatencyModel,
    Tier,
    classify_request,
    init_latency,
)
from coldsim.traces import FunctionProfile

from conftest import REPO_ROOT
from reference import (
    ReferenceHandlerTier,
    ReferenceImportTree,
    ReferenceInstallLRU,
    ReferenceLRU,
    best_import_node,
)

MB = 1024 * 1024
FIG1 = LatencyModel()


def profile(fid="fn", deps=()):
    return FunctionProfile(fid, "python", frozenset(deps), 63)


# --- handler cache ----------------------------------------------------------


def test_handler_empty_cache_misses():
    cache = HandlerCache(256 * MB)
    assert "anything" not in cache


def test_handler_insert_then_hit():
    cache = HandlerCache(256 * MB)
    cache.insert("A", 256 * MB)
    assert "A" in cache


def test_handler_lru_eviction_at_capacity():
    cache = HandlerCache(2 * 256 * MB)
    for fid in ("A", "B", "C"):
        cache.insert(fid, 256 * MB)
    assert "A" not in cache
    assert "B" in cache and "C" in cache


def test_handler_one_gib_holds_four_entries():
    cache = HandlerCache(4 * 256 * MB)
    evicted = []
    for fid in ("A", "B", "C", "D", "E"):
        evicted.extend(cache.insert(fid, 256 * MB))
    assert evicted == ["A"]
    assert [fid for fid, _ in cache.entries()] == ["B", "C", "D", "E"]


def test_handler_reinsert_refreshes_without_eviction():
    cache = HandlerCache(3)
    for fid in ("A", "B", "C"):
        cache.insert(fid, 1)
    assert cache.insert("A", 1) == []
    assert cache.insert("D", 1) == ["B"]  # A was refreshed, B is now oldest


def test_handler_reinsert_updates_footprint():
    cache = HandlerCache(10)
    cache.insert("A", 2)
    cache.insert("A", 5)
    assert cache.used_bytes == 5


def test_handler_full_capacity_insert_evicts_everything_oldest_first():
    cache = HandlerCache(3)
    for fid in ("A", "B", "C"):
        cache.insert(fid, 1)
    assert cache.insert("D", 3) == ["A", "B", "C"]
    assert [fid for fid, _ in cache.entries()] == ["D"]


def test_handler_entry_larger_than_cache():
    cache = HandlerCache(256 * MB)
    with pytest.raises(ValueError, match="entry larger than cache"):
        cache.insert("A", 257 * MB)


def test_handler_hit_miss_sequence_matches_reference_lru():
    rnd = random.Random(99)
    keys = [f"f{rnd.randint(0, 29)}" for _ in range(12_000)]
    for capacity in (1, 3, 7):
        cache = HandlerCache(capacity)
        oracle = ReferenceLRU(capacity)
        for key in keys:
            hit = key in cache
            cache.insert(key, 1)
            assert hit == oracle.access(key)


def test_handler_byte_feasibility_under_varied_footprints():
    rnd = random.Random(5)
    capacity = 50
    cache = HandlerCache(capacity)
    for _ in range(5_000):
        if rnd.random() < 0.5:
            key = f"f{rnd.randint(0, 40)}"
            if key in cache:  # a hit re-pauses the instance at its own footprint
                cache.insert(key, dict(cache.entries())[key])
        else:
            cache.insert(f"f{rnd.randint(0, 40)}", rnd.randint(0, capacity))
        assert cache.used_bytes <= capacity
        assert cache.used_bytes == sum(size for _, size in cache.entries())


@given(
    st.integers(1, 12),
    st.sampled_from([None, 0, 1, 3, 10]),
    st.lists(
        st.tuples(
            st.sampled_from(["insert", "live", "expire"]),
            st.sampled_from("abcdef"),
            st.integers(0, 12),
            st.integers(-3, 6),
        ),
        max_size=60,
    ),
)
@example(capacity=12, keep_alive_ms=0, ops=[("insert", "a", 1, 0), ("insert", "b", 1, 0),
                                            ("expire", "a", 0, 1)])  # two expire at once
def test_handler_matches_reference_tier(capacity, keep_alive_ms, ops):
    cache = HandlerCache(capacity, keep_alive_ms)
    oracle = ReferenceHandlerTier(capacity, keep_alive_ms)
    newest = 0  # pause times never decrease; probes may fall before the newest
    for op, fid, size, step in ops:
        now = newest + step
        if op == "insert":
            newest += max(step, 0)
            size = min(size, capacity)
            assert cache.insert(fid, size, newest) == oracle.insert(fid, size, newest)
        elif op == "live":
            assert cache.live(fid, now) == oracle.live(fid, now)
        else:
            cache.expire(now)
            oracle.expire(now)
        assert cache.entries() == oracle.entries()
        assert cache.used_bytes == oracle.used_bytes
        for other in "abcdef":
            assert (other in cache) == (other in oracle)
            assert cache.live(other, newest) == oracle.live(other, newest)


def test_handler_rejects_a_pause_earlier_than_the_last():
    cache = HandlerCache(10, keep_alive_ms=5)
    cache.insert("A", 2, 10)
    cache.insert("B", 3, 20)
    for fid in ("A", "B", "C"):
        with pytest.raises(ValueError, match="paused_at_ms"):
            cache.insert(fid, 1, 19)
    assert cache.entries() == [("A", 2), ("B", 3)]
    assert cache.used_bytes == 5
    assert cache.live("B", 25) and not cache.live("B", 26)
    assert cache.insert("C", 1, 20) == []
    cache.expire(100)
    assert cache.entries() == []
    with pytest.raises(ValueError, match="paused_at_ms"):  # pause times never decrease
        cache.insert("A", 1, 19)


# --- install cache ----------------------------------------------------------


def test_install_lookup_partitions_queries():
    cache = InstallCache(1000)
    assert cache.lookup({"a", "b"}) == (frozenset(), frozenset({"a", "b"}))
    cache.insert("a", 10)
    assert cache.lookup({"a", "b"}) == (frozenset({"a"}), frozenset({"b"}))
    assert cache.lookup(set()) == (frozenset(), frozenset())


def test_install_insert_evicts_least_recent():
    cache = InstallCache(30)
    cache.insert("a", 10)
    cache.insert("b", 10)
    cache.insert("c", 10)
    cache.lookup({"a"})  # refresh a
    assert cache.insert("d", 10) == ["b"]
    assert "a" in cache and "c" in cache and "d" in cache


@given(
    st.integers(1, 40),
    st.lists(
        st.one_of(
            st.tuples(st.just("lookup"), st.frozensets(st.sampled_from("abcdefg"))),
            st.tuples(st.just("insert"), st.sampled_from("abcdefg"), st.integers(0, 40)),
        ),
        max_size=60,
    ),
)
@example(capacity=5, ops=[*(("insert", p, 1) for p in "edcba"), ("lookup", frozenset("abcde")),
                          *(("insert", p, 1) for p in "fgab")])  # a hit refreshes in name order
def test_install_matches_reference_lru(capacity, ops):
    cache = InstallCache(capacity)
    oracle = ReferenceInstallLRU(capacity)
    for op in ops:
        if op[0] == "lookup":
            assert cache.lookup(op[1]) == oracle.lookup(op[1])
        else:
            _, package, size = op
            size %= capacity + 1  # 0 up to the capacity
            before = [p for p, _ in oracle.items if p != package]
            oracle.insert(package, size)
            held = {p for p, _ in oracle.items}
            assert cache.insert(package, size) == [p for p in before if p not in held]
        for package in "abcdefg":
            assert (package in cache) == any(p == package for p, _ in oracle.items)
        assert cache.used_bytes == sum(size for _, size in oracle.items)
        assert len(cache) == len(oracle.items)


# --- import cache tree --------------------------------------------------------


def test_import_empty_tree_forks_from_root():
    tree = ImportCacheTree(8)
    node_id, remaining = tree.best_node({"numpy"})
    assert node_id == ImportCacheTree.ROOT_ID
    assert remaining == frozenset({"numpy"})


def test_import_superset_nodes_are_disqualified():
    tree = ImportCacheTree(8)
    p = tree.insert(tree.ROOT_ID, {"numpy"}, 1)
    tree.insert(p, {"numpy", "pandas"}, 2)
    node_id, remaining = tree.best_node({"numpy", "scipy"})
    assert node_id == p
    assert remaining == frozenset({"scipy"})
    node_id, remaining = tree.best_node({"pandas"})
    assert node_id == tree.ROOT_ID
    assert remaining == frozenset({"pandas"})


def test_import_best_node_prefers_deeper_then_lower_id():
    tree = ImportCacheTree(10)
    shallow = tree.insert(tree.ROOT_ID, {"a", "b"}, 1)
    mid = tree.insert(tree.ROOT_ID, {"a"}, 2)
    deep = tree.insert(mid, {"a", "b"}, 3)
    node_id, _ = tree.best_node({"a", "b", "c"})
    assert node_id == deep  # same set size as `shallow`, greater depth
    assert tree.best_node({"a", "b"}) == (deep, frozenset())  # also when the set matches exactly
    tree.insert(tree.ROOT_ID, {"a", "b"}, 3)
    assert tree.best_node({"a", "b"}) == (deep, frozenset())
    first = tree.insert(tree.ROOT_ID, {"x"}, 4)
    second = tree.insert(tree.ROOT_ID, {"y"}, 5)
    node_id, _ = tree.best_node({"x", "y"})
    assert node_id == first  # size and depth tie, lowest node_id wins
    assert second > first


def test_import_insert_requires_strict_superset():
    tree = ImportCacheTree(8)
    node = tree.insert(tree.ROOT_ID, {"numpy", "pandas"}, 1)
    with pytest.raises(ValueError, match="import tree hierarchy violated"):
        tree.insert(node, {"numpy"}, 2)
    with pytest.raises(ValueError, match="import tree hierarchy violated"):
        tree.insert(node, {"numpy", "pandas"}, 3)


def test_import_eviction_drops_oldest_leaf():
    tree = ImportCacheTree(2)
    stale = tree.insert(tree.ROOT_ID, {"old"}, 0)
    fresh = tree.insert(tree.ROOT_ID, {"new"}, 10)
    assert stale not in tree.node_ids()
    assert tree.node_ids() == [tree.ROOT_ID, fresh]


def test_import_eviction_tie_breaks_by_highest_id():
    tree = ImportCacheTree(3)
    first = tree.insert(tree.ROOT_ID, {"a"}, 5)
    second = tree.insert(tree.ROOT_ID, {"b"}, 5)
    third = tree.insert(tree.ROOT_ID, {"c"}, 9)
    assert second not in tree.node_ids()  # ties on age fall to the higher id
    assert tree.node_ids() == [tree.ROOT_ID, first, third]


def test_import_touch_protects_from_eviction():
    tree = ImportCacheTree(3)
    first = tree.insert(tree.ROOT_ID, {"a"}, 0)
    second = tree.insert(tree.ROOT_ID, {"b"}, 1)
    tree.touch(first, 50)
    tree.insert(tree.ROOT_ID, {"c"}, 60)
    assert second not in tree.node_ids()
    assert first in tree.node_ids()


def test_import_tree_invariants_after_random_ops():
    rnd = random.Random(3)
    pool = [f"p{i}" for i in range(12)]
    tree = ImportCacheTree(10)
    for now in range(600):
        node_ids = tree.node_ids()
        parent = rnd.choice(node_ids)
        extras = [p for p in pool if p not in tree.packages(parent)]
        if extras and rnd.random() < 0.5:
            addition = set(rnd.sample(extras, rnd.randint(1, min(3, len(extras)))))
            tree.insert(parent, tree.packages(parent) | addition, now)
        else:
            query = frozenset(rnd.sample(pool, rnd.randint(0, 6)))
            node_id, remaining = tree.best_node(query)
            assert tree.packages(node_id) <= query
            assert remaining == query - tree.packages(node_id)
            expected = best_import_node(
                [(n, tree.packages(n), tree.depth(n)) for n in tree.node_ids()], query
            )
            assert node_id == expected
        assert len(tree) <= 10
        assert tree.packages(tree.ROOT_ID) == frozenset()
        for node_id in tree.node_ids():
            parent_id = tree.parent(node_id)
            if parent_id is not None:
                assert tree.packages(node_id) > tree.packages(parent_id)


_TREE_OPS = st.tuples(
    # touches outnumber inserts so that leaves often move within the eviction order
    st.sampled_from(["insert", "touch", "touch", "touch", "best_node"]),
    st.integers(0, 1000),  # picks one of the current nodes
    st.frozensets(st.sampled_from("abcdef"), max_size=3),
    st.integers(0, 12),  # a narrow time range makes fork times tie and go back
)


@settings(deadline=None)
@given(st.integers(1, 5), st.lists(_TREE_OPS, min_size=60, max_size=200))
def test_import_tree_matches_brute_force_oracle(max_nodes, ops):
    tree = ImportCacheTree(max_nodes)
    oracle = ReferenceImportTree(max_nodes)
    for kind, pick, packages, now in ops:
        node_ids = tree.node_ids()
        node_id = node_ids[pick % len(node_ids)]
        extended = tree.packages(node_id) | packages
        if kind == "insert":
            if extended == tree.packages(node_id):
                with pytest.raises(ValueError):
                    tree.insert(node_id, extended, now)
                with pytest.raises(ValueError):
                    oracle.insert(node_id, extended, now)
            else:
                assert tree.insert(node_id, extended, now) == oracle.insert(node_id, extended, now)
        elif kind == "touch":
            tree.touch(node_id, now)
            oracle.touch(node_id, now)
        else:
            # queries around an existing node reach deep nodes as well as the root
            assert tree.best_node(extended) == oracle.best_node(extended)
            assert tree.best_node(packages) == oracle.best_node(packages)
        assert tree.node_ids() == sorted(oracle.nodes)
        for n in tree.node_ids():
            assert [tree.packages(n), tree.parent(n)] == oracle.nodes[n][:2]
        # the eviction order holds exactly the non-root leaves, by fork time, highest id first
        parents = {parent for _, parent, _, _ in oracle.nodes.values()}
        leaves = [n for n in oracle.nodes if n != oracle.ROOT_ID and n not in parents]
        assert tree._leaves == sorted((oracle.nodes[n][3], -n) for n in leaves)
        # the flat index files each current non-root node once, under one of its own packages,
        # and holds nothing else and no empty bucket
        filed = [(package, node) for package, bucket in tree._filed.items() for node in bucket]
        assert all(tree._filed.values())
        assert sorted(node.node_id for _, node in filed) == tree.node_ids()[1:]
        for package, node in filed:
            assert node is tree._nodes[node.node_id] and package in node.packages
        # each node counts the children the oracle holds under it
        for n in tree.node_ids():
            assert tree._nodes[n].child_count == sum(parent == n for _, parent, _, _ in oracle.nodes.values())


# --- classification -----------------------------------------------------------


def test_classify_all_cold_when_caches_empty():
    result = classify_request(
        profile(deps={"a", "b"}), HandlerCache(MB), InstallCache(MB), ImportCacheTree(4)
    )
    assert result.tier is Tier.MISS
    assert result.cold == frozenset({"a", "b"})
    assert result.preimported == result.preinstalled == frozenset()
    assert result.forked_node_id == ImportCacheTree.ROOT_ID


def test_classify_handler_hit_short_circuits():
    handler = HandlerCache(MB)
    handler.insert("fn", 1)
    result = classify_request(profile(deps={"a"}), handler, InstallCache(MB))
    assert result.tier is Tier.HANDLER_HIT
    assert result.preimported == result.preinstalled == result.cold == frozenset()


def test_classify_composes_import_and_install_tiers():
    handler = HandlerCache(MB)
    install = InstallCache(MB)
    install.insert("b", 10)
    tree = ImportCacheTree(4)
    node = tree.insert(tree.ROOT_ID, {"a"}, 1)
    result = classify_request(profile(deps={"a", "b", "c"}), handler, install, tree)
    assert result.tier is Tier.IMPORT_HIT
    assert result.preimported == frozenset({"a"})
    assert result.preinstalled == frozenset({"b"})
    assert result.cold == frozenset({"c"})
    assert result.forked_node_id == node


def test_classify_install_hit_without_import_nodes():
    install = InstallCache(MB)
    install.insert("a", 10)
    result = classify_request(profile(deps={"a", "b"}), HandlerCache(MB), install)
    assert result.tier is Tier.INSTALL_HIT
    assert result.forked_node_id is None


@given(
    st.frozensets(st.sampled_from("abcdefgh"), max_size=6),
    st.frozensets(st.sampled_from("abcdefgh"), max_size=6),
    st.lists(st.frozensets(st.sampled_from("abcdefgh"), min_size=1, max_size=3), max_size=6),
    st.sampled_from(["tree", "no tree", "handler hit"]),
)
def test_classify_partitions_the_dependency_set(deps, installed, grows, case):
    # the probe result does not check this itself: classify_request must build it so
    handler = HandlerCache(MB)
    if case == "handler hit":
        handler.insert("fn", 1)
    install = InstallCache(MB)
    for pkg in sorted(installed):
        install.insert(pkg, 1)
    tree = None
    if case == "tree":
        tree = ImportCacheTree(4)
        for packages in grows:  # each set goes under its best fit so far, as in a run
            node_id, missing = tree.best_node(packages)
            if missing:
                tree.insert(node_id, packages, 1)
    result = classify_request(profile(deps=deps), handler, install, tree)
    sets = (result.preimported, result.preinstalled, result.cold)
    assert not (sets[0] & sets[1] or sets[0] & sets[2] or sets[1] & sets[2])
    assert sets[0] | sets[1] | sets[2] == (frozenset() if case == "handler hit" else deps)


# --- latency model -------------------------------------------------------------


def test_fig1_preset_single_dependency_miss_totals_3472():
    result = CacheLookupResult(Tier.MISS, cold=frozenset({"numpy"}))
    breakdown = init_latency(result, FIG1)
    assert breakdown.total_ms == 3472
    assert (
        breakdown.load_ms,
        breakdown.download_ms,
        breakdown.install_ms,
        breakdown.import_ms,
        breakdown.create_ms,
    ) == (200, 1200, 1500, 400, 172)


def test_handler_hit_costs_one_unpause():
    breakdown = init_latency(CacheLookupResult(Tier.HANDLER_HIT), FIG1)
    assert breakdown.total_ms == FIG1.unpause_ms == 2
    assert breakdown.load_ms == breakdown.create_ms == 0


def test_full_import_hit_costs_load_plus_fork():
    result = CacheLookupResult(
        Tier.IMPORT_HIT, preimported=frozenset({"numpy"}), forked_node_id=3
    )
    breakdown = init_latency(result, FIG1)
    assert breakdown.total_ms == FIG1.code_load_ms + FIG1.fork_ms == 215


def test_preinstalled_packages_skip_download_and_install():
    result = CacheLookupResult(
        Tier.INSTALL_HIT, preinstalled=frozenset({"a", "b"}), forked_node_id=0
    )
    breakdown = init_latency(result, FIG1)
    assert breakdown.download_ms == breakdown.install_ms == 0
    assert breakdown.import_ms == 2 * FIG1.import_ms_per_package
    assert breakdown.create_ms == FIG1.fork_ms


def test_shipped_preset_file_matches_builtin():
    with open(REPO_ROOT / "presets" / "fig1_calibration.json", encoding="utf-8") as handle:
        loaded = LatencyModel(**json.load(handle))
    assert loaded == FIG1


def test_latency_model_invariants():
    with pytest.raises(ValueError, match="fork_ms"):
        LatencyModel(fork_ms=200, sandbox_create_ms=100)
    with pytest.raises(ValueError, match="unpause_ms"):
        LatencyModel(unpause_ms=20, fork_ms=10)
    with pytest.raises(ValueError, match=">= 0"):
        LatencyModel(code_load_ms=-1)


def test_tier_ordering_under_preset():
    deps = frozenset({"a", "b", "c"})
    handler_hit = init_latency(CacheLookupResult(Tier.HANDLER_HIT), FIG1)
    full_import = init_latency(
        CacheLookupResult(Tier.IMPORT_HIT, preimported=deps, forked_node_id=1), FIG1
    )
    partial = init_latency(
        CacheLookupResult(
            Tier.IMPORT_HIT,
            preimported=frozenset({"a"}),
            preinstalled=frozenset({"b"}),
            cold=frozenset({"c"}),
            forked_node_id=1,
        ),
        FIG1,
    )
    miss = init_latency(CacheLookupResult(Tier.MISS, cold=deps, forked_node_id=0), FIG1)
    miss_no_tree = init_latency(CacheLookupResult(Tier.MISS, cold=deps), FIG1)
    assert (
        handler_hit.total_ms
        <= full_import.total_ms
        <= partial.total_ms
        <= miss.total_ms
        <= miss_no_tree.total_ms
    )
