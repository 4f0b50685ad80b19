"""Acceptance suite: one test per criterion, each printing a PASS line.

Criterion 2 checks a real normalized Azure day trace when the environment
variable COLDSIM_AZURE_TRACE points at one; otherwise it runs the synthetic
substitute. Everything else is trace-independent.
"""

import json
import math
import os
import random
import time

import pytest

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
from coldsim.cli import main
from coldsim.locality import (
    build_dependency_graph,
    mean_intra_group_similarity,
    partition_clustered,
    partition_round_robin,
)
from coldsim.sim import simple_lru_hit_rate, sweep_cache_sizes
from coldsim.traces import (
    FunctionProfile,
    SyntheticTraceSpec,
    Trace,
    generate_synthetic,
)

from reference import (
    best_import_node,
    best_partition_score,
    pooled_intra_similarity,
    reference_lru_hit_rate,
)

AZURE_TRACE_ENV = "COLDSIM_AZURE_TRACE"
MIB = 1024**2
GIB = 1024**3
FOOTPRINT = 256 * MIB


def report(criterion: int, message: str) -> None:
    print(f"[acceptance] criterion {criterion}: PASS - {message}")


@pytest.fixture(scope="module")
def big_trace():
    spec = SyntheticTraceSpec(5266, 798_075, 1.5, 86_400_000, seed=20)
    return generate_synthetic(spec)


def test_criterion_01_lru_oracle_equivalence():
    started = time.monotonic()
    rnd = random.Random(1)
    population = [f"f{i:02d}" for i in range(50)]
    zipf_weights = [1.0 / (rank + 1) for rank in range(50)]
    checked = 0
    for trace_index in range(200):
        if trace_index % 2 == 0:
            sequence = rnd.choices(population, k=1000)
        else:
            sequence = rnd.choices(population, weights=zipf_weights, k=1000)
        trace = Trace(tuple(range(len(sequence))), tuple(sequence))
        for capacity in range(1, 11):
            assert simple_lru_hit_rate(trace, capacity) == reference_lru_hit_rate(
                sequence, capacity
            )
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"LRU equivalence took {elapsed:.1f}s"
    report(1, f"{checked} trace/capacity pairs match the brute-force oracle exactly ({elapsed:.1f}s)")


def test_criterion_02_skew_reproduction(tmp_path, capsys):
    real_trace = os.environ.get(AZURE_TRACE_ENV)
    if real_trace:
        assert main(["analyze", real_trace]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["thresholds"]["0.5"] - 0.0094) <= 0.0005
        assert abs(payload["thresholds"]["0.8"] - 0.0354) <= 0.002
        report(2, f"real trace thresholds {payload['thresholds']} within tolerance")
        return

    started = time.monotonic()
    trace_path = tmp_path / "synthetic.csv"
    profiles_path = tmp_path / "profiles.csv"
    rc = main([
        "generate",
        "--functions", "5266",
        "--requests", "798075",
        "--zipf", "1.5",
        "--duration", "86400000",
        "--seed", "20",
        "--quiet",
        "--out", str(trace_path),
        "--profiles-out", str(profiles_path),
    ])
    assert rc == 0
    assert main(["analyze", str(trace_path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["thresholds"]["0.5"] <= 0.02
    assert main(["sweep", str(trace_path), "--sizes", "1GiB"]) == 0
    sweep_lines = capsys.readouterr().out.splitlines()
    one_gib_rate = float(sweep_lines[1].split(",")[1])
    elapsed = time.monotonic() - started
    assert 0.40 <= one_gib_rate <= 0.95
    assert elapsed < 30.0, f"pipeline took {elapsed:.1f}s"
    report(
        2,
        f"synthetic substitute: threshold(0.5)={summary['thresholds']['0.5']:.4f}, "
        f"1GiB hit rate {one_gib_rate:.3f}, pipeline {elapsed:.1f}s",
    )


def test_criterion_03_sweep_monotonicity_and_saturation(big_trace):
    distinct = len(big_trace.names)
    total = len(big_trace)
    sizes = [FOOTPRINT, 4 * FOOTPRINT, 64 * FOOTPRINT, distinct * FOOTPRINT, (distinct + 100) * FOOTPRINT]
    started = time.monotonic()
    rows = sweep_cache_sizes(big_trace, sizes)
    elapsed = time.monotonic() - started
    rates = [rate for _, rate in rows]
    assert rates == sorted(rates), "hit rate must be non-decreasing in cache size"
    expected_saturated = (total - distinct) / total
    assert rows[-2][1] == expected_saturated
    assert rows[-1][1] == expected_saturated
    assert elapsed < 10.0, f"sweep took {elapsed:.1f}s"
    report(3, f"monotone over {len(sizes)} sizes; saturated rate exactly {expected_saturated:.6f} ({elapsed:.1f}s)")


def test_criterion_04_fig1_calibration(tmp_path):
    model = LatencyModel()
    probe = CacheLookupResult(Tier.MISS, cold=frozenset({"numpy"}))
    profile = FunctionProfile("fn", "python", frozenset({"numpy"}), 63)
    breakdown = init_latency(probe, model)
    assert breakdown.total_ms == 3472

    handler_probe = CacheLookupResult(Tier.HANDLER_HIT)
    assert init_latency(handler_probe, model).total_ms == model.unpause_ms == 2

    trace_path = tmp_path / "trace.csv"
    profiles_path = tmp_path / "profiles.csv"
    partition_path = tmp_path / "partition.json"
    config_path = tmp_path / "config.json"
    csv_path = tmp_path / "per_request.csv"
    trace_path.write_text("timestamp_ms,function_id\n0,fn\n5000,fn\n")
    profiles_path.write_text(
        "function_id,runtime,exec_duration_ms,dependencies\nfn,python,63,numpy\n"
    )
    assert main([
        "partition", str(profiles_path), str(trace_path),
        "--groups-per-runtime", "1", "--workers", "1",
        "--quiet", "--out", str(partition_path),
    ]) == 0
    config_path.write_text(json.dumps({"import_max_nodes": 0}))
    assert main([
        "simulate", str(trace_path), str(profiles_path), str(partition_path),
        "--config", str(config_path),
        "--quiet", "--out", str(tmp_path / "result.json"), "--per-request", str(csv_path),
    ]) == 0
    header, first, second = csv_path.read_text().splitlines()
    columns = header.split(",")
    exec_col = columns.index("exec_ms")
    shutdown_col = columns.index("shutdown_ms")
    tier_col = columns.index("tier")
    first_row, second_row = first.split(","), second.split(",")
    assert first_row[exec_col] == "63" and first_row[shutdown_col] == "6"
    assert second_row[exec_col] == "63" and second_row[shutdown_col] == "6"
    init_columns = [columns.index(c) for c in ("load_ms", "download_ms", "install_ms", "import_ms", "create_ms")]
    assert sum(int(first_row[i]) for i in init_columns) == 3472
    assert second_row[tier_col] == "HandlerHit"
    report(4, "single-dependency miss totals exactly 3472 ms; CSV carries 63 ms exec and 6 ms shutdown")


def random_latency_model(rnd: random.Random) -> LatencyModel:
    unpause = rnd.randint(0, 5)
    fork = rnd.randint(unpause, 40)
    sandbox = rnd.randint(fork, 400)
    return LatencyModel(
        code_load_ms=rnd.randint(0, 400),
        download_ms_per_package=rnd.randint(0, 2000),
        install_ms_per_package=rnd.randint(0, 2000),
        import_ms_per_package=rnd.randint(0, 800),
        sandbox_create_ms=sandbox,
        fork_ms=fork,
        unpause_ms=unpause,
        shutdown_ms=rnd.randint(0, 10),
    )


def test_criterion_05_three_tier_monotonicity():
    rnd = random.Random(55)
    pool = [f"p{i}" for i in range(10)]
    trials = 0
    for _ in range(1000):
        model = LatencyModel() if rnd.random() < 0.5 else random_latency_model(rnd)
        deps = frozenset(rnd.sample(pool, rnd.randint(1, 6)))
        profile = FunctionProfile("fn", "python", deps, 63)

        handler = HandlerCache(MIB)
        handler.insert("fn", 1)
        hit = init_latency(classify_request(profile, handler, InstallCache(MIB)), model)

        full_tree = ImportCacheTree(8)
        full_tree.insert(full_tree.ROOT_ID, deps, 1)
        full = init_latency(
            classify_request(profile, HandlerCache(MIB), InstallCache(MIB), full_tree),
            model,
        )

        subset = frozenset(rnd.sample(sorted(deps), rnd.randint(0, len(deps) - 1)))
        partial_tree = ImportCacheTree(8)
        if subset:
            partial_tree.insert(partial_tree.ROOT_ID, subset, 1)
        install = InstallCache(GIB)
        remainder = sorted(deps - subset)
        installed = frozenset(rnd.sample(remainder, rnd.randint(0, len(remainder))))
        for pkg in sorted(installed):
            install.insert(pkg, 1)
        partial_probe = classify_request(profile, HandlerCache(MIB), install, partial_tree)
        partial = init_latency(partial_probe, model)

        miss_probe = classify_request(
            profile, HandlerCache(MIB), InstallCache(MIB), ImportCacheTree(1)
        )
        miss = init_latency(miss_probe, model)
        no_tree_probe = classify_request(profile, HandlerCache(MIB), InstallCache(MIB))
        no_tree = init_latency(no_tree_probe, model)

        assert hit.total_ms <= full.total_ms <= partial.total_ms <= miss.total_ms <= no_tree.total_ms

        # growing the install cache never hurts
        if partial_probe.cold:
            extra = sorted(partial_probe.cold)[0]
            install.insert(extra, 1)
            grown = init_latency(
                classify_request(profile, HandlerCache(MIB), install, partial_tree),
                model,
            )
            assert grown.total_ms <= partial.total_ms
        # growing the import tree never hurts
        missing = sorted(deps - subset)
        if missing:
            node_id, _ = partial_tree.best_node(deps)
            partial_tree.insert(node_id, partial_tree.packages(node_id) | {missing[0]}, 2)
            deeper = init_latency(
                classify_request(profile, HandlerCache(MIB), install, partial_tree),
                model,
            )
            assert deeper.total_ms <= partial.total_ms
        trials += 1
    report(5, f"{trials} randomized profiles satisfy the tier ordering and augmentation monotonicity")


def test_criterion_06_import_tree_invariants():
    rnd = random.Random(6)
    pool = [f"p{i}" for i in range(30)]
    max_nodes = 40
    tree = ImportCacheTree(max_nodes)
    operations = 0
    lookups = 0
    for now in range(10_000):
        roll = rnd.random()
        node_ids = tree.node_ids()
        if roll < 0.45:
            parent = rnd.choice(node_ids)
            extras = [p for p in pool if p not in tree.packages(parent)]
            if extras:
                addition = set(rnd.sample(extras, rnd.randint(1, min(4, len(extras)))))
                tree.insert(parent, tree.packages(parent) | addition, now)
            else:
                with pytest.raises(ValueError):
                    tree.insert(parent, tree.packages(parent), now)
        elif roll < 0.9:
            query = frozenset(rnd.sample(pool, rnd.randint(0, 8)))
            node_id, remaining = tree.best_node(query)
            assert tree.packages(node_id) <= query
            assert remaining == query - tree.packages(node_id)
            expected = best_import_node(
                [(n, tree.packages(n), tree.depth(n)) for n in tree.node_ids()], query
            )
            assert node_id == expected
            lookups += 1
        else:
            tree.touch(rnd.choice(node_ids), now)
        assert len(tree) <= max_nodes
        assert tree.packages(tree.ROOT_ID) == frozenset()
        for node_id in tree.node_ids():
            parent_id = tree.parent(node_id)
            if parent_id is not None:
                assert tree.packages(node_id) > tree.packages(parent_id)
        operations += 1
    report(6, f"{operations} randomized tree ops hold all invariants; {lookups} lookups match exhaustive search")


def planted_cliques(sizes):
    profiles = []
    cliques = []
    for c, size in enumerate(sizes):
        members = set()
        for m in range(size):
            fid = f"c{c}m{m}"
            deps = {f"c{c}base1", f"c{c}base2", f"c{c}solo{m}"}
            profiles.append(FunctionProfile(fid, "python", frozenset(deps)))
            members.add(fid)
        cliques.append(frozenset(members))
    return profiles, cliques


def test_criterion_07_partition_correctness():
    rnd = random.Random(7)
    # invariants on randomized corpora up to 500 functions across 3 runtimes
    for n in (120, 300, 500):
        pool = [f"pkg{i}" for i in range(150)]
        runtimes = ("python", "nodejs", "wasm")
        profiles = [
            FunctionProfile(
                f"fn{i:03d}",
                rnd.choice(runtimes),
                frozenset(rnd.sample(pool, rnd.randint(0, 4))),
            )
            for i in range(n)
        ]
        graph = build_dependency_graph(profiles)
        popularity = {p.function_id: rnd.randint(0, 1000) for p in profiles}
        groups_per_runtime = rnd.randint(1, 5)
        workers = rnd.randint(3 * groups_per_runtime, 3 * groups_per_runtime + 40)
        for partition in (
            partition_round_robin(profiles, groups_per_runtime, workers, popularity),
            partition_clustered(graph, profiles, groups_per_runtime, workers, popularity),
        ):
            by_id = {p.function_id: p for p in profiles}
            covered = set()
            for g in partition.groups:
                assert g.worker_count >= 1
                assert not (covered & g.function_ids)
                covered |= g.function_ids
                assert {by_id[f].runtime for f in g.function_ids} == {g.runtime}
            assert covered == set(by_id)
            assert sum(g.worker_count for g in partition.groups) == workers

    # planted-clique recovery for every configuration up to 8 cliques of 8
    recovered = 0
    for num_cliques in range(2, 9):
        for size in range(2, 9):
            profiles, cliques = planted_cliques([size] * num_cliques)
            graph = build_dependency_graph(profiles)
            partition = partition_clustered(graph, profiles, num_cliques, num_cliques, {})
            assert {g.function_ids for g in partition.groups} == set(cliques)
            recovered += 1

    # exhaustive verification on instances of at most 12 functions
    brute_checked = 0
    for sizes, k in (((6, 6), 2), ((5, 5), 2), ((4, 4, 4), 3), ((3, 3, 3), 3), ((2, 2, 2, 2), 4), ((3, 3, 2, 2), 4)):
        profiles, cliques = planted_cliques(sizes)
        graph = build_dependency_graph(profiles)
        partition = partition_clustered(graph, profiles, k, k, {})
        ours = {g.function_ids for g in partition.groups}
        assert ours == set(cliques)
        fids = sorted(p.function_id for p in profiles)
        best = best_partition_score(fids, graph.weights, k)
        achieved = pooled_intra_similarity(ours, graph.weights)
        assert math.isclose(achieved, best, rel_tol=0, abs_tol=1e-12)
        assert achieved >= mean_intra_group_similarity(
            {g.function_ids for g in partition_round_robin(profiles, k, k, {}).groups}, graph
        )
        brute_checked += 1
    report(
        7,
        f"invariants on 3 random corpora; {recovered} planted configurations recovered; "
        f"{brute_checked} instances match the exhaustive optimum",
    )


def test_criterion_08_cli_determinism(tmp_path):
    generate_args = [
        "generate",
        "--functions", "30",
        "--requests", "1500",
        "--zipf", "1.2",
        "--duration", "600000",
        "--seed", "13",
        "--quiet",
        "--out", str(tmp_path / "trace.csv"),
        "--profiles-out", str(tmp_path / "profiles.csv"),
    ]
    assert main(generate_args) == 0
    generated = {
        name: (tmp_path / name).read_bytes()
        for name in ("trace.csv", "profiles.csv", "trace.csv.manifest.json")
    }
    assert main(generate_args) == 0
    for name, payload in generated.items():
        assert (tmp_path / name).read_bytes() == payload, name

    assert main([
        "partition", str(tmp_path / "profiles.csv"), str(tmp_path / "trace.csv"),
        "--groups-per-runtime", "2", "--workers", "4",
        "--quiet", "--out", str(tmp_path / "partition.json"),
    ]) == 0
    simulate_args = [
        "simulate", str(tmp_path / "trace.csv"), str(tmp_path / "profiles.csv"),
        str(tmp_path / "partition.json"),
        "--quiet", "--out", str(tmp_path / "result.json"),
        "--per-request", str(tmp_path / "per_request.csv"),
    ]
    assert main(simulate_args) == 0
    simulated = {
        name: (tmp_path / name).read_bytes()
        for name in ("result.json", "per_request.csv", "result.json.manifest.json")
    }
    assert main(simulate_args) == 0
    for name, payload in simulated.items():
        assert (tmp_path / name).read_bytes() == payload, name
    report(8, "generate and simulate re-runs are byte-identical (outputs and manifests)")
