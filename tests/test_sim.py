import contextlib
import dataclasses
import io
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coldsim import cli, sim
from coldsim.locality import LocalityGroup, Partition, partition_round_robin
from coldsim.sim import (
    PER_REQUEST_CSV_HEADER,
    RoutingPolicy,
    SimConfig,
    _select_worker,
    build_workers,
    run,
    simple_lru_hit_rate,
    sweep_cache_sizes,
    write_per_request_csv,
)
from coldsim.caches import LatencyModel, Tier
from coldsim.traces import (
    MAX_TIMESTAMP_MS,
    FunctionProfile,
    SyntheticTraceSpec,
    Trace,
    generate_synthetic,
    request_counts,
    synthesize_profiles,
    write_profiles,
    write_trace,
)

from reference import (
    ReferenceQueue,
    RequestOutcome,
    reference_lru_hit_rate,
    reference_lru_hits,
    reference_per_request_text,
    reference_run,
    reference_summary,
)

GIB = 1024**3
MIB = 1024**2


def make_profile(fid, deps=(), runtime="python", exec_ms=63):
    return FunctionProfile(fid, runtime, frozenset(deps), exec_ms)


def make_trace(*stamped_ids):
    return Trace(tuple(ts for ts, _ in stamped_ids), tuple(fid for _, fid in stamped_ids))


def run_outcomes(trace, profiles, config):
    """The run's result and each request's ``RequestOutcome``, expanded from the chunks ``run`` hands out."""
    catalog = {p.function_id: p for p in profiles}
    shutdown_ms = config.latency_model.shutdown_ms
    outcomes = []

    def expand(first, worker_ids, slots, starts, breakdowns):
        assert first == len(outcomes) and 0 < len(slots) <= sim.ROW_CHUNK
        assert len(worker_ids) == len(slots) == len(starts)
        for row, worker_id, slot, start in zip(range(first, first + len(slots)), worker_ids, slots, starts):
            tier, breakdown = breakdowns[slot]
            fid = trace.names[trace.codes[row]]
            exec_ms = catalog[fid].exec_duration_ms
            outcomes.append(RequestOutcome(
                int(trace.stamps[row]), fid, worker_id, tier, breakdown, exec_ms, shutdown_ms, start,
                start + breakdown.total_ms + exec_ms, breakdown.total_ms + exec_ms + shutdown_ms,
            ))

    return run(trace, profiles, config, expand), outcomes


def outcomes_of(trace, profiles, config):
    return run_outcomes(trace, profiles, config)[1]


def outputs_of(trace, profiles, config):
    """The run's result as JSON and its per-request CSV."""
    buffer = io.StringIO()
    result = run(trace, profiles, config, write_per_request_csv(buffer, trace, profiles, config))
    return result.to_json(), buffer.getvalue()


def per_request_text(trace, profiles, config):
    return outputs_of(trace, profiles, config)[1]


def single_worker_setup(deps=("x",), exec_ms=63, **config_overrides):
    prof = make_profile("fn", deps, exec_ms=exec_ms)
    partition = partition_round_robin([prof], 1, 1, {"fn": 1})
    config = SimConfig(partition=partition, **config_overrides)
    return prof, config


def test_second_request_within_keep_alive_is_handler_hit():
    prof, config = single_worker_setup()
    trace = make_trace((0, "fn"), (5000, "fn"))
    outcomes = outcomes_of(trace, [prof], config)
    assert [o.tier for o in outcomes] == [Tier.MISS, Tier.HANDLER_HIT]


def test_expired_handler_falls_back_to_import_tree():
    prof, config = single_worker_setup(keep_alive_ms=1000)
    trace = make_trace((0, "fn"), (2_000_000, "fn"))
    outcomes = outcomes_of(trace, [prof], config)
    assert [o.tier for o in outcomes] == [Tier.MISS, Tier.IMPORT_HIT]
    # everything pre-imported: code load plus a fork
    assert outcomes[1].breakdown.total_ms == 215


def test_zero_keep_alive_only_hits_at_the_completion_instant():
    prof, config = single_worker_setup(keep_alive_ms=0)
    # first request: init 3315 (load 200 + 1×(1200+1500+400) + fork 15), exec 63
    trace = make_trace((0, "fn"), (3378, "fn"), (3444, "fn"))
    outcomes = outcomes_of(trace, [prof], config)
    assert [o.tier for o in outcomes] == [
        Tier.MISS,
        Tier.HANDLER_HIT,
        Tier.IMPORT_HIT,
    ]


def test_infinite_keep_alive_reduces_to_capacity_lru():
    rnd = random.Random(17)
    ids = [f"f{i}" for i in range(6)]
    profiles = [make_profile(f, deps=(), exec_ms=0) for f in ids]
    partition = partition_round_robin(profiles, 1, 1, {})
    config = SimConfig(
        partition=partition,
        keep_alive_ms=None,
        footprint_bytes=1,
        handler_capacity_bytes=3,
        routing_policy=RoutingPolicy.LEAST_LOADED,
    )
    sequence = [rnd.choice(ids) for _ in range(600)]
    trace = Trace(tuple(range(len(sequence))), tuple(sequence))
    result, outcomes = run_outcomes(trace, profiles, config)
    expected = reference_lru_hits(sequence, 3)
    assert [o.tier is Tier.HANDLER_HIT for o in outcomes] == expected
    # the handler tier's OrderedDict LRU and the sweep's stack-distance count agree exactly
    assert result.hit_rate_by_tier["HandlerHit"] == sweep_cache_sizes(trace, [3], footprint_bytes=1)[0][1]


@pytest.mark.parametrize("capacity", [1, 4, 64])
def test_one_worker_without_keep_alive_hits_as_the_sweep_does(capacity):
    # 1,000 Zipf functions: at 100,000 requests the two agree at 4,866, 16,241 and 60,234 hits
    trace = generate_synthetic(SyntheticTraceSpec(1000, 20_000, 1.1, 86_400_000, seed=5))
    profiles = synthesize_profiles(trace.names, 200, seed=5)
    size = capacity * sim.DEFAULT_FOOTPRINT_BYTES
    config = SimConfig(partition=partition_round_robin(profiles, 1, 1, {}), keep_alive_ms=None,
                       handler_capacity_bytes=size)
    assert run(trace, profiles, config).hit_rate_by_tier["HandlerHit"] == sweep_cache_sizes(trace, [size])[0][1]


def test_empty_trace_yields_empty_result():
    prof, config = single_worker_setup()
    result = run(Trace((), ()), [prof], config)
    assert result.requests == 0
    assert result.mean_init_ms is None
    assert result.median_init_ms is None
    assert result.p99_init_ms is None
    assert result.cold_start_fraction == 0.0
    assert set(result.hit_rate_by_tier.values()) == {0.0}


def busy_scenario(seed=23, policy=RoutingPolicy.HANDLER_AFFINITY, requests=300):
    rnd = random.Random(seed)
    runtimes = ["python", "nodejs"]
    profiles = [
        make_profile(f"fn{i}", deps=rnd.sample("abcdefg", rnd.randint(0, 3)),
                     runtime=runtimes[i % 2], exec_ms=rnd.choice([10, 50, 200]))
        for i in range(8)
    ]
    popularity = {p.function_id: rnd.randint(1, 50) for p in profiles}
    partition = partition_round_robin(profiles, 2, 6, popularity)
    stamps = sorted(rnd.randint(0, 4000) for _ in range(requests))
    function_ids = tuple(rnd.choice(profiles).function_id for _ in stamps)
    config = SimConfig(partition=partition, routing_policy=policy, keep_alive_ms=2000,
                       handler_capacity_bytes=2 * 256 * MIB, import_max_nodes=8)
    return Trace(tuple(stamps), function_ids), profiles, config


def test_run_is_deterministic():
    trace, profiles, config = busy_scenario()
    assert outputs_of(trace, profiles, config) == outputs_of(trace, profiles, busy_scenario()[2])


@given(st.integers(0, 2**16), st.integers(0, 300), st.sampled_from(RoutingPolicy))
@example(seed=1, requests=0, policy=RoutingPolicy.HANDLER_AFFINITY)
@example(seed=1, requests=1, policy=RoutingPolicy.HANDLER_AFFINITY)
@example(seed=1, requests=2, policy=RoutingPolicy.LEAST_LOADED)
@example(seed=1, requests=3, policy=RoutingPolicy.LEAST_LOADED)
def test_run_aggregates_match_sorting_oracle(seed, requests, policy):
    trace, profiles, config = busy_scenario(seed, policy, requests)
    result, collected = run_outcomes(trace, profiles, config)
    assert dataclasses.asdict(result) == reference_summary(collected)


def small_run(seed, requests, policy, keep_alive_ms, import_max_nodes, overrides):
    """A random run on tiny caches and small phases, so that queues drain and
    keep-alive windows end between arrivals."""
    rnd = random.Random(seed)
    profiles = [
        make_profile(f"fn{i}", deps=rnd.sample("abcdef", rnd.randint(0, 4)),
                     runtime=rnd.choice(["python", "nodejs"]), exec_ms=rnd.choice([0, 3, 20, 90]))
        for i in range(rnd.randint(1, 8))
    ]
    partition = partition_round_robin(profiles, rnd.randint(1, 2), rnd.randint(4, 7), {})
    fids = [p.function_id for p in profiles]
    stamps = sorted(rnd.randint(0, 600) for _ in range(requests))
    trace = Trace(tuple(stamps), tuple(rnd.choice(fids) for _ in stamps))
    handler_capacity = 3 * rnd.randint(1, 4)
    config = SimConfig(
        partition=partition,
        handler_capacity_bytes=handler_capacity,
        install_capacity_bytes=rnd.randint(2, 10),
        import_max_nodes=import_max_nodes,
        keep_alive_ms=keep_alive_ms,
        latency_model=LatencyModel(
            code_load_ms=rnd.randint(0, 9), download_ms_per_package=rnd.randint(0, 9),
            install_ms_per_package=rnd.randint(0, 9), import_ms_per_package=rnd.randint(0, 9),
            sandbox_create_ms=8, fork_ms=rnd.randint(2, 8), unpause_ms=rnd.randint(0, 2),
            shutdown_ms=rnd.randint(0, 3),
        ),
        routing_policy=policy,
        footprint_bytes=3,
        footprint_overrides=(
            {fid: rnd.randint(0, handler_capacity) for fid in rnd.sample(fids, len(fids) // 2)}
            if overrides else {}
        ),
        package_size_bytes=2,
    )
    return trace, profiles, config


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32),
    st.integers(0, 80),
    st.sampled_from(RoutingPolicy),
    st.sampled_from([None, 0, 5, 40, 400]),
    st.sampled_from([0, 1, 2, 4]),
    st.booleans(),
)
@example(seed=0, requests=60, policy=RoutingPolicy.HANDLER_AFFINITY, keep_alive_ms=0,
         import_max_nodes=0, overrides=False)
def test_run_matches_whole_run_reference(seed, requests, policy, keep_alive_ms, import_max_nodes,
                                         overrides):
    trace, profiles, config = small_run(seed, requests, policy, keep_alive_ms, import_max_nodes,
                                        overrides)
    expected = reference_run(trace, profiles, config)
    for chunk in (sim.ROW_CHUNK, 1, 7):  # rows handed out one at a time, and in chunks that split a run's rows
        with mock.patch.object(sim, "ROW_CHUNK", chunk):
            assert outcomes_of(trace, profiles, config) == expected
            assert per_request_text(trace, profiles, config) == reference_per_request_text(expected)


def test_per_request_text_matches_reference_for_non_ascii_ids_and_zero_exec():
    trace, profiles, config = small_run(3, 80, RoutingPolicy.HANDLER_AFFINITY, 40, 2, True)
    trace, profiles, config = renamed(trace, profiles, config, "фн-{}-\U0001f600".format, "пакет-{}".format)
    assert not all(fid.isascii() for fid in trace.names)
    expected = reference_run(trace, profiles, config)
    assert any(o.exec_ms == 0 for o in expected)
    for chunk in (sim.ROW_CHUNK, 1, 7):
        with mock.patch.object(sim, "ROW_CHUNK", chunk):
            assert per_request_text(trace, profiles, config) == reference_per_request_text(expected)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32),
    st.integers(0, 80),
    st.sampled_from([None, 0, 5, 40, 400]),
    st.sampled_from([0, 2]),
    st.booleans(),
)
def test_affinity_has_at_most_one_live_holder_the_last_server(seed, requests, keep_alive_ms,
                                                              import_max_nodes, overrides):
    # routing probes only the worker that served the function last; this is why that suffices
    trace, profiles, config = small_run(seed, requests, RoutingPolicy.HANDLER_AFFINITY,
                                        keep_alive_ms, import_max_nodes, overrides)
    select = sim._select_worker

    def checked(candidates, function_id, now_ms, policy, last_worker):
        holders = [w for w in candidates if w.handler.live(function_id, now_ms)]
        assert len(holders) <= 1
        assert holders == [] or holders[0] is last_worker[function_id]
        chosen = select(candidates, function_id, now_ms, policy, last_worker)
        assert holders == [] or chosen is holders[0]
        return chosen

    with mock.patch.object(sim, "_select_worker", checked):
        run(trace, profiles, config)


# --- metamorphic relations: a run against another run on a transformed input --------

SMALL_RUN_ARGS = (
    st.integers(0, 2**32),
    st.integers(0, 80),
    st.sampled_from(RoutingPolicy),
    st.sampled_from([None, 0, 5, 40, 400]),
    st.sampled_from([0, 2]),
    st.booleans(),
)
SMALL_RUNS = given(*SMALL_RUN_ARGS)


def tiers_and_init_ms(trace, profiles, config):
    """The run's tier counts and the sum of its init latencies, read from its outcomes."""
    result, outcomes = run_outcomes(trace, profiles, config)
    return result.tier_counts, sum(o.breakdown.total_ms for o in outcomes)


@settings(max_examples=100, deadline=None)
@SMALL_RUNS
def test_shifting_every_stamp_leaves_the_result_equal(seed, requests, policy, keep_alive_ms, import_max_nodes,
                                                      overrides):
    trace, profiles, config = small_run(seed, requests, policy, keep_alive_ms, import_max_nodes, overrides)
    shifted = Trace((trace.stamps + 10**12 + 7).tolist(), [trace.names[c] for c in trace.codes.tolist()])
    assert run(shifted, profiles, config) == run(trace, profiles, config)


@contextlib.contextmanager
def sharded(cpus):
    """Every run without a consumer split over ``cpus`` usable CPUs, however short; yields the mock of ``os.fork``."""
    fork = os.fork
    with (mock.patch.object(sim, "SHARD_MIN_ROWS", 0),
          mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus))),
          mock.patch.object(os, "fork", side_effect=fork) as forks):
        yield forks


@settings(max_examples=100, deadline=None)
@given(*SMALL_RUN_ARGS, st.sampled_from([2, 3]))
@example(seed=8, requests=80, policy=RoutingPolicy.LEAST_LOADED, keep_alive_ms=40, import_max_nodes=2,
         overrides=True, cpus=2)  # four groups with requests on two shards
def test_groups_run_alone_add_up_to_the_whole_run(seed, requests, policy, keep_alive_ms, import_max_nodes,
                                                  overrides, cpus):
    # groups share no worker and no cache, so each group on its own requests runs as it does in the whole,
    # and so does each shard of groups that ``run`` forks
    trace, profiles, config = small_run(seed, requests, policy, keep_alive_ms, import_max_nodes, overrides)
    rows = list(zip(trace.stamps.tolist(), [trace.names[c] for c in trace.codes.tolist()]))
    parts = []
    for group in config.partition.groups:
        own = [(ts, fid) for ts, fid in rows if fid in group.function_ids]
        alone = dataclasses.replace(config, partition=Partition((group,), group.worker_count))
        parts.append(tiers_and_init_ms(Trace([ts for ts, _ in own], [fid for _, fid in own]), profiles, alone))
    whole_counts, whole_init_ms = tiers_and_init_ms(trace, profiles, config)
    assert {tier: sum(counts[tier] for counts, _ in parts) for tier in whole_counts} == whole_counts
    assert sum(init_ms for _, init_ms in parts) == whole_init_ms
    group_of = config.partition.function_to_group()
    busy = len({group_of[fid] for fid in trace.names})
    with sharded(cpus) as forks:
        result = run(trace, profiles, config)
    assert forks.call_count == min(cpus, max(busy, 1)) - 1
    assert result == run_outcomes(trace, profiles, config)[0]  # a consumer keeps a run to one shard
    assert dataclasses.asdict(result) == reference_summary(reference_run(trace, profiles, config))


def renamed(trace, profiles, config, function_name, package_name):
    """The same run with every function id and every package renamed."""
    profiles = [
        dataclasses.replace(p, function_id=function_name(p.function_id),
                            dependencies={package_name(d) for d in p.dependencies})
        for p in profiles
    ]
    groups = [dataclasses.replace(g, function_ids={function_name(f) for f in g.function_ids})
              for g in config.partition.groups]
    config = dataclasses.replace(
        config,
        partition=Partition(groups, config.partition.total_workers),
        footprint_overrides={function_name(f): size for f, size in config.footprint_overrides.items()},
    )
    trace = Trace(trace.stamps.tolist(), [function_name(trace.names[c]) for c in trace.codes.tolist()])
    return trace, profiles, config


RENAMED_RUNS = given(
    st.integers(0, 2**32),
    st.integers(0, 80),
    st.sampled_from(RoutingPolicy),
    st.sampled_from([None, 0, 5, 40, 400]),
    st.sampled_from([0, 2, 4]),
    st.booleans(),
)


@settings(max_examples=100, deadline=None)
@RENAMED_RUNS
def test_renaming_in_order_leaves_the_result_equal(seed, requests, policy, keep_alive_ms, import_max_nodes,
                                                   overrides):
    trace, profiles, config = small_run(seed, requests, policy, keep_alive_ms, import_max_nodes, overrides)
    prefixed = renamed(trace, profiles, config, "q-{}".format, "pkg-{}".format)
    assert run(*prefixed) == run(trace, profiles, config)


@settings(max_examples=100, deadline=None)
@RENAMED_RUNS
def test_reversing_package_order_leaves_the_result_equal_when_every_package_fits(
        seed, requests, policy, keep_alive_ms, import_max_nodes, overrides):
    # with no install eviction, package names reach only the import tree's filing choice, which
    # changes the cost of a probe and never its answer; an install cache too small for every
    # package makes the result depend on name order, since hits refresh in name order
    trace, profiles, config = small_run(seed, requests, policy, keep_alive_ms, import_max_nodes, overrides)
    packages = sorted({d for p in profiles for d in p.dependencies})
    config = dataclasses.replace(config, install_capacity_bytes=max(1, len(packages)) * config.package_size_bytes)
    reverse = dict(zip(packages, reversed(packages)))
    assert run(*renamed(trace, profiles, config, str, reverse.__getitem__)) == run(trace, profiles, config)


@settings(max_examples=100, deadline=None)
@given(*SMALL_RUN_ARGS, st.sampled_from(["a", "fn", "fn0a", "fn4a", "zz"]), st.integers(0, 3))
def test_a_profile_no_request_names_leaves_the_run_unchanged(seed, requests, policy, keep_alive_ms,
                                                            import_max_nodes, overrides, name, index):
    # an id the trace never requests, in the catalog and in one group, with a footprint of its own
    trace, profiles, config = small_run(seed, requests, policy, keep_alive_ms, import_max_nodes, overrides)
    groups = list(config.partition.groups)
    group = groups[index % len(groups)]
    groups[index % len(groups)] = dataclasses.replace(group, function_ids=group.function_ids | {name})
    wider = dataclasses.replace(
        config,
        partition=Partition(groups, config.partition.total_workers),
        footprint_overrides={**config.footprint_overrides, name: config.handler_capacity_bytes},
    )
    unrequested = make_profile(name, deps="acf", runtime=group.runtime, exec_ms=90)
    assert outputs_of(trace, [*profiles, unrequested], wider) == outputs_of(trace, profiles, config)


@settings(max_examples=100, deadline=None)
@given(*SMALL_RUN_ARGS, st.lists(st.integers(0, 10**6), min_size=4, max_size=4, unique=True))
def test_renumbering_groups_in_order_leaves_the_run_unchanged(seed, requests, policy, keep_alive_ms,
                                                              import_max_nodes, overrides, new_ids):
    trace, profiles, config = small_run(seed, requests, policy, keep_alive_ms, import_max_nodes, overrides)
    increasing = dict(zip(sorted(g.group_id for g in config.partition.groups), sorted(new_ids)))
    groups = [dataclasses.replace(g, group_id=increasing[g.group_id]) for g in config.partition.groups]
    renumbered = dataclasses.replace(config, partition=Partition(groups, config.partition.total_workers))
    assert outputs_of(trace, profiles, renumbered) == outputs_of(trace, profiles, config)


@pytest.mark.parametrize("policy", list(RoutingPolicy))
def test_idle_workers_keep_no_past_starts(policy):
    profiles = [make_profile("fn"), make_profile("other")]
    partition = partition_round_robin(profiles, 1, 2, {})
    config = SimConfig(partition=partition, routing_policy=policy, keep_alive_ms=None)
    # arrivals far apart: every worker is idle at every arrival, and affinity always hits
    trace = make_trace(*((i * 10**6, ("fn", "other")[i % 3 == 0]) for i in range(300)))
    workers = []
    begin = sim.Worker.begin
    begun = []

    def checked_begin(worker, start_ms, completion_ms):  # after every request's start is recorded
        begin(worker, start_ms, completion_ms)
        begun.append(start_ms)
        assert max(len(w._starts) for w in workers) <= 1

    def building(config):
        pools = build_workers(config)
        workers.extend(w for pool in pools.values() for w in pool)
        return pools

    with mock.patch.object(sim, "build_workers", building), mock.patch.object(sim.Worker, "begin", checked_begin):
        run(trace, profiles, config)
    assert len(workers) == 2
    assert len(begun) == len(trace)


def test_affinity_checks_liveness_at_arrival_and_expires_at_start():
    fn = make_profile("fn", deps=("x",))
    other = make_profile("other", exec_ms=5000)
    hog = make_profile("hog", exec_ms=100_000)
    partition = Partition((LocalityGroup(0, "python", frozenset({"fn", "other", "hog"}), 2),), 2)
    config = SimConfig(partition=partition, keep_alive_ms=1000)
    # fn pauses on worker 0; hog takes worker 1; other is least-loaded onto
    # worker 0; fn then arrives while its instance is still live on worker 0
    trace = make_trace((0, "fn"), (1, "hog"), (3400, "other"), (3500, "fn"))
    first, _, busy, repeat = outcomes_of(trace, [fn, other, hog], config)
    assert [first.worker_id, busy.worker_id, repeat.worker_id] == [0, 0, 0]
    assert repeat.timestamp_ms - first.completion_ms <= config.keep_alive_ms
    assert repeat.start_ms == busy.completion_ms
    assert repeat.start_ms - first.completion_ms > config.keep_alive_ms
    # the instance expired while the request queued; the import tree still has {x}
    assert repeat.tier is Tier.IMPORT_HIT


@pytest.mark.parametrize("cpus, shards", [
    (1, [{0, 1, 2, 3}]),
    (2, [{1, 2}, {0, 3}]),
    (3, [{0, 2}, {1}, {3}]),
    (8, [{1}, {3}, {0}, {2}]),
])
def test_shards_take_each_group_heaviest_first_onto_the_lightest_shard(cpus, shards):
    # groups 0 to 3 carry 3, 5, 3 and 4 requests, group 4 none; the heaviest shard comes first
    loads = {0: 3, 1: 5, 2: 3, 3: 4}
    partition = Partition([LocalityGroup(g, "python", {f"g{g}"}, 1) for g in range(5)], 5)
    group_of = partition.function_to_group()
    trace = Trace(range(15), [f"g{g}" for g, n in loads.items() for _ in range(n)])

    def groups(masks):
        return [{group_of[trace.names[code]] for code in np.flatnonzero(mask)} for mask in masks]

    with sharded(cpus):
        assert groups(sim._shards(trace, group_of, None)) == shards
        assert groups(sim._shards(trace, group_of, lambda *chunk: None)) == [{0, 1, 2, 3}]  # rows in trace order
    with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus))):
        assert groups(sim._shards(trace, group_of, None)) == [{0, 1, 2, 3}]  # below SHARD_MIN_ROWS


FAILING_SIMULATE = """
import os, sys
from unittest import mock
from coldsim import cli, sim
parent, real = os.getpid(), sim.init_latency
failing, argv = sys.argv[1], sys.argv[2:]

def init_latency(probe, model):
    if (os.getpid() == parent) == (failing == "parent"):
        raise RuntimeError(f"no latency in the {failing}")
    return real(probe, model)

with (mock.patch.object(sim, "SHARD_MIN_ROWS", 0), mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1}),
      mock.patch.object(sim, "init_latency", init_latency)):
    sys.exit(cli.main(argv))
"""


@pytest.mark.parametrize("failing", ["child", "parent"])
def test_a_failing_shard_fails_the_run_and_leaves_no_process_and_no_output(failing, tmp_path):
    trace, profiles, config = busy_scenario()  # four groups with requests
    parent, real = os.getpid(), sim.init_latency

    def init_latency(probe, model):
        in_parent = os.getpid() == parent
        if in_parent == (failing == "parent"):
            raise RuntimeError(f"no latency in the {failing}")
        if not in_parent:
            time.sleep(60)  # still running when the parent fails: it must be killed, not waited for
        return real(probe, model)

    inputs = [tmp_path / name for name in ("trace.csv", "profiles.csv", "partition.json")]
    with open(inputs[0], "w", encoding="utf-8") as stream:
        write_trace(trace, stream)
    with open(inputs[1], "w", encoding="utf-8") as stream:
        write_profiles(profiles, stream)
    inputs[2].write_text(json.dumps(config.partition.to_dict()))
    argv = ["simulate", *map(str, inputs), "--quiet", "--out", str(tmp_path / "result.json")]
    started = time.monotonic()
    with sharded(2) as forks, mock.patch.object(sim, "init_latency", init_latency):
        with pytest.raises(RuntimeError, match=f"no latency in the {failing}"):
            run(trace, profiles, config)
        with pytest.raises(RuntimeError, match=f"no latency in the {failing}"):
            cli.main(argv)
    assert forks.call_count == 2
    assert time.monotonic() - started < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # every child was reaped
    assert sorted(tmp_path.iterdir()) == sorted(inputs)
    # run as a command, it exits 1 with the error's message, and removes its outputs
    src = str(Path(sim.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", FAILING_SIMULATE, failing, *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 1
    assert f"RuntimeError: no latency in the {failing}" in proc.stderr
    assert sorted(tmp_path.iterdir()) == sorted(inputs)


# the warning Python 3.12 issues on a fork while threads run
MULTI_THREADED = "This process (pid={}) is multi-threaded, use of fork() may lead to deadlocks in the child."


def test_forking_ignores_only_the_multi_threaded_warning():
    trace, profiles, config = busy_scenario()  # four groups with requests
    whole = run(trace, profiles, config)  # one shard: below SHARD_MIN_ROWS
    fork = os.fork

    def fork_after(message):
        def warn_and_fork():
            warnings.warn(message.format(os.getpid()), DeprecationWarning, stacklevel=2)
            return fork()
        return warn_and_fork

    with sharded(2) as forks, warnings.catch_warnings():
        warnings.simplefilter("error")
        forks.side_effect = fork_after(MULTI_THREADED)
        assert run(trace, profiles, config) == whole
        assert forks.call_count == 1
        forks.side_effect = fork_after("some other deprecation")
        lowest = os.pipe()  # the two lowest free descriptors, the ones the run's first pipe takes
        for fd in lowest:
            os.close(fd)
        with pytest.raises(DeprecationWarning, match="some other deprecation"):
            run(trace, profiles, config)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # every child was reaped
    again = os.pipe()
    for fd in again:
        os.close(fd)
    assert again == lowest  # and the pipe is closed


def test_run_without_sink_keeps_no_per_request_state():
    trace = generate_synthetic(SyntheticTraceSpec(40, 50_000, 1.1, 3_600_000, seed=5))
    profiles = synthesize_profiles(trace.names, catalog_size=40, deps_per_function=(0, 5), seed=5)
    config = SimConfig(partition=partition_round_robin(profiles, 2, 4, request_counts(trace)))
    tracemalloc.start()
    try:
        result = run(trace, profiles, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.requests == 50_000
    assert peak < MIB, f"run peaked at {peak / MIB:.2f} MiB"


def test_per_request_csv_holds_one_chunk_of_rows():
    trace = generate_synthetic(SyntheticTraceSpec(40, 50_000, 1.1, 3_600_000, seed=5))
    profiles = synthesize_profiles(trace.names, catalog_size=40, deps_per_function=(0, 5), seed=5)
    config = SimConfig(partition=partition_round_robin(profiles, 2, 4, request_counts(trace)))
    # a chunk's three int lists, its numpy columns and its row text take well under 512 bytes a row;
    # 50,000 rows held whole, as lists or as one formatted piece, take about twice this or more
    bound = sim.ROW_CHUNK * 512
    assert len(trace) > 10 * sim.ROW_CHUNK
    with open(os.devnull, "w", encoding="utf-8") as discard:
        tracemalloc.start()
        try:
            result = run(trace, profiles, config, write_per_request_csv(discard, trace, profiles, config))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert result.requests == 50_000
    assert peak < bound, f"run with the per-request CSV peaked at {peak / MIB:.2f} MiB"


def test_tier_counts_and_rates_conserve():
    trace, profiles, config = busy_scenario(seed=31)
    result = run(trace, profiles, config)
    assert sum(result.tier_counts.values()) == len(trace)
    assert sum(result.hit_rate_by_tier.values()) == pytest.approx(1.0, abs=1e-12)
    assert result.cold_start_fraction == pytest.approx(
        1.0 - result.hit_rate_by_tier[Tier.HANDLER_HIT.value], abs=1e-12
    )


def test_same_worker_requests_never_overlap():
    for policy in (RoutingPolicy.HANDLER_AFFINITY, RoutingPolicy.LEAST_LOADED):
        trace, profiles, config = busy_scenario(seed=47, policy=policy)
        by_worker = {}
        for o in outcomes_of(trace, profiles, config):
            by_worker.setdefault(o.worker_id, []).append(o)
        for outcomes in by_worker.values():
            ordered = sorted(outcomes, key=lambda o: o.start_ms)
            for before, after in zip(ordered, ordered[1:]):
                assert before.completion_ms <= after.start_ms


def test_affinity_reuses_the_holding_worker():
    prof = make_profile("fn", deps=("x",))
    partition = Partition((LocalityGroup(0, "python", frozenset({"fn"}), 2),), 2)
    trace = make_trace((0, "fn"), (10_000, "fn"))
    affinity = outcomes_of(trace, [prof], SimConfig(partition=partition))
    assert [o.worker_id for o in affinity] == [0, 0]
    assert affinity[1].tier is Tier.HANDLER_HIT
    least_loaded = outcomes_of(
        trace, [prof],
        SimConfig(partition=partition, routing_policy=RoutingPolicy.LEAST_LOADED),
    )
    # the idle twin has an earlier busy_until, so the repeat lands cold
    assert [o.worker_id for o in least_loaded] == [0, 1]
    assert least_loaded[1].tier is not Tier.HANDLER_HIT


def test_every_config_field_changes_the_output():
    trace, profiles, config = busy_scenario()
    popularity = {p.function_id: 1 for p in profiles}
    varied = {
        "partition": partition_round_robin(profiles, 1, 6, popularity),
        "handler_capacity_bytes": 256 * MIB,
        "install_capacity_bytes": 10 * MIB,
        "import_max_nodes": 0,
        "keep_alive_ms": None,
        "latency_model": LatencyModel(shutdown_ms=7),
        "routing_policy": RoutingPolicy.LEAST_LOADED,
        "footprint_bytes": 512 * MIB,
        "footprint_overrides": {"fn2": 512 * MIB},
        "package_size_bytes": 8 * GIB,  # one package per worker
    }
    assert set(varied) == {f.name for f in dataclasses.fields(SimConfig)}
    baseline = outputs_of(trace, profiles, config)
    for name, value in varied.items():
        assert getattr(config, name) != value, name
        changed = dataclasses.replace(config, **{name: value})
        assert outputs_of(trace, profiles, changed) != baseline, name


@pytest.mark.parametrize(
    "name, fields_for, limit",
    [
        ("footprint_bytes", lambda size: {"footprint_bytes": size}, "handler_capacity_bytes"),
        ("footprint_overrides['fn']", lambda size: {"footprint_overrides": {"fn": size}},
         "handler_capacity_bytes"),
        ("package_size_bytes", lambda size: {"package_size_bytes": size}, "install_capacity_bytes"),
    ],
    ids=["footprint", "footprint_override", "package_size"],
)
def test_config_rejects_entries_no_cache_can_hold(name, fields_for, limit):
    _, config = single_worker_setup()
    capacity = getattr(config, limit)
    for size in (-1, capacity + 1):
        with pytest.raises(ValueError, match=re.escape(name)):
            dataclasses.replace(config, **fields_for(size))
    dataclasses.replace(config, **fields_for(capacity))


def test_run_validates_profiles_and_partition():
    prof, config = single_worker_setup()
    with pytest.raises(ValueError, match="no profile for function 'ghost'"):
        run(make_trace((0, "ghost")), [prof], config)
    other = make_profile("ghost")
    with pytest.raises(ValueError, match="unpartitioned function 'ghost'"):
        run(make_trace((0, "ghost")), [prof, other], config)
    with pytest.raises(ValueError, match="duplicate function_id 'fn'"):
        run(make_trace((0, "fn")), [prof, prof], config)
    # an override for a function with no profile would otherwise be silently ignored
    mistyped = dataclasses.replace(config, footprint_overrides={"zeta": MIB, "ghost": MIB, "fn": MIB})
    outcomes = []
    with pytest.raises(ValueError, match="footprint_overrides names 'ghost', a function with no profile"):
        run(make_trace((0, "fn")), [prof], mistyped, outcomes.append)
    assert outcomes == []  # raised before the first request
    # a group of another runtime would otherwise be simulated as if it matched; every profiled member
    # is checked in name order, not only the functions the trace requests
    profiles = [make_profile(f) for f in ("b", "a", "c")]
    partition = partition_round_robin(profiles, 1, 1, {f: 1 for f in "abc"})
    relabelled = [p if p.function_id == "c" else dataclasses.replace(p, runtime="nodejs") for p in profiles]
    with pytest.raises(ValueError, match="^function 'a' has runtime 'nodejs', not its group's 'python'$"):
        run(make_trace((0, "c")), relabelled, SimConfig(partition), outcomes.append)
    assert outcomes == []


@given(st.lists(st.tuples(st.booleans(), st.integers(0, 4), st.integers(0, 4)), max_size=80))
def test_queue_len_matches_full_scan_oracle(steps):
    _, config = single_worker_setup()
    worker = build_workers(config)[0][0]
    oracle = ReferenceQueue()
    now = busy_until = 0
    for is_begin, a, b in steps:
        if is_begin:
            # FIFO on one worker: a request starts no earlier than the last one completes
            start = busy_until + a
            busy_until = start + b
            worker.begin(start, busy_until)
            oracle.begin(start, busy_until)
        else:
            now += a
            assert worker.queue_len(now) == oracle.queue_len(now)


# --- routing ------------------------------------------------------------------


def router_fixture(**config_overrides):
    groups = (
        LocalityGroup(0, "python", frozenset({"fn", "other"}), 3),
        LocalityGroup(1, "python", frozenset({"foreign"}), 1),
    )
    return SimConfig(partition=Partition(groups, 4), **config_overrides)


def test_route_single_candidate_group():
    config = router_fixture(routing_policy=RoutingPolicy.LEAST_LOADED)
    profiles = [make_profile(f) for f in ("fn", "other", "foreign")]
    outcomes = outcomes_of(make_trace((0, "foreign")), profiles, config)
    assert [o.worker_id for o in outcomes] == [3]


def test_route_affinity_beats_idleness():
    workers = build_workers(router_fixture())[0]
    workers[2].handler.insert("fn", 1, 0)
    last_worker = {"fn": workers[2]}
    chosen = _select_worker(workers, "fn", 10, RoutingPolicy.HANDLER_AFFINITY, last_worker)
    assert chosen is workers[2]
    assert _select_worker(workers, "fn", 10, RoutingPolicy.LEAST_LOADED, {}) is workers[0]


def test_route_affinity_falls_back_when_the_last_server_holds_nothing_live():
    workers = build_workers(router_fixture(keep_alive_ms=5))[0]
    workers[0].begin(0, 1000)
    workers[2].handler.insert("fn", 1, 0)
    last_worker = {"fn": workers[2]}
    # past keep-alive: the least-loaded idle worker takes it and becomes the last server
    chosen = _select_worker(workers, "fn", 10, RoutingPolicy.HANDLER_AFFINITY, last_worker)
    assert chosen is workers[1]
    assert last_worker == {"fn": workers[1]}


def test_route_least_loaded_prefers_shortest_queue():
    workers = build_workers(router_fixture())[0]
    workers[0].begin(200, 300)
    workers[0].begin(300, 400)
    workers[2].begin(150, 250)
    chosen = _select_worker(workers, "fn", 100, RoutingPolicy.LEAST_LOADED, {})
    assert chosen is workers[1]


def test_route_least_loaded_counts_queues_only_when_no_worker_is_idle():
    workers = build_workers(router_fixture())[0]
    workers[0].begin(200, 300)
    workers[0].begin(300, 400)
    workers[1].begin(50, 500)  # started, so its queue is empty though it is busy longest
    workers[2].begin(150, 250)
    chosen = _select_worker(workers, "fn", 100, RoutingPolicy.LEAST_LOADED, {})
    assert chosen is workers[1]
    # equal queues: the earliest busy_until_ms wins
    chosen = _select_worker(workers, "fn", 160, RoutingPolicy.LEAST_LOADED, {})
    assert chosen is workers[2]
    # busy until just after now with a request still to start: not idle, so queues decide
    workers = build_workers(router_fixture())[0]
    workers[0].begin(50, 500)
    workers[1].begin(50, 600)
    workers[2].begin(101, 101)
    chosen = _select_worker(workers, "fn", 100, RoutingPolicy.LEAST_LOADED, {})
    assert chosen is workers[0]


# --- global LRU and the cache-size sweep ----------------------------------------


def test_simple_lru_examples():
    assert simple_lru_hit_rate(make_trace((0, "A"), (1, "A"), (2, "A")), 1) == pytest.approx(2 / 3)
    thrash = make_trace(*((i, f) for i, f in enumerate("ABCABC")))
    assert simple_lru_hit_rate(thrash, 2) == 0.0


def test_simple_lru_errors():
    with pytest.raises(ValueError, match="empty trace"):
        simple_lru_hit_rate(Trace((), ()), 1)
    with pytest.raises(ValueError, match="capacity_entries"):
        simple_lru_hit_rate(make_trace((0, "A")), 0)


def test_simple_lru_matches_reference_oracle():
    rnd = random.Random(8)
    for _ in range(30):
        sequence = [f"f{rnd.randint(0, 49)}" for _ in range(1000)]
        trace = Trace(tuple(range(len(sequence))), tuple(sequence))
        for capacity in range(1, 11):
            assert simple_lru_hit_rate(trace, capacity) == reference_lru_hit_rate(
                sequence, capacity
            )


def test_reference_lru_inclusion_property():
    rnd = random.Random(12)
    sequence = [f"f{rnd.randint(0, 19)}" for _ in range(800)]
    for capacity in range(1, 8):
        small = reference_lru_hits(sequence, capacity)
        big = reference_lru_hits(sequence, capacity + 1)
        assert all(b or not s for s, b in zip(small, big))


def test_sweep_capacity_is_size_over_footprint():
    trace = make_trace(*((i, f"f{i % 7}") for i in range(200)))
    rows = sweep_cache_sizes(trace, [GIB], footprint_bytes=256 * MIB)
    assert rows == [(GIB, simple_lru_hit_rate(trace, 4))]


def test_sweep_sorts_sizes_and_is_monotone():
    rnd = random.Random(44)
    sequence = [f"f{rnd.randint(0, 29)}" for _ in range(2000)]
    trace = Trace(tuple(range(len(sequence))), tuple(sequence))
    sizes = [4 * GIB, GIB, 2 * GIB, 256 * MIB]
    rows = sweep_cache_sizes(trace, sizes)
    assert [size for size, _ in rows] == sorted(sizes)
    rates = [rate for _, rate in rows]
    assert rates == sorted(rates)


def test_sweep_rejects_sizes_below_footprint():
    trace = make_trace((0, "A"))
    with pytest.raises(ValueError, match="smaller than footprint"):
        sweep_cache_sizes(trace, [100 * MIB], footprint_bytes=256 * MIB)


def _uniform(rnd, ids, n):
    return [rnd.choice(ids) for _ in range(n)]


def _zipf(rnd, ids, n):
    return rnd.choices(ids, weights=[1.0 / (rank + 1) for rank in range(len(ids))], k=n)


def _cyclic(rnd, ids, n):
    start = rnd.randrange(len(ids))
    return [ids[(start + i) % len(ids)] for i in range(n)]


def _cyclic_with_hot_id(rnd, ids, n):
    # every other access is the hot id, so some re-references hit even when
    # the largest cache is smaller than the cycle
    return [ids[0] if i % 2 else ids[1 + (i // 2) % (len(ids) - 1)] for i in range(n)]


@pytest.mark.parametrize("draw", [_uniform, _zipf, _cyclic, _cyclic_with_hot_id])
@pytest.mark.parametrize("capped", [False, True], ids=["all-sizes", "largest-below-distinct"])
def test_sweep_matches_reference_oracle_at_every_size(draw, capped):
    rnd = random.Random(f"{draw.__name__}-{capped}")
    for trial in range(4):
        ids = [f"f{i}" for i in range(rnd.randint(2, 30))]
        sequence = draw(rnd, ids, 600)
        distinct = len(set(sequence))
        top = max(1, distinct // 2) if capped else distinct + 3
        capacities = list(range(1, top + 1)) + rnd.sample(range(1, top + 1), min(3, top))
        rnd.shuffle(capacities)
        trace = Trace(tuple(range(len(sequence))), tuple(sequence))
        rows = sweep_cache_sizes(trace, capacities, footprint_bytes=1)
        assert rows == [(c, reference_lru_hit_rate(sequence, c)) for c in sorted(capacities)]


def test_sweep_of_no_sizes_is_empty():
    assert sweep_cache_sizes(make_trace((0, "A")), []) == []
    assert sweep_cache_sizes(Trace((), ()), []) == []


def test_sweep_of_empty_trace_errors():
    with pytest.raises(ValueError, match="empty trace"):
        sweep_cache_sizes(Trace((), ()), [GIB])


def test_sweep_checks_sizes_before_reading_the_trace():
    class UnreadableTrace:
        @property
        def codes(self):
            raise AssertionError("the trace was read")

        def __len__(self):
            raise AssertionError("the trace was read")

    with pytest.raises(ValueError, match="cache size 104857600 smaller than footprint 268435456"):
        sweep_cache_sizes(UnreadableTrace(), [GIB, 100 * MIB], footprint_bytes=256 * MIB)


def test_sweep_memory_is_bounded_by_distinct_ids_not_capacity():
    rnd = random.Random(5)
    sequence = [f"f{rnd.randint(0, 39)}" for _ in range(1000)]
    trace = Trace(tuple(range(len(sequence))), tuple(sequence))
    distinct = len(set(sequence))
    tracemalloc.start()
    try:
        rows = sweep_cache_sizes(trace, [2**40], footprint_bytes=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows == [(2**40, (len(sequence) - distinct) / len(sequence))]
    assert peak < MIB, f"sweep peaked at {peak} bytes"


def test_per_request_csv_shape():
    prof, config = single_worker_setup()
    lines = per_request_text(make_trace((0, "fn"), (100, "fn")), [prof], config).splitlines()
    assert lines[0] == PER_REQUEST_CSV_HEADER
    assert len(lines) == 3
    assert all(len(line.split(",")) == 12 for line in lines)


@pytest.mark.parametrize("model, exec_ms", [
    (LatencyModel(shutdown_ms=MAX_TIMESTAMP_MS), 63),
    (LatencyModel(code_load_ms=MAX_TIMESTAMP_MS), 63),
    (LatencyModel(), MAX_TIMESTAMP_MS + 1),
])
def test_per_request_csv_refuses_a_total_past_int64(model, exec_ms):
    # the parts are Python ints, the exec_ms and total_ms columns int64: a total past it would wrap, not fail
    prof, config = single_worker_setup(exec_ms=exec_ms, latency_model=model)
    with pytest.raises(ValueError, match="total_ms would pass"):
        per_request_text(make_trace((0, "fn")), [prof], config)


def test_per_request_csv_checks_each_row_against_int64():
    # one function's exec and another's init each take most of int64, but no row adds both
    profiles = [make_profile("long", exec_ms=2**62), make_profile("cold", deps=("x",), exec_ms=0)]
    partition = partition_round_robin(profiles, 1, 2, {"long": 1, "cold": 1})
    config = SimConfig(partition=partition, latency_model=LatencyModel(download_ms_per_package=2**62))
    trace = make_trace((0, "long"), (1, "cold"))
    expected = reference_run(trace, profiles, config)
    assert max(o.total_ms for o in expected) > 2**62
    assert per_request_text(trace, profiles, config) == reference_per_request_text(expected)
