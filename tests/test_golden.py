"""Byte-identity guard for the simulation's and the sweep's outputs.

A small seeded synthetic workload is simulated under several configurations
and the SHA-256 of the result JSON and of the per-request CSV is pinned.
The digests were computed with the straightforward implementation (full
queue rescans, whole-tree import scans), so any optimisation of ``run`` or
of the cache tiers must reproduce its outputs exactly. The cache-size sweep
of the same trace is pinned the same way, with a digest computed when every
size was a separate ``OrderedDict`` LRU replay. The clustered partition of
the same catalog is pinned with a digest computed when the agglomeration kept
its cross-cluster sums in a pair-keyed dict beside per-cluster neighbour sets.
The files ``generate`` writes at paper scale are pinned with digests computed
when each dependency set came from ``Generator.choice`` and each trace row
from one f-string. The outputs of the benchmark's timed commands on those
files (``analyze``, the 12-size ``sweep``, the round-robin ``partition`` and
``simulate``) are pinned with digests computed when ``classify_request``
still tested the handler itself; on a host with several usable CPUs the
``simulate`` pin covers a sharded run.
"""

import hashlib
import io
import json

import pytest

from coldsim import cli
from coldsim.locality import build_dependency_graph, partition_clustered, partition_round_robin
from coldsim.sim import (
    DEFAULT_FOOTPRINT_BYTES,
    RoutingPolicy,
    SimConfig,
    run,
    sweep_cache_sizes,
    write_per_request_csv,
)
from coldsim.traces import (
    SyntheticTraceSpec,
    generate_synthetic,
    request_counts,
    synthesize_profiles,
)

MIB = 1024**2


@pytest.fixture(scope="module")
def workload():
    trace = generate_synthetic(SyntheticTraceSpec(300, 20_000, 1.1, 3_600_000, 7))
    profiles = synthesize_profiles(trace.names, catalog_size=40, deps_per_function=(0, 5), seed=7)
    partition = partition_round_robin(profiles, 3, 9, request_counts(trace))
    return trace, profiles, partition


CASES = {
    "affinity-keepalive": (
        dict(routing_policy=RoutingPolicy.HANDLER_AFFINITY, keep_alive_ms=20_000),
        "e9f4838f212303d09e5b0a54225325e17dc2a426b8f389d2b3221f4bd7ececf7",
        "ae5dd03524b34144f91d07f4a6306f80f47c5c45602f6f4b3b60ea87facbb427",
    ),
    "affinity-no-expiry": (
        dict(routing_policy=RoutingPolicy.HANDLER_AFFINITY, keep_alive_ms=None),
        "53ca01b6043f68fb10d8cfb585991b17aa0dc698a5ecee1ccc35140cdf762302",
        "721f089c619318d7fb0929a8d677548c301eed98b73ab327d0f462188dbe0d42",
    ),
    "least-loaded-no-expiry": (
        dict(routing_policy=RoutingPolicy.LEAST_LOADED, keep_alive_ms=None),
        "f95c800082afe76e326f03dd1cd6000e75cbbff2c0bb4bc35b7d2407cf23371a",
        "2c5116a4bb9a29da2343b8f0a216979cca6fa894e9ff4722fd8dff99c938c0c3",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_simulation_outputs_are_byte_identical(workload, case):
    trace, profiles, partition = workload
    overrides, json_digest, csv_digest = CASES[case]
    config = SimConfig(
        partition=partition,
        import_max_nodes=8,
        install_capacity_bytes=200 * MIB,
        footprint_overrides={"f0000": 512 * MIB},
        **overrides,
    )
    buffer = io.StringIO()
    result = run(trace, profiles, config, write_per_request_csv(buffer, trace, profiles, config))
    assert hashlib.sha256(result.to_json().encode()).hexdigest() == json_digest
    assert hashlib.sha256(buffer.getvalue().encode()).hexdigest() == csv_digest


# capacities in entries: small ones, the distinct-id count minus one, one above
# it (the trace has 300 distinct ids), a duplicate, in no particular order
SWEEP_ENTRIES = (64, 1, 8, 3, 301, 2, 299, 5, 8)
SWEEP_DIGEST = "c42e6be5e76e9f604a1c4f7f5c5f319bbc3a71882d5fbba43a1434aa784f98d5"


def test_sweep_rows_are_byte_identical(workload):
    trace = workload[0]
    rows = sweep_cache_sizes(trace, [e * DEFAULT_FOOTPRINT_BYTES for e in SWEEP_ENTRIES])
    text = "".join(f"{size},{rate!r}\n" for size, rate in rows)
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_DIGEST


CLUSTERED_DIGEST = "478235811fe907f4ba227eb902de0f380ae15c7e1d9cbb06b8599addacb7a3bf"


def test_clustered_partition_is_byte_identical(workload):
    trace, profiles, _ = workload
    graph = build_dependency_graph(profiles)
    partition = partition_clustered(graph, profiles, 3, 9, request_counts(trace))
    text = json.dumps(partition.to_dict(), sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == CLUSTERED_DIGEST


# the set-up of the paper-scale benchmark workloads at seed 1
PAPER_SCALE_GENERATE = [
    "generate", "--quiet", "--functions", "5266", "--requests", "798075", "--duration", "86400000",
    "--zipf", "1.1", "--seed", "1",
]
GENERATE_DIGESTS = {
    "trace.csv": "e9e921dbd461d5e2d4f03c30a4ace798f9195b2cdb7ae3e008dd2501e0ab4df4",
    "profiles.csv": "d22a18a45facb467e9c13db04ac53b9562e42c6bb45a40821eb3c666155dc0ab",
}


def test_paper_scale_generate_is_byte_identical(tmp_path):
    argv = PAPER_SCALE_GENERATE + ["--out", str(tmp_path / "trace.csv"), "--profiles-out", str(tmp_path / "profiles.csv")]
    assert cli.main(argv) == 0
    for name, digest in GENERATE_DIGESTS.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# the timed commands of both paper-scale benchmark workloads, on the inputs above
PAPER_SCALE_COMMANDS = [
    ["analyze", "trace.csv", "--quiet", "--targets", "0.5,0.8", "--out", "skew.json"],
    ["sweep", "trace.csv", "--quiet", "--footprint", "256MiB", "--out", "sweep.csv",
     "--sizes", ",".join(f"{256 << i}MiB" for i in range(12))],
    ["partition", "profiles.csv", "trace.csv", "--quiet", "--strategy", "round_robin",
     "--groups-per-runtime", "4", "--workers", "16", "--out", "partition.json"],
    ["simulate", "trace.csv", "profiles.csv", "partition.json", "--quiet", "--out", "result.json"],
]
PAPER_SCALE_DIGESTS = {
    "skew.json": "9f05dd8f733b7e94e8816d1d231f1edfa5354bd8972e865a2c05c79790b27d12",
    "sweep.csv": "cfe9e85ae77762956bd4bd9af94262d9df1a1082d3dc1470a90d8400d0a5bdd7",
    "partition.json": "745e5ae998bafc52c89b8ae01a838287cdc45ed4de6ce135e250ec3737cc5ff4",
    "result.json": "f328579e467be05681061f86b596f7a2e3aa06c9361bbc3b38af278ec43898d1",
}


def test_paper_scale_workload_outputs_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(PAPER_SCALE_GENERATE + ["--out", "trace.csv", "--profiles-out", "profiles.csv"]) == 0
    for argv in PAPER_SCALE_COMMANDS:
        assert cli.main(argv) == 0, argv[0]
    for name, digest in PAPER_SCALE_DIGESTS.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
