#!/usr/bin/env python3
"""Compare round-robin and dependency-clustered locality groups.

For a synthetic workload, reports the mean intra-group dependency similarity
of both strategies and the tier hit rates each one achieves in simulation.
Clustering concentrates shared dependencies inside groups, which shows up as
more import- and install-tier hits on the same per-worker cache budget.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from coldsim import (
    SimConfig,
    SyntheticTraceSpec,
    build_dependency_graph,
    generate_synthetic,
    partition_clustered,
    partition_round_robin,
    request_counts,
    run,
    synthesize_profiles,
)
from coldsim.locality import mean_intra_group_similarity


def evaluate(name, partition, trace, profiles, graph, import_nodes):
    score = mean_intra_group_similarity((g.function_ids for g in partition.groups), graph)
    config = SimConfig(partition=partition, import_max_nodes=import_nodes, keep_alive_ms=60_000)
    result = run(trace, profiles, config)
    rates = result.hit_rate_by_tier
    print(f"{name:12s} intra-group similarity {score:.3f}  "
          f"handler {rates['HandlerHit']:.3f}  import {rates['ImportHit']:.3f}  "
          f"install {rates['InstallHit']:.3f}  miss {rates['Miss']:.3f}  "
          f"mean init {result.mean_init_ms:.0f} ms")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--functions", type=int, default=300)
    parser.add_argument("--requests", type=int, default=30_000)
    parser.add_argument("--zipf", type=float, default=1.1)
    parser.add_argument("--groups", type=int, default=6)
    parser.add_argument("--workers", type=int, default=18)
    parser.add_argument("--import-nodes", type=int, default=16)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    spec = SyntheticTraceSpec(args.functions, args.requests, args.zipf, 3_600_000, args.seed)
    trace = generate_synthetic(spec)
    profiles = synthesize_profiles(trace.names, catalog_size=80,
                                   deps_per_function=(1, 6), package_zipf_exponent=1.0,
                                   seed=args.seed)
    graph = build_dependency_graph(profiles)
    popularity = request_counts(trace)

    robin = partition_round_robin(profiles, args.groups, args.workers, popularity)
    clustered = partition_clustered(graph, profiles, args.groups, args.workers, popularity)
    print(f"{len(profiles)} functions, {len(trace)} requests, "
          f"{args.groups} groups, {args.workers} workers")
    evaluate("round_robin", robin, trace, profiles, graph, args.import_nodes)
    evaluate("clustered", clustered, trace, profiles, graph, args.import_nodes)


if __name__ == "__main__":
    main()
