"""Trace-driven cold-start simulator: workload skew analysis, locality-group
partitioning, three-tier cache modeling, and deterministic simulation."""

__version__ = "0.1.0"

from .traces import (
    FunctionProfile,
    SkewSummary,
    SyntheticTraceSpec,
    Trace,
    TraceParseError,
    generate_synthetic,
    parse_trace,
    popularity_cdf,
    request_counts,
    synthesize_profiles,
)
from .locality import (
    DependencyGraph,
    LocalityGroup,
    Partition,
    allocate_workers,
    build_dependency_graph,
    partition_clustered,
    partition_round_robin,
)
from .caches import (
    CacheLookupResult,
    HandlerCache,
    ImportCacheTree,
    InstallCache,
    LatencyBreakdown,
    LatencyModel,
    Tier,
    classify_request,
    init_latency,
)
from .sim import (
    RoutingPolicy,
    SimConfig,
    SimResult,
    run,
    simple_lru_hit_rate,
    sweep_cache_sizes,
)

__all__ = [
    "CacheLookupResult",
    "DependencyGraph",
    "FunctionProfile",
    "HandlerCache",
    "ImportCacheTree",
    "InstallCache",
    "LatencyBreakdown",
    "LatencyModel",
    "LocalityGroup",
    "Partition",
    "RoutingPolicy",
    "SimConfig",
    "SimResult",
    "SkewSummary",
    "SyntheticTraceSpec",
    "Tier",
    "Trace",
    "TraceParseError",
    "allocate_workers",
    "build_dependency_graph",
    "classify_request",
    "generate_synthetic",
    "init_latency",
    "parse_trace",
    "partition_clustered",
    "partition_round_robin",
    "popularity_cdf",
    "request_counts",
    "run",
    "simple_lru_hit_rate",
    "sweep_cache_sizes",
    "synthesize_profiles",
]
