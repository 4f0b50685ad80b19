"""Command-line interface: analyze, generate, partition, simulate, sweep.

Data goes to stdout or ``--out``; diagnostics go to stderr. Exit status is
0 on success, 2 on usage or input errors, 1 on internal errors. Commands
that write files also write a ``<out>.manifest.json`` recording the resolved
configuration, so re-runs with identical inputs are byte-reproducible. A
command that fails removes every file it opened, its manifest included.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
from contextlib import ExitStack, contextmanager
from dataclasses import fields

from . import __version__
from .caches import LatencyModel
from .locality import (
    Partition,
    build_dependency_graph,
    partition_clustered,
    partition_round_robin,
)
from .sim import (
    DEFAULT_FOOTPRINT_BYTES,
    RoutingPolicy,
    SimConfig,
    run,
    sweep_cache_sizes,
    write_per_request_csv,
)
from .traces import (
    DEFAULT_THRESHOLD_TARGETS,
    SyntheticTraceSpec,
    check_exponent,
    check_profile_name,
    check_target,
    function_name,
    generate_synthetic,
    load_profiles,
    load_trace,
    popularity_cdf,
    request_counts,
    synthesize_profiles,
    write_profiles,
    write_trace,
)

_SIZE_RE = re.compile(r"^\s*(\d+)\s*(B|KIB|MIB|GIB|TIB)?\s*$", re.IGNORECASE)
_SIZE_FACTORS = {"B": 1, "KIB": 1024, "MIB": 1024**2, "GIB": 1024**3, "TIB": 1024**4}


def parse_size(text: str) -> int:
    """Exact byte count from a decimal count with an optional IEC suffix."""
    match = _SIZE_RE.match(text)
    if not match:
        raise ValueError(f"unparseable size: {text!r}")
    return int(match.group(1)) * _SIZE_FACTORS[(match.group(2) or "B").upper()]


def _positive_size(text: str) -> int:
    size = parse_size(text)
    if size < 1:
        raise ValueError(f"size must be at least 1 byte: {text!r}")
    return size


def _flag_type(parse, comma_separated: bool = False):
    """argparse ``type``: ``parse`` of the value, or of each comma-separated part; a ValueError names the flag."""
    def convert(text: str):
        try:
            if not comma_separated:
                return parse(text)
            parts = [parse(part) for part in text.split(",") if part.strip()]
            if not parts:
                raise ValueError(f"no comma-separated value in {text!r}")
            return parts
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


@contextmanager
def _output_files(paths: list[str]):
    """Each path opened for writing; a block that fails keeps none of them: each file opened is removed."""
    handles = []
    try:
        with ExitStack() as stack:
            for path in paths:
                handles.append(stack.enter_context(open(path, "w", encoding="utf-8", newline="\n")))
            yield handles
    except BaseException:
        for path in paths[:len(handles)]:  # only those opened, and so replaced, by this command
            os.remove(path)
        raise


def _path(args, label: str):
    """The path given for a flag or positional: "--per-request" -> args.per_request."""
    return getattr(args, label.lstrip("-").replace("-", "_"))


def _named(args, labels) -> list[tuple[str, str]]:
    """(label, path) of each flag or positional in ``labels`` given a path."""
    return [(label, _path(args, label)) for label in labels if _path(args, label)]


def _read(args, label: str, load):
    """``load`` of the path of ``label``, an input that ``reads`` declares; a ValueError names the input and path."""
    path = _path(args, label)
    try:
        return load(path)
    except ValueError as exc:
        raise ValueError(f"{label} {path}: {exc}") from None


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _outputs(args) -> list[tuple[str, str]]:
    """(label, path) of each file the command writes: its outputs as declared, then the manifest of the first."""
    outputs = _named(args, args.writes)
    if outputs:
        outputs.append((f"the manifest of {outputs[0][0]}", outputs[0][1] + ".manifest.json"))
    return outputs


def _check_paths(args) -> None:
    """Refuse, before anything is read or written, an output path that names another output or an input."""
    seen = {os.path.realpath(path): label for label, path in _named(args, args.reads)}
    for label, path in _outputs(args):
        real = os.path.realpath(path)
        if real in seen:
            raise ValueError(f"{label} and {seen[real]} name the same file: {path}")
        seen[real] = label


@contextmanager
def _writing(args, parameters: dict):
    """The command's output streams keyed by flag, ``--out`` being stdout when it is not given.

    Every output file and the manifest are opened together; the manifest is
    written when the block ends. If anything fails, each file opened is removed.
    """
    outputs = _outputs(args)
    with _output_files([path for _, path in outputs]) as handles:
        streams = dict(zip([label for label, _ in outputs], handles))
        streams.setdefault("--out", sys.stdout)
        yield streams
        if outputs:
            inputs = [path for _, path in _named(args, args.reads)]
            run_config = {"command": args.command, "parameters": parameters, "inputs": inputs}
            manifest = {"command": args.command, "input_paths": inputs, "tool_version": __version__,
                        "output_paths": [path for _, path in outputs[:-1]],
                        "config_digest": hashlib.sha256(json.dumps(run_config, sort_keys=True).encode()).hexdigest()}
            if getattr(args, "seed", None) is not None:  # only generate draws random numbers
                manifest["seed"] = args.seed
            handles[-1].write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    if not args.quiet:
        for _, path in outputs[:-1]:
            print(f"wrote {path}", file=sys.stderr)


def cmd_analyze(args) -> None:
    trace = _read(args, "trace", load_trace)
    summary = popularity_cdf(trace, args.targets)
    with _writing(args, {"targets": args.targets}) as streams:
        streams["--out"].write(summary.to_json() + "\n")


def _check_generate_flags(args) -> None:
    """Refuse, naming the flag, a value the generator would refuse; the library keeps its own checks.

    A ``--duration`` past the largest window is refused by ``SyntheticTraceSpec``, whose message gives that bound.
    """
    for flag, name, value, least in (
        ("--functions", "num_functions", args.functions, 1),
        ("--requests", "num_requests", args.requests, 1),
        ("--duration", "duration_ms", args.duration, 1),
        ("--catalog-size", "catalog_size", args.catalog_size, 1),
        ("--seed", "seed", args.seed, 0),
    ):
        if value < least:
            raise ValueError(f"{flag}: {name} must be >= {least}, not {value}")
    if not 0 <= args.deps_min <= args.deps_max:
        raise ValueError(
            f"--deps-min and --deps-max must satisfy 0 <= min <= max, not {args.deps_min} and {args.deps_max}"
        )
    if args.deps_max > args.catalog_size:
        raise ValueError(f"--deps-max {args.deps_max} exceeds --catalog-size {args.catalog_size}")


def cmd_generate(args) -> None:
    if not args.out:
        raise ValueError("generate requires --out for the trace CSV")
    _check_generate_flags(args)
    spec = SyntheticTraceSpec(
        num_functions=args.functions,
        num_requests=args.requests,
        zipf_exponent=args.zipf,
        duration_ms=args.duration,
        seed=args.seed,
    )
    trace = generate_synthetic(spec)
    universe = [function_name(r, args.functions) for r in range(args.functions)]
    profiles = synthesize_profiles(
        universe,
        catalog_size=args.catalog_size,
        deps_per_function=(args.deps_min, args.deps_max),
        package_zipf_exponent=args.package_zipf,
        seed=args.seed,
        runtime=args.runtime,
    )
    parameters = {
        "functions": args.functions,
        "requests": args.requests,
        "zipf": args.zipf,
        "duration_ms": args.duration,
        "catalog_size": args.catalog_size,
        "deps_min": args.deps_min,
        "deps_max": args.deps_max,
        "package_zipf": args.package_zipf,
        "runtime": args.runtime,
        "seed": args.seed,
    }
    with _writing(args, parameters) as streams:
        write_trace(trace, streams["--out"])
        write_profiles(profiles, streams["--profiles-out"])


def cmd_partition(args) -> None:
    profiles = _read(args, "profiles", load_profiles)
    trace = _read(args, "trace", load_trace)
    popularity = request_counts(trace)
    if args.weight_by_duration:
        durations = {p.function_id: p.exec_duration_ms for p in profiles}
        popularity = {f: c * max(1, durations.get(f, 1)) for f, c in popularity.items()}
    if args.strategy == "round_robin":
        partition = partition_round_robin(
            profiles, args.groups_per_runtime, args.workers, popularity
        )
    else:
        graph = build_dependency_graph(profiles)
        partition = partition_clustered(
            graph, profiles, args.groups_per_runtime, args.workers, popularity
        )
    parameters = {
        "groups_per_runtime": args.groups_per_runtime,
        "workers": args.workers,
        "strategy": args.strategy,
        "weight_by_duration": args.weight_by_duration,
    }
    with _writing(args, parameters) as streams:
        streams["--out"].write(json.dumps(partition.to_dict(), sort_keys=True, indent=2) + "\n")


def _config_int(key: str, value) -> int:
    """``int(value)`` of a simulation config value; a value it cannot take names ``key``.

    A boolean or a non-integral float is refused rather than truncated; an
    integral float such as ``1e9`` reads as its integer.
    """
    if not isinstance(value, bool) and not (isinstance(value, float) and not value.is_integer()):
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{key} must be an integer, not {json.dumps(value)}")


def _config_size(key: str, value) -> int:
    if not isinstance(value, str):
        return _config_int(key, value)
    try:
        return parse_size(value)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def _config_routing_policy(key: str, value) -> RoutingPolicy:
    try:
        return RoutingPolicy(value)
    except ValueError:
        valid = ", ".join(policy.value for policy in RoutingPolicy)
        raise ValueError(f"{key} must be one of {valid}, not {json.dumps(value)}") from None


def _config_latency_model(key: str, phases) -> LatencyModel:
    if not isinstance(phases, dict):
        raise ValueError(f"{key} must be an object of phase costs")
    unknown = set(phases) - {f.name for f in fields(LatencyModel)}
    if unknown:
        raise ValueError(f"unknown {key} keys: {sorted(unknown)}")
    return LatencyModel(**{k: _config_int(f"{key}.{k}", v) for k, v in phases.items()})


def _config_footprint_overrides(key: str, overrides) -> dict[str, int]:
    if not isinstance(overrides, dict):
        raise ValueError(f"{key} must be an object of sizes")
    return {f: _config_size(f"{key}[{f!r}]", v) for f, v in overrides.items()}


# the one reader of each SimConfig field a config may set (the partition comes from its own file);
# a key absent from the config keeps SimConfig's default
_CONFIG_READERS = {
    "handler_capacity_bytes": _config_size,
    "install_capacity_bytes": _config_size,
    "import_max_nodes": _config_int,
    "keep_alive_ms": lambda key, value: None if value is None else _config_int(key, value),
    "latency_model": _config_latency_model,
    "routing_policy": _config_routing_policy,
    "footprint_bytes": _config_size,
    "footprint_overrides": _config_footprint_overrides,
    "package_size_bytes": _config_size,
}


def _build_sim_config(partition: Partition, payload: dict) -> SimConfig:
    if not isinstance(payload, dict):
        raise ValueError("simulation config must be a JSON object")
    unknown = set(payload) - set(_CONFIG_READERS)
    if unknown:
        raise ValueError(f"unknown simulation config keys: {sorted(unknown)}")
    return SimConfig(partition, **{key: _CONFIG_READERS[key](key, value) for key, value in payload.items()})


def cmd_simulate(args) -> None:
    trace = _read(args, "trace", load_trace)
    profiles = _read(args, "profiles", load_profiles)
    partition = _read(args, "partition", lambda path: Partition.from_dict(_load_json(path)))
    payload = _read(args, "--config", _load_json) if args.config else {}
    config = _build_sim_config(partition, payload)
    # the run streams per-request rows, so every output is opened before it; a run that fails keeps none
    with _writing(args, {"config": payload}) as streams:
        per_request = streams.get("--per-request")
        consumer = None if per_request is None else write_per_request_csv(per_request, trace, profiles, config)
        result = run(trace, profiles, config, consumer)
        streams["--out"].write(result.to_json() + "\n")


def cmd_sweep(args) -> None:
    if min(args.sizes) < args.footprint:
        raise ValueError(f"--sizes: cache size {min(args.sizes)} smaller than footprint {args.footprint}")
    trace = _read(args, "trace", load_trace)
    rows = sweep_cache_sizes(trace, args.sizes, args.footprint)
    lines = ["cache_bytes,hit_rate"]
    lines.extend(f"{size},{rate:.6f}" for size, rate in rows)
    with _writing(args, {"sizes": sorted(args.sizes), "footprint_bytes": args.footprint}) as streams:
        streams["--out"].write("\n".join(lines) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coldsim",
        description="Trace-driven cold-start simulator and workload analyzer.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the primary output to this file (default: stdout)")
    common.add_argument("--quiet", action="store_true", help="suppress progress messages")

    p = sub.add_parser("analyze", parents=[common], help="popularity CDF and coverage thresholds")
    p.add_argument("trace", help="normalized trace CSV")
    p.add_argument("--targets", default=",".join(map(str, DEFAULT_THRESHOLD_TARGETS)),
                   type=_flag_type(lambda text: check_target(float(text)), comma_separated=True),
                   help="request fractions, comma-separated (default: %(default)s)")
    p.set_defaults(func=cmd_analyze, reads=("trace",), writes=("--out",))

    p = sub.add_parser("generate", parents=[common], help="synthetic trace and profile catalog")
    exponent = _flag_type(lambda text: check_exponent(float(text)))
    p.add_argument("--functions", type=int, required=True)
    p.add_argument("--requests", type=int, required=True)
    p.add_argument("--zipf", type=exponent, default=1.1, help="popularity skew exponent")
    p.add_argument("--duration", type=int, default=86_400_000, help="arrival window in ms")
    p.add_argument("--profiles-out", required=True, help="profile catalog CSV path")
    p.add_argument("--catalog-size", type=int, default=200, help="package catalog size")
    p.add_argument("--deps-min", type=int, default=1)
    p.add_argument("--deps-max", type=int, default=5)
    p.add_argument("--package-zipf", type=exponent, default=1.0)
    p.add_argument("--runtime", default="python", type=_flag_type(check_profile_name))
    p.add_argument("--seed", type=int, default=0, help="seed for the trace and the catalog")
    p.set_defaults(func=cmd_generate, reads=(), writes=("--out", "--profiles-out"))

    p = sub.add_parser("partition", parents=[common], help="build locality groups")
    p.add_argument("profiles", help="profile catalog CSV")
    p.add_argument("trace", help="normalized trace CSV (popularity source)")
    p.add_argument("--groups-per-runtime", type=int, required=True)
    p.add_argument("--workers", type=int, required=True)
    p.add_argument("--strategy", choices=("round_robin", "clustered"), default="clustered")
    p.add_argument(
        "--weight-by-duration",
        action="store_true",
        help="weight popularity by execution duration",
    )
    p.set_defaults(func=cmd_partition, reads=("profiles", "trace"), writes=("--out",))

    p = sub.add_parser("simulate", parents=[common], help="run the worker-level simulation")
    p.add_argument("trace")
    p.add_argument("profiles")
    p.add_argument("partition", help="partition JSON (see the partition command)")
    p.add_argument("--config", help="simulation config JSON")
    p.add_argument("--per-request", help="also write the per-request breakdown CSV here")
    p.set_defaults(func=cmd_simulate, reads=("trace", "profiles", "partition", "--config"),
                   writes=("--out", "--per-request"))

    p = sub.add_parser("sweep", parents=[common], help="global-LRU hit rate by cache size")
    p.add_argument("trace")
    p.add_argument("--sizes", required=True, type=_flag_type(_positive_size, comma_separated=True),
                   help="comma-separated sizes, e.g. 1GiB,2GiB")
    p.add_argument("--footprint", default=DEFAULT_FOOTPRINT_BYTES, type=_flag_type(_positive_size),
                   help="per-instance footprint")
    p.set_defaults(func=cmd_sweep, reads=("trace",), writes=("--out",))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_paths(args)
        args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
