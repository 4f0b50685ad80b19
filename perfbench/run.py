#!/usr/bin/env python3
"""coldsim benchmark: timed CLI command sequences on seeded workloads.

Usage, from the root of a coldsim checkout:

    python3 perfbench/run.py --workload skew-sweep --seed 1 --seconds 10 --trace 0

A run generates the workload's inputs with ``coldsim generate`` several
times (the median is ``setup_s``), then runs the workload's two timed
commands in a fresh process through ``coldsim.cli.main``. Each command
repeats until it has used ``--seconds`` (at least once); its time is the
median of its repetitions, and ``wall_s`` is the sum of those medians.
Afterwards the run checks every output with the benchmark's own code,
compares output digests with the first run of the same code and seed, and
prints one JSON result as the last line of stdout.

With ``--trace 1`` it runs each command once untraced and then once with
layer wrappers (``tracer.py``), requires both to write identical bytes, and
reports the per-layer metrics instead of the end-to-end ones.

Everything it writes goes under ``.perfbench/`` in the checkout:
``<workload>/record.json`` (environment, per-command times, check results,
digests), ``<workload>/spans.json`` (traced runs) and ``reference/`` (the
digests of the first run of each code and seed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
from child import sha256_of

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
DEADLINE_S = 170  # a run must end within 180 s, checks included

PAPER_SCALE = ["--functions", "5266", "--requests", "798075", "--duration", "86400000"]
MODERATE_SCALE = ["--functions", "1000", "--requests", "100000", "--duration", "3600000"]
TARGETS = [0.5, 0.8]
SWEEP_SIZES = [256 * 2**20 << i for i in range(12)]  # 256 MiB .. 512 GiB, doubling
SWEEP_CHECKED_SIZE = SWEEP_SIZES[6]  # 16 GiB = 64 entries, replayed by the own LRU
FOOTPRINT = 256 * 2**20
WORKERS = 16

# commands run in <workload>/plain or <workload>/traced, next to inputs/
TRACE = "../inputs/trace.csv"
PROFILES = "../inputs/profiles.csv"


def _partition(strategy):
    argv = [
        "partition", PROFILES, TRACE, "--quiet", "--strategy", strategy,
        "--groups-per-runtime", "4", "--workers", str(WORKERS), "--out", "partition.json",
    ]
    return ("partition", argv, ["partition.json", "partition.json.manifest.json"])


_SIMULATE = ["simulate", TRACE, PROFILES, "partition.json", "--quiet", "--out", "result.json"]

# name -> (generate scale, [(command, argv, files it writes)])
WORKLOADS = {
    "skew-sweep": (PAPER_SCALE, [
        ("analyze",
         ["analyze", TRACE, "--quiet", "--targets", ",".join(map(str, TARGETS)), "--out", "skew.json"],
         ["skew.json", "skew.json.manifest.json"]),
        ("sweep",
         ["sweep", TRACE, "--quiet", "--footprint", "256MiB", "--out", "sweep.csv",
          "--sizes", ",".join(f"{size // 2**20}MiB" for size in SWEEP_SIZES)],
         ["sweep.csv", "sweep.csv.manifest.json"]),
    ]),
    "sim-paper": (PAPER_SCALE, [
        _partition("round_robin"),
        ("simulate", _SIMULATE, ["result.json", "result.json.manifest.json"]),
    ]),
    # run by hand only: its simulation's time spreads too widely between runs
    # on a shared box for a bound of 0.25 (see README.md)
    "sim-moderate": (MODERATE_SCALE, [
        _partition("clustered"),
        ("simulate", _SIMULATE + ["--per-request", "per_request.csv"],
         ["result.json", "result.json.manifest.json", "per_request.csv"]),
    ]),
}


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def setup(cli, scale, seed, inputs, repeats):
    """Generate the inputs ``repeats`` times; returns each attempt's seconds."""
    argv = [
        "generate", "--quiet", *scale, "--zipf", "1.1", "--seed", str(seed),
        "--out", str(inputs / "trace.csv"), "--profiles-out", str(inputs / "profiles.csv"),
    ]
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        code = cli.main(argv)
        times.append(perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"coldsim generate exited {code}")
    return times


def run_child(root, rundir, commands, seconds, trace, started):
    """Run the timed commands in a fresh process; returns its JSON report."""
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    spec = rundir.parent / f"{rundir.name}.spec.json"
    spec.write_text(json.dumps({
        "commands": [[name, argv] for name, argv, _ in commands],
        "outputs": {name: outputs for name, _, outputs in commands},
        "seconds": seconds,
        "trace": trace,
        "side_file": str(rundir.parent / "spans.json"),
    }))
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("COLDSIM_THREADS", None)
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(spec)],
        cwd=rundir, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, DEADLINE_S - (perf_counter() - started)),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"timed process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _problems(check, *args):
    """A check's problems; an output it cannot read is a problem too."""
    try:
        return check(*args)
    except Exception as exc:  # malformed or missing output fails the command, not the run
        return [f"{check.__name__}: cannot read output: {exc!r}"]


def check_outputs(workload, rundir, inputs, root):
    """Problems found in each command's outputs, keyed by command name."""
    if workload == "skew-sweep":
        ids = checks.read_trace(inputs / "trace.csv")
        return {
            "analyze": _problems(checks.check_analyze, rundir / "skew.json", ids, TARGETS),
            "sweep": _problems(
                checks.check_sweep,
                rundir / "sweep.csv", ids, SWEEP_SIZES, FOOTPRINT, SWEEP_CHECKED_SIZE,
            ),
        }
    deps = checks.read_profiles(inputs / "profiles.csv")
    per_request = rundir / "per_request.csv" if workload == "sim-moderate" else None
    # simulate runs with the default latency model, which is this preset
    model = json.loads((root / "presets" / "fig1_calibration.json").read_text())
    return {
        "partition": _problems(checks.check_partition, rundir / "partition.json", deps, WORKERS),
        "simulate": _problems(
            checks.check_simulate,
            rundir / "result.json", checks.count_rows(inputs / "trace.csv"), per_request,
            model["unpause_ms"],
        ),
    }


def count_failed(report, problems, reference):
    """Repetitions that exited non-zero, failed a check, or wrote other bytes than ``reference``."""
    failed = 0
    for run in report["commands"]:
        name = run["name"]
        for code, digests in zip(run["codes"], run["digests"]):
            differs = [path for path, digest in digests.items() if digest != reference.get(path)]
            if code != 0:
                log(f"FAILED {name}: exit status {code}")
            if differs:
                log(f"FAILED {name}: {', '.join(differs)} differ from the reference digests")
            failed += bool(code != 0 or problems[name] or differs)
    return failed


def last_digests(report):
    return {path: d for run in report["commands"] for path, d in run["digests"][-1].items()}


def tree_digest(base, pattern):
    """SHA-256 over the names and bytes of the files under ``base`` matching ``pattern``."""
    digest = hashlib.sha256()
    for path in sorted(base.rglob(pattern)):
        digest.update(path.relative_to(base).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def commit_of(root):
    """HEAD's commit, or None when the checkout is not a git repository."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root, seed):
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        # the sweep's thread count with COLDSIM_THREADS unset, as cmd_sweep resolves it
        "sweep_threads": os.cpu_count() or 1,
        "seed": seed,
        "commit": commit_of(root),
        "source_sha256": tree_digest(root / "src", "*.py"),
        "platform": platform.platform(),
    }


def command_seconds(report):
    """Median seconds of each command's repetitions."""
    return {run["name"]: statistics.median(run["seconds"]) for run in report["commands"]}


def wall_of(report):
    """The timed sequence's seconds: the sum of its commands' medians."""
    return sum(command_seconds(report).values())


def per_layer(traced, plain_wall, rundir, inputs, problems):
    """Per-layer metrics from the traced process and the outputs it wrote."""
    layers = traced["layers"]
    spans, calls, counts, peaks = layers["spans"], layers["calls"], layers["counts"], layers["peaks_mib"]

    def span(name, field="seconds"):
        return spans.get(name, {}).get(field, 0)

    def call(name, field="seconds"):
        return calls.get(name, {}).get(field, 0)

    m = {
        "traces.load_trace_s": span("traces.load_trace"),
        "traces.load_trace_calls": span("traces.load_trace", "calls"),
        "traces.rows_parsed": counts.get("traces.rows_parsed", 0),
        "traces.load_profiles_s": span("traces.load_profiles"),
        "traces.popularity_cdf_s": span("traces.popularity_cdf"),
        "traces.request_counts_s": span("traces.request_counts"),
        "traces.load_trace_peak_mib": peaks.get("traces.load_trace", 0.0),
        "locality.build_dependency_graph_s": span("locality.build_dependency_graph"),
        "locality.graph_edges": counts.get("locality.graph_edges", 0),
        "locality.partition_clustered_s": span("locality.partition_clustered"),
        "locality.partition_round_robin_s": span("locality.partition_round_robin"),
        "caches.classify_request_s": call("caches.classify_request"),
        "caches.classify_request_calls": call("caches.classify_request", "calls"),
        "caches.best_node_s": call("caches.best_node"),
        "caches.best_node_calls": call("caches.best_node", "calls"),
        "caches.import_insert_s": call("caches.import_insert"),
        "caches.import_insert_calls": call("caches.import_insert", "calls"),
        "caches.import_evictions": counts.get("caches.import_evictions", 0),
        "caches.handler_insert_s": call("caches.handler_insert"),
        "caches.handler_evictions": counts.get("caches.handler_evictions", 0),
        "caches.install_evictions": counts.get("caches.install_evictions", 0),
        "caches.init_latency_s": call("caches.init_latency"),
        "sim.run_s": span("sim.run"),
        "sim.run_self_s": span("sim.run", "self_seconds"),
        "sim.queue_len_s": call("sim.queue_len"),
        "sim.queue_len_calls": call("sim.queue_len", "calls"),
        "sim.expire_handler_s": call("sim.expire_handler"),
        "sim.run_peak_mib": peaks.get("sim.run", 0.0),
        "sim.sweep_cache_sizes_s": span("sim.sweep_cache_sizes"),
        "sim.lru_replays": span("sim.lru_replay", "calls"),
        "sim.lru_replay_s": span("sim.lru_replay"),
        "cli.write_per_request_s": span("cli.write_per_request"),
        "cli.output_bytes": sum(p.stat().st_size for p in rundir.iterdir()),
        "tracing.overhead_s": wall_of(traced) - plain_wall,
    }
    for command in ("analyze", "sweep", "partition", "simulate"):
        m[f"cli.{command}_self_s"] = span(f"cli.{command}", "self_seconds")

    if problems.get("partition") == []:  # ran and passed its checks
        groups = [g["functions"] for g in json.loads((rundir / "partition.json").read_text())["groups"]]
        deps = checks.read_profiles(inputs / "profiles.csv")
        m["locality.groups"] = len(groups)
        m["locality.largest_group_frac"] = max(map(len, groups)) / len(deps)
        m["locality.intra_group_similarity"] = checks.intra_group_similarity(groups, deps)
    if problems.get("simulate") == []:
        result = json.loads((rundir / "result.json").read_text())
        rates = result["hit_rate_by_tier"]
        m.update({
            "caches.requests": result["requests"],
            "caches.handler_hit_rate": rates["HandlerHit"],
            "caches.import_hit_rate": rates["ImportHit"],
            "caches.install_hit_rate": rates["InstallHit"],
            "caches.miss_rate": rates["Miss"],
            "sim.cold_start_fraction": result["cold_start_fraction"],
            "sim.mean_init_ms": result["mean_init_ms"],
            "sim.p99_init_ms": result["p99_init_ms"],
        })
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()

    root = Path.cwd()
    if not (root / "src" / "coldsim" / "cli.py").is_file() or not (root / "BENCHMARK.json").is_file():
        log(f"{root} holds no coldsim sources; run from the root of a checkout")
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(root / "src"))
    from coldsim import cli

    scale, commands = WORKLOADS[args.workload]
    names = [name for name, _, _ in commands]
    work = root / ".perfbench" / args.workload
    inputs = work / "inputs"
    shutil.rmtree(work, ignore_errors=True)
    inputs.mkdir(parents=True)
    env = environment(root, args.seed)

    # set-up time is only reported untraced
    setup_times = setup(cli, scale, args.seed, inputs, 1 if args.trace else SETUP_REPEATS)
    log(f"{args.workload} seed {args.seed}: set-up {[round(t, 3) for t in setup_times]} s")
    input_digests = {f"../inputs/{p.name}": sha256_of(p) for p in sorted(inputs.iterdir())}

    # a traced run measures one untraced repetition of each command right
    # before the traced one, so that the overhead is not a drift of the box
    plain = run_child(
        root, work / "plain", commands, 0 if args.trace else args.seconds, False, started
    )
    problems = check_outputs(args.workload, work / "plain", inputs, root)
    # the program's and the benchmark's code both decide what the outputs are
    code = hashlib.sha256((env["source_sha256"] + tree_digest(HERE, "*.py")).encode()).hexdigest()
    reference_path = root / ".perfbench" / "reference" / f"{args.workload}-seed{args.seed}-{code[:16]}.json"
    if reference_path.exists():
        reference = json.loads(reference_path.read_text())
    else:
        reference = {**last_digests(plain), **input_digests}
        reference_path.parent.mkdir(parents=True, exist_ok=True)
        reference_path.write_text(json.dumps(reference, indent=1, sort_keys=True))
    failed = count_failed(plain, problems, reference)
    attempted = sum(len(run["codes"]) for run in plain["commands"])
    command_s = command_seconds(plain)
    wall = wall_of(plain)
    record = {
        "workload": args.workload,
        "environment": env,
        "setup_s": setup_times,
        "commands": plain["commands"],
        "command_s": command_s,
        "wall_s": wall,
        "peak_rss_mib": plain["peak_rss_mib"],
    }
    log(f"{args.workload}: {json.dumps(command_s)}, peak RSS {plain['peak_rss_mib']:.1f} MiB")

    if args.trace:
        traced = run_child(root, work / "traced", commands, 0, True, started)
        # identical bytes make the plain run's checks hold for the traced run too
        failed += count_failed(traced, problems, last_digests(plain))
        attempted += len(commands)
        wanted = spec["per_layer"]
        # layers a workload does not exercise read 0
        metrics = {m["name"]: 0 for m in wanted} | per_layer(
            traced, wall, work / "traced", inputs, problems
        )
        record.update(traced_commands=traced["commands"], per_layer=metrics)
    else:
        wanted = spec["end_to_end"]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall,
            "first_cmd_s": command_s[names[0]],
            "second_cmd_s": command_s[names[1]],
            "peak_rss_mib": plain["peak_rss_mib"],
        }

    record.update(input_digests=input_digests, reference=reference, problems=problems)
    if any(digest != reference.get(path) for path, digest in input_digests.items()):
        log("FAILED: generated inputs differ from an earlier run of the same source and seed")
        failed = attempted
    for name in names:
        for problem in problems[name]:
            log(f"FAILED {name}: {problem}")
    (work / "record.json").write_text(json.dumps(record, indent=1, sort_keys=True))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
