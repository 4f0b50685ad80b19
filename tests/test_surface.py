"""Every function ``src/coldsim`` defines is reached by a command, or has a named reason to stay.

One pass of all five commands through ``cli.main``, on a small generated
workload, runs under ``sys.setprofile``. The functions it never enters must
be exactly ``UNREACHED``: a function that only tests call fails here, and so
does an entry that a command now reaches. Functions are read from each
module's compiled source and matched by file, first line and name, so
module-level lambdas count and the methods ``dataclass`` and ``NamedTuple``
write do not; comprehensions and generator expressions are parts of their
function, not functions of their own.
"""

import inspect
import json
import os
import sys
from pathlib import Path

import coldsim
from coldsim import cli

ORACLE_VIEW = "tests/reference.py's oracles compare it after every operation; no public view gives that state"

UNREACHED = {
    "caches.HandlerCache.entries": ORACLE_VIEW,
    "caches._ByteLRU.__len__": ORACLE_VIEW,
    "caches._ByteLRU.used_bytes": ORACLE_VIEW,
    "caches.ImportCacheTree.node_ids": ORACLE_VIEW,
    "caches.ImportCacheTree.packages": ORACLE_VIEW,
    "caches.ImportCacheTree.parent": ORACLE_VIEW,
    "caches.ImportCacheTree.depth": ORACLE_VIEW,
    "caches.ImportCacheTree.__len__": "perfbench/tracer.py counts import evictions by the tree's length",
    "sim.simple_lru_hit_rate": "perfbench/tracer.py wraps it as the sim.lru_replay span",
    "locality.mean_intra_group_similarity": "scripts/experiment.py writes it as the intra_group_similarity column",
    "traces.Trace.__init__": "the checked constructor; the parse and the generator build traces unchecked",
    "traces.Trace.__eq__": "traces compare equal by their columns",
    "traces.Trace.__repr__": "a trace prints its size, not its rows",
    "traces.Trace.__setattr__": "a trace is immutable: setting an attribute raises",
}

NESTED_PARTS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def code_key(code) -> tuple:
    return os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name


def defined_functions() -> dict:
    """The qualified name of each function, lambda included, that a ``coldsim`` source file defines, by ``code_key``."""
    found = {}

    def walk(code, name):
        for const in code.co_consts:
            if inspect.iscode(const):
                part = const.co_name in NESTED_PARTS
                inner = name if part else f"{name}.{const.co_name}"
                if const.co_flags & inspect.CO_OPTIMIZED and not part:  # not a class body
                    found[code_key(const)] = inner
                walk(const, inner)

    for path in Path(coldsim.__file__).parent.glob("*.py"):
        walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), path.stem)
    return found


def run_every_command(tmp_path) -> None:
    def main(*argv):
        assert cli.main([*map(str, argv), "--quiet"]) == 0, argv

    trace, profiles = tmp_path / "trace.csv", tmp_path / "profiles.csv"
    # 3,000 requests of 63 ms each in one minute keep four workers' queues long
    main("generate", "--functions", 30, "--requests", 3000, "--duration", 60_000, "--zipf", 1.1,
         "--catalog-size", 20, "--deps-min", 0, "--deps-max", 3, "--seed", 2,
         "--out", trace, "--profiles-out", profiles)
    for strategy in ("round_robin", "clustered"):
        main("partition", profiles, trace, "--strategy", strategy, "--weight-by-duration",
             "--groups-per-runtime", 3, "--workers", 4, "--out", tmp_path / f"{strategy}.json")
    first_id = trace.read_text().splitlines()[1].split(",")[1]
    configs = {
        policy: {"routing_policy": policy, "keep_alive_ms": None, "import_max_nodes": 0,
                 "latency_model": {"download_ms_per_package": 7}, "footprint_overrides": {first_id: "64MiB"}}
        for policy in ("HandlerAffinity", "LeastLoaded")
    }
    configs["busy"] = {"routing_policy": "LeastLoaded", "handler_capacity_bytes": "512MiB"}
    for name, config in configs.items():
        path = tmp_path / f"{name}.config.json"
        path.write_text(json.dumps(config))
        main("simulate", trace, profiles, tmp_path / "clustered.json", "--config", path,
             "--per-request", tmp_path / f"{name}.csv", "--out", tmp_path / f"{name}.json")
    main("sweep", trace, "--sizes", "256MiB,1GiB", "--out", tmp_path / "sweep.csv")
    lines = trace.read_text().splitlines()
    lines[1] = "+" + lines[1]  # a sign is not canonical, so the row loop parses this block
    odd = tmp_path / "odd.csv"
    odd.write_text("\n".join(lines) + "\n")
    main("analyze", odd, "--out", tmp_path / "skew.json")


def test_every_function_is_reached_or_has_a_reason(tmp_path):
    functions = defined_functions()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run_every_command(tmp_path)
    finally:
        sys.setprofile(previous)
    reached = {code_key(code) for code in entered}
    unreached = {name for key, name in functions.items() if key not in reached}
    assert sorted(unreached - UNREACHED.keys()) == [], "only tests reach these"
    assert sorted(UNREACHED.keys() - unreached) == [], "a command reaches these"
