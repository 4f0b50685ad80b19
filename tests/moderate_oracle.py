"""Check ``run`` against the whole-run reference on the README's moderate workload.

Usage, from the root of a checkout:

    PYTHONPATH=src python tests/moderate_oracle.py

It generates the README's moderate workload (1,000 functions, 100,000
requests over 1 h, seed 1), partitions it round-robin into 4 groups per
runtime on 16 workers, and simulates it under the default configuration
with ``coldsim.sim.run`` and with ``reference.reference_run``. It exits 1
unless ``run``'s per-request CSV equals, byte for byte, the one
``reference.reference_per_request_text`` writes from the reference's
outcomes, and unless ``run`` without a consumer, which splits the groups
into one shard per usable CPU and forks all but one, gives the same result
JSON as the per-request run, which takes one shard in process.

The hypothesis tests compare them on runs whose import trees stop at 4
nodes; here the trees reach the default 64, so the import tree's index is
checked at the size a real run gives it. The reference takes several times
as long as ``run``, so this is kept out of the test suite.
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

from reference import reference_per_request_text, reference_run  # this script's directory is first on sys.path

from coldsim import cli
from coldsim.locality import Partition
from coldsim.sim import SimConfig, _shards, run, write_per_request_csv
from coldsim.traces import load_profiles, load_trace


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        trace_path, profiles_path, partition_path = (str(Path(tmp) / name) for name in
                                                     ("wl.csv", "wl_profiles.csv", "partition.json"))
        for argv in (
            ["generate", "--quiet", "--functions", "1000", "--requests", "100000", "--zipf", "1.1",
             "--duration", "3600000", "--seed", "1", "--out", trace_path, "--profiles-out", profiles_path],
            ["partition", profiles_path, trace_path, "--quiet", "--strategy", "round_robin",
             "--groups-per-runtime", "4", "--workers", "16", "--out", partition_path],
        ):
            if cli.main(argv) != 0:
                print(f"coldsim {argv[0]} failed")
                return 1
        trace, profiles = load_trace(trace_path), load_profiles(profiles_path)
        config = SimConfig(Partition.from_dict(json.loads(Path(partition_path).read_text())))

    start = perf_counter()
    buffer = io.StringIO()
    result = run(trace, profiles, config, write_per_request_csv(buffer, trace, profiles, config))
    run_s = perf_counter() - start
    start = perf_counter()
    sharded = run(trace, profiles, config)
    sharded_s = perf_counter() - start
    shards = len(_shards(trace, config.partition.function_to_group(), None))
    start = perf_counter()
    outcomes = reference_run(trace, profiles, config)
    reference_s = perf_counter() - start

    text, expected_text = buffer.getvalue(), reference_per_request_text(outcomes)
    lines, expected_lines = text.splitlines(), expected_text.splitlines()
    differ = next((i for i, (line, expected) in enumerate(zip(lines, expected_lines)) if line != expected), None)
    counts = {tier: n for tier, n in result.tier_counts.items() if n}
    print(f"run {run_s:.1f} s with the per-request CSV, {sharded_s:.1f} s without it in {shards} shard(s), "
          f"reference {reference_s:.1f} s")
    print(f"tier counts {counts}, reference {dict(Counter(o.tier.value for o in outcomes))}")
    print(f"per-request CSV {len(text)} characters in {len(lines)} lines, reference {len(expected_text)} in "
          f"{len(expected_lines)}" + ("" if differ is None else f"; line {differ + 1} differs"))
    same = sharded.to_json() == result.to_json()
    print("result JSON without the per-request CSV " + ("equal" if same else "differs"))
    return 0 if text == expected_text and same else 1


if __name__ == "__main__":
    sys.exit(main())
