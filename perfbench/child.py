"""Run one workload's timed CLI commands in a fresh process.

Usage: python3 child.py SPEC_JSON

The spec names the commands (argument lists for ``coldsim.cli.main``) in
the order they run, the files each writes, for how many seconds to repeat
each command (at least once), and whether to trace. The process must be
fresh and must not have produced the inputs, so its peak RSS belongs to the
timed commands alone. It prints one JSON object as its last stdout line:
each command's times, exit codes and output digests per repetition, and the
peak RSS. With tracing on it also writes the spans and per-call aggregates
to the spec's side file.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import traceback
from time import perf_counter


def sha256_of(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def digest_or_none(path):
    try:
        return sha256_of(path)
    except OSError:
        return None


def run_command(main, argv):
    try:
        return main(argv)
    except Exception:  # one failed command must not hide the others' results
        traceback.print_exc()
        return 1


def main():
    with open(sys.argv[1], "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    from coldsim import cli  # imported before any timing

    tracer = None
    if spec["trace"]:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    runs = []
    for name, argv in spec["commands"]:
        run = {"name": name, "seconds": [], "codes": [], "digests": []}
        while True:
            t0 = perf_counter()
            if tracer is None:
                code = run_command(cli.main, argv)
            else:
                code = tracer.span(f"cli.{name}", run_command, cli.main, argv)
            run["seconds"].append(perf_counter() - t0)
            run["codes"].append(code)
            run["digests"].append({path: digest_or_none(path) for path in spec["outputs"][name]})
            if sum(run["seconds"]) >= spec["seconds"]:
                break
        runs.append(run)

    report = {
        "commands": runs,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = {
            "spans": {
                name: {
                    "calls": tracer.span_count(name),
                    "seconds": tracer.span_total(name),
                    "self_seconds": tracer.span_total(name, "self_s"),
                }
                for name in sorted({s["name"] for s in tracer.spans})
            },
            "calls": {name: {"calls": c, "seconds": s} for name, (c, s) in sorted(tracer.calls.items())},
            "counts": dict(sorted(tracer.counts.items())),
            "peaks_mib": tracer.peaks_mib,
        }
        with open(spec["side_file"], "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans, **report["layers"]}, handle, indent=1)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
