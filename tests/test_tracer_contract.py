"""The benchmark's layer tracer must still find every attribute it patches.

``perfbench/tracer.py`` wraps named functions and methods of ``coldsim``
from outside. Renaming or moving one of them, or calling it under another
name, breaks traced benchmark runs; these tests make that fail here too.
"""

import importlib.util
import json

import pytest

from coldsim import caches, cli, sim

from conftest import REPO_ROOT


@pytest.fixture
def tracer_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", REPO_ROOT / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls(tracer_module):
    patched = {
        (sim, "classify_request"): sim.classify_request,
        (sim, "init_latency"): sim.init_latency,
        (caches.ImportCacheTree, "best_node"): caches.ImportCacheTree.best_node,
        (sim.Worker, "queue_len"): sim.Worker.queue_len,
        (cli, "run"): cli.run,
    }
    tracer = tracer_module.Tracer()
    tracer_module.install(tracer)
    try:
        for (owner, attr), original in patched.items():
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    for (owner, attr), original in patched.items():
        assert getattr(owner, attr) is original, attr


def test_traced_simulation_reaches_every_per_request_layer(tracer_module, tmp_path):
    trace, profiles = tmp_path / "trace.csv", tmp_path / "profiles.csv"
    partition, result = tmp_path / "partition.json", tmp_path / "result.json"
    assert cli.main([
        "generate", "--quiet", "--functions", "40", "--requests", "2000",
        "--duration", "600000", "--seed", "3",
        "--out", str(trace), "--profiles-out", str(profiles),
    ]) == 0
    assert cli.main([
        "partition", str(profiles), str(trace), "--quiet", "--strategy", "round_robin",
        "--groups-per-runtime", "2", "--workers", "4", "--out", str(partition),
    ]) == 0
    tracer = tracer_module.Tracer()
    tracer_module.install(tracer)
    try:
        assert cli.main([
            "simulate", str(trace), str(profiles), str(partition), "--quiet",
            "--out", str(result),
        ]) == 0
    finally:
        tracer.uninstall()
    assert tracer.span_count("sim.run") == 1
    for name in (
        "caches.classify_request",
        "caches.init_latency",
        "caches.best_node",
        "caches.import_insert",
        "caches.handler_insert",
        "caches.install_insert",
        "sim.queue_len",
        "sim.expire_handler",
    ):
        assert tracer.calls[name][0] > 0, name
    # per request: one expiry and one pause of the handler
    for name in ("sim.expire_handler", "caches.handler_insert"):
        assert tracer.calls[name][0] == 2000, name
    # a handler hit is decided before the probe: only the misses are classified
    summary = json.loads(result.read_text())
    hits = summary["tier_counts"]["HandlerHit"]
    assert summary["requests"] == 2000 and 0 < hits < 2000
    assert tracer.calls["caches.classify_request"][0] == summary["requests"] - hits


def test_traced_sweep_makes_one_pass(tracer_module, tmp_path):
    trace = tmp_path / "trace.csv"
    assert cli.main([
        "generate", "--quiet", "--functions", "40", "--requests", "2000",
        "--duration", "600000", "--seed", "3",
        "--out", str(trace), "--profiles-out", str(tmp_path / "profiles.csv"),
    ]) == 0
    sizes = ["256MiB", "1GiB", "2GiB"]
    tracer = tracer_module.Tracer()
    tracer_module.install(tracer)
    try:
        assert cli.main([
            "sweep", str(trace), "--quiet", "--sizes", ",".join(sizes),
            "--out", str(tmp_path / "sweep.csv"),
        ]) == 0
    finally:
        tracer.uninstall()
    assert tracer.span_count("sim.sweep_cache_sizes") == 1
    # one pass serves every size: the per-capacity entry point the tracer wraps
    # as the replay span is not called
    assert tracer.span_count("sim.lru_replay") == 0


def test_traced_analyze_ranks_through_request_counts(tracer_module, tmp_path):
    trace = tmp_path / "trace.csv"
    assert cli.main([
        "generate", "--quiet", "--functions", "40", "--requests", "2000",
        "--duration", "600000", "--seed", "3",
        "--out", str(trace), "--profiles-out", str(tmp_path / "profiles.csv"),
    ]) == 0
    tracer = tracer_module.Tracer()
    tracer_module.install(tracer)
    try:
        assert cli.main(["analyze", str(trace), "--quiet", "--out", str(tmp_path / "skew.json")]) == 0
    finally:
        tracer.uninstall()
    # the ranking counts the codes through request_counts, so its span is inside popularity_cdf's
    (ranking,) = [span for span in tracer.spans if span["name"] == "traces.popularity_cdf"]
    (counting,) = [span for span in tracer.spans if span["name"] == "traces.request_counts"]
    assert counting["parent"] == ranking["id"]


@pytest.mark.parametrize("command", ["analyze", "partition", "sweep"])
def test_traced_load_counts_every_row(tracer_module, tmp_path, command):
    trace, profiles, out = tmp_path / "trace.csv", tmp_path / "profiles.csv", str(tmp_path / "out")
    assert cli.main([
        "generate", "--quiet", "--functions", "40", "--requests", "2000",
        "--duration", "600000", "--seed", "3",
        "--out", str(trace), "--profiles-out", str(profiles),
    ]) == 0
    rows = len(trace.read_text().splitlines()) - 1  # minus the header
    argv = {
        "analyze": ["analyze", str(trace)],
        "partition": ["partition", str(profiles), str(trace), "--strategy", "round_robin",
                      "--groups-per-runtime", "2", "--workers", "4"],
        "sweep": ["sweep", str(trace), "--sizes", "256MiB,1GiB"],
    }[command]
    tracer = tracer_module.Tracer()
    tracer_module.install(tracer)
    try:
        assert cli.main([*argv, "--quiet", "--out", out]) == 0
    finally:
        tracer.uninstall()
    # the tracer counts rows by len() of what load_trace returns
    assert rows == 2000
    assert tracer.span_count("traces.load_trace") == 1
    assert tracer.counts["traces.rows_parsed"] == rows
