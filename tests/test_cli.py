import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

from coldsim.cli import _CONFIG_READERS, _build_sim_config, main, parse_size
from coldsim.locality import LocalityGroup, Partition
from coldsim.sim import SimConfig
from coldsim.traces import FunctionProfile, load_profiles, write_profiles

from conftest import REPO_ROOT


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_trace_csv(path: Path, stamped_ids):
    lines = ["timestamp_ms,function_id"]
    lines.extend(f"{ts},{fid}" for ts, fid in stamped_ids)
    path.write_text("\n".join(lines) + "\n")


def write_profiles_csv(path: Path, rows):
    lines = ["function_id,runtime,exec_duration_ms,dependencies"]
    lines.extend(rows)
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def small_trace(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(path, [(0, "A"), (1, "A"), (2, "A"), (3, "B")])
    return path


def test_parse_size_iec_suffixes():
    assert parse_size("1024") == 1024
    assert parse_size("4KiB") == 4096
    assert parse_size("256MiB") == 256 * 1024**2
    assert parse_size("1GiB") == 1024**3
    assert parse_size("2tib") == 2 * 1024**4
    with pytest.raises(ValueError, match="unparseable size"):
        parse_size("10MB")


def test_analyze_writes_thresholds_to_stdout(small_trace, capsys):
    assert main(["analyze", str(small_trace), "--targets", "0.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["thresholds"] == {"0.5": 0.5}
    assert payload["cdf"] == [[0.5, 0.75], [1.0, 1.0]]


def test_analyze_missing_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    assert main(["analyze", str(missing)]) == 2
    assert str(missing) in capsys.readouterr().err


def test_analyze_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp_ms,function_id\nx,a\n")
    assert main(["analyze", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_sweep_fixed_point_output(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    write_trace_csv(trace, [(0, "A"), (1, "A"), (2, "A")])
    assert main(["sweep", str(trace), "--sizes", "1GiB,2GiB"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "cache_bytes,hit_rate"
    assert out[1] == "1073741824,0.666667"
    assert out[2] == "2147483648,0.666667"


def test_sweep_footprint_above_smallest_size_exits_2(small_trace, capsys):
    rc = main(["sweep", str(small_trace), "--sizes", "1GiB", "--footprint", "2GiB"])
    assert rc == 2
    assert "error: --sizes: cache size 1073741824 smaller than footprint 2147483648" in capsys.readouterr().err


def test_sweep_sorts_sizes(small_trace, capsys):
    assert main(["sweep", str(small_trace), "--sizes", "2GiB,1GiB"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].startswith("1073741824,")
    assert out[2].startswith("2147483648,")


def generate_args(outdir: Path, seed=7, functions=40, requests=2000):
    return [
        "generate",
        "--functions", str(functions),
        "--requests", str(requests),
        "--zipf", "1.1",
        "--duration", "100000",
        "--seed", str(seed),
        "--quiet",
        "--out", str(outdir / "trace.csv"),
        "--profiles-out", str(outdir / "profiles.csv"),
    ]


def test_generate_is_byte_reproducible(tmp_path):
    names = ("trace.csv", "profiles.csv", "trace.csv.manifest.json")
    assert main(generate_args(tmp_path)) == 0
    snapshots = {name: (tmp_path / name).read_bytes() for name in names}
    assert main(generate_args(tmp_path)) == 0
    for name in names:
        assert (tmp_path / name).read_bytes() == snapshots[name], name
    assert json.loads(snapshots["trace.csv.manifest.json"])["seed"] == 7


def test_generate_exact_row_counts(tmp_path):
    assert main(generate_args(tmp_path, functions=50, requests=1234)) == 0
    trace_lines = (tmp_path / "trace.csv").read_text().splitlines()
    profile_lines = (tmp_path / "profiles.csv").read_text().splitlines()
    assert len(trace_lines) == 1 + 1234
    assert len(profile_lines) == 1 + 50


def test_generate_zero_requests_exits_2(tmp_path, capsys):
    rc = main(generate_args(tmp_path, requests=0))
    assert rc == 2
    assert "num_requests" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--functions", "0"], "--functions: num_functions must be >= 1, not 0"),
        (["--requests", "0"], "--requests: num_requests must be >= 1, not 0"),
        (["--duration", "0"], "--duration: duration_ms must be >= 1, not 0"),
        (["--catalog-size", "0"], "--catalog-size: catalog_size must be >= 1, not 0"),
        (["--seed", "-1"], "--seed: seed must be >= 0, not -1"),
        (["--deps-min", "-1"], "--deps-min and --deps-max must satisfy 0 <= min <= max, not -1 and 5"),
        (["--deps-min", "3", "--deps-max", "2"], "--deps-min and --deps-max must satisfy 0 <= min <= max, not 3 and 2"),
        (["--deps-max", "300"], "--deps-max 300 exceeds --catalog-size 200"),
    ],
    ids=["functions", "requests", "duration", "catalog-size", "seed", "deps-min", "deps-min-above-max",
         "deps-max-above-catalog"],
)
def test_generate_range_errors_name_the_flag(tmp_path, capsys, flags, message):
    assert main(generate_args(tmp_path) + flags) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_every_int64_stamp_is_generated_and_read_and_the_next_is_refused(tmp_path, capsys):
    args = generate_args(tmp_path, requests=50)
    duration = args.index("--duration") + 1
    args[duration] = str(2**63)  # stamps are drawn in 0..2**63 - 1
    assert main(args) == 0
    assert main(["analyze", str(tmp_path / "trace.csv"), "--quiet", "--out", str(tmp_path / "skew.json")]) == 0
    args[duration] = str(2**63 + 1)
    assert main(args) == 2
    assert f"error: duration_ms must be in 1..{2**63}\n" == capsys.readouterr().err
    past = tmp_path / "past.csv"
    write_trace_csv(past, [(0, "a"), (2**63, "b")])
    assert main(["analyze", str(past)]) == 2
    assert f"error: trace {past}: line 3: timestamp_ms must be <= {2**63 - 1}\n" == capsys.readouterr().err


def test_generate_with_too_few_drawable_packages_exits_2(tmp_path):
    # at exponent 2000 only the first package has non-zero mass, and most functions draw more
    argv = generate_args(tmp_path, functions=100, requests=100) + ["--package-zipf", "2000"]
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "coldsim.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert "too few packages have non-zero popularity at this package Zipf exponent" in proc.stderr


@pytest.mark.parametrize("runtime", ["py,thon", "py;thon", "py\rthon", ""])
def test_generate_refuses_a_runtime_the_catalog_cannot_hold_before_writing(runtime, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_bytes(b"timestamp_ms,function_id\n1,old\n")
    with pytest.raises(SystemExit) as exit_info:
        main(generate_args(tmp_path) + ["--runtime", runtime])
    assert exit_info.value.code == 2
    assert f"argument --runtime: identifier not representable in CSV: {runtime!r}" in capsys.readouterr().err
    assert trace.read_bytes() == b"timestamp_ms,function_id\n1,old\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["trace.csv"]


def test_failed_generate_leaves_no_output_files(tmp_path, capsys):
    args = generate_args(tmp_path)
    args[args.index("--profiles-out") + 1] = str(tmp_path / "no" / "profiles.csv")
    assert main(args) == 2
    assert "No such file or directory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_generate_requires_out(tmp_path, capsys):
    args = generate_args(tmp_path)
    del args[args.index("--out") : args.index("--out") + 2]
    assert main(args) == 2


@pytest.fixture
def clique_inputs(tmp_path):
    trace = tmp_path / "trace.csv"
    profiles = tmp_path / "profiles.csv"
    write_trace_csv(trace, [(i, f"f{1 + i % 6}") for i in range(60)])
    write_profiles_csv(
        profiles,
        [
            "f1,python,63,a;b",
            "f2,python,63,a;b",
            "f3,python,63,a;b",
            "f4,python,63,c;d",
            "f5,python,63,c;d",
            "f6,python,63,c;d",
        ],
    )
    return trace, profiles


def test_partition_clustered_recovers_cliques(clique_inputs, capsys):
    trace, profiles = clique_inputs
    rc = main([
        "partition", str(profiles), str(trace),
        "--groups-per-runtime", "2", "--workers", "4",
        "--strategy", "clustered",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    groups = {frozenset(g["functions"]) for g in payload["groups"]}
    assert groups == {frozenset({"f1", "f2", "f3"}), frozenset({"f4", "f5", "f6"})}


def test_partition_round_robin_deal_order(clique_inputs, capsys):
    trace, profiles = clique_inputs
    rc = main([
        "partition", str(profiles), str(trace),
        "--groups-per-runtime", "2", "--workers", "4",
        "--strategy", "round_robin",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    groups = {frozenset(g["functions"]) for g in payload["groups"]}
    assert groups == {frozenset({"f1", "f3", "f5"}), frozenset({"f2", "f4", "f6"})}


def test_partition_insufficient_workers_exits_2(clique_inputs, capsys):
    trace, profiles = clique_inputs
    rc = main([
        "partition", str(profiles), str(trace),
        "--groups-per-runtime", "2", "--workers", "1",
    ])
    assert rc == 2
    assert "insufficient workers" in capsys.readouterr().err


def partition_workers(profiles, trace, capsys, *flags):
    rc = main([
        "partition", str(profiles), str(trace), "--strategy", "round_robin",
        "--groups-per-runtime", "2", "--workers", "4", *flags,
    ])
    assert rc == 0
    return {g["functions"][0]: g["workers"] for g in json.loads(capsys.readouterr().out)["groups"]}


def test_partition_weight_by_duration_moves_workers(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    profiles = tmp_path / "profiles.csv"
    # "slow" gets a quarter of the requests but runs 100 times longer per request
    write_trace_csv(trace, [(0, "slow"), (1, "fast"), (2, "fast"), (3, "fast")])
    write_profiles_csv(profiles, ["fast,python,10,x", "slow,python,1000,y"])
    assert partition_workers(profiles, trace, capsys) == {"fast": 3, "slow": 1}
    assert partition_workers(profiles, trace, capsys, "--weight-by-duration") == {"fast": 1, "slow": 3}


def test_partition_weight_by_uniform_duration_changes_nothing(tmp_path, capsys):
    # generated catalogs give every function the same duration, and worker
    # allocation is invariant to scaling every popularity count alike
    assert main(generate_args(tmp_path)) == 0
    argv = [
        "partition", str(tmp_path / "profiles.csv"), str(tmp_path / "trace.csv"),
        "--groups-per-runtime", "3", "--workers", "10",
    ]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main(argv + ["--weight-by-duration"]) == 0
    assert capsys.readouterr().out == plain


@pytest.fixture
def simulate_inputs(tmp_path):
    trace = tmp_path / "trace.csv"
    profiles = tmp_path / "profiles.csv"
    partition = tmp_path / "partition.json"
    write_trace_csv(trace, [(0, "fn"), (5000, "fn")])
    write_profiles_csv(profiles, ["fn,python,63,numpy"])
    main([
        "partition", str(profiles), str(trace),
        "--groups-per-runtime", "1", "--workers", "1",
        "--quiet", "--out", str(partition),
    ])
    return trace, profiles, partition


def test_simulate_keep_alive_scenario_csv(simulate_inputs, tmp_path, capsys):
    trace, profiles, partition = simulate_inputs
    out = tmp_path / "result.json"
    per_request = tmp_path / "per_request.csv"
    rc = main([
        "simulate", str(trace), str(profiles), str(partition),
        "--quiet", "--out", str(out), "--per-request", str(per_request),
    ])
    assert rc == 0
    rows = per_request.read_text().splitlines()
    assert rows[1].split(",")[3] == "Miss"
    assert rows[2].split(",")[3] == "HandlerHit"
    payload = json.loads(out.read_text())
    assert payload["requests"] == 2
    assert payload["tier_counts"]["HandlerHit"] == 1


def test_simulate_is_byte_reproducible(simulate_inputs, tmp_path):
    trace, profiles, partition = simulate_inputs
    digests = []
    for attempt in ("x", "y"):
        out = tmp_path / f"result-{attempt}.json"
        per_request = tmp_path / f"per-{attempt}.csv"
        rc = main([
            "simulate", str(trace), str(profiles), str(partition),
            "--quiet", "--out", str(out), "--per-request", str(per_request),
        ])
        assert rc == 0
        digests.append((sha256(out), sha256(per_request)))
    assert digests[0] == digests[1]


def test_simulate_missing_profile_names_function(simulate_inputs, tmp_path, capsys):
    trace, _, partition = simulate_inputs
    sparse = tmp_path / "sparse.csv"
    write_profiles_csv(sparse, ["other,python,63,"])
    rc = main(["simulate", str(trace), str(sparse), str(partition)])
    assert rc == 2
    assert "no profile for function 'fn'" in capsys.readouterr().err


def test_failed_simulate_leaves_no_output_files(simulate_inputs, tmp_path):
    trace, profiles, partition = simulate_inputs
    sparse = tmp_path / "sparse.csv"
    write_profiles_csv(sparse, ["other,python,63,"])
    nodejs = tmp_path / "nodejs.json"
    nodejs.write_text(partition.read_text().replace('"python"', '"nodejs"'))
    per_request = tmp_path / "per_request.csv"
    # an unprofiled function or a group of another runtime fails the run; an --out in a missing
    # directory fails after it
    for catalog, groups, out in (
        (sparse, partition, tmp_path / "result.json"),
        (profiles, nodejs, tmp_path / "result.json"),
        (profiles, partition, tmp_path / "no" / "r.json"),
    ):
        rc = main([
            "simulate", str(trace), str(catalog), str(groups),
            "--quiet", "--out", str(out), "--per-request", str(per_request),
        ])
        assert rc == 2
        assert not out.exists()
        assert not per_request.exists()
        assert not (out.parent / (out.name + ".manifest.json")).exists()


@pytest.mark.parametrize("command", ["generate", "analyze", "sweep", "partition", "simulate"])
def test_a_manifest_that_cannot_be_opened_fails_the_command_and_leaves_no_output(simulate_inputs, tmp_path, capsys,
                                                                                command):
    # the outputs and the manifest are opened together, so the outputs opened before it are removed
    trace, profiles, partition = simulate_inputs
    outdir = tmp_path / "run"
    outdir.mkdir()
    second = str(outdir / "second.csv")
    argv = {
        "generate": ["generate", "--functions", "5", "--requests", "9", "--profiles-out", second],
        "analyze": ["analyze", str(trace)],
        "sweep": ["sweep", str(trace), "--sizes", "1GiB"],
        "partition": ["partition", str(profiles), str(trace), "--groups-per-runtime", "1", "--workers", "1"],
        "simulate": ["simulate", str(trace), str(profiles), str(partition), "--per-request", second],
    }[command]
    (outdir / "out.manifest.json").mkdir()
    assert main(argv + ["--quiet", "--out", str(outdir / "out")]) == 2
    assert "out.manifest.json" in capsys.readouterr().err
    assert [path.name for path in outdir.iterdir()] == ["out.manifest.json"]


def test_simulate_honors_config_file(simulate_inputs, tmp_path, capsys):
    trace, profiles, partition = simulate_inputs
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "keep_alive_ms": 0,
        "import_max_nodes": 0,
        "handler_capacity_bytes": "1GiB",
        "routing_policy": "LeastLoaded",
    }))
    rc = main(["simulate", str(trace), str(profiles), str(partition), "--config", str(config)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    # keep-alive 0 expires the handler; with the import tier disabled the
    # repeat lands on the installed package instead
    assert payload["tier_counts"]["Miss"] == 1
    assert payload["tier_counts"]["InstallHit"] == 1
    assert payload["tier_counts"]["HandlerHit"] == 0


def test_every_config_key_is_read_and_changes_the_result(tmp_path):
    assert main(generate_args(tmp_path)) == 0
    trace, profiles, partition = (str(tmp_path / name) for name in ("trace.csv", "profiles.csv", "partition.json"))
    assert main(["partition", profiles, trace, "--groups-per-runtime", "1", "--workers", "3",
                 "--strategy", "round_robin", "--quiet", "--out", partition]) == 0
    config, out = tmp_path / "config.json", tmp_path / "result.json"

    def result_of(payload):
        config.write_text(json.dumps(payload))
        assert main(["simulate", trace, profiles, partition, "--config", str(config), "--quiet",
                     "--out", str(out)]) == 0
        return out.read_bytes()

    varied = {
        "handler_capacity_bytes": "256MiB",
        "install_capacity_bytes": "10MiB",
        "import_max_nodes": 0,
        "keep_alive_ms": 0,
        "latency_model": {"code_load_ms": 100},
        "routing_policy": "LeastLoaded",
        "footprint_bytes": "512MiB",
        "footprint_overrides": {"f0000": "1GiB"},
        "package_size_bytes": "8GiB",
    }
    # a SimConfig field without a reader, or a reader whose value goes unused, fails here
    assert set(varied) == set(_CONFIG_READERS) == {f.name for f in fields(SimConfig)} - {"partition"}
    baseline = result_of({})
    for key, value in varied.items():
        assert result_of({key: value}) != baseline, key


def test_every_profile_field_changes_an_output(tmp_path):
    assert main(generate_args(tmp_path)) == 0
    trace, catalog = tmp_path / "trace.csv", tmp_path / "profiles.csv"
    outputs = [tmp_path / name for name in ("partition.json", "result.json", "per_request.csv")]
    profiles = load_profiles(catalog)

    def outputs_of(changed):
        with open(catalog, "w", encoding="utf-8", newline="\n") as handle:
            write_profiles(changed, handle)
        assert main(["partition", str(catalog), str(trace), "--groups-per-runtime", "2", "--workers", "6",
                     "--quiet", "--out", str(outputs[0])]) == 0
        assert main(["simulate", str(trace), str(catalog), str(outputs[0]), "--quiet",
                     "--out", str(outputs[1]), "--per-request", str(outputs[2])]) == 0
        return [path.read_bytes() for path in outputs]

    # each changes the most requested function's profile alone
    varied = {
        "runtime": "nodejs",
        "dependencies": frozenset(f"x{i}" for i in range(6)),  # more than any generated set holds
        "exec_duration_ms": 1000,
    }
    # a FunctionProfile field without a row, or a row whose change moves no output, fails here
    assert set(varied) == {f.name for f in fields(FunctionProfile)} - {"function_id"}
    baseline = outputs_of(profiles)
    for name, value in varied.items():
        changed = [replace(p, **{name: value}) if p.function_id == "f0000" else p for p in profiles]
        assert outputs_of(changed) != baseline, name


def test_simulate_rejects_unknown_config_keys(simulate_inputs, tmp_path, capsys):
    trace, profiles, partition = simulate_inputs
    config = tmp_path / "config.json"
    for payload in ({"handler_cap": 1}, {"seed": 1}):
        config.write_text(json.dumps(payload))
        rc = main(["simulate", str(trace), str(profiles), str(partition), "--config", str(config)])
        assert rc == 2
        assert "unknown simulation config keys" in capsys.readouterr().err


def test_simulate_rejects_oversized_config_before_running(simulate_inputs, tmp_path, capsys):
    trace, profiles, partition = simulate_inputs
    config = tmp_path / "config.json"
    for payload, key in (
        ({"handler_capacity_bytes": "1GiB", "footprint_overrides": {"fn": "2GiB"}},
         "footprint_overrides['fn']"),
        ({"install_capacity_bytes": "1GiB", "package_size_bytes": "2GiB"}, "package_size_bytes"),
    ):
        config.write_text(json.dumps(payload))
        rc = main(["simulate", str(trace), str(profiles), str(partition), "--config", str(config)])
        assert rc == 2
        assert key in capsys.readouterr().err


GROUP = {"id": 0, "runtime": "python", "functions": ["fn"], "workers": 1}


@pytest.mark.parametrize(
    "payload, message",
    [
        ({}, "expected an object with key 'groups'"),
        ([GROUP], "expected an object with key 'groups'"),
        ({"groups": GROUP}, "'groups' must be list"),
        ({"groups": [{k: v for k, v in GROUP.items() if k != "workers"}]}, "expected an object with key 'workers'"),
        ({"groups": [dict(GROUP, workers="1")]}, "'workers' must be int"),
        ({"groups": [dict(GROUP, functions="fn")]}, "'functions' must be list"),
        ({"groups": [dict(GROUP, functions=[["fn"]])]}, "'functions' must hold only str"),
    ],
)
def test_simulate_malformed_partition_exits_2(simulate_inputs, tmp_path, capsys, payload, message):
    trace, profiles, _ = simulate_inputs
    partition = tmp_path / "malformed.json"
    partition.write_text(json.dumps(payload))
    rc = main(["simulate", str(trace), str(profiles), str(partition)])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_simulate_malformed_config_exits_2(simulate_inputs, tmp_path, capsys):
    trace, profiles, partition = simulate_inputs
    config = tmp_path / "config.json"
    for payload, message in (
        ({"footprint_overrides": ["a"]}, "footprint_overrides must be an object"),
        (["keep_alive_ms"], "simulation config must be a JSON object"),
        ({"latency_model_path": "presets/fig1_calibration.json"}, "unknown simulation config keys"),
    ):
        config.write_text(json.dumps(payload))
        rc = main(["simulate", str(trace), str(profiles), str(partition), "--config", str(config)])
        assert rc == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"latency_model": {"bogus": 1}}, "unknown latency_model keys: ['bogus']"),
        ({"latency_model": [1]}, "latency_model must be an object"),
        ({"latency_model": {"fork_ms": None}}, "latency_model.fork_ms must be an integer, not null"),
        ({"import_max_nodes": None}, "import_max_nodes must be an integer, not null"),
        ({"handler_capacity_bytes": [1]}, "handler_capacity_bytes must be an integer, not [1]"),
        ({"footprint_overrides": {"f": {}}}, "footprint_overrides['f'] must be an integer, not {}"),
        ({"keep_alive_ms": True}, "keep_alive_ms must be an integer, not true"),
        ({"import_max_nodes": 2.7}, "import_max_nodes must be an integer, not 2.7"),
        ({"keep_alive_ms": float("inf")}, "keep_alive_ms must be an integer, not Infinity"),
        ({"latency_model": {"shutdown_ms": True}}, "latency_model.shutdown_ms must be an integer, not true"),
        ({"footprint_bytes": "12 apples"}, "footprint_bytes: unparseable size: '12 apples'"),
        ({"routing_policy": "Fastest"},
         "routing_policy must be one of LeastLoaded, HandlerAffinity, not \"Fastest\""),
        ({"install_capacity_bytes": 0, "package_size_bytes": 0}, "install_capacity_bytes must be >= 1"),
        ({"handler_capacity_bytes": 0, "footprint_bytes": 0}, "handler_capacity_bytes must be >= 1"),
        ({"footprint_overrides": {"no-such-function": "1GiB"}},
         "footprint_overrides names 'no-such-function', a function with no profile"),
    ],
    ids=["unknown-phase", "model-not-object", "phase-null", "nodes-null", "capacity-list",
         "override-object", "keep-alive-true", "nodes-float", "keep-alive-infinity", "phase-true", "size-unparseable",
         "policy-unknown", "install-capacity-zero", "handler-capacity-zero", "override-unprofiled"],
)
def test_simulate_mistyped_config_value_exits_2(simulate_inputs, tmp_path, capsys, payload, message):
    trace, profiles, partition = simulate_inputs
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    out = tmp_path / "result.json"
    rc = main(["simulate", str(trace), str(profiles), str(partition), "--config", str(config),
               "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_simulate_config_reads_integral_floats_as_integers():
    partition = Partition((LocalityGroup(0, "python", frozenset({"f"}), 1),), 1)
    payload = {"keep_alive_ms": 6e4, "handler_capacity_bytes": 1e9, "latency_model": {"fork_ms": 15.0}}
    config = _build_sim_config(partition, payload)
    assert (config.keep_alive_ms, config.handler_capacity_bytes) == (60_000, 1_000_000_000)
    assert type(config.keep_alive_ms) is int and type(config.handler_capacity_bytes) is int
    assert type(config.latency_model.fork_ms) is int


@pytest.mark.parametrize(
    "argv, message",
    [
        (["generate", "--functions", "5", "--requests", "9", "--out", "x.csv", "--profiles-out", "x.csv"],
         "--profiles-out and --out name the same file: x.csv"),
        (["generate", "--functions", "5", "--requests", "9", "--out", "x.csv",
          "--profiles-out", "x.csv.manifest.json"],
         "the manifest of --out and --profiles-out name the same file: x.csv.manifest.json"),
        (["simulate", "trace.csv", "profiles.csv", "partition.json", "--out", "r.json", "--per-request", "r.json"],
         "--per-request and --out name the same file: r.json"),
        (["simulate", "trace.csv", "profiles.csv", "partition.json", "--per-request", "./trace.csv"],
         "--per-request and trace name the same file: ./trace.csv"),
        (["simulate", "trace.csv", "profiles.csv", "partition.json", "--out", "r.json",
          "--per-request", "r.json.manifest.json"],
         "the manifest of --out and --per-request name the same file: r.json.manifest.json"),
        (["simulate", "trace.csv", "profiles.csv", "partition.json", "--config", "config.json",
          "--out", "config.json"],
         "--out and --config name the same file: config.json"),
        (["simulate", "trace.csv", "profiles.csv", "partition.json", "--out", "partition.json"],
         "--out and partition name the same file: partition.json"),
        (["partition", "profiles.csv", "trace.csv", "--groups-per-runtime", "1", "--workers", "1",
          "--out", "profiles.csv"],
         "--out and profiles name the same file: profiles.csv"),
        (["analyze", "trace.csv", "--out", "trace.csv"], "--out and trace name the same file: trace.csv"),
        (["sweep", "trace.csv", "--sizes", "1GiB", "--out", "link.csv"],
         "--out and trace name the same file: link.csv"),
    ],
    ids=["generate-outputs", "generate-manifest", "simulate-outputs", "simulate-trace", "simulate-manifest",
         "simulate-config", "simulate-partition", "partition-profiles", "analyze-trace", "sweep-symlink"],
)
def test_an_output_naming_another_output_or_an_input_exits_2(simulate_inputs, tmp_path, monkeypatch, capsys,
                                                             argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text("{}")
    (tmp_path / "link.csv").symlink_to("trace.csv")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert main(argv) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


PARTITION_FLAGS = ["--groups-per-runtime", "1", "--workers", "1"]


@pytest.mark.parametrize(
    "argv, label, path",
    [
        (["analyze", "bad_trace.csv"], "trace", "bad_trace.csv"),
        (["sweep", "bad_trace.csv", "--sizes", "1GiB"], "trace", "bad_trace.csv"),
        (["partition", "bad_profiles.csv", "trace.csv", *PARTITION_FLAGS], "profiles", "bad_profiles.csv"),
        (["partition", "profiles.csv", "bad_trace.csv", *PARTITION_FLAGS], "trace", "bad_trace.csv"),
        (["simulate", "bad_trace.csv", "profiles.csv", "partition.json"], "trace", "bad_trace.csv"),
        (["simulate", "trace.csv", "bad_profiles.csv", "partition.json"], "profiles", "bad_profiles.csv"),
        (["simulate", "trace.csv", "profiles.csv", "empty.json"], "partition", "empty.json"),
        (["simulate", "trace.csv", "profiles.csv", "partition.json", "--config", "empty.json"], "--config",
         "empty.json"),
    ],
    ids=["analyze-trace", "sweep-trace", "partition-profiles", "partition-trace", "simulate-trace",
         "simulate-profiles", "simulate-partition", "simulate-config"],
)
def test_an_input_error_names_the_input_and_its_path(simulate_inputs, tmp_path, monkeypatch, capsys,
                                                      argv, label, path):
    monkeypatch.chdir(tmp_path)
    write_trace_csv(tmp_path / "bad_trace.csv", [("x", "fn")])
    write_profiles_csv(tmp_path / "bad_profiles.csv", ["fn,python,-1,numpy"])
    (tmp_path / "empty.json").write_text("")
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {label} {path}: ")


def test_manifest_written_alongside_out(small_trace, tmp_path):
    out = tmp_path / "skew.json"
    assert main(["analyze", str(small_trace), "--quiet", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "skew.json.manifest.json").read_text())
    assert manifest["command"] == "analyze"
    assert manifest["input_paths"] == [str(small_trace)]
    assert manifest["output_paths"] == [str(out)]
    assert len(manifest["config_digest"]) == 64
    assert manifest["tool_version"]
    assert "seed" not in manifest
    digest = manifest["config_digest"]
    assert main(["analyze", str(small_trace), "--quiet", "--out", str(out)]) == 0
    again = json.loads((tmp_path / "skew.json.manifest.json").read_text())
    assert again["config_digest"] == digest
    sweep = tmp_path / "sweep.csv"
    assert main(["sweep", str(small_trace), "--sizes", "1GiB", "--quiet", "--out", str(sweep)]) == 0
    assert sweep.read_text().startswith("cache_bytes,hit_rate\n")
    assert json.loads((tmp_path / "sweep.csv.manifest.json").read_text())["output_paths"] == [str(sweep)]


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "trace.csv"],
        ["partition", "profiles.csv", "trace.csv", "--groups-per-runtime", "1", "--workers", "1"],
        ["simulate", "trace.csv", "profiles.csv", "partition.json"],
        ["sweep", "trace.csv", "--sizes", "1GiB"],
    ],
    ids=lambda argv: argv[0],
)
def test_only_generate_takes_a_seed(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--seed", "1"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


GENERATE = ["generate", "--functions", "10", "--requests", "50", "--out", "t.csv", "--profiles-out", "p.csv"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "trace.csv", "--sizes", "1GiB,abc"], "argument --sizes: unparseable size: 'abc'"),
        (["sweep", "trace.csv", "--sizes", "1GiB", "--footprint", "1.5MiB"],
         "argument --footprint: unparseable size: '1.5MiB'"),
        (["analyze", "trace.csv", "--targets", "0.5,abc"],
         "argument --targets: could not convert string to float: 'abc'"),
        (["analyze", "trace.csv", "--targets", "0.5,1.5"],
         "argument --targets: threshold target must be in (0, 1]: 1.5"),
        (["analyze", "trace.csv", "--targets", "0"], "argument --targets: threshold target must be in (0, 1]: 0.0"),
        (["sweep", "trace.csv", "--sizes", "1GiB,0"], "argument --sizes: size must be at least 1 byte: '0'"),
        (["sweep", "trace.csv", "--sizes", ""], "argument --sizes: no comma-separated value in ''"),
        (["analyze", "trace.csv", "--targets", ""], "argument --targets: no comma-separated value in ''"),
        (["analyze", "trace.csv", "--targets", ",,"], "argument --targets: no comma-separated value in ',,'"),
        (["sweep", "trace.csv", "--sizes", "1GiB", "--footprint", "0KiB"],
         "argument --footprint: size must be at least 1 byte: '0KiB'"),
        (GENERATE + ["--zipf", "nan"], "argument --zipf: Zipf exponent must be a finite number >= 0: nan"),
        (GENERATE + ["--zipf", "inf"], "argument --zipf: Zipf exponent must be a finite number >= 0: inf"),
        (GENERATE + ["--zipf", "abc"], "argument --zipf: could not convert string to float: 'abc'"),
        (GENERATE + ["--package-zipf", "nan"],
         "argument --package-zipf: Zipf exponent must be a finite number >= 0: nan"),
        (GENERATE + ["--package-zipf", "-1"],
         "argument --package-zipf: Zipf exponent must be a finite number >= 0: -1.0"),
    ],
    ids=["sizes", "footprint", "targets", "targets-above-1", "targets-0", "sizes-0", "sizes-empty",
         "targets-empty", "targets-commas", "footprint-0", "zipf-nan", "zipf-inf", "zipf-text",
         "package-zipf-nan", "package-zipf-negative"],
)
def test_unparseable_flag_value_names_the_flag(argv, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


def test_analyze_of_a_pipe_exits_2():
    # the parse counts the rows before it reads them, so it needs a trace it can read twice
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "coldsim.cli", "analyze", "/dev/stdin"],
                          input="timestamp_ms,function_id\n0,a\n", capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == ("error: trace /dev/stdin: the trace input must be seekable: "
                           "its rows are counted before they are parsed\n")


def test_module_entry_point_runs():
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "coldsim.cli", "--version"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "coldsim" in proc.stdout
