"""The example scripts under ``scripts/`` run end to end on a tiny workload."""

import subprocess
import sys

from conftest import REPO_ROOT

TINY = ["--functions", "40", "--requests", "2000"]


def run_script(name, *args):
    # each script puts the repository's src/ on its own import path
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / name), *TINY, *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_compare_partition_strategies_runs():
    proc = run_script("compare_partition_strategies.py")
    assert proc.returncode == 0, proc.stderr
    assert "40 functions, 2000 requests" in proc.stdout
    assert "clustered" in proc.stdout


def test_run_synthetic_pipeline_runs(tmp_path):
    outdir = tmp_path / "out"
    proc = run_script("run_synthetic_pipeline.py", "--outdir", str(outdir))
    assert proc.returncode == 0, proc.stderr
    for name in ("trace.csv", "profiles.csv", "partition.json", "sim_result.json", "sweep.csv"):
        assert (outdir / name).is_file(), name
