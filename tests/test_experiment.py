"""The grid runner ``scripts/experiment.py``, run in process; the committed CSV is the one the README quotes."""

import importlib.util
import json
import shutil

import pytest

from conftest import REPO_ROOT

GRID = REPO_ROOT / "experiments" / "compare_partition_strategies.json"
TINY = {"generate": {"--functions": 20, "--requests": 200}, "seeds": [1], "configs": {"default": {}},
        "partitions": {"rr": {"--strategy": "round_robin", "--groups-per-runtime": 1, "--workers": 2}}}


@pytest.fixture(scope="module")
def experiment():
    spec = importlib.util.spec_from_file_location("experiment", REPO_ROOT / "scripts" / "experiment.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_committed_grid_rewrites_its_committed_csv(experiment, tmp_path, capsys):
    grid = tmp_path / GRID.name
    shutil.copy(GRID, grid)
    assert experiment.main([str(grid)]) == 0
    assert grid.with_suffix(".csv").read_bytes() == GRID.with_suffix(".csv").read_bytes()
    assert "partition clustered, config import16_keepalive60s: median [min, max] over 3 seeds" in capsys.readouterr()[0]


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"workers": 4}, "'workers'"),
        ({"generate": {"--functions": 20, "--requests": 200, "--seed": 3}}, "generate sets ['--seed']"),
        ({"partitions": {"rr": {"--groups-per-runtime": 1, "--workers": 2, "--out": "p.json"}}},
         "partitions.rr sets ['--out']"),
        ({"seeds": []}, "seeds must be a non-empty list"),
        ({"partitions": {"rr": {"--groups-per-runtime": 1, "--workers": 0}}},
         "seed 1, partition rr: coldsim partition exited 2"),
        ({"partitions": {"rr": {"--groups-per-runtime": 1, "--workers": 2, "--strategy": "nearest"}}},
         "seed 1, partition rr: coldsim partition exited 2"),
        ({"configs": {"default": {}, "typo": {"keep_alive": 1}}},
         "seed 1, partition rr, config typo: coldsim simulate exited 2"),
    ],
    ids=["unknown-key", "runner-flag", "runner-flag-in-partition", "no-seeds", "cli-refused-workers",
         "argparse-refused-strategy", "cli-refused-config"],
)
def test_a_grid_that_cannot_run_stops_naming_the_key_or_cell_and_keeps_the_earlier_csv(
        experiment, tmp_path, capsys, changes, message):
    grid, earlier = tmp_path / "grid.json", tmp_path / "grid.csv"
    grid.write_text(json.dumps({**TINY, **changes}))
    earlier.write_text("an earlier run\n")
    assert experiment.main([str(grid)]) == 2
    assert message in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [earlier, grid]
    assert earlier.read_text() == "an earlier run\n"
