#!/usr/bin/env python3
"""Run a grid of coldsim experiments through the CLI: python scripts/experiment.py GRID.json

Writes one row per (seed, partition, config) cell to GRID.csv next to the grid,
and prints the median, min and max over the seeds; see the README's "Experiments".
"""

import argparse
import csv
import json
import statistics
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from coldsim.cli import main as coldsim
from coldsim.locality import Partition, build_dependency_graph, mean_intra_group_similarity
from coldsim.traces import load_profiles

KEYS = ("generate", "seeds", "partitions", "configs")
RUNNER_FLAGS = {"--seed", "--out", "--profiles-out", "--config", "--quiet"}


def load_grid(path: Path) -> dict:
    """The grid at ``path``, refused before anything runs if the runner cannot run it as given."""
    grid = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(grid, dict):
        raise ValueError("a grid must be a JSON object")
    if set(grid) != set(KEYS):
        raise ValueError(f"a grid has exactly the keys {', '.join(KEYS)}, not {sorted(grid)}")
    for key in KEYS:
        if not isinstance(grid[key], list if key == "seeds" else dict) or not grid[key]:
            raise ValueError(f"{key} must be a non-empty {'list' if key == 'seeds' else 'object'}")
    flag_maps = {"generate": grid["generate"], **{f"partitions.{n}": f for n, f in grid["partitions"].items()}}
    for name, options in flag_maps.items():
        if not isinstance(options, dict):
            raise ValueError(f"{name} must be an object of flags")
        if RUNNER_FLAGS & set(options):
            raise ValueError(f"{name} sets {sorted(RUNNER_FLAGS & set(options))}, which the runner sets itself")
    return grid


def flags(options: dict) -> list[str]:
    return [text for flag, value in options.items() if value is not False
            for text in ([flag] if value is True else [flag, str(value)])]


def run_cli(cell: str, argv: list[str]) -> None:
    """One coldsim command, in process; one the CLI refuses stops the grid, naming the cell."""
    try:
        status = coldsim(argv)
    except SystemExit as exc:  # argparse stopped before the command ran, and has said why
        status = exc.code or "before running"
    if status != 0:
        raise ValueError(f"{cell}: coldsim {argv[0]} exited {status}")


def scalars(payload: dict, prefix: str = ""):
    """(column, value) of each scalar in ``payload``; a nested object's keys are prefixed with its own."""
    for key, value in payload.items():
        yield from scalars(value, f"{prefix}{key}.") if isinstance(value, dict) else [(prefix + key, value)]


def run_grid(grid: dict) -> list[dict]:
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        trace, profiles, partition, result = (f"{tmp}/{name}" for name in ("trace", "profiles", "partition", "result"))
        configs = {name: Path(tmp, f"config{i}.json") for i, name in enumerate(grid["configs"])}
        for name, path in configs.items():
            path.write_text(json.dumps(grid["configs"][name]), encoding="utf-8")
        for seed in grid["seeds"]:
            run_cli(f"seed {seed}", ["generate", *flags(grid["generate"]), "--seed", str(seed),
                                     "--out", trace, "--profiles-out", profiles, "--quiet"])
            graph = build_dependency_graph(load_profiles(profiles))  # for the similarity column only
            for name, options in grid["partitions"].items():
                cell = f"seed {seed}, partition {name}"
                run_cli(cell, ["partition", profiles, trace, *flags(options), "--out", partition, "--quiet"])
                groups = [g.function_ids for g in Partition.from_dict(json.loads(Path(partition).read_text())).groups]
                locality = {"group_sizes": "/".join(str(len(g)) for g in groups),
                            "intra_group_similarity": mean_intra_group_similarity(groups, graph)}
                for config_name, config in configs.items():
                    run_cli(f"{cell}, config {config_name}", ["simulate", trace, profiles, partition,
                                                              "--config", str(config), "--out", result, "--quiet"])
                    rows.append({"seed": seed, "partition": name, "config": config_name, **locality,
                                 **dict(scalars(json.loads(Path(result).read_text())))})
    return rows


def text(value) -> str:
    """A CSV field; a float in one fixed format, so a grid's CSV is the same bytes on every run."""
    return "" if value is None else f"{value:.6f}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("grid", type=Path)
    path = parser.parse_args(argv).grid
    try:
        if path.suffix == ".csv":
            raise ValueError("a grid named .csv would be overwritten by its own CSV")
        rows = run_grid(load_grid(path))
        with open(path.with_suffix(".csv"), "w", encoding="utf-8", newline="") as handle:
            csv.writer(handle, lineterminator="\n").writerows([list(rows[0]), *(map(text, r.values()) for r in rows)])
    except (ValueError, OSError) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return 2
    pairs: dict[tuple, list[dict]] = {}
    for row in rows:
        pairs.setdefault((row["partition"], row["config"]), []).append(row)
    for (partition, config), cells in pairs.items():
        print(f"partition {partition}, config {config}: median [min, max] over {len(cells)} seeds")
        for column in list(cells[0])[4:]:  # from intra_group_similarity on, every column is a number
            values = [row[column] for row in cells if row[column] is not None]
            print(f"  {column:32s} {text(statistics.median(values))} [{text(min(values))}, {text(max(values))}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
