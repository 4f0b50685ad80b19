"""Output checks and recounts, written independently of ``coldsim``.

Each check reads the files a command wrote and the inputs it read, and
returns a list of problems (empty when the output is right). They run after
the timed process has exited, so they never count towards a timing.
"""

from __future__ import annotations

import csv
import json
from collections import Counter, OrderedDict
from fractions import Fraction

import numpy as np


def read_trace(path):
    """Function ids in simulation order: stably sorted by timestamp."""
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        next(handle)
        for line in handle:
            stamp, function_id = line.rstrip("\n").split(",")
            rows.append((int(stamp), function_id))
    rows.sort(key=lambda row: row[0])
    return [function_id for _, function_id in rows]


def count_rows(path):
    with open(path, "rb") as handle:
        return sum(1 for _ in handle) - 1


def read_profiles(path):
    """Function id -> dependency set, in catalog order."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return {
            row["function_id"]: frozenset(filter(None, row["dependencies"].split(";")))
            for row in csv.DictReader(handle)
        }


def check_analyze(path, ids, targets):
    with open(path, "r", encoding="utf-8") as handle:
        summary = json.load(handle)
    problems = []
    cdf = summary["cdf"]
    for (f0, r0), (f1, r1) in zip(cdf, cdf[1:]):
        if f1 < f0 or r1 < r0:
            problems.append("analyze: CDF decreases")
            break
    if not cdf or cdf[-1] != [1.0, 1.0]:
        problems.append(f"analyze: CDF ends at {cdf[-1] if cdf else None}, not [1.0, 1.0]")
    ranked = sorted(Counter(ids).values(), reverse=True)
    if len(cdf) != len(ranked):
        problems.append(f"analyze: {len(cdf)} CDF points for {len(ranked)} functions")
    expected, cum = {}, 0
    for i, count in enumerate(ranked):
        cum += count
        for target in targets:
            if str(target) not in expected and Fraction(cum, len(ids)) >= Fraction(str(target)):
                expected[str(target)] = (i + 1) / len(ranked)
    if summary["thresholds"] != expected:
        problems.append(f"analyze: thresholds {summary['thresholds']} != recount {expected}")
    return problems


def lru_hits(ids, capacity):
    cache = OrderedDict()
    hits = 0
    for function_id in ids:
        if function_id in cache:
            hits += 1
            cache.move_to_end(function_id)
        else:
            cache[function_id] = None
            if len(cache) > capacity:
                cache.popitem(last=False)
    return hits


def check_sweep(path, ids, sizes, footprint, replay_size):
    with open(path, "r", encoding="utf-8") as handle:
        rows = [line.split(",") for line in handle.read().splitlines()[1:]]
    problems = []
    got_sizes = [int(size) for size, _ in rows]
    rates = [rate for _, rate in rows]
    if got_sizes != sorted(sizes):
        problems.append(f"sweep: sizes {got_sizes} != requested {sorted(sizes)}")
        return problems
    if any(float(b) < float(a) for a, b in zip(rates, rates[1:])):
        problems.append("sweep: hit rate decreases with size")
    expected = f"{lru_hits(ids, replay_size // footprint) / len(ids):.6f}"
    got = rates[got_sizes.index(replay_size)]
    if got != expected:
        problems.append(f"sweep: rate at {replay_size} is {got}, own LRU gives {expected}")
    return problems


def check_partition(path, function_ids, workers):
    with open(path, "r", encoding="utf-8") as handle:
        groups = json.load(handle)["groups"]
    problems = []
    placed = Counter(f for g in groups for f in g["functions"])
    if set(placed) != set(function_ids) or any(n != 1 for n in placed.values()):
        problems.append("partition: functions are not each in exactly one group")
    counts = [g["workers"] for g in groups]
    if sum(counts) != workers or min(counts, default=0) < 1:
        problems.append(f"partition: worker counts {counts} do not split {workers} workers")
    return problems


def check_simulate(path, requests, per_request_path=None, unpause_ms=None):
    with open(path, "r", encoding="utf-8") as handle:
        result = json.load(handle)
    problems = []
    tiers = result["tier_counts"]
    if result["requests"] != requests or sum(tiers.values()) != requests:
        problems.append(f"simulate: tier counts {tiers} do not sum to {requests} requests")
    if per_request_path is None:
        return problems
    seen = Counter()
    bad_totals = 0
    with open(per_request_path, "r", encoding="utf-8", newline="") as handle:
        for row in csv.DictReader(handle):
            seen[row["tier"]] += 1
            parts = sum(
                int(row[k])
                for k in ("load_ms", "download_ms", "install_ms", "import_ms", "create_ms", "exec_ms", "shutdown_ms")
            )
            # a handler hit's only init cost is the unpause, which has no column
            if row["tier"] == "HandlerHit":
                parts += unpause_ms
            if int(row["total_ms"]) != parts:
                bad_totals += 1
    if sum(seen.values()) != requests:
        problems.append(f"simulate: per-request CSV has {sum(seen.values())} rows, not {requests}")
    if {t: n for t, n in tiers.items() if n} != dict(seen):
        problems.append(f"simulate: per-request tiers {dict(seen)} != result {tiers}")
    if bad_totals:
        problems.append(f"simulate: {bad_totals} rows whose total_ms is not the sum of its parts")
    return problems


def intra_group_similarity(groups, deps):
    """Mean Jaccard similarity over all within-group function pairs."""
    packages = {p: i for i, p in enumerate(sorted(set().union(*deps.values())))}
    total, pairs = 0.0, 0
    for group in groups:
        members = sorted(group)
        if len(members) < 2:
            continue
        matrix = np.zeros((len(members), len(packages)))
        for row, function_id in enumerate(members):
            matrix[row, [packages[p] for p in deps[function_id]]] = 1.0
        inter = matrix @ matrix.T
        sizes = matrix.sum(axis=1)
        union = sizes[:, None] + sizes[None, :] - inter
        upper = np.triu_indices(len(members), k=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            jaccard = np.where(union[upper] > 0, inter[upper] / union[upper], 0.0)
        total += float(jaccard.sum())
        pairs += len(jaccard)
    return total / pairs if pairs else 0.0
