"""Time the stages of one census in-process and print one JSON line.

Each run times, in this order: the bare head search, its batches walked
with nothing filed (walk); the head search with member ids
(enumeration.head_groups, search); the lockstep classification of its
groups (census._group_classes, classes); the whole run_census call (both
stages plus the report, census); rendering that report as the CLI's JSON
(render.census_pieces, render); and writing its group_members alone, the
head ids that make up most of that JSON (ids).  So "search - walk" is the
cost of filing the head ids and "render - ids" that of everything else in
the JSON.  The line holds the min and median of each stage over the runs,
in ms.

Example:
    PYTHONPATH=src python3 scripts/census_stages.py --m 11 --horizon 4096 --runs 40
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from collections import deque

from rankpart import ModulusConfig, head_groups, run_census
from rankpart.census import HEAD_COLUMNS, _group_classes
from rankpart.config import DEFAULT_NODE_BUDGET
from rankpart.enumeration import _head_batches
from rankpart.render import _indented, census_pieces


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--m", type=int, default=11)
    parser.add_argument("--horizon", type=int, default=4096)
    parser.add_argument("--runs", type=int, default=20)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    return args


def _timed(call) -> tuple[float, object]:
    started = time.perf_counter()
    result = call()
    return (time.perf_counter() - started) * 1e3, result


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    cfg = ModulusConfig(args.m)
    stages = ("walk", "search", "classes", "census", "render", "ids")
    times: dict[str, list[float]] = {name: [] for name in stages}
    for _ in range(args.runs):
        elapsed, _ = _timed(lambda: deque(_head_batches(cfg, HEAD_COLUMNS, DEFAULT_NODE_BUDGET), maxlen=0))
        times["walk"].append(elapsed)
        elapsed, (_, groups) = _timed(lambda: head_groups(cfg))
        times["search"].append(elapsed)
        elapsed, _ = _timed(lambda: _group_classes(cfg, groups, args.horizon))
        times["classes"].append(elapsed)
        elapsed, report = _timed(lambda: run_census(args.m, args.horizon))
        times["census"].append(elapsed)
        elapsed, _ = _timed(lambda: "".join(census_pieces([report])))
        times["render"].append(elapsed)
        elapsed, _ = _timed(lambda: "".join(_indented(report.group_members)))
        times["ids"].append(elapsed)
    summary = {
        name: {"min_ms": round(min(ms), 3), "median_ms": round(statistics.median(ms), 3)}
        for name, ms in times.items()
    }
    print(json.dumps({"m": args.m, "horizon": args.horizon, "runs": args.runs, "stages": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
