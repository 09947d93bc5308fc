"""Time the stages of one census in-process and print one JSON line.

Each run times, in this order: the head search with member ids
(enumeration.head_groups), the lockstep classification of its groups
(census._group_classes), the whole run_census call (both stages plus the
report), and rendering that report as the CLI's JSON (render.census_pieces).
The line holds the min and median of each stage over the runs, in ms.

Example:
    PYTHONPATH=src python3 scripts/census_stages.py --m 11 --horizon 4096 --runs 40
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from rankpart import ModulusConfig, head_groups, run_census
from rankpart.census import _group_classes
from rankpart.render import census_pieces


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
    times: dict[str, list[float]] = {"search": [], "classes": [], "census": [], "render": []}
    for _ in range(args.runs):
        elapsed, (_, groups) = _timed(lambda: head_groups(cfg))
        times["search"].append(elapsed)
        elapsed, _ = _timed(lambda: _group_classes(cfg, groups, args.horizon))
        times["classes"].append(elapsed)
        elapsed, report = _timed(lambda: run_census(args.m, args.horizon))
        times["census"].append(elapsed)
        elapsed, _ = _timed(lambda: "".join(census_pieces([report])))
        times["render"].append(elapsed)
    stages = {
        name: {"min_ms": round(min(ms), 3), "median_ms": round(statistics.median(ms), 3)}
        for name, ms in times.items()
    }
    print(json.dumps({"m": args.m, "horizon": args.horizon, "runs": args.runs, "stages": stages}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
