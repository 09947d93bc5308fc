"""Run the benchmark several times and report each metric's median and spread.

    python3 perfbench/spread.py --workload census-wide --runs 10 --first-seed 1

Each run uses its own seed (first-seed, first-seed + 1, ...) and a fresh
process.  For every metric it prints the median, the quartiles and the
spread, i.e. the distance between the first and third quartile as a share
of the median (statistics.quantiles with n=4), of the end-to-end metrics.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().with_name("run.py")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        argv = [
            sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", "0",
        ]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        result = json.loads(proc.stdout.splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: run failed (exit code {proc.returncode})", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: " + ", ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)

    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else 0.0
        print(f"{args.workload} {name}: median {median:.6g} {units[name]}, "
              f"quartiles {q1:.6g}..{q3:.6g}, spread {spread:.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
