"""Time fresh `python -m rankpart.cli` runs of each subcommand and print one JSON line each.

Each subcommand runs on a small input, so the time is mostly start-up:
the interpreter, the imports and the argument parser.  A first run under
`-X importtime` is not timed; it lists the rankpart modules the command
imports (the CLI module itself runs as __main__ and is not listed) and
leaves the byte-code caches warm where writing them is allowed.  Then
--runs timed runs follow; the line holds their min and median wall time in
ms, measured around the child process.  It also holds parse_us, the
in-process minimum over 200 parses of the same argv by `rankpart.cli.parse_args`,
the parsing `main` does, so a slower parser shows without the benchmark.

Example:
    PYTHONPATH=src python3 scripts/startup.py --runs 9
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from rankpart.cli import parse_args as parse_cli_args

PARSES = 200

COMMANDS = {
    "generate": ("generate", "--head", "8", "--horizon", "64", "--show", "5"),
    "census": ("census", "--m", "5", "--horizon", "64"),
    "verify": ("verify", "--m", "5", "--horizon", "256"),
    "diff": ("diff", "--head", "8", "--horizon", "64"),
    "reshuffle": ("reshuffle", "--family", "i", "--kmax", "3", "--horizon", "64", "--show", "5"),
}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=9, help="timed runs per subcommand")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    return args


def run_cli(argv: tuple[str, ...], *options: str) -> subprocess.CompletedProcess:
    """One fresh `python -m rankpart.cli` run; it must exit 0."""
    done = subprocess.run(
        [sys.executable, *options, "-m", "rankpart.cli", *argv],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    if done.returncode != 0:
        raise RuntimeError(f"rankpart {' '.join(argv)} exited {done.returncode}: {done.stderr}")
    return done


def imported_modules(argv: tuple[str, ...]) -> list[str]:
    """The rankpart modules a run imports, read from its -X importtime report."""
    report = run_cli(argv, "-X", "importtime").stderr
    names = (line.rsplit("|", 1)[-1].strip() for line in report.splitlines() if line.startswith("import time:"))
    return sorted({name for name in names if name.split(".")[0] == "rankpart"})


def parse_us(argv: tuple[str, ...]) -> float:
    """The least time, in µs, of PARSES in-process parses of argv as `rankpart.cli.main` parses it."""
    times = []
    for _ in range(PARSES):
        started = time.perf_counter()
        parse_cli_args(list(argv))
        times.append(time.perf_counter() - started)
    return min(times) * 1e6


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    for command, cli_argv in COMMANDS.items():
        modules = imported_modules(cli_argv)
        times = []
        for _ in range(args.runs):
            started = time.perf_counter()
            run_cli(cli_argv)
            times.append((time.perf_counter() - started) * 1e3)
        print(json.dumps({
            "command": command,
            "argv": list(cli_argv),
            "runs": args.runs,
            "min_ms": round(min(times), 1),
            "median_ms": round(statistics.median(times), 1),
            "parse_us": round(parse_us(cli_argv), 1),
            "modules": modules,
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
