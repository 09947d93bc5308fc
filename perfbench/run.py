"""Benchmark for the rankpart CLI.

    python3 perfbench/run.py --workload census-deep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout.  Each workload runs in one fresh,
single-threaded process that drives `rankpart.cli.main(argv)` in-process in a
closed loop with one caller, captures stdout and checks every output.  A
pass is the workload's list of calls once; passes repeat until the next one
would end after --seconds.

--trace 0 prints the end-to-end metrics: median pass time, peak RSS, set-up
time (median over fresh interpreters that import the package and build the
inputs) and per-call latency.  Times are normalised to a reference machine
speed (see speed.py); the raw times are in the info line.  --trace 1
alternates untraced and traced passes and prints the per-layer split taken
by wrapping the package's functions (see tracer.py).  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from speed import SpeedProbe
from tracer import Tracer, instrument, restore
from workloads import WORKLOADS, Call

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 11

LAYERS = (
    "cli", "census", "checks", "enumeration", "equivalence",
    "greedy", "headfile", "partition", "render", "reshuffle",
)
# Largest share of a traced pass that may lie outside the cli.main spans.
MAX_UNCOVERED = 0.02
# (metric, layer, functions) for the stage splits inside a layer
SPLITS = (
    ("enumeration.enumerate_s", "enumeration", ("enumerate_heads_general", "enumerate_heads")),
    ("enumeration.dedup_s", "enumeration", ("dedup_heads",)),
    ("equivalence.classify_s", "equivalence", ("classify",)),
    ("equivalence.pairwise_s", "equivalence", ("equivalent_up_to",)),
    ("equivalence.signature_s", "equivalence", ("signature_matches", "signature_witness", "check_signature")),
    ("equivalence.diff_s", "equivalence", ("diff_vs_standard",)),
    ("partition.standard_s", "partition", ("standard_partition",)),
    ("partition.validate_s", "partition", ("Partition.validate",)),
)
UNITS = {"peak_rss_mb": "MB", "greedy.ns_per_rank": "ns", "greedy.useful_ratio": "ratio", "render.bytes": "bytes"}


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    return "ms" if metric.endswith("_ms") else "s" if metric.endswith("_s") else "count"


@dataclass
class CallResult:
    raw_s: float  # clock time of the call
    norm_s: float  # at the reference machine speed
    problem: str | None
    digest: str | None


def invoke(cli, call: Call) -> tuple[int | None, str]:
    """Run one CLI call: (exit code, stdout), or (None, traceback) when it raises."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(call.argv))
    except Exception:
        return None, traceback.format_exc()
    return code, out.getvalue()


def run_pass(cli, calls: list[Call], probe: SpeedProbe, tracer: Tracer | None) -> list[CallResult]:
    """One pass; only the calls themselves are timed, not the checks of their output."""
    saved = instrument(tracer) if tracer is not None else []
    timed = []
    probe.start()
    try:
        for call in calls:
            begin = time.perf_counter()
            code, text = invoke(cli, call)
            end = time.perf_counter()
            if code is None:
                problem, digest = text, None
            else:
                problem = call.check(code, text)
                digest = hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()
            timed.append((begin, end, problem, digest))
    finally:
        probe.stop()
        restore(saved)
        if tracer is not None:
            tracer.end_pass()
    return [
        CallResult(end - begin, probe.normalise(begin, end), problem, digest)
        for begin, end, problem, digest in timed
    ]


def percentile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = git / ref[5:]
        if ref_path.exists():
            return ref_path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unknown"


def measure_setup(workload: str, seed: int, out_dir: Path) -> tuple[list[float], list[float]]:
    """Seconds from interpreter start to ready in fresh processes: (normalised, raw).

    A first, untimed process leaves the byte-code caches warm.
    """
    probe = SpeedProbe()
    spans = []
    probe.start()
    try:
        for i in range(SETUP_REPEATS + 1):
            argv = [
                sys.executable, str(Path(__file__).resolve()), "--setup-only",
                "--workload", workload, "--seed", str(seed), "--workdir", str(out_dir / f"setup{i}"),
            ]
            start = time.perf_counter()
            proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120)
            end = time.perf_counter()
            if proc.returncode != 0:
                raise RuntimeError(f"set-up process failed: {proc.stderr}")
            if i:
                spans.append((start, end))
    finally:
        probe.stop()
    return [probe.normalise(*span) for span in spans], [end - start for start, end in spans]


def setup_only(args: argparse.Namespace) -> int:
    import rankpart.cli  # noqa: F401  (the import is part of what is timed)

    WORKLOADS[args.workload](args.seed, args.workdir, False)
    return 0


def measure(cli, calls: list[Call], seconds: float, tracer: Tracer | None) -> dict:
    """Run passes until the next would end after `seconds`; with a tracer, traced passes alternate."""
    trace = tracer is not None
    probe = SpeedProbe()
    untraced: list[list[CallResult]] = []
    traced: list[list[CallResult]] = []
    pass_clock: list[float] = []
    start = time.perf_counter()
    while True:
        traced_pass = trace and len(traced) < len(untraced)
        gc.collect()
        t0 = time.perf_counter()
        results = run_pass(cli, calls, probe, tracer if traced_pass else None)
        pass_clock.append(time.perf_counter() - t0)
        (traced if traced_pass else untraced).append(results)
        enough = len(traced) >= 1 if trace else True
        projected = time.perf_counter() - start + statistics.median(pass_clock)
        if enough and projected > seconds:
            break

    problems = []
    for results in untraced + traced:
        problems += [(calls[i].argv, r.problem) for i, r in enumerate(results) if r.problem]
    reference = [r.digest for r in untraced[0]]
    for results in traced:
        for i, r in enumerate(results):
            if r.problem is None and r.digest != reference[i]:
                problems.append((calls[i].argv, "traced output differs from untraced output"))
    return {
        "untraced": untraced,
        "traced": traced,
        "tracer": tracer,
        "attempted": len(calls) * (len(untraced) + len(traced)),
        "problems": problems,
    }


def pass_wall(results: list[CallResult], raw: bool = False) -> float:
    return sum(r.raw_s if raw else r.norm_s for r in results)


def end_to_end(run: dict, setup: tuple[list[float], list[float]]) -> tuple[dict, dict]:
    walls = [pass_wall(p) for p in run["untraced"]]
    latencies = sorted(r.norm_s * 1000 for p in run["untraced"] for r in p)
    p90 = percentile(latencies, 0.9)
    metrics = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup[0]),
        "query_p50_ms": statistics.median(latencies),
        "query_p90_ms": p90,
    }
    raw_walls = [pass_wall(p, raw=True) for p in run["untraced"]]
    info = {
        "pass_walls_s": walls,
        "raw_pass_walls_s": raw_walls,
        "machine_speed": [w / r for w, r in zip(walls, raw_walls)],
        "setup_runs_s": setup[0],
        "raw_setup_runs_s": setup[1],
        "query_samples": len(latencies),
        "query_samples_above_p90": sum(1 for x in latencies if x > p90),
    }
    return metrics, info


def per_layer(run: dict) -> tuple[dict, dict]:
    """Per-layer metrics per traced pass, and the info line's trace figures.

    Every layer and stage split is reported on every workload, so a layer
    that a workload never calls reads 0.  The times are raw clock seconds;
    the overhead compares normalised passes.
    """
    tracer: Tracer = run["tracer"]
    n = len(run["traced"])
    counts = tracer.counts
    traced_wall = sum(pass_wall(p, raw=True) for p in run["traced"]) / n
    overhead = statistics.mean(map(pass_wall, run["traced"])) - statistics.mean(map(pass_wall, run["untraced"]))
    cli_s = tracer.stats.get(("cli", "main"), [0, 0.0, 0.0])[2] / n
    greedy_s = tracer.self_time("greedy", ("greedy_extend",))
    metrics = {f"{layer}.self_s": tracer.self_time(layer) / n for layer in LAYERS}
    metrics.update({name: tracer.self_time(layer, functions) / n for name, layer, functions in SPLITS})
    metrics.update({f"{layer}.calls": tracer.calls(layer) / n for layer in LAYERS})
    metrics.update({
        "greedy.extensions": tracer.calls("greedy", ("greedy_extend",)) / n,
        "greedy.ranks": counts["greedy.ranks"] / n,
        "greedy.failed": counts["greedy.failed"] / n,
        "greedy.ns_per_rank": greedy_s * 1e9 / counts["greedy.ranks"] if counts["greedy.ranks"] else 0.0,
        "greedy.useful_ratio": (
            counts["census.classes"] / counts["census.extensions"] if counts["census.extensions"] else 0.0
        ),
        "enumeration.enumerations": tracer.calls("enumeration", ("enumerate_heads_general",)) / n,
        "enumeration.heads": counts["enumeration.heads"] / n,
        "enumeration.groups": counts["enumeration.groups"] / n,
        "render.bytes": counts["render.bytes"] / n,
        "trace.wall_s": traced_wall,
        "trace.uncovered_s": traced_wall - cli_s,
        "trace.overhead_s": overhead,
    })
    info = {
        "traced_passes": n,
        "unreported_layers": sorted({layer for layer, _ in tracer.stats} - set(LAYERS)),
    }
    # Every span must close, every outermost span must be a cli.main call,
    # and those calls must account for the traced wall up to the harness's
    # own share (redirecting and capturing output).
    errors = []
    if tracer.left_open:
        errors.append(f"{tracer.left_open} spans left open")
    if abs(tracer.covered / n - cli_s) > 1e-6 * traced_wall:
        errors.append(f"{tracer.covered / n - cli_s:.6f} s per pass traced outside cli.main")
    if not 0 <= metrics["trace.uncovered_s"] <= MAX_UNCOVERED * traced_wall:
        errors.append(f"cli.main spans cover {cli_s:.6f} s of a {traced_wall:.6f} s traced pass")
    if errors:
        info["trace_error"] = "; ".join(errors)
    return metrics, info


def run_workload(args: argparse.Namespace) -> int:
    build = WORKLOADS[args.workload]
    started = loadavg()
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        setup = None if args.trace else measure_setup(args.workload, args.seed, work)
        import rankpart.cli as cli

        calls = build(args.seed, work / "inputs", False)
        run = measure(cli, calls, args.seconds, Tracer() if args.trace else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics, extra = per_layer(run) if args.trace else end_to_end(run, setup)
    failed = len(run["problems"])
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": started,
        "calls_per_pass": len(calls),
        "untraced_passes": len(run["untraced"]),
        "error_rate": failed / run["attempted"],
        **extra,
    }
    print(json.dumps({"info": info}))
    for argv, problem in run["problems"][:20]:
        print(f"FAILED {' '.join(argv)}: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit_of(name)}")
    correct = failed == 0 and "trace_error" not in extra
    result = {
        "correct": correct,
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("{")), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit code {proc.returncode})", file=sys.stderr)
            return 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "rankpart" / "cli.py").is_file():
        print(f"error: no rankpart sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        return setup_only(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
