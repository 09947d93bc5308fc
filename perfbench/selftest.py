"""Self-test of the benchmark: tracer arithmetic and tracing transparency.

    python3 perfbench/selftest.py

Checks the self-time subtraction on nested spans driven by a fake clock,
then runs every workload at a small scale, once untraced and once traced,
and requires identical outputs, no failed call and span times that add up;
a tracer that leaves a span open must fail that last check.
Exits 0 when every check holds.
"""
from __future__ import annotations

import io
import shutil
import sys
from contextlib import redirect_stderr

import run
from tracer import Tracer, instrument, restore
from workloads import WORKLOADS

failures: list[str] = []


def check(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)


def near(a: float, b: float) -> bool:
    return abs(a - b) < 1e-9


def test_self_time_subtraction() -> None:
    ticks = iter([0, 1, 2, 4, 5, 6, 9, 10, 11, 12])
    t = Tracer(clock=lambda: next(ticks))
    t.enter("cli", "main")          # 0
    t.enter("census", "run")        # 1
    t.enter("greedy", "extend")     # 2
    t.exit()                        # 4: extend 2
    t.exit()                        # 5: run 4, self 2
    t.enter("greedy", "extend")     # 6
    t.exit()                        # 9: extend 3
    t.exit()                        # 10: main 10, self 10 - 4 - 3 = 3
    t.enter("render", "out")        # 11
    t.exit()                        # 12: out 1
    check(t.stats[("cli", "main")] == [1, 3, 10], f"main stats {t.stats[('cli', 'main')]}")
    check(t.stats[("census", "run")] == [1, 2, 4], f"run stats {t.stats[('census', 'run')]}")
    check(t.stats[("greedy", "extend")] == [2, 5, 5], f"extend stats {t.stats[('greedy', 'extend')]}")
    check(near(t.covered, 11), f"covered {t.covered}, expected 11")
    check(near(sum(s[1] for s in t.stats.values()), t.covered), "self times do not add up to covered time")


def test_spans_close_on_exceptions() -> None:
    import rankpart.cli as cli
    import rankpart.greedy as greedy

    original = cli.greedy_extend
    tracer = Tracer()
    saved = instrument(tracer)
    try:
        check(cli.greedy_extend is not original, "cli.greedy_extend was not wrapped")
        with redirect_stderr(io.StringIO()):
            code = cli.main(["generate", "--m", "7", "--head", "10", "--horizon", "64"])
    finally:
        restore(saved)
    check(code == 1, f"dead head exit code {code}, expected 1")
    check(cli.greedy_extend is original and greedy.greedy_extend is original, "originals not restored")
    check(tracer.counts["greedy.failed"] == 1, "failed extension not counted")
    check(not tracer._stack, "a span stayed open after an exception")


def test_small_runs() -> None:
    import rankpart.cli as cli

    work = run.WORK / "selftest"
    try:
        for name, build in WORKLOADS.items():
            calls = build(7, work / name, True)
            result = run.measure(cli, calls, 0, Tracer())
            for argv, problem in result["problems"]:
                check(False, f"{name}: {' '.join(argv)}: {problem}")
            metrics, info = run.per_layer(result)
            check("trace_error" not in info, f"{name}: {info.get('trace_error')}")
            check(not info["unreported_layers"], f"{name}: layers {info['unreported_layers']} not reported")
            if name == "census-deep":  # m=7: 75 groups extended inside the census, 13 classes
                check(metrics["greedy.extensions"] == 75, f"extensions {metrics['greedy.extensions']}")
                check(near(metrics["greedy.useful_ratio"], 13 / 75), f"useful {metrics['greedy.useful_ratio']}")
                check(metrics["enumeration.heads"] == 365, f"heads {metrics['enumeration.heads']}")
            print(f"{name}: {len(calls)} calls, untraced and traced outputs agree")
    finally:
        shutil.rmtree(work, ignore_errors=True)


class LeakyTracer(Tracer):
    """Leaves the first span it is asked to close open."""

    def exit(self) -> None:
        if not self.counts["leaked"]:
            self.counts["leaked"] = 1
            return
        super().exit()


def test_open_span_fails_the_trace_check() -> None:
    import rankpart.cli as cli

    work = run.WORK / "selftest-leak"
    try:
        calls = WORKLOADS["head-queries"](7, work, True)
        result = run.measure(cli, calls, 0, LeakyTracer())
        _, info = run.per_layer(result)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    check("spans left open" in info.get("trace_error", ""), f"open span passed the trace check: {info}")


def main() -> int:
    if not (run.SRC / "rankpart").is_dir():
        print(f"error: no rankpart sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    test_self_time_subtraction()
    test_spans_close_on_exceptions()
    test_small_runs()
    test_open_span_fails_the_trace_check()
    for message in failures:
        print(f"FAIL {message}")
    print("selftest passed" if not failures else f"selftest: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
