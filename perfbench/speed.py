"""Machine-speed probe: normalises measured times for a shared, noisy CPU.

On a shared machine the same single-threaded work can take up to twice as
long from one minute to the next, because neighbours compete for the cores
and their caches.  Medians over a run do not remove that: the slow stretches
last longer than a run.  So while a pass runs, a separate probe process
wakes every INTERVAL_S and times a fixed piece of work: a few steps of a
greedy column extension (set lookups, small tuples, list appends), written
here and not taken from the package, so that it slows down under contention
the way the package's own code does.  It runs in its own process, so the
measured program's heap, garbage collector and cache footprint on its own
core do not reach it.  REFERENCE_S over the probe's time is the machine's
speed at that moment (1.0 at the reference speed, 0.5 when the machine
delivers half of it), and a measured interval counts for its duration times
the mean speed sampled around it: the seconds it would have taken at the
reference speed.

    python3 perfbench/speed.py    # the probe process: samples until stdin closes
"""
from __future__ import annotations

import bisect
import json
import select
import subprocess
import sys
import time

INTERVAL_S = 0.01
# Samples this close before or after an interval count for it too: one
# sample is noisy, and the machine's speed changes over seconds, not
# milliseconds.
WINDOW_S = 0.25
STEPS = 10
RESET_AFTER = 4000  # columns; keeps the probe's state at about 2 MB
# Probe time that counts as speed 1.0: the median probe time on a 2.1 GHz
# Xeon under CPython 3.11 while the benchmark runs on the other core.
REFERENCE_S = 20e-6


class _Extension:
    """Greedy extension with m = 11: five smallest unused integers plus a forced last entry."""

    def __init__(self) -> None:
        self.used = set(range(30))
        self.cursor = 30
        self.columns: list[tuple[int, ...]] = []

    def steps(self, count: int) -> None:
        used = self.used
        for _ in range(count):
            picks = []
            v = self.cursor
            while len(picks) < 5:
                if v not in used:
                    picks.append(v)
                v += 1
            n = len(self.columns) + 6
            last = 36 * (n - 1) + 5 * ((n - 1) // 2) + 15 - sum(picks)
            column = (*picks, last if last not in used else v + 7)
            self.columns.append(column)
            used.update(column)
            while self.cursor in used:
                self.cursor += 1


def sample_until_stdin_closes() -> None:
    """The probe process: (clock, probe time) samples, printed as JSON when stdin closes."""
    extension = _Extension()
    samples = []
    ready = False
    while True:
        extension.steps(1)  # untimed: brings the probe's state back into the cache
        start = time.perf_counter()
        extension.steps(STEPS)
        samples.append((start, time.perf_counter() - start))
        if len(extension.columns) >= RESET_AFTER:
            extension = _Extension()
        if not ready:
            print("ready", flush=True)
            ready = True
        if select.select([sys.stdin], [], [], INTERVAL_S)[0]:
            break
    print(json.dumps(samples), flush=True)


class SpeedProbe:
    """Samples of machine speed, taken by a probe process between `start` and `stop`."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.speeds: list[float] = []
        self._proc: subprocess.Popen | None = None

    def start(self) -> None:
        """Start the probe process and wait for its first sample."""
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        if self._proc.stdout.readline().strip() != "ready":
            self.stop()
            raise RuntimeError("the speed probe process did not start")

    def stop(self) -> None:
        """Stop the probe process, wait for it to end and keep its samples."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        out, _ = proc.communicate(timeout=60)
        for start, elapsed in json.loads(out or "[]"):
            self.times.append(start)
            self.speeds.append(REFERENCE_S / elapsed)

    def normalise(self, begin: float, end: float) -> float:
        """Seconds between two `time.perf_counter` readings, at the reference speed.

        Call it after `stop`.  Every process reads the same monotonic clock,
        so the probe's sample times compare with the caller's.
        """
        first = bisect.bisect_left(self.times, begin - WINDOW_S)
        stop = bisect.bisect_right(self.times, end + WINDOW_S)
        if first == stop:  # no sample that close: take the nearest one
            first = min(first, len(self.times) - 1)
            stop = first + 1
        window = self.speeds[first:stop]
        return (end - begin) * sum(window) / len(window)


if __name__ == "__main__":
    sample_until_stdin_closes()
