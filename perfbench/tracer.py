"""Span tracer for the benchmark's traced runs.

Spans nest on a stack.  A span's self time is its duration minus the time
its child spans cover, so the self times of all spans add up to the time
covered by the outermost spans.  Only aggregates are kept: per (layer,
function) the call count, self time and total time.

`instrument` wraps the package's public functions at every module attribute
where they are looked up.  The modules import functions by name, so
`rankpart.census.greedy_extend` is wrapped as well as
`rankpart.greedy.greedy_extend`; a span's layer is the module that defines
the function.  `restore` puts the original functions back.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

# Per-rank and per-element helpers: a wrapper would cost more than they do
# and would inflate their caller's time.
LEAVES = frozenset({"sum_schedule", "standard_column", "residue_set_index"})
# Public methods looked up on a class rather than a module.
METHODS = (("rankpart.partition", "Partition", "validate"),)


class Tracer:
    """Stack of open spans plus per-(layer, name) aggregates."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack: list[list] = []  # [layer, name, start, child_time]
        self.stats: dict[tuple[str, str], list] = {}  # -> [calls, self_s, total_s]
        self.covered = 0.0  # summed duration of outermost spans
        self.left_open = 0  # spans still open when a pass ended
        self.counts: Counter = Counter()

    def enter(self, layer: str, name: str) -> None:
        self._stack.append([layer, name, self.clock(), 0.0])

    def exit(self) -> None:
        layer, name, start, child = self._stack.pop()
        duration = self.clock() - start
        stat = self.stats.setdefault((layer, name), [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += duration - child
        stat[2] += duration
        if self._stack:
            self._stack[-1][3] += duration
        else:
            self.covered += duration

    def end_pass(self) -> None:
        """Count and drop the spans still open at the end of a pass."""
        self.left_open += len(self._stack)
        self._stack.clear()

    def inside(self, layer: str) -> bool:
        """True when an open span belongs to the layer."""
        return any(frame[0] == layer for frame in self._stack)

    def _total(self, field: int, layer: str, names: tuple[str, ...] | None) -> float:
        return sum(
            stat[field]
            for (lay, name), stat in self.stats.items()
            if lay == layer and (names is None or name in names)
        )

    def self_time(self, layer: str, names: tuple[str, ...] | None = None) -> float:
        return self._total(1, layer, names)

    def calls(self, layer: str, names: tuple[str, ...] | None = None) -> int:
        return self._total(0, layer, names)


def _observe(tracer: Tracer, name: str, args: tuple, kwargs: dict, result, error) -> None:
    """Counts taken at the layer boundary, from a call's arguments and result."""
    c = tracer.counts
    if name == "greedy_extend":
        prefix = len(args[1] if len(args) > 1 else kwargs["columns"])
        if error is None:
            ranks = result.horizon - prefix
        else:
            ranks = max(getattr(error, "rank", prefix + 1) - prefix - 1, 0)
            c["greedy.failed"] += 1
        c["greedy.ranks"] += ranks
        if tracer.inside("census"):
            c["census.extensions"] += 1
    elif error is not None:
        return
    elif name == "enumerate_heads_general":
        c["enumeration.heads"] += len(result)
    elif name == "dedup_heads":
        c["enumeration.groups"] += len(result)
    elif name == "run_census" and not tracer.inside("census"):
        c["census.classes"] += result.classes
    elif name.startswith("render_"):
        c["render.bytes"] += len(result.encode())


def _wrap(tracer: Tracer, fn, layer: str, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(layer, name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as e:
            tracer.exit()
            _observe(tracer, name, args, kwargs, None, e)
            raise
        tracer.exit()
        _observe(tracer, name, args, kwargs, result, None)
        return result

    return wrapper


def _layer(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


def instrument(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every public package function at each module attribute that holds it.

    Returns the (owner, attribute, original) triples that `restore` needs.
    """
    saved: list[tuple[object, str, object]] = []
    for mod_name in sorted(m for m in sys.modules if m.startswith("rankpart.")):
        module = sys.modules[mod_name]
        for attr, value in list(vars(module).items()):
            if (
                attr.startswith("_")
                or attr in LEAVES
                or not inspect.isfunction(value)
                or not value.__module__.startswith("rankpart.")
            ):
                continue
            saved.append((module, attr, value))
            setattr(module, attr, _wrap(tracer, value, _layer(value), value.__name__))
    for mod_name, cls_name, attr in METHODS:
        cls = getattr(sys.modules[mod_name], cls_name)
        method = vars(cls)[attr]
        saved.append((cls, attr, method))
        setattr(cls, attr, _wrap(tracer, method, _layer(method), f"{cls_name}.{attr}"))
    return saved


def restore(saved: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)
