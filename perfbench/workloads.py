"""Benchmark workloads: CLI calls built from a seed, with checks on their output.

Every check compares semantic fields against answers recorded in
reference.json, or against closed forms computed here, never against the
package's own helpers or against output bytes.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text())

HEAD_QUERY_HORIZON = 1024
HEAD_QUERY_SHOWN = 46
HEAD_QUERY_MODULI = (5, 7, 9)
HEAD_FILE_SHARE = 0.25


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the check of its (exit code, stdout)."""

    argv: tuple[str, ...]
    check: Callable[[int, str], str | None]  # returns a problem, or None when correct


def schedule_sum(m: int, n: int) -> int:
    """S(n) = (t+1)^2 (n-1) + t*floor((n-1)/2) + t(t+1)/2 with m = 2t+1."""
    t = (m - 1) // 2
    return (t + 1) ** 2 * (n - 1) + t * ((n - 1) // 2) + t * (t + 1) // 2


def standard_column(m: int, n: int) -> tuple[int, ...]:
    t = (m - 1) // 2
    base = (t + 1) * (n - 1) - n // 2
    return tuple(base + i for i in range(1, t + 1)) + (m * (n - 1),)


def enumerate_heads(m: int, columns: int = 5) -> list[tuple[tuple[int, ...], ...]]:
    """Every head of pairwise-disjoint sum-conforming columns, in lexicographic order.

    Independent of the package, so head files and ids are built without it.
    """
    width = (m - 1) // 2 + 1
    heads: list[tuple[tuple[int, ...], ...]] = []
    cols: list[tuple[int, ...]] = []
    used: set[int] = set()

    def parts(lo: int, rem: int, k: int, prefix: tuple[int, ...]):
        if k == 0:
            if rem == 0:
                yield prefix
            return
        v = lo
        while v * k + k * (k - 1) // 2 <= rem:
            if v not in used:
                yield from parts(v + 1, rem - v, k - 1, prefix + (v,))
            v += 1

    def rec(c: int) -> None:
        if c > columns:
            heads.append(tuple(cols))
            return
        for col in list(parts(0, schedule_sum(m, c), width, ())):
            cols.append(col)
            used.update(col)
            rec(c + 1)
            used.difference_update(col)
            cols.pop()

    rec(1)
    return heads


def _check_census(ref: dict, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit code {code}, expected 0"
    try:
        doc = json.loads(out)
        got = {
            "heads": doc["heads"],
            "dedup_groups": doc["dedup_groups"],
            "non_extendable": len(doc["non_extendable"]),
            "classes": doc["classes"],
        }
    except (ValueError, KeyError, TypeError) as e:
        return f"census output unreadable: {e!r}"
    return None if got == ref else f"census gave {got}, expected {ref}"


def _check_verify(code: int, out: str) -> str | None:
    if code != 0:
        return f"exit code {code}, expected 0"
    lines = out.splitlines()
    if not lines:
        return "no output"
    checks = lines[:-1]
    failing = [line for line in checks if not line.startswith("PASS ")]
    if failing:
        return f"checks not passing: {failing}"
    names = {line[len("PASS "):].split(":", 1)[0] for line in checks}
    missing = [n for n in REFERENCE["verify_checks"] if n not in names]
    if missing:
        return f"checks missing: {missing}"
    if lines[-1] != f"all {len(checks)} checks passed":
        return f"summary line {lines[-1]!r}"
    return None


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split()]


def _check_generate(m: int, expected_code: int, code: int, out: str) -> str | None:
    if code != expected_code:
        return f"exit code {code}, expected {expected_code}"
    if code != 0:
        return None if out == "" else "output printed on failure"
    rows = out.splitlines()
    if len(rows) != HEAD_QUERY_SHOWN:
        return f"{len(rows)} rows, expected {HEAD_QUERY_SHOWN}"
    seen: set[int] = set()
    for n, row in enumerate(rows, start=1):
        col = _ints(row)
        if len(col) != (m + 1) // 2 or sum(col) != schedule_sum(m, n):
            return f"rank {n} row {row!r} does not sum to S({n}) = {schedule_sum(m, n)}"
        if seen.intersection(col) or len(set(col)) != len(col):
            return f"rank {n} row {row!r} repeats an element"
        seen.update(col)
    return None


def _check_diff(m: int, expected_code: int, code: int, out: str) -> str | None:
    if code != expected_code:
        return f"exit code {code}, expected {expected_code}"
    if code != 0:
        return None if out == "" else "output printed on failure"
    lines = out.splitlines()
    if not lines:
        return "no output"
    rank_lines = lines[:-1]
    if lines[-1] != f"{len(rank_lines)} differing ranks through {HEAD_QUERY_HORIZON}":
        return f"summary line {lines[-1]!r}"
    last = 0
    for line in rank_lines:
        try:
            label, cols = line.split(": ", 1)
            n = int(label.removeprefix("rank "))
            std_text, got_text = cols.split(" -> ")
            std, got = tuple(_ints(std_text)), tuple(_ints(got_text))
        except ValueError:
            return f"unreadable line {line!r}"
        if not last < n <= HEAD_QUERY_HORIZON:
            return f"rank {n} out of order"
        last = n
        if std != standard_column(m, n) or got == std:
            return f"rank {n}: {line!r} is not a difference from the standard column"
        if len(got) != len(std) or sum(got) != schedule_sum(m, n):
            return f"rank {n}: {got} does not sum to S({n}) = {schedule_sum(m, n)}"
    return None


def census_calls(m: int, horizon: int) -> list[Call]:
    ref = REFERENCE["census"][f"{m}@{horizon}"]
    argv = ("census", "--m", str(m), "--horizon", str(horizon))
    return [Call(argv, lambda code, out: _check_census(ref, code, out))]


def verify_calls(m: int, horizon: int) -> list[Call]:
    return [Call(("verify", "--m", str(m), "--horizon", str(horizon)), _check_verify)]


def head_query_calls(seed: int, workdir: Path, count: int) -> list[Call]:
    """A seeded mix of generate and diff calls; a share names the head by file.

    The seed picks the heads and the order.  The mix itself is fixed, each
    modulus and command getting the same share and a fixed quarter of every
    share going through a head file, so that a pass costs the same whatever
    the seed.
    """
    rng = random.Random(seed)
    kinds = [(m, command) for m in HEAD_QUERY_MODULI for command in ("generate", "diff")]
    per_kind = count // len(kinds)
    by_file = round(per_kind * HEAD_FILE_SHARE)
    picks = [
        (m, command, i < by_file)
        for m, command in kinds
        for i in range(per_kind)
    ]
    rng.shuffle(picks)
    heads = {}
    calls = []
    for m, command, as_file in picks:
        if m not in heads:
            heads[m] = enumerate_heads(m)
            if len(heads[m]) != REFERENCE["head_counts"][str(m)]:
                raise RuntimeError(f"m={m}: {len(heads[m])} heads, reference says otherwise")
        head_id = rng.randint(1, len(heads[m]))
        if as_file:
            path = workdir / f"m{m}-head{head_id}.txt"
            if not path.exists():
                workdir.mkdir(parents=True, exist_ok=True)
                lines = (" ".join(map(str, col)) for col in heads[m][head_id - 1])
                path.write_text("\n".join(lines) + "\n")
            head = str(path)
        else:
            head = str(head_id)
        argv = (command, "--m", str(m), "--head", head, "--horizon", str(HEAD_QUERY_HORIZON))
        dead = head_id in REFERENCE["non_extendable_heads_at_1024"][str(m)]
        expected = 1 if dead else 0
        if command == "generate":
            argv += ("--show", str(HEAD_QUERY_SHOWN))
            check = lambda code, out, m=m, e=expected: _check_generate(m, e, code, out)
        else:
            check = lambda code, out, m=m, e=expected: _check_diff(m, e, code, out)
        calls.append(Call(argv, check))
    return calls


# name -> build(seed, workdir, small): the calls of one pass.  `small` gives a
# quick variant for the self-test.  Why each workload was chosen is recorded
# in BENCHMARK.json and README.md.
WORKLOADS: dict[str, Callable[[int, Path, bool], list[Call]]] = {
    "census-deep": lambda seed, workdir, small: census_calls(7, 256) if small else census_calls(11, 4096),
    "census-wide": lambda seed, workdir, small: census_calls(9, 64) if small else census_calls(13, 64),
    "verify-long": lambda seed, workdir, small: verify_calls(5, 2048 if small else 16384),
    "head-queries": lambda seed, workdir, small: head_query_calls(seed, workdir, 48 if small else 300),
}
