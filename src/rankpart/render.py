"""Rendering partitions, census reports, and check results for the CLI.

Text tables follow the vertical convention: sets are columns, ranks are
rows, so the first row of the m=5 standard partition reads "1 2 0".  JSON is
the canonical machine format (sorted keys); text and CSV are deterministic
within a version but not guaranteed byte-stable across versions.
"""
from __future__ import annotations

import json

from .census import CensusReport
from .checks import CheckResult
from .partition import Partition


def render_partition(p: Partition, shown: int, fmt: str = "text") -> str:
    """First `shown` ranks of a partition in the requested format."""
    if not 1 <= shown <= p.horizon:
        raise ValueError(f"columns shown must be within 1..{p.horizon}, got {shown}")
    if fmt == "text":
        return "\n".join(" ".join(str(x) for x in col) for col in p.columns[:shown]) + "\n"
    if fmt == "csv":
        lines = ["set,rank,value"]
        for i in range(1, p.cfg.set_count + 1):
            for n in range(1, shown + 1):
                lines.append(f"{i},{n},{p.columns[n - 1][i - 1]}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        doc = {
            "m": p.cfg.m,
            "columns_shown": shown,
            "sets": [list(p.set_elements(i)[:shown]) for i in range(1, p.cfg.set_count + 1)],
        }
        return json.dumps(doc, sort_keys=True) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def _indented(value, indent: str = "") -> str:
    """json.dumps(value, sort_keys=True, indent=2) for dicts with string keys, lists and scalars.

    The standard encoder runs in pure Python whenever indent is set; here a
    list of ints, such as a group's member ids, is written in one join.
    """
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (f"{json.dumps(k)}: {_indented(value[k], inner)}" for k in sorted(value))
        return f"{{\n{inner}{sep.join(items)}\n{indent}}}"
    if isinstance(value, list):
        if not value:
            return "[]"
        if all(type(x) is int for x in value):
            items = map(str, value)
        else:
            items = (_indented(x, inner) for x in value)
        return f"[\n{inner}{sep.join(items)}\n{indent}]"
    return json.dumps(value)


def render_census(reports: list[CensusReport], fmt: str = "json") -> str:
    """One or more census reports as JSON (list collapses to a single object).

    The JSON is byte for byte json.dumps(payload, sort_keys=True, indent=2).
    """
    docs = [r.to_dict() for r in reports]
    if fmt == "json":
        return _indented(docs[0] if len(docs) == 1 else docs) + "\n"
    if fmt == "csv":
        lines = ["protocol,field,value"]
        for doc in docs:
            for field in sorted(doc):
                value = doc[field]
                if isinstance(value, list):
                    value = ";".join(
                        " ".join(str(x) for x in v) if isinstance(v, list) else str(v)
                        for v in value
                    )
                elif isinstance(value, dict):
                    value = ";".join(f"{k}={v}" for k, v in sorted(value.items()))
                lines.append(f"{doc['protocol']},{field},\"{value}\"")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def render_checks(results: list[CheckResult]) -> str:
    """One PASS/FAIL line per check plus a summary line."""
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results
    ]
    failed = sum(1 for r in results if not r.passed)
    lines.append(
        f"{len(results) - failed}/{len(results)} checks passed"
        if failed
        else f"all {len(results)} checks passed"
    )
    return "\n".join(lines) + "\n"
