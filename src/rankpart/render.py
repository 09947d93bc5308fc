"""Rendering partitions, census reports, and check results for the CLI.

Text tables follow the vertical convention: sets are columns, ranks are
rows, so the first row of the m=5 standard partition reads "1 2 0".  JSON is
the canonical machine format (sorted keys); text and CSV are deterministic
within a version but not guaranteed byte-stable across versions.
"""
from __future__ import annotations

import json
from array import array
from collections.abc import Iterator
from typing import TYPE_CHECKING

if TYPE_CHECKING:
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
            "sets": [[col[i] for col in p.columns[:shown]] for i in range(p.cfg.set_count)],
        }
        return json.dumps(doc, sort_keys=True) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def _indented(value, indent: str = "") -> Iterator[str]:
    """json.dumps(value, sort_keys=True, indent=2), in pieces.

    value is a dict with string keys, a sequence or a scalar; a sequence is
    a list, a tuple or an array of ids.  The standard encoder runs in pure
    Python whenever indent is set; here an id array, such as a group's member
    ids, is written in one join without looking at its elements (an
    array('q') holds only ints), and so is a list or tuple of ints.  The
    pieces are yielded as they are made, so the text is not copied again at
    every level of nesting.
    """
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        if not value:
            yield "{}"
            return
        head = "{\n" + inner
        for key in sorted(value):
            yield f"{head}{json.dumps(key)}: "
            yield from _indented(value[key], inner)
            head = sep
        yield f"\n{indent}}}"
    elif isinstance(value, (array, list, tuple)):
        if not value:
            yield "[]"
        elif isinstance(value, array) or all(type(x) is int for x in value):
            yield f"[\n{inner}{sep.join(map(str, value))}\n{indent}]"
        else:
            head = "[\n" + inner
            for x in value:
                yield head
                yield from _indented(x, inner)
                head = sep
            yield f"\n{indent}]"
    else:
        yield json.dumps(value)


def census_pieces(reports: list[CensusReport], fmt: str = "json") -> Iterator[str]:
    """The text of render_census, in pieces as they are made.

    A caller that writes each piece as it comes never holds the whole text.
    """
    if fmt == "json":
        docs = [r._json_fields() for r in reports]
        yield from _indented(docs[0] if len(docs) == 1 else docs)
        yield "\n"
    elif fmt == "csv":
        yield "protocol,field,value\n"
        for doc in (r.to_dict() for r in reports):
            for field in sorted(doc):
                value = doc[field]
                if isinstance(value, list):
                    value = ";".join(
                        " ".join(str(x) for x in v) if isinstance(v, list) else str(v)
                        for v in value
                    )
                elif isinstance(value, dict):
                    value = ";".join(f"{k}={v}" for k, v in sorted(value.items()))
                yield f"{doc['protocol']},{field},\"{value}\"\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")


def render_census(reports: list[CensusReport], fmt: str = "json") -> str:
    """One or more census reports as JSON (list collapses to a single object).

    The JSON is byte for byte json.dumps(payload, sort_keys=True, indent=2)
    of the reports' to_dict(), written from the reports' own id arrays and
    tuples without that copy.  CSV reads to_dict().  The text is the join
    of census_pieces.
    """
    return "".join(census_pieces(reports, fmt))


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
