"""Rendering partitions, census reports, and check results for the CLI.

Text tables follow the vertical convention: sets are columns, ranks are
rows, so the first row of the m=5 standard partition reads "1 2 0".  JSON is
the canonical machine format (sorted keys); text and CSV are deterministic
within a version but not guaranteed byte-stable across versions.

A census is mostly head ids (199 513 of them at m=13).  Both census writers
write every id list, an array('q') or a list or tuple of ints, with one
%-format call (`_id_text`), so no Python code runs per id; JSON joins the
ids with ",\n" and the indent, CSV with " " or ";".
"""
from __future__ import annotations

import json
from array import array
from collections.abc import Iterator
from itertools import chain
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .census import CensusReport
    from .checks import CheckResult
    from .partition import Partition


# ranks per piece of a partition table: a streamed table holds this many columns at a time
_BLOCK = 4096


def _rank_blocks(shown: int) -> Iterator[range]:
    """Ranks 1..shown in consecutive runs of at most _BLOCK."""
    for lo in range(1, shown + 1, _BLOCK):
        yield range(lo, min(lo + _BLOCK, shown + 1))


def partition_pieces(p: Partition, shown: int, fmt: str = "text") -> Iterator[str]:
    """The text of render_partition, in pieces as they are made.

    Each piece covers at most _BLOCK ranks, read set by set as it is written
    through `Partition.set_run`, which builds no column (text zips the sets'
    runs into rows).  A caller that writes each piece as it comes holds a
    few thousand entries at a time, whatever `shown` is.
    Raises ValueError, before the first piece, for `shown` outside
    1..horizon or an unknown format.
    """
    if not 1 <= shown <= p.horizon:
        raise ValueError(f"columns shown must be within 1..{p.horizon}, got {shown}")
    sets = range(1, p.cfg.set_count + 1)
    if fmt == "text":
        row = " ".join(["%d"] * len(sets)) + "\n"
        for ranks in _rank_blocks(shown):
            yield (row * len(ranks)) % tuple(chain.from_iterable(zip(*[p.set_run(i, ranks) for i in sets])))
    elif fmt == "csv":
        yield "set,rank,value\n"
        for i in sets:
            for ranks in _rank_blocks(shown):
                yield "".join([f"{i},{n},{x}\n" for n, x in zip(ranks, p.set_run(i, ranks))])
    elif fmt == "json":  # json.dumps(doc, sort_keys=True) of {"m", "columns_shown", "sets": one list per set}
        yield f'{{"columns_shown": {shown}, "m": {p.cfg.m}, "sets": ['
        for i in sets:
            yield "[" if i == 1 else ", ["
            for ranks in _rank_blocks(shown):
                yield ("" if ranks.start == 1 else ", ") + _id_text(p.set_run(i, ranks), ", ")
            yield "]"
        yield "]}\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")


def render_partition(p: Partition, shown: int, fmt: str = "text") -> str:
    """First `shown` ranks of a partition in the requested format: the join of partition_pieces."""
    return "".join(partition_pieces(p, shown, fmt))


def _id_text(ids, sep: str) -> str:
    """The ints of ids, an array('q') or a list or tuple of ints, joined by sep.

    One %-format call writes them all; "%d" gives an int the text that str()
    and json.dumps give it.
    """
    if not ids:
        return ""
    return (("%d" + sep) * (len(ids) - 1) + "%d") % tuple(ids)


def _indented(value, indent: str = "") -> Iterator[str]:
    """json.dumps(value, sort_keys=True, indent=2), in pieces.

    value is a dict with string keys, a sequence or a scalar; a sequence is
    a list, a tuple or an array of ids.  The standard encoder runs in pure
    Python whenever indent is set; here an id array, such as a group's member
    ids, is written by one _id_text call without looking at its elements (an
    array('q') holds only ints), and so is a list or tuple whose elements are
    all exactly int.  Any other sequence, one holding a bool say, is written
    element by element.  The pieces are yielded as they are made, so the text
    is not copied again at every level of nesting.
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
            yield f"[\n{inner}{_id_text(value, sep)}\n{indent}]"
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
        for doc in (r._json_fields() for r in reports):
            for field in sorted(doc):
                value = doc[field]
                # an id list, or one id list per group or class
                if isinstance(value, (array, list, tuple)):
                    if value and isinstance(value[0], (array, list, tuple)):
                        value = ";".join([_id_text(ids, " ") for ids in value])
                    else:
                        value = _id_text(value, ";")
                elif isinstance(value, dict):
                    value = ";".join(f"{k}={v}" for k, v in sorted(value.items()))
                yield f"{doc['protocol']},{field},\"{value}\"\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")


def render_census(reports: list[CensusReport], fmt: str = "json") -> str:
    """One or more census reports as JSON (list collapses to a single object).

    The JSON is byte for byte json.dumps(payload, sort_keys=True, indent=2)
    of the reports' to_dict(), written from the reports' own id arrays and
    tuples without that copy; CSV reads the same arrays and tuples.  The
    text is the join of census_pieces.
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
