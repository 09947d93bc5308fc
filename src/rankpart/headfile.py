"""Reading and writing head files.

Text format: one column per line, t+1 whitespace-separated integers, with a
single underscore allowed in place of one entry; the blank is filled from
the sum schedule.  Blank lines and lines starting with # are skipped.  The
modulus is inferred from the line width (t+1 entries means m = 2t+1).

JSON format: an object {"m": 5, "columns": [[1, 2, 0], ...]} where one entry
may be null; "m" is optional and cross-checked against the column width.
"""
from __future__ import annotations

import json
from pathlib import Path

from .config import ModulusConfig
from .enumeration import Head
from .greedy import complete_head
from .errors import ParseError

RawColumns = list[list[int | None]]


def _parse_text(content: str) -> RawColumns:
    columns: RawColumns = []
    width: int | None = None
    for lineno, raw in enumerate(content.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        entries: list[int | None] = []
        for colno, token in enumerate(line.split(), start=1):
            if token == "_":
                entries.append(None)
                continue
            try:
                entries.append(int(token))
            except ValueError:
                raise ParseError(f"expected an integer or '_', got {token!r}", lineno, colno)
        if width is None:
            width = len(entries)
        elif len(entries) != width:
            raise ParseError(f"line has {len(entries)} entries, earlier lines have {width}", lineno)
        columns.append(entries)
    if not columns:
        raise ParseError("no columns found")
    return columns


def _is_int(x: object) -> bool:
    # JSON true/false load as bool, which Python counts as int
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_json(content: str) -> tuple[RawColumns, int | None]:
    try:
        doc = json.loads(content)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", e.lineno, e.colno)
    if not isinstance(doc, dict) or "columns" not in doc:
        raise ParseError("JSON head must be an object with a 'columns' key")
    declared_m = doc.get("m")
    if declared_m is not None and not _is_int(declared_m):
        raise ParseError("'m' must be an integer")
    raw = doc["columns"]
    if not isinstance(raw, list) or not raw:
        raise ParseError("'columns' must be a non-empty list of lists")
    columns: RawColumns = []
    width: int | None = None
    for idx, col in enumerate(raw, start=1):
        if not isinstance(col, list):
            raise ParseError(f"column {idx} is not a list")
        for x in col:
            if x is not None and not _is_int(x):
                raise ParseError(f"column {idx} holds a non-integer entry {x!r}")
        if width is None:
            width = len(col)
        elif len(col) != width:
            raise ParseError(f"column {idx} has {len(col)} entries, earlier columns have {width}")
        columns.append(list(col))
    return columns, declared_m


def parse_head_file(path: str | Path) -> Head:
    """Read a head file (text or JSON), completing a single blank entry if present.

    Raises ParseError for malformed content and InvariantError (from head
    validation or completion) when the numbers themselves are inconsistent.
    """
    content = Path(path).read_text()
    declared_m: int | None = None
    if content.lstrip().startswith("{"):
        columns, declared_m = _parse_json(content)
    else:
        columns = _parse_text(content)
    width = len(columns[0])
    if width < 3:
        raise ParseError(f"columns need at least 3 entries, got {width}")
    m = 2 * width - 1
    if declared_m is not None and declared_m != m:
        raise ParseError(f"declared m={declared_m} does not match column width {width}")
    cfg = ModulusConfig(m)
    if any(x is None for col in columns for x in col):
        columns = [list(col) for col in complete_head(cfg, columns)]
    head = Head(cfg, tuple(tuple(sorted(col)) for col in columns))
    head.validate()
    return head


def serialize_head(head: Head, fmt: str = "text") -> str:
    """Render a head as text (one column per line) or canonical JSON."""
    if fmt == "text":
        return "\n".join(" ".join(str(x) for x in col) for col in head.columns) + "\n"
    if fmt == "json":
        doc = {"m": head.cfg.m, "columns": [list(col) for col in head.columns]}
        return json.dumps(doc, sort_keys=True) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
