"""Exception types shared across the package."""
from __future__ import annotations


class RankPartError(Exception):
    """Base class for all errors raised by this package."""


class CollisionError(RankPartError):
    """The forced last entry of a column is already in use.

    Raised by the greedy extension and by head completion; it signals that
    the head is not extendable at the failing rank.
    """

    def __init__(self, rank: int, value: int):
        self.rank = rank
        self.value = value
        super().__init__(f"rank {rank}: forced value {value} is already used")


class NegativeError(RankPartError):
    """A head's blank entry, forced by the schedule, is negative; only head completion raises it."""

    def __init__(self, rank: int, value: int):
        self.rank = rank
        self.value = value
        super().__init__(f"rank {rank}: forced value {value} is negative")


class HorizonError(RankPartError):
    """An operation asked for ranks beyond the stored columns."""


class ResourceError(RankPartError):
    """An exhaustive search exceeded its node budget."""


class ParseError(RankPartError):
    """A head file could not be parsed; carries line/column context."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class InvariantError(RankPartError):
    """Structured data violates a partition or head invariant."""
