"""Column-extension algorithm: smallest unused integers plus a forced last entry.

Given a sum-conforming prefix, rank n is filled by placing the t smallest
integers not yet used anywhere into sets 1..t in increasing order and solving
for the last set's entry from the schedule: last = S(n) - (sum of the t
picks).  The step either succeeds or fails loudly; there is no repair logic.
A forced entry that is negative or already in use means the prefix simply
does not extend at that rank.

Because each step depends only on the rank and the set of used integers,
`lockstep_classes` extends many prefixes side by side and merges those whose
used sets meet, which sorts their extensions into equivalence classes.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence

from .config import ModulusConfig
from .errors import CollisionError, InvariantError, NegativeError
from .partition import Column, Partition, check_columns, sum_schedule


class PartitionBuilder:
    """Mutable extension state; single-owner, mutated linearly.

    Tracks the used-element set and a low-water cursor below which every
    integer is known to be used, so each step scans only a short window.
    """

    def __init__(self, cfg: ModulusConfig, columns: Iterable[Sequence[int]] = ()):
        self.cfg = cfg
        self.columns: list[Column] = [tuple(col) for col in columns]
        self._used = check_columns(cfg, self.columns)
        self._cursor = 0
        self._advance_cursor()

    def _advance_cursor(self) -> None:
        while self._cursor in self._used:
            self._cursor += 1

    @property
    def next_rank(self) -> int:
        return len(self.columns) + 1

    def extend_one(self) -> Column:
        """Fill the next rank; returns the new column."""
        t = self.cfg.t
        picks: list[int] = []
        v = self._cursor
        while len(picks) < t:
            if v not in self._used:
                picks.append(v)
            v += 1
        rank = self.next_rank
        last = sum_schedule(self.cfg, rank) - sum(picks)
        if last < 0:
            raise NegativeError(rank, last)
        if last in self._used or last in picks:
            raise CollisionError(rank, last)
        col = (*picks, last)
        self.columns.append(col)
        self._used.update(col)
        self._advance_cursor()
        return col

    def extend_to(self, horizon: int) -> None:
        while len(self.columns) < horizon:
            self.extend_one()

    def to_partition(self) -> Partition:
        return Partition(self.cfg, tuple(self.columns))


def greedy_extend(cfg: ModulusConfig, columns: Iterable[Sequence[int]], horizon: int) -> Partition:
    """Extend a sum-conforming prefix to the given horizon.

    Parameters
    ----------
    cfg : ModulusConfig
        Modulus parameter.
    columns : iterable of columns
        The prefix; each column must sum to the schedule and all elements
        must be pairwise distinct.  May be empty, in which case the whole
        partition is generated greedily from rank 1.
    horizon : int
        Total number of columns in the result.

    Raises
    ------
    CollisionError, NegativeError
        When some rank admits no valid forced entry; the failing rank is
        attached to the exception.
    InvariantError
        When the prefix itself is malformed.
    """
    builder = PartitionBuilder(cfg, columns)
    builder.extend_to(horizon)
    return builder.to_partition()


_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    """splitmix64 finaliser: a fixed, well-spread 64-bit key for each integer."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class _SetKeys(dict):
    """Memo of _mix64; the builders place mostly the same integers."""

    def __missing__(self, x: int) -> int:
        key = self[x] = _mix64(x)
        return key


def _merge_equal_states(
    builders: list[PartitionBuilder | None], hashes: list[int], live: list[int], parent: list[int]
) -> list[int]:
    """Merge live builders whose used sets coincide; returns the survivors in order.

    Builders are bucketed by set hash and a hit is confirmed by comparing the
    used sets exactly, so a hash collision never merges anything.  The later
    builder joins the earlier one's class and is dropped.
    """
    buckets: dict[int, list[int]] = {}
    survivors = []
    for i in live:
        bucket = buckets.setdefault(hashes[i], [])
        used = builders[i]._used
        for j in bucket:
            if builders[j]._used == used:
                parent[i] = j
                builders[i] = None
                break
        else:
            bucket.append(i)
            survivors.append(i)
    return survivors


def lockstep_classes(
    cfg: ModulusConfig, prefixes: Sequence[Iterable[Sequence[int]]], horizon: int
) -> list[int | None]:
    """Equivalence classes of the greedy extensions of equal-length prefixes.

    Returns, for each prefix, the index of the first prefix in its class, or
    None when the class's extension does not reach the horizon.  Two
    extensions are equivalent at horizon H when their columns agree beyond
    some rank N <= H/2 and their first N columns hold the same elements
    (see equivalence.equivalent_up_to).

    Greedy extension from rank n depends only on the set of used integers, so
    builders that reach the same used set at the same rank n have identical
    tails; with n <= H/2 that is exactly the equivalence above, and
    conversely equivalent extensions share their used set at rank H/2.  The
    builders are therefore stepped one rank at a time and, at the prefix
    rank and at every rank up to H/2, merged when their used sets coincide.
    A builder that hits a forced collision or a negative entry takes its
    whole class with it.  Past H/2 only the surviving roots extend, to settle
    which of them die before the horizon.

    Raises ValueError when the prefixes differ in length or the horizon is
    shorter than them, and InvariantError when a prefix is malformed.
    """
    builders: list[PartitionBuilder | None] = [PartitionBuilder(cfg, cols) for cols in prefixes]
    if not builders:
        return []
    start = len(builders[0].columns)
    if any(len(b.columns) != start for b in builders):
        raise ValueError("lockstep extension needs prefixes of equal length")
    if horizon < start:
        raise ValueError(f"horizon {horizon} is shorter than the {start}-column prefixes")
    key = _SetKeys().__getitem__
    hashes = [sum(map(key, b._used)) & _MASK64 for b in builders]
    parent = list(range(len(builders)))
    dead: set[int] = set()
    live = _merge_equal_states(builders, hashes, list(range(len(builders))), parent)
    for _ in range(start + 1, horizon // 2 + 1):
        stepped = []
        for i in live:
            try:
                col = builders[i].extend_one()
            except (CollisionError, NegativeError):
                dead.add(i)
                builders[i] = None
                continue
            hashes[i] = (hashes[i] + sum(map(key, col))) & _MASK64
            stepped.append(i)
        live = _merge_equal_states(builders, hashes, stepped, parent)
    for i in live:
        try:
            builders[i].extend_to(horizon)
        except (CollisionError, NegativeError):
            dead.add(i)
    roots: list[int] = []
    for i, j in enumerate(parent):
        roots.append(i if j == i else roots[j])  # merges always point to an earlier builder
    return [None if r in dead else r for r in roots]


def complete_head(
    cfg: ModulusConfig, columns: Iterable[Sequence[int | None]]
) -> tuple[Column, ...]:
    """Fill the single missing entry of a prefix so its column meets the schedule.

    Exactly one entry of one column must be None.  Returns the completed
    columns; raises CollisionError if the forced value is already present,
    NegativeError if it is negative.
    """
    cols = [list(col) for col in columns]
    blanks = [
        (ci, ei) for ci, col in enumerate(cols) for ei, x in enumerate(col) if x is None
    ]
    if len(blanks) != 1:
        raise InvariantError(f"expected exactly one missing entry, found {len(blanks)}")
    ci, ei = blanks[0]
    rank = ci + 1
    known = [x for x in cols[ci] if x is not None]
    value = sum_schedule(cfg, rank) - sum(known)
    if value < 0:
        raise NegativeError(rank, value)
    present = {x for col in cols for x in col if x is not None}
    if value in present:
        raise CollisionError(rank, value)
    cols[ci][ei] = value
    return tuple(tuple(col) for col in cols)
