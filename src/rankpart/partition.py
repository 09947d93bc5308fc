"""Partitions of the non-negative integers with a prescribed column-sum schedule.

A partition here splits {0, 1, 2, ...} into t+1 disjoint increasing sequences,
where m = 2t+1 is an odd modulus.  Reading the sequences side by side, the
n-th terms of all of them form the rank-n *column*, and every construction in
this package constrains column n to sum to the schedule

    S(n) = (t+1)^2 (n-1) + t*floor((n-1)/2) + t(t+1)/2,

whose consecutive differences alternate between (t+1)^2 and (t+1)^2 + t.
For m=5 this collapses to S(n) = 11n - 2*floor(n/2) - 8.

One arrangement satisfies the schedule in closed form: at rank n put the t
values (t+1)(n-1) - floor(n/2) + i (i = 1..t) into the first t sequences and
m(n-1) into the last.  Membership in that arrangement is a residue test:
sequence i < t+1 holds the numbers congruent to i or t+i mod m, and the last
sequence holds the multiples of m.  We call it the standard partition.

A partition is its horizon and its deviation map, rank -> column wherever it
is not the standard column; `column(n)`, `set_run(i, ranks)` (set i over a
run of ranks, two arithmetic progressions with the map written over them)
and `columns` are read on demand, so only the readers that scan every column
(validation, the verification battery, the reshuffle families) pay O(H), and
a horizon of 10**18 is cheap.

The invariants of a column prefix also live here, once each, and every other
module calls them: `check_prefixes` checks width, non-negative and distinct
elements and the schedule sums of a batch of equal-length prefixes at once
(`check_columns` is its one-prefix call), `broken_ranks` is the one scan of
column sums against the schedule, and `standard_columns` builds every
standard column tuple, cached so that every reader at one horizon shares
them.  Each scan, and the gap test of `Partition.validate`, is a bulk pass
of C builtins over all the columns (one set of every element, `map(sum,
...)` against the schedule); only when that pass fails does a per-element
loop run, to name the first violation.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, chain, count, cycle, islice
from operator import eq

from .config import ModulusConfig
from .errors import HorizonError, InvariantError

Column = tuple[int, ...]


def sum_schedule(cfg: ModulusConfig, n: int) -> int:
    """Required sum of the rank-n column."""
    if n < 1:
        raise ValueError(f"rank must be >= 1, got {n}")
    t = cfg.t
    return (t + 1) ** 2 * (n - 1) + t * ((n - 1) // 2) + t * (t + 1) // 2


def _schedule(cfg: ModulusConfig) -> Iterator[int]:
    """S(1), S(2), ... without end: from t(t+1)/2, steps of (t+1)^2 and (t+1)^2 + t in turn."""
    t = cfg.t
    return accumulate(cycle(((t + 1) ** 2, (t + 1) ** 2 + t)), initial=t * (t + 1) // 2)


def standard_column(cfg: ModulusConfig, n: int) -> Column:
    """Rank-n column of the standard partition; entry i goes to set i."""
    if n < 1:
        raise ValueError(f"rank must be >= 1, got {n}")
    t = cfg.t
    base = (t + 1) * (n - 1) - n // 2
    return (*range(base + 1, base + t + 1), cfg.m * (n - 1))


def residue_set_index(cfg: ModulusConfig, x: int) -> int:
    """1-based index of the standard-partition set containing x.

    x lands in set i <= t exactly when x mod m is i or t+i, and in set t+1
    exactly when m divides x.
    """
    r = x % cfg.m
    if r == 0:
        return cfg.t + 1
    return r if r <= cfg.t else r - cfg.t


@dataclass(frozen=True)
class Partition:
    """A column-complete prefix of a partition of the non-negative integers.

    The partition has `horizon` columns; the rank-n column, entry i-1 of
    which belongs to set i, is deviations[n] where the map holds n and the
    standard column otherwise.  The map lists its ranks in ascending order
    and never holds a standard column, so equal maps are equal columns; it
    is left out of the hash.  Build a partition from its columns with
    :meth:`from_columns`.  The object is immutable (do not mutate the map);
    construction does not validate, call :meth:`validate` to check the
    invariants explicitly.
    """

    cfg: ModulusConfig
    horizon: int
    deviations: dict[int, Column] = field(hash=False)

    @classmethod
    def from_columns(cls, cfg: ModulusConfig, columns: Iterable[Sequence[int]]) -> Partition:
        """The partition with these columns, its map scanned from them against the standard ones."""
        cols = tuple(map(tuple, columns))
        std = standard_columns(cfg, len(cols))
        return cls(cfg, len(cols), {n: col for n, col, want in zip(count(1), cols, std) if col != want})

    @property
    def columns(self) -> tuple[Column, ...]:
        """Every column, rank 1 first: the cached standard columns with the map written over them."""
        std = standard_columns(self.cfg, self.horizon)
        if not self.deviations:
            return std
        cols = list(std)
        for n, col in self.deviations.items():
            cols[n - 1] = col
        return tuple(cols)

    def column(self, n: int) -> Column:
        """The rank-n column, 1-based."""
        if not 1 <= n <= self.horizon:
            raise HorizonError(f"rank {n} outside stored range 1..{self.horizon}")
        col = self.deviations.get(n)
        return standard_column(self.cfg, n) if col is None else col

    def set_run(self, i: int, ranks: range) -> list[int]:
        """The entries of set i (1-based) at the consecutive ranks `ranks`, building no column.

        The standard entries are two interleaved progressions, of step m in
        sets 1..t and 2m in set t+1; the map is written over them.
        """
        if not 1 <= i <= self.cfg.set_count:
            raise ValueError(f"set index {i} outside 1..{self.cfg.set_count}")
        if ranks and not 1 <= ranks[0] <= ranks[-1] <= self.horizon:
            raise HorizonError(f"ranks {ranks[0]}..{ranks[-1]} outside stored range 1..{self.horizon}")
        step, out = (self.cfg.m if i <= self.cfg.t else 2 * self.cfg.m), [0] * len(ranks)
        for j in (0, 1):
            first = standard_column(self.cfg, ranks.start + j)[i - 1]
            out[j::2] = range(first, first + step * ((len(out) - j + 1) // 2), step)
        devs = self.deviations  # looked up rank by rank or entry by entry, whichever is fewer
        for n in filter(devs.__contains__, ranks) if len(ranks) < len(devs) else filter(ranks.__contains__, devs):
            out[n - ranks.start] = devs[n][i - 1]
        return out

    def set_elements(self, i: int) -> tuple[int, ...]:
        """All stored elements of set i (1-based), in rank order: set_run over the horizon."""
        return tuple(self.set_run(i, range(1, self.horizon + 1)))

    def elements(self) -> tuple[int, ...]:
        """Every stored element, sorted ascending."""
        return tuple(sorted(x for col in self.columns for x in col))

    def validate(self, require_sums: bool = True) -> None:
        """Check structural invariants, raising InvariantError on the first failure.

        Runs check_columns, then checks prefix completeness: every integer
        below the smallest last-rank entry must appear.  Sum checking is
        optional because swap operations legitimately pass through
        sum-broken intermediate states.
        """
        cols = self.columns
        seen = check_columns(self.cfg, cols, require_sums)
        if cols:
            bound = min(cols[-1])
            if not seen.issuperset(range(bound)):
                missing = next(x for x in range(bound) if x not in seen)
                raise InvariantError(f"prefix incomplete: {missing} missing below {bound}")


def check_columns(
    cfg: ModulusConfig, columns: Iterable[Sequence[int]], require_sums: bool = True
) -> set[int]:
    """Check a column prefix and return the set of elements it uses: check_prefixes on one prefix."""
    if not isinstance(columns, Sequence):
        columns = tuple(columns)
    return check_prefixes(cfg, [columns], require_sums)[0]


def check_prefixes(
    cfg: ModulusConfig, prefixes: Sequence[Sequence[Sequence[int]]], require_sums: bool = True
) -> list[set[int]]:
    """Check a batch of equal-length column prefixes; the element set of each.

    Raises InvariantError on the first prefix's first column with the wrong
    width, a negative element or an element used before, or, unless
    require_sums is false, a sum off the schedule.  One bulk pass checks
    every prefix at once: lengths, column widths, one element set per prefix
    of the full size, its minimum, and every column sum against the
    schedule.  Only when it fails does the column-by-column loop run, to
    name the first fault; a batch of well-formed prefixes that differ in
    length raises ValueError.
    """
    used = list(map(set, map(chain.from_iterable, prefixes)))
    start = len(prefixes[0]) if prefixes else 0
    width = cfg.set_count
    # cycle keeps a copy of what it repeats, so only a batch of prefixes uses it
    schedule = _schedule(cfg) if len(prefixes) == 1 else cycle(islice(_schedule(cfg), start))
    if (
        {start}.issuperset(map(len, prefixes))
        and {width}.issuperset(map(len, chain.from_iterable(prefixes)))
        and {width * start}.issuperset(map(len, used))
        and (not start or min(map(min, used)) >= 0)
        and (not require_sums or all(map(eq, map(sum, chain.from_iterable(prefixes)), schedule)))
    ):
        return used
    for columns in prefixes:
        seen = set()
        for idx, (col, want) in enumerate(zip(columns, _schedule(cfg)), start=1):
            if len(col) != width:
                raise InvariantError(f"column {idx} has {len(col)} entries, expected {width}")
            for x in col:
                if x < 0:
                    raise InvariantError(f"column {idx} holds negative element {x}")
                if x in seen:
                    raise InvariantError(f"element {x} appears more than once (column {idx})")
                seen.add(x)
            if require_sums:
                got = sum(col)
                if got != want:
                    raise InvariantError(f"column {idx} sums to {got}, schedule wants {want}")
    # every prefix is well formed, so the bulk pass failed on the lengths
    raise ValueError("lockstep extension needs prefixes of equal length")


def broken_ranks(p: Partition, horizon: int | None = None) -> tuple[int, ...]:
    """Ranks up to horizon (default: all stored) whose column sum misses the schedule."""
    if horizon is None:
        horizon = p.horizon
    elif horizon > p.horizon:
        raise HorizonError(f"horizon {horizon} exceeds stored {p.horizon} columns")
    cols = p.columns
    if all(map(eq, map(sum, islice(cols, max(horizon, 0))), _schedule(p.cfg))):
        return ()
    return tuple(
        n for n, col, want in zip(range(1, horizon + 1), cols, _schedule(p.cfg))
        if sum(col) != want
    )


@lru_cache(maxsize=8)
def standard_columns(cfg: ModulusConfig, horizon: int) -> tuple[Column, ...]:
    """Columns 1..horizon of the standard partition; cached per (cfg, horizon)."""
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    return tuple(standard_column(cfg, n) for n in range(1, horizon + 1))


def standard_partition(cfg: ModulusConfig, horizon: int) -> Partition:
    """The standard partition stored to the given number of columns."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    return Partition(cfg, horizon, {})
