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

The invariants of a column prefix also live here, once each, and every other
module calls them: `check_columns` checks width, non-negative and distinct
elements and the schedule sums, `broken_ranks` is the one scan of column sums
against the schedule, and `standard_columns` builds every standard column
tuple, cached so that every reader at one horizon shares them.

A partition also carries its deviation map: rank -> column wherever it is
not standard.  The greedy engine hands over the map it keeps; any other
partition scans its columns once, on first read.  `signature_witness` and
`diff_vs_standard` read only the map; `classify`, `equivalent_up_to` and the
stored `columns` stay dense.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, cycle

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
    return tuple(base + i for i in range(1, t + 1)) + (cfg.m * (n - 1),)


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

    columns[n-1] is the rank-n column; entry i-1 of a column belongs to set i.
    The object is immutable; construction does not validate, call
    :meth:`validate` to check the invariants explicitly.  A builder that
    already knows the deviation map passes it as the third argument; it is
    trusted as given and left out of equality, hashing and repr.
    """

    cfg: ModulusConfig
    columns: tuple[Column, ...]
    _deviations: dict[int, Column] | None = field(default=None, compare=False, repr=False)

    @property
    def horizon(self) -> int:
        return len(self.columns)

    @property
    def deviations(self) -> dict[int, Column]:
        """Rank -> column at every stored non-standard rank, in rank order; cached, do not mutate."""
        if self._deviations is None:
            std = standard_columns(self.cfg, self.horizon)
            devs = {n: col for n, (col, want) in enumerate(zip(self.columns, std), 1) if col != want}
            object.__setattr__(self, "_deviations", devs)
        return self._deviations

    def column(self, n: int) -> Column:
        """The rank-n column, 1-based."""
        if not 1 <= n <= len(self.columns):
            raise HorizonError(f"rank {n} outside stored range 1..{len(self.columns)}")
        return self.columns[n - 1]

    def set_elements(self, i: int) -> tuple[int, ...]:
        """All stored elements of set i (1-based), in rank order."""
        if not 1 <= i <= self.cfg.set_count:
            raise ValueError(f"set index {i} outside 1..{self.cfg.set_count}")
        return tuple(col[i - 1] for col in self.columns)

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
        seen = check_columns(self.cfg, self.columns, require_sums)
        if self.columns:
            bound = min(self.columns[-1])
            missing = next((x for x in range(bound) if x not in seen), None)
            if missing is not None:
                raise InvariantError(f"prefix incomplete: {missing} missing below {bound}")


def check_columns(
    cfg: ModulusConfig, columns: Iterable[Sequence[int]], require_sums: bool = True
) -> set[int]:
    """Check a column prefix and return the set of elements it uses.

    Raises InvariantError on the first column with the wrong width, a
    negative element or an element used before, or, unless require_sums is
    false, a sum off the schedule.
    """
    width = cfg.set_count
    seen: set[int] = set()
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
    return seen


def broken_ranks(p: Partition, horizon: int | None = None) -> tuple[int, ...]:
    """Ranks up to horizon (default: all stored) whose column sum misses the schedule."""
    if horizon is None:
        horizon = p.horizon
    elif horizon > p.horizon:
        raise HorizonError(f"horizon {horizon} exceeds stored {p.horizon} columns")
    return tuple(
        n for n, col, want in zip(range(1, horizon + 1), p.columns, _schedule(p.cfg))
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
    return Partition(cfg, standard_columns(cfg, horizon))
