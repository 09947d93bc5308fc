"""Exhaustive generation of statement heads: the first C columns of a candidate partition.

A head fixes, for each rank c <= C (C = 5 throughout), an unordered set of
t+1 distinct non-negative integers summing to S(c), with the C sets pairwise
disjoint.  Ordered variants (which set gets which entry) multiply each head
by ((t+1)!)^C, but only the unordered content matters downstream: the greedy
extension depends on the used-element pool alone, so heads with equal element
unions share their entire tail.  That union is therefore the deduplication
key.

One depth-first search finds every head (`_search`).  It holds the used
elements as an integer bitmask and fills each column from the list of values
still free, pruning a branch as soon as the least sum of the next free values
exceeds what the column has left; the last part of a column is forced.  The
same routine writes a single total as distinct parts (`sum_decompositions`).
Heads come out in lexicographic order of their columns and are numbered 1, 2,
... in that order.  `head_groups` keys each head by its union bitmask as it
is found and builds a Head only for the first of each group, so a census
never holds one object per head (199 513 heads fall into 1 563 groups at
m=13); `enumerate_heads_general` builds them all, `head_by_id` stops at the
one it is asked for, and `dedup_heads` groups a list of heads that a caller
supplies.

For m=5 the search is tiny: columns 1 and 2 are forced to {0,1,2} and
{3,4,5}, column 3 has two choices, column 4 six, and 36 heads survive in
total.  Heads are numbered 1..36 in lexicographic order of their columns,
which lays them out as six groups of six sharing (column 3, column 4).
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from .config import DEFAULT_NODE_BUDGET, ModulusConfig
from .errors import ResourceError
from .partition import check_columns, standard_partition, sum_schedule


@dataclass(frozen=True)
class Head:
    """First C columns of a candidate statement, each stored sorted ascending."""

    cfg: ModulusConfig
    columns: tuple[tuple[int, ...], ...]
    choice_id: int | None = None

    @property
    def union_key(self) -> tuple[int, ...]:
        """Sorted union of all head elements; equal keys mean equal greedy tails."""
        return tuple(sorted(x for col in self.columns for x in col))

    def validate(self) -> None:
        check_columns(self.cfg, self.columns)


class _Budget:
    """Search-node counter; raises once the configured cap is exceeded."""

    def __init__(self, limit: int):
        self.limit = limit
        self.nodes = 0

    def spend(self) -> None:
        self.nodes += 1
        if self.nodes > self.limit:
            raise ResourceError(f"enumeration exceeded node budget of {self.limit}")


def _mask(values) -> int:
    """Bitmask with bit x set for every distinct value x."""
    return sum(1 << x for x in set(values))


def _search(
    totals: list[int],
    size: int,
    mask: int,
    budget: _Budget,
    leaf: Callable[[int, list[tuple[int, ...]], list[int]], None],
) -> None:
    """Fill one column per total with `size` distinct values, none set in mask.

    Columns are filled left to right, each avoiding the mask and every
    earlier column, and each column's parts come out in increasing,
    lexicographic order.  Every completed choice calls leaf(union_mask,
    columns, parts): columns holds the earlier columns as tuples, shared by
    every choice that extends them, and parts the last column's parts.  Both
    lists are reused, so a leaf that keeps them must copy them.

    A column draws its parts from the list of free values.  A part at index j
    of that list with k parts still to place needs free[j] + ... + free[j+k-1]
    <= the remaining sum, read off prefix sums; the first j that fails ends
    the loop.  The last part is forced to the remaining sum and must be free;
    the bound on the part before it already makes it at least the next free
    value, so parts increase.  Every call of `fill` is one node and spends one
    unit of the budget.
    """
    columns: list[tuple[int, ...]] = []
    last = len(totals) - 1
    spend = budget.spend

    def column(c: int, mask: int) -> None:
        total = totals[c]
        parts: list[int] = []
        # A part is at most the total less the size-1 least free values.
        free: list[int] = []
        pre = [0]
        limit = total
        v = 0
        while v <= limit:
            if not mask >> v & 1:
                free.append(v)
                pre.append(pre[-1] + v)
                if len(free) == size - 1:
                    limit = total - pre[-1]
            v += 1
        n = len(free)

        def fill(i: int, rem: int, k: int, mask: int) -> None:
            spend()
            if k == 1:
                if not mask >> rem & 1:
                    parts.append(rem)
                    if c == last:
                        leaf(mask | 1 << rem, columns, parts)
                    else:
                        columns.append(tuple(parts))
                        column(c + 1, mask | 1 << rem)
                        columns.pop()
                    parts.pop()
                return
            j = i
            while j + k <= n and pre[j + k] - pre[j] <= rem:
                v = free[j]
                parts.append(v)
                fill(j + 1, rem - v, k - 1, mask | 1 << v)
                parts.pop()
                j += 1

        fill(0, total, size, mask)

    column(0, mask)


def _head_totals(cfg: ModulusConfig, column_count: int) -> list[int]:
    if column_count < 1:
        raise ValueError(f"column count must be >= 1, got {column_count}")
    return [sum_schedule(cfg, c) for c in range(1, column_count + 1)]


def sum_decompositions(
    total: int,
    size: int,
    min_value: int = 0,
    excluded: frozenset[int] | set[int] = frozenset(),
) -> list[tuple[int, ...]]:
    """All ways to write total as `size` distinct integers >= min_value.

    Parameters
    ----------
    total, size, min_value : int
        Target sum, number of parts, and lower bound for every part; the
        bound must be non-negative.
    excluded : set of int
        Values that must not appear as parts.

    Returns
    -------
    list of strictly increasing tuples, sorted lexicographically; empty when
    no decomposition exists.
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if min_value < 0:
        raise ValueError(f"min_value must be >= 0, got {min_value}")
    if total < min_value:
        return []
    out: list[tuple[int, ...]] = []
    mask = (1 << min_value) - 1 | _mask(x for x in excluded if 0 <= x <= total)
    _search([total], size, mask, _Budget(math.inf), lambda _, __, parts: out.append(tuple(parts)))
    return out


def fifth_column_candidates(cfg: ModulusConfig) -> list[tuple[int, ...]]:
    """Candidate fifth columns for m=5 heads under the rowwise screen.

    Of the 30 ways to write S(5) = 43 as three distinct parts >= 8, keep the
    25 whose spread (largest minus smallest part) is at most 14.  That is the
    coarse screen obtained when candidates are tabulated row by row against
    the third column alone; assembling full heads is stricter and realizes
    only 23 of the 25.  The census reports both numbers.
    """
    if cfg.m != 5:
        raise ValueError("fifth-column candidate table is specific to m=5")
    pool = sum_decompositions(sum_schedule(cfg, 5), 3, 8)
    return [d for d in pool if d[-1] - d[0] <= 14]


def enumerate_heads_general(
    cfg: ModulusConfig,
    column_count: int = 5,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[Head]:
    """Every head of `column_count` pairwise-disjoint sum-conforming columns.

    The search walks columns left to right, enumerating the decompositions of
    S(c) that avoid all elements already placed.  No per-column lower bounds
    are hard-coded; they emerge from the exclusions and the sum pruning.
    Results come out in lexicographic column order and are numbered from 1.

    Raises ResourceError when the search visits more nodes than node_budget.
    """
    heads: list[Head] = []

    def leaf(_: int, columns: list[tuple[int, ...]], parts: list[int]) -> None:
        heads.append(Head(cfg, (*columns, tuple(parts)), choice_id=len(heads) + 1))

    _search(_head_totals(cfg, column_count), cfg.set_count, 0, _Budget(node_budget), leaf)
    return heads


class _Found(Exception):
    """Carries the requested head out of the search."""


def head_by_id(
    cfg: ModulusConfig,
    head_id: int,
    column_count: int = 5,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Head:
    """The head numbered head_id in the order of enumerate_heads_general.

    The search counts heads and stops at the requested one, building only
    that Head.  An id outside 1..N runs the whole search to find N and
    raises ValueError; ResourceError as for enumerate_heads_general.
    """
    count = 0

    def leaf(_: int, columns: list[tuple[int, ...]], parts: list[int]) -> None:
        nonlocal count
        count += 1
        if count == head_id:
            raise _Found(Head(cfg, (*columns, tuple(parts)), choice_id=head_id))

    try:
        _search(_head_totals(cfg, column_count), cfg.set_count, 0, _Budget(node_budget), leaf)
    except _Found as found:
        return found.args[0]
    raise ValueError(f"head id {head_id} outside 1..{count} for m={cfg.m}")


def enumerate_heads(cfg: ModulusConfig) -> list[Head]:
    """The 36 five-column heads for m=5, numbered 1..36 in table order."""
    if cfg.m != 5:
        raise ValueError("the fixed head table is specific to m=5; use enumerate_heads_general")
    return enumerate_heads_general(cfg, column_count=5)


def count_statements(heads: list[Head]) -> int:
    """Number of ordered variants across all heads: |heads| * ((t+1)!)^C."""
    if not heads:
        return 0
    head = heads[0]
    return len(heads) * math.factorial(head.cfg.set_count) ** len(head.columns)


@dataclass(frozen=True)
class DedupGroup:
    """Heads sharing one union key; the lowest-numbered member represents all."""

    representative: Head
    member_ids: tuple[int, ...]
    is_standard: bool


def dedup_heads(heads: list[Head]) -> list[DedupGroup]:
    """Group heads by union key and mark the group containing the standard head.

    Heads with equal keys feed the greedy extension the same used-element
    pool, hence produce identical tails; the representative is the
    lowest-numbered head of each group.  Groups are ordered by representative
    number.
    """
    groups: dict[tuple[int, ...], list[Head]] = {}
    for pos, head in enumerate(heads, start=1):
        if head.choice_id is None:
            head = Head(head.cfg, head.columns, choice_id=pos)
        groups.setdefault(head.union_key, []).append(head)
    if not heads:
        return []
    cfg = heads[0].cfg
    std = standard_partition(cfg, len(heads[0].columns))
    std_key = tuple(sorted(x for col in std.columns for x in col))
    out = []
    for key, members in groups.items():
        members.sort(key=lambda h: h.choice_id)
        out.append(
            DedupGroup(
                representative=members[0],
                member_ids=tuple(h.choice_id for h in members),
                is_standard=key == std_key,
            )
        )
    out.sort(key=lambda g: g.representative.choice_id)
    return out


def head_groups(
    cfg: ModulusConfig,
    column_count: int = 5,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[int, list[DedupGroup]]:
    """Head count and union groups of every head, without a Head per head.

    Heads are numbered 1, 2, ... in the order of enumerate_heads_general and
    keyed by the bitmask of their union as the search finds them; only the
    first head of each group is built.  The result equals
    (len(heads), dedup_heads(heads)) for heads = enumerate_heads_general(cfg,
    column_count), at the same node budget.
    """
    found: dict[int, tuple[tuple[tuple[int, ...], ...], list[int]]] = {}
    count = 0

    def leaf(mask: int, columns: list[tuple[int, ...]], parts: list[int]) -> None:
        nonlocal count
        count += 1
        group = found.get(mask)
        if group is None:
            found[mask] = ((*columns, tuple(parts)), [count])
        else:
            group[1].append(count)

    _search(_head_totals(cfg, column_count), cfg.set_count, 0, _Budget(node_budget), leaf)
    std_mask = _mask(x for col in standard_partition(cfg, column_count).columns for x in col)
    groups = [
        DedupGroup(Head(cfg, columns, choice_id=ids[0]), tuple(ids), key == std_mask)
        for key, (columns, ids) in found.items()
    ]
    return count, groups


def partition_numbering(groups: list[DedupGroup]) -> dict[int, int]:
    """Map non-standard representative head ids to partition numbers 1..N.

    Numbering follows ascending head id, which reproduces the published
    m=5 table order (head 8 becomes partition 7, head 17 partition 13).
    """
    reps = sorted(g.representative.choice_id for g in groups if not g.is_standard)
    return {head_id: number for number, head_id in enumerate(reps, start=1)}
