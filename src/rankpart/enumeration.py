"""Exhaustive generation of statement heads: the first C columns of a candidate partition.

A head fixes, for each rank c <= C (C = 5 throughout), an unordered set of
t+1 distinct non-negative integers summing to S(c), with the C sets pairwise
disjoint.  Ordered variants (which set gets which entry) multiply each head
by ((t+1)!)^C, but only the unordered content matters downstream: the greedy
extension depends on the used-element pool alone, so heads with equal element
unions share their entire tail.  That union is therefore the deduplication
key.

One depth-first search finds every head (`_search`), a generator of
batches.  It holds the used elements as an integer bitmask and fills each
column from the list of values still free, pruning a branch as soon as the
least sum of the next free values exceeds what the column has left; the
last part of a column is forced.  A column's choices depend only on the
used mask, which also fixes the column (every column adds the same number
of values), so they are found once per mask and reused on every repeat
visit.  The search counts its own nodes, each repeat visit as if searched
again, and raises ResourceError once the count passes the node budget.
Each visit of the last column yields one batch: the prefix mask, the
earlier columns and the bitmasks of every completion.  Every caller,
`sum_decompositions` too, is a plain loop over that stream.  Heads come
out in lexicographic order of their columns, numbered 1, 2, ... in that
order.  `head_groups` keys each head by its union bitmask, works out once
per prefix mask which group each completion joins and builds a Head only
for the first of each group (199 513 heads fall into 1 563 groups at
m=13).  Member ids go to one array('q') per group (8 bytes an id) that the
census report and JSON writer hold as is; each batch files its ids with
one map of array.append over its groups' arrays, so no bytecode runs per
head.  `head_by_id` skips whole batches and returns at the requested one,
closing the search.
`dedup_heads` keys a caller's heads by the same bitmask, and both hand
their groups to one builder (`_groups`).

For m=5 the search is tiny: columns 1 and 2 are forced to {0,1,2} and
{3,4,5}, column 3 has two choices, column 4 six, and 36 heads survive in
total.  Heads are numbered 1..36 in lexicographic order of their columns,
which lays them out as six groups of six sharing (column 3, column 4).
"""
from __future__ import annotations

import math
from array import array
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field

from .config import DEFAULT_NODE_BUDGET, ModulusConfig
from .errors import ResourceError
from .partition import check_columns, standard_partition, sum_schedule


@dataclass(frozen=True)
class Head:
    """First C columns of a candidate statement, each stored sorted ascending."""

    cfg: ModulusConfig
    columns: tuple[tuple[int, ...], ...]
    choice_id: int | None = None

    def validate(self) -> None:
        check_columns(self.cfg, self.columns)


def _mask(values) -> int:
    """Bitmask with bit x set for every distinct value x."""
    return sum(1 << x for x in set(values))


def _bits(mask: int) -> tuple[int, ...]:
    """The set bits of mask in increasing order: a column's parts from its bitmask."""
    parts = []
    while mask:
        low = mask & -mask
        parts.append(low.bit_length() - 1)
        mask ^= low
    return tuple(parts)


_Batch = tuple[int, list[tuple[int, ...]], list[int]]  # (prefix mask, earlier columns, completions)


def _fill(
    free: list[int], pre: list[int], n: int, mask: int, found: list[int], i: int, rem: int, k: int, parts: int
) -> int:
    """Place k more parts summing to rem from free[i:], append each completion to found; the nodes spent.

    free lists the n values not set in mask in increasing order and pre its
    prefix sums; parts is the bitmask of the parts placed so far.
    """
    if k == 2:  # the last two parts in one loop; each j is one leaf node
        j = i
        while j + 2 <= n and pre[j + 2] - pre[j] <= rem:
            v = free[j]
            last = rem - v
            if not mask >> last & 1:
                found.append(parts | 1 << v | 1 << last)
            j += 1
        return 1 + j - i
    if k == 1:
        if not mask >> rem & 1:
            found.append(parts | 1 << rem)
        return 1
    nodes = 1
    j = i
    while j + k <= n and pre[j + k] - pre[j] <= rem:
        v = free[j]
        nodes += _fill(free, pre, n, mask, found, j + 1, rem - v, k - 1, parts | 1 << v)
        j += 1
    return nodes


def _search(totals: list[int], size: int, mask: int, node_budget: float) -> Iterator[_Batch]:
    """Fill one column per total with `size` distinct values, none set in mask.

    Columns are filled left to right, each avoiding the mask and every
    earlier column, and each column's choices come out in increasing,
    lexicographic order of their parts.  Every visit of the last column
    yields one batch (prefix_mask, columns, choices): prefix_mask is the mask
    of the earlier columns, columns holds those columns as tuples, and
    choices lists the last column's completions as bitmasks of their parts,
    in search order.  The columns list is reused by every batch and the
    choices list is shared by every visit with the same prefix mask, so a
    consumer must not change them and must copy what it keeps before it
    asks for the next batch.

    A column's choices depend only on the column index and the mask of
    values already used, and the mask fixes the index: every column adds
    `size` bits to it.  So they are found once per mask and reused on every
    later visit with the same mask (the last column of m=13 is visited 552
    times with 77 distinct masks).  To find them, a column draws its parts
    from the list of free values.  A part at index j of that list with k
    parts still to place needs free[j] + ... + free[j+k-1] <= the remaining
    sum, read off prefix sums; the first j that fails ends the loop.  The
    last part is forced to the remaining sum and must be free; the bound on
    the part before it already makes it at least the next free value, so
    parts increase.  Every call of `_fill` is one node; the last two parts
    are placed in one loop, which counts each value it tries for the
    second-to-last part as the leaf node that placing the last part would
    have been, so the totals are those of one call per part.  The search
    counts its own nodes: each visit of a column adds the nodes its choices
    took to find, first visit or not, before it yields or descends, so the
    total over a full search equals the nodes of a search without reuse.
    As soon as the count passes node_budget it raises ResourceError; a
    consumer that stops early has spent only the nodes up to its last batch.

    Nothing the search allocates is left to the cyclic collector.  `_fill`
    is a plain module function, so a column's choice list, free list and
    prefix sums go when `column_choices` returns; `visit` refers to itself
    through its closure, so the search deletes it when it ends, is closed
    or raises, and the masks' choice lists go with the generator.
    """
    columns: list[tuple[int, ...]] = []
    last = len(totals) - 1
    seen: dict[int, tuple[list[int], int]] = {}  # used mask -> (choices, nodes)
    nodes = 0

    def column_choices(c: int, mask: int) -> tuple[list[int], int]:
        """Bitmasks of every way to fill column c avoiding mask, and the nodes spent."""
        total = totals[c]
        found: list[int] = []
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
        return found, _fill(free, pre, len(free), mask, found, 0, total, size, 0)

    def visit(c: int, mask: int) -> Iterator[_Batch]:
        nonlocal nodes
        known = seen.get(mask)
        if known is None:
            known = seen[mask] = column_choices(c, mask)
        choices, spent = known
        nodes += spent
        if nodes > node_budget:
            raise ResourceError(f"enumeration exceeded node budget of {node_budget}")
        if c == last:
            yield mask, columns, choices
            return
        for part in choices:
            columns.append(_bits(part))
            yield from visit(c + 1, mask | part)
            columns.pop()

    try:
        yield from visit(0, mask)
    finally:
        del visit  # visit refers to itself: free it here, not in the cyclic collector


def _head_batches(cfg: ModulusConfig, column_count: int, node_budget: int) -> Iterator[_Batch]:
    if column_count < 1:
        raise ValueError(f"column count must be >= 1, got {column_count}")
    return _search([sum_schedule(cfg, c) for c in range(1, column_count + 1)], cfg.set_count, 0, node_budget)


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
    mask = (1 << min_value) - 1 | _mask(x for x in excluded if 0 <= x <= total)
    return [_bits(part) for _, _, parts in _search([total], size, mask, math.inf) for part in parts]


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
    batches = _head_batches(cfg, column_count, node_budget)
    heads = ((*columns, _bits(part)) for _, columns, parts in batches for part in parts)
    return [Head(cfg, head, choice_id=head_id) for head_id, head in enumerate(heads, start=1)]


def head_by_id(
    cfg: ModulusConfig,
    head_id: int,
    column_count: int = 5,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Head:
    """The head numbered head_id in the order of enumerate_heads_general.

    It counts heads, skipping each batch of last columns that ends before
    the requested id, and returns at the requested one (closing the search),
    building only that Head.  Every column opened is charged to the budget in
    full, the one holding the requested head included.  An id outside 1..N
    runs the whole search to find N and raises ValueError; ResourceError as
    for enumerate_heads_general.
    """
    count = 0
    for _, columns, parts in _head_batches(cfg, column_count, node_budget):
        if count < head_id <= count + len(parts):
            return Head(cfg, (*columns, _bits(parts[head_id - count - 1])), choice_id=head_id)
        count += len(parts)
    raise ValueError(f"head id {head_id} outside 1..{count} for m={cfg.m}")


def enumerate_heads(cfg: ModulusConfig) -> list[Head]:
    """The 36 five-column heads for m=5, numbered 1..36 in table order."""
    if cfg.m != 5:
        raise ValueError("the fixed head table is specific to m=5; use enumerate_heads_general")
    return enumerate_heads_general(cfg, column_count=5)


@dataclass(frozen=True)
class DedupGroup:
    """Heads sharing one union key; the lowest-numbered member represents all.

    member_ids is an array('q') of the members' ids in increasing order, 8
    bytes per id; it takes no part in the hash.
    """

    representative: Head
    member_ids: array = field(hash=False)
    is_standard: bool


# union bitmask -> (columns of the group's first head, member ids in increasing order)
_Unions = dict[int, tuple[tuple[tuple[int, ...], ...], array]]


def _groups(cfg: ModulusConfig, column_count: int, found: _Unions) -> list[DedupGroup]:
    """One DedupGroup per union, in the order of `found`; the first head represents it."""
    std_mask = _mask(x for col in standard_partition(cfg, column_count).columns for x in col)
    return [
        DedupGroup(Head(cfg, columns, choice_id=ids[0]), ids, key == std_mask)
        for key, (columns, ids) in found.items()
    ]


def dedup_heads(heads: list[Head]) -> list[DedupGroup]:
    """Group heads by union and mark the group containing the standard head.

    Heads with equal unions feed the greedy extension the same used-element
    pool, hence produce identical tails.  A head without a choice_id is
    numbered by its position in the list (from 1); the representative is the
    lowest-numbered head of each group, and groups are ordered by
    representative number.  Raises InvariantError for a malformed head,
    then ValueError when the heads differ in modulus or column count, and
    OverflowError for an id outside the signed 64-bit range of member_ids.
    """
    if not heads:
        return []
    ids = [pos if h.choice_id is None else h.choice_id for pos, h in enumerate(heads, start=1)]
    found: _Unions = {}
    for head_id, head in sorted(zip(ids, heads), key=lambda pair: pair[0]):
        mask = _mask(check_columns(head.cfg, head.columns))  # the union, once the head is valid
        group = found.get(mask)
        if group is None:
            group = found[mask] = (head.columns, array("q"))
        group[1].append(head_id)
    if len({(h.cfg, len(h.columns)) for h in heads}) > 1:
        raise ValueError("dedup_heads needs heads of one modulus and one column count")
    return _groups(heads[0].cfg, len(heads[0].columns), found)


def head_groups(
    cfg: ModulusConfig,
    column_count: int = 5,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[int, list[DedupGroup]]:
    """Head count and union groups of every head, without a Head per head.

    Heads are numbered 1, 2, ... in the order of enumerate_heads_general and
    keyed by the bitmask of their union as the search finds them; only the
    first head of each group is built.  The groups a batch of last columns
    joins are looked up once per prefix mask, and every batch with that mask
    appends its ids to the same arrays in one C-level map.  The result equals
    (len(heads), dedup_heads(heads)) for heads = enumerate_heads_general(cfg,
    column_count), at the same node budget.
    """
    found: _Unions = {}
    # prefix mask -> the member-id array of each completion's group, in search order
    slots: dict[int, list[array]] = {}
    count = 0
    for mask, columns, parts in _head_batches(cfg, column_count, node_budget):
        arrays = slots.get(mask)
        if arrays is None:
            arrays = slots[mask] = []
            for part in parts:
                group = found.get(mask | part)
                if group is None:
                    group = found[mask | part] = ((*columns, _bits(part)), array("q"))
                arrays.append(group[1])
        deque(map(array.append, arrays, range(count + 1, count + len(parts) + 1)), maxlen=0)
        count += len(parts)
    return count, _groups(cfg, column_count, found)


def partition_numbering(groups: list[DedupGroup]) -> dict[int, int]:
    """Map non-standard representative head ids to partition numbers 1..N.

    Numbering follows ascending head id, which reproduces the published
    m=5 table order (head 8 becomes partition 7, head 17 partition 13).
    """
    reps = sorted(g.representative.choice_id for g in groups if not g.is_standard)
    return {head_id: number for number, head_id in enumerate(reps, start=1)}
