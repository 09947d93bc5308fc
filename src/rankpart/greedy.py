"""Column-extension algorithm: smallest unused integers plus a forced last entry.

Given a sum-conforming prefix, rank n is filled by placing the t smallest
integers not yet used anywhere into sets 1..t in increasing order and solving
for the last set's entry from the schedule: last = S(n) - (sum of the t
picks).  The step either succeeds or fails loudly; there is no repair logic.
A forced entry that is negative or already in use means the prefix simply
does not extend at that rank.

Each step depends only on the rank and the set of used integers, and that
set stays within a few elements of the standard partition's.  The engine
therefore holds a builder at rank n as two small sets: D+ the integers it
has used that the standard partition has not used by rank n, and D- the
standard partition's used integers it has left free.  Whether the standard
partition has used x by rank n is O(1): a multiple m*j is used when j < n,
any other x when its index x - x//m - 1 among the non-multiples is below
t*n.  From D alone `_next_event` finds the first rank whose column can
differ from the standard column; every rank before it takes the standard
column and leaves D as it is, so the builder jumps there and takes one dense
step (`_dense_step`).  Many prefixes advance side by side this way and merge
where their D sets meet.  `lockstep_classes` sorts the extensions into
equivalence classes, `_extension_maps` returns the map of deviating columns
of every extension, `lockstep_extensions` builds from each map the standard
columns with the deviating ones overridden, handing the map over as the
partition's deviation map, and `greedy_extend`
runs the same engine on one prefix.  The dense builder it is tested against,
one rank at a time over an explicit used set, lives in tests/oracles.py.
"""
from __future__ import annotations

import heapq
import math
from collections.abc import Iterable, Sequence

from .config import ModulusConfig
from .errors import CollisionError, InvariantError, NegativeError
from .partition import Column, Partition, check_columns, standard_columns, sum_schedule


def _next_event(m: int, t: int, n: int, dplus: frozenset[int], dminus: frozenset[int]) -> float:
    """First rank after n whose greedy column can differ from the standard column.

    Every rank between n and the event takes the standard column and leaves
    (D+, D-) unchanged.  Each case is exact, so the column at the event rank
    is not the standard one (or the step fails):

    - a free non-multiple in D- lies below the pick window and is picked at n+1;
    - a free multiple m*j in D- equals (t+1)*2j - j, the value just below
      the standard picks of rank 2j+1, and is picked there, not before;
    - a used non-multiple x in D+ is a standard pick at the rank whose picks
      cover its index x - x//m - 1, that is index//t + 1;
    - a used multiple m*j in D+ is the standard forced entry of rank j+1.

    From the empty prefix (n = 0) the first column comes out in scan order,
    unlike the standard (1, ..., t, 0), so rank 1 is always an event.
    Returns infinity when D is empty.
    """
    if n == 0:
        return 1
    event = math.inf
    for x in dminus:
        j, r = divmod(x, m)
        if r:
            return n + 1
        event = min(event, 2 * j + 1)
    for x in dplus:
        j, r = divmod(x, m)
        event = min(event, (x - j - 1) // t + 1 if r else j + 1)
    return max(event, n + 1)


def _dense_step(
    m: int, t: int, n: int, dplus: frozenset[int], dminus: frozenset[int]
) -> tuple[Column | None, frozenset[int], frozenset[int]]:
    """Fill rank n+1 from the state (n, D+, D-).

    Returns the column, or None where it is the standard column, and the
    new (D+, D-).  Raises NegativeError for a negative forced entry and
    CollisionError for one already used, each with the rank and the value.
    """
    tn = t * n

    def std_used(x: int) -> bool:
        j = x // m
        return j < n if x == m * j else x - j - 1 < tn

    # The smallest integer the standard partition leaves free at rank n;
    # below it only D- is free.
    lo = min((t + 1) * n - (n + 1) // 2 + 1, m * n)
    picks = sorted(x for x in dminus if x < lo)[:t]
    v = lo
    while len(picks) < t:
        if v in dminus or not (v in dplus or std_used(v)):
            picks.append(v)
        v += 1
    last = (t + 1) ** 2 * n + t * (n // 2) + t * (t + 1) // 2 - sum(picks)
    if last < 0:
        raise NegativeError(n + 1, last)
    if last in picks or last in dplus or (std_used(last) and last not in dminus):
        raise CollisionError(n + 1, last)
    col = (*picks, last)
    base = (t + 1) * n - (n + 1) // 2
    std = (*range(base + 1, base + t + 1), m * n)
    if col == std:
        return None, dplus, dminus
    new, old = set(col), set(std)
    return col, frozenset((dplus | new) - old - dminus), frozenset((dminus | old) - new - dplus)


def _state_key(dplus: frozenset[int], dminus: frozenset[int]) -> tuple:
    """Merge key of a builder: equal keys at one rank mean equal used sets."""
    return dplus, dminus


def _run_lockstep(
    cfg: ModulusConfig, prefixes: Sequence[Iterable[Sequence[int]]], horizon: int
) -> tuple[list[int], list[int | None], list[int], list[dict[int, Column]], list[Exception | None]]:
    """Advance one builder per prefix from event to event; the core of every entry point.

    Returns (parent, roots, held, deviations, errors).  parent[i] is the
    earlier builder that builder i merged into (i itself when it never
    merged), roots[i] the first builder of its class or None when that class
    died, and held[i] the rank to which builder i's own columns count: its
    merge rank, else the horizon.  deviations[i] maps each rank whose column
    builder i filled, or took from its prefix, and which is not the standard
    column to that column, and errors[i] is the CollisionError or
    NegativeError that stopped builder i, or None.

    Builders merge at the prefix rank and at every rank up to H/2 where
    their (D+, D-) are equal; the later index joins the earlier one.  D
    changes only at events, so at each event rank every builder whose event
    it is steps first, and only then are their new states compared with
    every live builder's.  Past H/2 only the roots advance, to the horizon.
    """
    m, t = cfg.m, cfg.t
    prefixes = [[tuple(col) for col in cols] for cols in prefixes]
    used = [check_columns(cfg, cols) for cols in prefixes]
    if not prefixes:
        return [], [], [], [], []
    start = len(prefixes[0])
    if any(len(cols) != start for cols in prefixes):
        raise ValueError("lockstep extension needs prefixes of equal length")
    if horizon < start:
        raise ValueError(f"horizon {horizon} is shorter than the {start}-column prefixes")
    std = standard_columns(cfg, start)
    std_used = {x for col in std for x in col}
    plus = [frozenset(u - std_used) for u in used]
    minus = [frozenset(std_used - u) for u in used]
    deviations = [
        {r: col for r, col in enumerate(cols, start=1) if col != std[r - 1]} for cols in prefixes
    ]
    events = [_next_event(m, t, start, p, q) for p, q in zip(plus, minus)]
    count = len(prefixes)
    parent = list(range(count))
    held = [horizon] * count
    errors: list[Exception | None] = [None] * count
    alive = [True] * count

    def step(i: int, rank: int) -> bool:
        try:
            col, plus[i], minus[i] = _dense_step(m, t, rank - 1, plus[i], minus[i])
        except (CollisionError, NegativeError) as e:
            errors[i], alive[i] = e, False
            return False
        if col is not None:
            deviations[i][rank] = col
        events[i] = _next_event(m, t, rank, plus[i], minus[i])
        return True

    def merge(i: int, j: int, rank: int) -> None:
        parent[i], held[i], alive[i] = j, rank, False

    index: dict = {}  # merge key -> the live builder holding it
    for i in range(count):
        j = index.setdefault(_state_key(plus[i], minus[i]), i)
        if j != i:
            merge(i, j, start)
    half = horizon // 2
    heap = [(e, i) for i, e in enumerate(events) if alive[i] and e <= half]
    heapq.heapify(heap)
    while heap:
        rank = heap[0][0]
        stepped = []
        while heap and heap[0][0] == rank:
            i = heapq.heappop(heap)[1]
            if alive[i]:
                del index[_state_key(plus[i], minus[i])]
                if step(i, rank):
                    stepped.append(i)
        stepped.sort()
        for i in stepped:
            key = _state_key(plus[i], minus[i])
            j = index.setdefault(key, i)
            if j < i:
                merge(i, j, rank)
            elif j > i:  # a builder that did not step at this rank
                merge(j, i, rank)
                index[key] = i
        for i in stepped:
            if alive[i] and events[i] <= half:
                heapq.heappush(heap, (events[i], i))
    for i in range(count):
        while alive[i] and events[i] <= horizon:
            step(i, events[i])
    roots: list[int] = []
    for i, j in enumerate(parent):
        roots.append(i if j == i else roots[j])  # merges always point to an earlier builder
    return parent, [None if errors[r] is not None else r for r in roots], held, deviations, errors


def _materialise(cfg: ModulusConfig, horizon: int, deviations: dict[int, Column]) -> Partition:
    """The partition whose columns are standard except at the deviating ranks, carrying that map."""
    columns = list(standard_columns(cfg, horizon))
    for rank, col in deviations.items():
        columns[rank - 1] = col
    return Partition(cfg, tuple(columns), deviations)


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
        Total number of columns in the result; a prefix already as long is
        returned as it is.

    Raises
    ------
    CollisionError, NegativeError
        When some rank admits no valid forced entry; the failing rank is
        attached to the exception.
    InvariantError
        When the prefix itself is malformed.
    """
    cols = [tuple(col) for col in columns]
    if horizon <= len(cols):
        check_columns(cfg, cols)
        return Partition(cfg, tuple(cols))
    _, _, _, (deviations,), (error,) = _run_lockstep(cfg, [cols], horizon)
    if error is not None:
        raise error
    return _materialise(cfg, horizon, deviations)


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
    builders therefore advance side by side and, at the prefix rank and at
    every rank up to H/2, merge when their used sets, held as (D+, D-) around
    the standard partition's, coincide.  A builder that hits a forced
    collision or a negative entry takes its whole class with it.  Past H/2
    only the surviving roots advance, to settle which of them die before the
    horizon.

    Raises ValueError when the prefixes differ in length or the horizon is
    shorter than them, and InvariantError when a prefix is malformed.
    """
    return _run_lockstep(cfg, prefixes, horizon)[1]


def _extension_maps(
    cfg: ModulusConfig, prefixes: Sequence[Iterable[Sequence[int]]], horizon: int
) -> list[dict[int, Column] | None]:
    """The deviation map of every prefix's greedy extension, from one lockstep run.

    Entry i maps each rank whose column in greedy_extend(cfg, prefixes[i],
    horizon) is not the standard column to that column, in rank order, or
    is None where that extension raises CollisionError or NegativeError.
    A merged prefix's map is its own deviations up to the rank where its
    used set met an earlier builder's, then that builder's, since greedy
    extension from equal used sets is the same.
    """
    parent, roots, held, deviations, _ = _run_lockstep(cfg, prefixes, horizon)
    full: list[dict[int, Column] | None] = []
    for i, (j, root) in enumerate(zip(parent, roots)):
        if root is None:
            full.append(None)
        elif j == i:
            full.append(deviations[i])
        else:
            inherited = {rank: col for rank, col in full[j].items() if rank > held[i]}
            full.append(deviations[i] | inherited)  # own ranks are <= held[i]: rank order
    return full


def lockstep_extensions(
    cfg: ModulusConfig, prefixes: Sequence[Iterable[Sequence[int]]], horizon: int
) -> list[Partition | None]:
    """The greedy extension of every prefix to the horizon, from one lockstep run.

    Entry i equals greedy_extend(cfg, prefixes[i], horizon), or is None where
    that raises CollisionError or NegativeError.  Only the class roots reach
    the horizon.  The run keeps only each builder's deviating columns
    (_extension_maps); full columns are built at the end over the shared
    standard columns, and each partition carries its deviating columns as
    its deviation map.  Raises as lockstep_classes does.
    """
    return [
        None if devs is None else _materialise(cfg, horizon, devs)
        for devs in _extension_maps(cfg, prefixes, horizon)
    ]


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
