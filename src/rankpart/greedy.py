"""Column-extension algorithm: smallest unused integers plus a forced last entry.

Given a sum-conforming prefix, rank n is filled by placing the t smallest
integers not yet used anywhere into sets 1..t in increasing order and solving
for the last set's entry from the schedule: last = S(n) - (sum of the t
picks).  The step either succeeds or fails loudly; there is no repair logic.
A failed step is a collision: the forced entry is already in use, so the
prefix does not extend at that rank.  It is never negative (`_dense_step`).

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
step (`_dense_step`).  That step tests standard membership near rank n by
arithmetic and moves D by the few elements where its column and the
standard column differ.

Many prefixes advance side by side this way and merge where their D sets
meet, at any rank up to the horizon.  A merge is a proof of equivalence:
two builders with equal (D+, D-) at rank r have used the same elements in
columns 1..r, and greedy extension fills every later rank from the rank and
that set alone, so their later columns are identical.  Their extensions are
equivalent with N = r, whatever the horizon, and if one fails the other
fails at the same rank.  Every prefix is checked by the one prefix
validator (partition.check_prefixes, a bulk pass of C builtins) and starts
from `_start_states`.  One builder walks `_events`, the generator that pairs
`_next_event` with `_dense_step`; `greedy_extend` is that walk, and an error
it raises leaves the step with no local holding it.  A batch keeps its own
heap of next events up to the horizon, because a generator yields only
after it has stepped and a builder that merges first must not step: at each
event rank the builders due there step and are merged on (D+, D-), and only
the survivors look up their next event.  The engine records just the
columns it fills; a prefix's own columns stay with the caller.
`lockstep_classes` sorts the extensions into equivalence classes and
`lockstep_extensions` returns each as a sparse `Partition` whose deviation
map is the prefix's deviating columns followed by the ones its builder
filled.  The dense builder it is tested against, one rank at a time over an
explicit used set, lives in tests/oracles.py.
"""
from __future__ import annotations

import heapq
import math
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, repeat

from .config import ModulusConfig
from .errors import CollisionError, InvariantError, NegativeError
from .partition import (
    Column,
    Partition,
    check_prefixes,
    standard_columns,
    sum_schedule,
)


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
    if dminus:
        for x in dminus:
            if x % m:
                return n + 1
        event = 2 * (min(dminus) // m) + 1
    for x in dplus:  # no element of D+ is used by the standard partition at rank n
        j = x // m
        rank = j + 1 if x == m * j else (x - j - 1) // t + 1
        if rank < event:
            if rank == n + 1:
                return rank
            event = rank
    return event if event > n else n + 1


def _dense_step(
    m: int, t: int, n: int, dplus: frozenset[int], dminus: frozenset[int]
) -> tuple[Column, frozenset[int], frozenset[int]]:
    """Fill rank n+1 from the state (n, D+, D-); returns the column and the new (D+, D-).

    Lemma.  The builder has used (t+1)n integers, so its j-th smallest free
    integer is at most (t+1)n + j - 1, and the forced entry, S(n+1) less the
    picks, is at least (t+1)n + t*floor(n/2) + t.  That is positive, above
    every pick and at least lo, where the standard partition has used only
    the multiples below m*n.  So the step fails only by colliding with D+ or
    with a standard multiple below m*n not in D-: CollisionError(n+1, entry).
    At an event rank the column is never the standard one, because each of
    `_next_event`'s four cases is exact.
    """
    # The standard column of rank n+1 is base+1, ..., base+t and m*n.  From
    # lo on, the standard partition has used only the multiples below m*n;
    # below lo it has used everything, so only D- is free there.
    base = (t + 1) * n - (n + 1) // 2
    top = base + t
    mn = m * n
    lo = base + 1 if n else 0
    picks = sorted([x for x in dminus if x < lo])[:t] if dminus else []
    v = lo
    while len(picks) < t:
        if v in dminus or not (v in dplus or (v < mn and not v % m)):
            picks.append(v)
        v += 1
    last = (t + 1) ** 2 * n + t * (n // 2) + t * (t + 1) // 2 - sum(picks)
    if last in dplus or (not last % m and last < mn and last not in dminus):
        raise CollisionError(n + 1, last)
    col = (*picks, last)
    # Only the elements where col and the standard column differ move D: an
    # element of col outside the standard column leaves D- or enters D+, an
    # element of the standard column outside col leaves D+ or enters D-.
    plus, minus = set(dplus), set(dminus)
    for x in col:
        if not (base < x <= top or x == mn):
            if x in minus:
                minus.remove(x)
            else:
                plus.add(x)
    for x in (*range(base + 1, top + 1), mn):
        if x not in col:
            if x in plus:
                plus.remove(x)
            else:
                minus.add(x)
    return col, frozenset(plus), frozenset(minus)


def _events(
    m: int, t: int, n: int, dplus: frozenset[int], dminus: frozenset[int], until: int
) -> Iterator[tuple[int, Column, frozenset[int], frozenset[int]]]:
    """Step one builder on from the state (n, D+, D-), event by event up to rank `until`.

    Yields (rank, column, D+, D-) after each dense step: every event column
    differs from the standard one, which every rank skipped takes.  A failing
    step's CollisionError propagates.
    """
    while (n := _next_event(m, t, n, dplus, dminus)) <= until:
        col, dplus, dminus = _dense_step(m, t, n - 1, dplus, dminus)
        yield n, col, dplus, dminus


def _start_states(
    cfg: ModulusConfig, prefixes: Sequence[Sequence[Sequence[int]]]
) -> tuple[list[frozenset[int]], list[frozenset[int]]]:
    """The D+ and D- of each prefix of a batch, checked in one bulk pass (partition.check_prefixes).

    They are the set differences of its element set and the standard one.
    """
    used = check_prefixes(cfg, prefixes)
    std_used = frozenset(chain.from_iterable(standard_columns(cfg, len(prefixes[0]))))
    plus = list(map(frozenset, map(set.difference, used, repeat(std_used))))
    return plus, list(map(frozenset, map(std_used.difference, used)))


def _run_lockstep(
    cfg: ModulusConfig, prefixes: Sequence[Iterable[Sequence[int]]], horizon: int
) -> tuple[list[int | None], list[int | None], list[int], list[dict[int, Column]]]:
    """Advance one builder per prefix from event to event; the core of the batch entry points.

    Returns (parent, roots, held, filled).  parent[i] is i while builder i
    lives, the earlier builder it merged into, or None once it died of a
    CollisionError.  roots[i] is the first builder of its class, or None
    when that class died, and held[i] the rank to which builder i's own
    columns count: its merge rank, else the horizon.  filled[i] maps each
    event rank at which builder i stepped to its column, which is not the
    standard one; the prefix's own columns are the caller's.  Builders merge
    at the prefix rank and at each event rank where their (D+, D-) are
    equal; the later joins the earlier.
    """
    m, t = cfg.m, cfg.t
    prefixes = list(map(tuple, prefixes))
    if not prefixes:
        return [], [], [], []
    plus, minus = _start_states(cfg, prefixes)
    start = len(prefixes[0])
    if horizon < start:
        raise ValueError(f"horizon {horizon} is shorter than the {start}-column prefixes")
    parent: list[int | None] = list(range(len(prefixes)))
    held = [horizon] * len(prefixes)
    filled: list[dict[int, Column]] = [{} for _ in prefixes]
    due: dict[float, list[int]] = {}  # event rank -> the builders that step there
    ranks: list[float] = []  # heap of the keys of due

    def schedule(i: int, rank: int) -> None:
        event = _next_event(m, t, rank, plus[i], minus[i])
        if event <= horizon:
            if event in due:
                due[event].append(i)
            else:
                due[event] = [i]
                heapq.heappush(ranks, event)

    index: dict = {}  # (D+, D-) -> the live builder holding it
    for i, key in enumerate(zip(plus, minus)):
        if (j := index.setdefault(key, i)) != i:
            parent[i], held[i] = j, start
        else:
            schedule(i, start)
    while ranks:
        rank = heapq.heappop(ranks)
        stepped = []
        for i in sorted(due.pop(rank)):
            if parent[i] == i:
                del index[plus[i], minus[i]]
                try:
                    col, plus[i], minus[i] = _dense_step(m, t, rank - 1, plus[i], minus[i])
                except CollisionError:
                    parent[i] = None
                    continue
                filled[i][rank] = col
                stepped.append(i)
        for i in stepped:
            key = plus[i], minus[i]
            j = index.setdefault(key, i)
            if j < i:
                parent[i], held[i] = j, rank
            elif j > i:  # a builder that did not step at this rank
                parent[j], held[j] = i, rank
                index[key] = i
        for i in stepped:
            if parent[i] == i:
                schedule(i, rank)
    roots: list[int | None] = []
    for i, j in enumerate(parent):
        roots.append(i if j == i else None if j is None else roots[j])  # merges point to an earlier builder
    return parent, roots, held, filled


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
    CollisionError
        When some rank's forced entry is already in use; the failing rank
        and the entry are attached to the exception.
    InvariantError
        When the prefix itself is malformed.
    """
    cols = [tuple(col) for col in columns]
    (dplus,), (dminus,) = _start_states(cfg, [cols])
    events = _events(cfg.m, cfg.t, len(cols), dplus, dminus, horizon)
    filled = {n: col for n, col, _, _ in events}
    return Partition(cfg, max(horizon, len(cols)), Partition.from_columns(cfg, cols).deviations | filled)


def lockstep_classes(
    cfg: ModulusConfig, prefixes: Sequence[Iterable[Sequence[int]]], horizon: int
) -> list[int | None]:
    """Equivalence classes of the greedy extensions of equal-length prefixes.

    Returns, for each prefix, the index of the first prefix in its class, or
    None when the class's extension does not reach the horizon.  Two
    extensions share a class when their used sets coincide at some rank up
    to the horizon, which proves them equivalent (module docstring); a
    builder whose forced entry collides takes its whole class with it.
    Classes that would merge only past the horizon stay apart.  Each class
    is a union of the classes equivalence.classify finds on the extensions
    at the same horizon: its rule, made for stored partitions, also needs
    their columns identical on (H/2, H].

    Raises ValueError when the prefixes differ in length or the horizon is
    shorter than them, and InvariantError when a prefix is malformed.
    """
    return _run_lockstep(cfg, prefixes, horizon)[1]


def lockstep_extensions(
    cfg: ModulusConfig, prefixes: Sequence[Iterable[Sequence[int]]], horizon: int
) -> list[Partition | None]:
    """The greedy extension of every prefix to the horizon, from one lockstep run.

    Entry i equals greedy_extend(cfg, prefixes[i], horizon), or is None where
    that raises CollisionError.  Only the class roots reach the horizon.  A
    merged prefix's deviation map is its own deviations up to the rank where
    its used set met an earlier builder's, then that builder's event
    columns, since greedy extension from equal used sets is the same.
    Raises as lockstep_classes does.
    """
    prefixes = [tuple(map(tuple, cols)) for cols in prefixes]
    parent, roots, held, filled = _run_lockstep(cfg, prefixes, horizon)
    out: list[Partition | None] = []
    for i, (cols, j, root) in enumerate(zip(prefixes, parent, roots)):
        if root is None:
            out.append(None)
            continue
        devs = Partition.from_columns(cfg, cols).deviations | filled[i]  # prefix ranks come first: rank order
        if j != i:
            devs |= {rank: col for rank, col in out[j].deviations.items() if rank > held[i]}
        out.append(Partition(cfg, horizon, devs))  # own ranks are <= held[i]: still rank order
    return out


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
