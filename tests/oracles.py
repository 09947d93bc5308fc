"""Independent reference implementations used to cross-check the package.

These deliberately share no code with rankpart: the decomposition oracle
buckets every increasing tuple by its sum instead of searching for one
target, and the greedy oracle rescans from zero at every rank instead of
keeping a cursor, and the signature oracle scans every rank forward.  Slow
but obviously correct.  The one exception is `dense_lockstep`, the dense
lockstep engine the event-driven one replaced: it steps rank by rank with
rankpart.PartitionBuilder, which test_greedy holds to `greedy_columns`.
"""
from __future__ import annotations

import rankpart as rp


def decomposition_table(
    size: int,
    min_value: int,
    max_total: int,
    excluded: frozenset[int] = frozenset(),
) -> dict[int, list[tuple[int, ...]]]:
    """Map each total <= max_total to its strictly increasing tuples."""
    table: dict[int, list[tuple[int, ...]]] = {t: [] for t in range(max_total + 1)}

    def walk(prefix: tuple[int, ...], lo: int, acc: int) -> None:
        if len(prefix) == size:
            table[acc].append(prefix)
            return
        for v in range(lo, max_total - acc + 1):
            if v in excluded:
                continue
            walk(prefix + (v,), v + 1, acc + v)

    walk((), min_value, 0)
    return table


def schedule(m: int, n: int) -> int:
    """Column-sum schedule, written from the closed form directly."""
    t = (m - 1) // 2
    return (t + 1) * (t + 1) * (n - 1) + t * ((n - 1) // 2) + t * (t + 1) // 2


def greedy_columns(
    m: int, head: tuple[tuple[int, ...], ...], horizon: int
) -> list[tuple[int, ...]]:
    """Extend a head by rescanning for the smallest unused values each rank.

    No cursor, no incremental bookkeeping: rank by rank, walk up from 0,
    take the first t unused integers, then force the last entry from the
    schedule.  Raises ValueError on collision or negative forced value.
    """
    t = (m - 1) // 2
    used: set[int] = set()
    for col in head:
        used.update(col)
    columns = list(head)
    for n in range(len(head) + 1, horizon + 1):
        picked: list[int] = []
        v = 0
        while len(picked) < t:
            if v not in used:
                picked.append(v)
                used.add(v)
            v += 1
        last = schedule(m, n) - sum(picked)
        if last < 0:
            raise ValueError(f"negative forced value at rank {n}")
        if last in used:
            raise ValueError(f"collision at rank {n}")
        used.add(last)
        columns.append(tuple(picked) + (last,))
    return columns


def head_columns(m: int, column_count: int = 5) -> list[tuple[tuple[int, ...], ...]]:
    """Every head in lexicographic column order, by a plain set-based search.

    Each column walks its smallest part upward while v + (v+1) + ... +
    (v+k-1) still fits the remaining sum, skipping values already used, and
    stops at the exact total; no bitmask, free list or forced last part.
    """
    size = (m - 1) // 2 + 1
    heads: list[tuple[tuple[int, ...], ...]] = []
    cols: list[tuple[int, ...]] = []
    used: set[int] = set()

    def parts(lo: int, rem: int, k: int, prefix: tuple[int, ...]):
        if k == 0:
            if rem == 0:
                yield prefix
            return
        v = lo
        while v * k + k * (k - 1) // 2 <= rem:
            if v not in used:
                yield from parts(v + 1, rem - v, k - 1, prefix + (v,))
            v += 1

    def column(c: int) -> None:
        if c > column_count:
            heads.append(tuple(cols))
            return
        for col in list(parts(0, schedule(m, c), size, ())):
            cols.append(col)
            used.update(col)
            column(c + 1)
            used.difference_update(col)
            cols.pop()

    column(1)
    return heads


def signature_witness_scan(m: int, columns, families, horizon: int) -> int | None:
    """Last rank off a signature's pattern, by one forward scan over every rank.

    The expected column is the standard one, written from its closed form,
    except at the family ranks a*2^k + b (k >= k_min), where it is the
    family's variant c*2^k + d entrywise; later families overwrite earlier
    ones.  Returns None when the last mismatch lies beyond horizon/2.
    """
    t = (m - 1) // 2
    expected = []
    for n in range(1, horizon + 1):
        base = (t + 1) * (n - 1) - n // 2
        expected.append(tuple(base + i for i in range(1, t + 1)) + (m * (n - 1),))
    for fam in families:
        a, b = fam.position
        k = fam.k_min
        while a * 2**k + b <= horizon:
            expected[a * 2**k + b - 1] = tuple(c * 2**k + d for c, d in fam.variant)
            k += 1
    last_bad = 0
    for n in range(1, horizon + 1):
        if columns[n - 1] != expected[n - 1]:
            last_bad = n
    return last_bad if last_bad <= horizon // 2 else None


def greedy_step(m: int, used: set[int], rank: int) -> tuple[int, ...]:
    """The greedy column of the given rank over an explicit used set.

    Scans up from 0 for the t smallest unused integers and forces the last
    entry from the schedule; `used` is left as it is.  Raises ValueError on
    a negative or colliding forced value.
    """
    t = (m - 1) // 2
    picked: list[int] = []
    v = 0
    while len(picked) < t:
        if v not in used:
            picked.append(v)
        v += 1
    last = schedule(m, rank) - sum(picked)
    if last < 0 or last in used or last in picked:
        raise ValueError(f"no forced value at rank {rank}")
    return (*picked, last)


def dense_lockstep(cfg, prefixes, horizon: int):
    """Step one PartitionBuilder per prefix through every rank, merging equal used sets.

    Builders merge at the prefix rank and at every rank up to horizon // 2
    when their used sets are equal, the later into the earlier; past that
    only the survivors extend, to the horizon.  Returns (roots, extension,
    errors): roots[i] is the first builder of i's class or None when the
    class died, extension(i) the columns of prefix i's greedy extension
    (None when it dies), built on each call, and errors[i] the (type, rank,
    value) of the exception that killed i's class, or None.  Used sets are bucketed by
    the sum of their squares (every column sums to the schedule, so plain
    sums are all equal), and every bucket hit is compared exactly.
    """
    builders = [rp.PartitionBuilder(cfg, cols) for cols in prefixes]
    if not builders:
        return [], [], []
    start = len(builders[0].columns)
    parent = list(range(len(builders)))
    held = [horizon] * len(builders)
    errors: dict[int, tuple] = {}
    sums = [sum(x * x for x in b._used) for b in builders]

    def merge(live: list[int], rank: int) -> list[int]:
        buckets: dict[int, list[int]] = {}
        out = []
        for i in live:
            bucket = buckets.setdefault(sums[i], [])
            j = next((j for j in bucket if builders[j]._used == builders[i]._used), None)
            if j is None:
                bucket.append(i)
                out.append(i)
            else:
                parent[i], held[i] = j, rank
        return out

    def advance(i: int) -> bool:
        try:
            col = builders[i].extend_one()
        except (rp.CollisionError, rp.NegativeError) as e:
            errors[i] = (type(e), e.rank, e.value)
            return False
        sums[i] += sum(x * x for x in col)
        return True

    live = merge(list(range(len(builders))), start)
    for rank in range(start + 1, horizon // 2 + 1):
        live = merge([i for i in live if advance(i)], rank)
    for i in live:
        while len(builders[i].columns) < horizon and advance(i):
            pass
    roots: list[int] = []
    for i, j in enumerate(parent):
        roots.append(i if j == i else roots[j])

    def extension(i: int) -> tuple[tuple[int, ...], ...] | None:
        if roots[i] in errors:
            return None
        columns: list[tuple[int, ...]] = []
        while True:  # own columns up to the merge rank, then the parent's
            columns += builders[i].columns[len(columns):held[i]]
            if parent[i] == i:
                return tuple(columns)
            i = parent[i]

    return [None if r in errors else r for r in roots], extension, [errors.get(r) for r in roots]
