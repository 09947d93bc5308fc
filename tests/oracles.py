"""Independent reference implementations used to cross-check the package.

These deliberately share no code with rankpart: the decomposition oracle
buckets every increasing tuple by its sum instead of searching for one
target, and the greedy oracle rescans from zero at every rank instead of
keeping a cursor, and the signature oracle scans every rank forward.  Slow
but obviously correct.
"""
from __future__ import annotations


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
