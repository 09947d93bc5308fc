"""Independent reference implementations used to cross-check the package.

These deliberately share no code with rankpart: the decomposition oracle
buckets every increasing tuple by its sum instead of searching for one
target, and the greedy oracle rescans from zero at every rank instead of
keeping a cursor, the signature, deviation and equivalence oracles scan
every rank forward, the union grouping keys heads by their sorted union
tuple, the column, gap and column-sum scans visit every element or rank in
turn, the reshuffle loops make one family exchange at a time, the census CSV
writer turns every id into text on its own, and the partition table writer
reads every entry of a text, CSV or JSON table from its whole column.
Slow but obviously correct.  The one exception is the dense engine the event-driven one
replaced: `PartitionBuilder` steps rank by rank over an explicit used set
(it checks its prefix with rankpart's `check_columns`, and test_greedy holds
it to `greedy_columns`), and `dense_lockstep` runs one per prefix.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence

import rankpart as rp
from rankpart.partition import check_columns

Column = tuple[int, ...]


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


def standard_column(m: int, n: int) -> tuple[int, ...]:
    """The rank-n standard column, written from its closed form."""
    t = (m - 1) // 2
    base = (t + 1) * (n - 1) - n // 2
    return tuple(base + i for i in range(1, t + 1)) + (m * (n - 1),)


def signature_witness_scan(m: int, columns, families, horizon: int) -> int | None:
    """Last rank off a signature's pattern, by one forward scan over every rank.

    The expected column is the standard one, written from its closed form,
    except at the family ranks a*2^k + b (k >= k_min), where it is the
    family's variant c*2^k + d entrywise; later families overwrite earlier
    ones.  Returns None when the last mismatch lies beyond horizon/2.
    """
    expected = [standard_column(m, n) for n in range(1, horizon + 1)]
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


def diff_scan(m: int, columns, horizon: int) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """(rank, standard column, column) at every rank up to horizon where they differ, in rank order."""
    return [
        (n, std, columns[n - 1])
        for n in range(1, horizon + 1)
        if columns[n - 1] != (std := standard_column(m, n))
    ]


def equivalent_scan(a, b, horizon: int) -> rp.EquivalenceWitness | None:
    """Equivalence of two column sequences at the horizon, by a scan over every rank.

    Finds the last rank up to horizon where the columns differ; beyond
    horizon/2 there is no verdict, otherwise the sorted elements of the
    columns up to that rank must match.
    """
    last_diff = 0
    for n in range(1, horizon + 1):
        if a[n - 1] != b[n - 1]:
            last_diff = n
    if last_diff > horizon // 2:
        return None
    mine = sorted(x for col in a[:last_diff] for x in col)
    theirs = sorted(x for col in b[:last_diff] for x in col)
    return rp.EquivalenceWitness(last_diff, horizon) if mine == theirs else None


def classify_scan(columns_list, horizon: int) -> list[list[int]]:
    """Indices grouped by (columns on the second half of the horizon, sorted elements of all).

    Identical second halves put the last difference at or below horizon/2,
    and equal element multisets less that shared tail leave equal prefix
    multisets, so the groups are those of equivalent_scan.  Groups come in
    order of first member.
    """
    half = horizon // 2
    buckets: dict[tuple, list[int]] = {}
    for idx, columns in enumerate(columns_list):
        elements = tuple(sorted(x for col in columns[:horizon] for x in col))
        key = (tuple(columns[half:horizon]), elements)
        buckets.setdefault(key, []).append(idx)
    return sorted(buckets.values(), key=lambda members: members[0])


def used_set_classes(columns_list, horizon: int) -> list[list[int]]:
    """Indices of greedy extensions grouped by the set of elements in columns 1..horizon.

    Greedy extension fills each rank from the used set alone, so extensions
    whose used sets are equal at some rank r <= horizon share every later
    column: they are equivalent with N = r, and their used sets are equal at
    the horizon too.  These are the classes that merging equal used sets up
    to the horizon proves.  Groups come in order of first member.
    """
    buckets: dict[frozenset[int], list[int]] = {}
    for idx, columns in enumerate(columns_list):
        buckets.setdefault(frozenset(x for col in columns[:horizon] for x in col), []).append(idx)
    return sorted(buckets.values(), key=lambda members: members[0])


def check_columns_scan(m: int, columns, require_sums: bool = True) -> set[int]:
    """partition.check_columns, element by element: the used set, or InvariantError at the first fault.

    Column by column: the width, then each element for a negative value or
    a repeat, then, unless require_sums is false, the column sum.
    """
    width = (m - 1) // 2 + 1
    seen: set[int] = set()
    for idx, col in enumerate(columns, start=1):
        if len(col) != width:
            raise rp.InvariantError(f"column {idx} has {len(col)} entries, expected {width}")
        for x in col:
            if x < 0:
                raise rp.InvariantError(f"column {idx} holds negative element {x}")
            if x in seen:
                raise rp.InvariantError(f"element {x} appears more than once (column {idx})")
            seen.add(x)
        if require_sums:
            got, want = sum(col), schedule(m, idx)
            if got != want:
                raise rp.InvariantError(f"column {idx} sums to {got}, schedule wants {want}")
    return seen


def validate_scan(m: int, columns, require_sums: bool = True) -> None:
    """Partition.validate: check_columns_scan, then every integer below the last column's minimum, one by one."""
    seen = check_columns_scan(m, columns, require_sums)
    if columns:
        bound = min(columns[-1])
        for x in range(bound):
            if x not in seen:
                raise rp.InvariantError(f"prefix incomplete: {x} missing below {bound}")


def reshuffle_family_i_loop(columns, k_max: int) -> list[tuple[int, ...]]:
    """Family i for k = 1..k_max, one exchange at a time, at ranks 4k and 6k-1."""
    cols = list(columns)
    for k in range(1, k_max + 1):
        a, b = cols[4 * k - 1], cols[6 * k - 2]
        cols[4 * k - 1] = (b[0], a[1], b[1], *a[3:])
        cols[6 * k - 2] = (a[0], a[2], *b[2:])
    return cols


def reshuffle_family_ii_loop(columns, k_max: int) -> list[tuple[int, ...]]:
    """Family ii for k = 0..k_max-1, one exchange at a time, at ranks 4k+3 and 6k+4."""
    cols = list(columns)
    for k in range(k_max):
        a, b = cols[4 * k + 2], cols[6 * k + 3]
        cols[4 * k + 2] = (a[0], b[0], b[1], *a[3:])
        cols[6 * k + 3] = (a[1], a[2], *b[2:])
    return cols


def broken_ranks_scan(m: int, columns, horizon: int) -> tuple[int, ...]:
    """Ranks up to horizon whose column sum misses the schedule, one rank at a time."""
    return tuple(n for n in range(1, horizon + 1) if sum(columns[n - 1]) != schedule(m, n))


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


class PartitionBuilder:
    """Dense greedy extension state; single-owner, mutated linearly.

    Tracks the used-element set and a low-water cursor below which every
    integer is known to be used, so each step scans only a short window.
    """

    def __init__(self, cfg: rp.ModulusConfig, columns: Iterable[Sequence[int]] = ()):
        self.cfg = cfg
        self.columns: list[Column] = [tuple(col) for col in columns]
        self._used = check_columns(cfg, self.columns)
        # S(n) = step*(n-1) + t*((n-1)//2) + base, as in partition.sum_schedule
        t = cfg.t
        self._t = t
        self._step = (t + 1) ** 2
        self._base = t * (t + 1) // 2
        cursor = 0
        while cursor in self._used:
            cursor += 1
        self._cursor = cursor

    @property
    def next_rank(self) -> int:
        return len(self.columns) + 1

    def extend_one(self) -> Column:
        """Fill the next rank; returns the new column."""
        used = self._used
        t = self._t
        picks: list[int] = []
        v = self._cursor
        while len(picks) < t:
            if v not in used:
                picks.append(v)
            v += 1
        n = len(self.columns)
        last = self._step * n + t * (n // 2) + self._base - sum(picks)
        if last < 0:
            raise rp.NegativeError(n + 1, last)
        if last in used or last in picks:
            raise rp.CollisionError(n + 1, last)
        col = (*picks, last)
        self.columns.append(col)
        used.update(col)
        v = picks[0]  # the old cursor, now used
        while v in used:
            v += 1
        self._cursor = v
        return col

    def extend_to(self, horizon: int) -> None:
        while len(self.columns) < horizon:
            self.extend_one()

    def to_partition(self) -> rp.Partition:
        return rp.Partition.from_columns(self.cfg, tuple(self.columns))


def dense_lockstep(cfg, prefixes, horizon: int):
    """Step one PartitionBuilder per prefix through every rank, merging equal used sets.

    Builders merge at the prefix rank and at every rank up to the horizon
    when their used sets are equal, the later into the earlier: greedy
    extension from equal used sets is the same.  Returns (roots, extension,
    errors): roots[i] is the first builder of i's class or None when the
    class died, extension(i) the columns of prefix i's greedy extension
    (None when it dies), built on each call, and errors[i] the (type, rank,
    value) of the exception that killed i's class, or None.  Used sets are
    bucketed by the sums of their squares and of their cubes (every column
    sums to the schedule, so plain sums are all equal, and a builder shifted
    by one against another often has the same sum of squares), and every
    bucket hit is compared exactly.
    """
    builders = [PartitionBuilder(cfg, cols) for cols in prefixes]
    if not builders:
        return [], [], []
    start = len(builders[0].columns)
    parent = list(range(len(builders)))
    held = [horizon] * len(builders)
    errors: dict[int, tuple] = {}
    sums = [(sum(x * x for x in b._used), sum(x ** 3 for x in b._used)) for b in builders]

    def merge(live: list[int], rank: int) -> list[int]:
        buckets: dict[tuple[int, int], list[int]] = {}
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
        squares, cubes = sums[i]
        sums[i] = squares + sum(x * x for x in col), cubes + sum(x ** 3 for x in col)
        return True

    live = merge(list(range(len(builders))), start)
    for rank in range(start + 1, horizon + 1):
        live = merge([i for i in live if advance(i)], rank)
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


def union_groups(m: int, heads) -> list[tuple[rp.Head, tuple[int, ...], bool]]:
    """(representative, member ids, is_standard) per union, by sorted union tuple.

    A head without a choice_id is numbered by its position (from 1).  Each
    group is represented by its lowest-numbered head, carrying that number,
    and groups are ordered by it; the standard group's union is that of the
    first len(columns) standard columns, written from the closed form.
    """
    t = (m - 1) // 2
    members: dict[tuple[int, ...], list[tuple[int, rp.Head]]] = {}
    for pos, head in enumerate(heads, start=1):
        head_id = pos if head.choice_id is None else head.choice_id
        key = tuple(sorted(x for col in head.columns for x in col))
        members.setdefault(key, []).append((head_id, head))
    if not heads:
        return []
    std_key = tuple(sorted(
        x
        for n in range(1, len(heads[0].columns) + 1)
        for x in (*((t + 1) * (n - 1) - n // 2 + i for i in range(1, t + 1)), m * (n - 1))
    ))
    out = []
    for key, group in members.items():
        group.sort(key=lambda pair: pair[0])
        rep_id, rep = group[0]
        out.append((rp.Head(rep.cfg, rep.columns, rep_id), tuple(i for i, _ in group), key == std_key))
    return sorted(out, key=lambda g: g[1][0])


def census_csv(reports) -> str:
    """Census CSV written field by field from to_dict(), one str() per id."""
    lines = ["protocol,field,value"]
    for doc in (r.to_dict() for r in reports):
        for field in sorted(doc):
            value = doc[field]
            if isinstance(value, list):
                value = ";".join(
                    " ".join(str(x) for x in v) if isinstance(v, list) else str(v)
                    for v in value
                )
            elif isinstance(value, dict):
                value = ";".join(f"{k}={v}" for k, v in sorted(value.items()))
            lines.append(f"{doc['protocol']},{field},\"{value}\"")
    return "\n".join(lines) + "\n"


def partition_table_by_column(p, shown: int, fmt: str) -> str:
    """A partition table with every entry read through p.column: text row by row, CSV and JSON set by set."""
    cols = [p.column(n) for n in range(1, shown + 1)]
    if fmt == "text":
        return "".join(" ".join(map(str, col)) + "\n" for col in cols)
    sets = range(p.cfg.set_count)
    if fmt == "csv":
        return "set,rank,value\n" + "".join(f"{i + 1},{n},{col[i]}\n" for i in sets for n, col in enumerate(cols, 1))
    body = ", ".join("[" + ", ".join(str(col[i]) for col in cols) + "]" for i in sets)
    return f'{{"columns_shown": {shown}, "m": {p.cfg.m}, "sets": [{body}]}}\n'
