"""Sum-preserving element exchanges between partition slots.

A slot is (set index, rank).  The generic primitive swaps the contents of
two slots and reports which column sums broke; chaining swaps whose pair
sums match yields new partitions with the sum pattern intact.  An infinite
family of such exchanges is data, an `ExchangeFamily`: exchange k trades the
pair in two sets at rank 4k + low with the pair in sets one and two at rank
6k + high, both summing to 30k + total.  `FAMILIES` holds the two families
of the m=5 standard partition, i (k >= 1: sets one and three at rank 4k,
rank 6k-1, sums 30k - 7) and ii (k >= 0: sets two and three at rank 4k+3,
rank 6k+4, sums 30k + 17); a family is one row, keyed by its name.  The
pair sums hold only at m=5, so the one builder, `reshuffle_family`, refuses
any other modulus, and its one horizon rule, checked before any column is
read, is the last rank the exchanges touch, the high rank of the last k.
It reads the input's columns once, zips the new tuples from `itemgetter`
maps over two extended slices of them, not a loop per k, and writes them
over the input's deviation map, so the verification battery finds the
exchanged ranks by comparing maps.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

from .errors import HorizonError
from .partition import Column, Partition, broken_ranks, standard_columns


@dataclass(frozen=True)
class SwapSpec:
    """Two distinct slots, each a (set index, rank) pair, both 1-based."""

    first: tuple[int, int]
    second: tuple[int, int]

    def __post_init__(self):
        if self.first == self.second:
            raise ValueError("swap slots must be distinct")


@dataclass(frozen=True)
class ExchangeFamily:
    """Exchange k >= k_min trades the pair in sets low_sets at rank 4k + low with the
    pair in sets 1 and 2 at rank 6k + high; in the m=5 standard partition both pairs
    sum to 30k + total.  The two ranks differ in parity, so no column holds both."""

    k_min: int
    low: int
    low_sets: tuple[int, int]
    high: int
    total: int

    def pairs(self, columns: tuple[Column, ...], k_max: int) -> list[tuple[range, tuple[Column, ...], tuple[int, int]]]:
        """(ranks, columns there, set pair) of the low and of the high pairs of the first k_max exchanges."""
        k0, k1 = self.k_min, self.k_min + k_max
        return [(r, columns[r.start - 1:r.stop - 1:r.step], sets) for r, sets in (
            (range(4 * k0 + self.low, 4 * k1 + self.low, 4), self.low_sets),
            (range(6 * k0 + self.high, 6 * k1 + self.high, 6), (1, 2)),
        )]

    def sums(self, k_max: int) -> range:
        """The closed form 30k + total of each of the first k_max exchanges' pair sums."""
        return range(30 * self.k_min + self.total, 30 * (self.k_min + k_max) + self.total, 30)

    def k_max(self, horizon: int) -> int:
        """The most exchanges whose ranks all lie in 1..horizon."""
        return len(range(6 * self.k_min + self.high, horizon + 1, 6))


FAMILIES = {
    "i": ExchangeFamily(k_min=1, low=0, low_sets=(1, 3), high=-1, total=-7),
    "ii": ExchangeFamily(k_min=0, low=3, low_sets=(2, 3), high=4, total=17),
}


def _check_slot(p: Partition, slot: tuple[int, int]) -> None:
    i, n = slot
    if not 1 <= i <= p.cfg.set_count:
        raise ValueError(f"set index {i} outside 1..{p.cfg.set_count}")
    if not 1 <= n <= p.horizon:
        raise HorizonError(f"rank {n} outside stored range 1..{p.horizon}")


def _written_over(p: Partition, columns: Iterable[tuple[int, Column]]) -> Partition:
    """p with each (rank, column) written over its column; a standard column leaves the map."""
    std = standard_columns(p.cfg, p.horizon)
    devs = dict(p.deviations)
    devs.update(columns)
    return Partition(p.cfg, p.horizon, {n: devs[n] for n in sorted(devs) if devs[n] != std[n - 1]})


def swap_pair(p: Partition, spec: SwapSpec) -> tuple[Partition, tuple[int, ...]]:
    """Exchange the elements of two slots.

    Returns the new partition together with all ranks whose column sums are
    broken afterwards, so a caller chaining repairs can watch the damage
    move and finally vanish.
    """
    _check_slot(p, spec.first)
    _check_slot(p, spec.second)
    (i1, n1), (i2, n2) = spec.first, spec.second
    cols = {n1: p.column(n1), n2: p.column(n2)}
    x, y = cols[n1][i1 - 1], cols[n2][i2 - 1]
    for i, n, v in ((i1, n1, y), (i2, n2, x)):  # in turn, so one column may hold both slots
        col = cols[n]
        cols[n] = (*col[:i - 1], v, *col[i:])
    q = _written_over(p, cols.items())
    return q, broken_ranks(q)


def reshuffle_family(p: Partition, family: str, k_max: int) -> Partition:
    """Apply the first k_max exchanges of the `FAMILIES` row named family to an m=5 partition.

    Needs a horizon that holds the last rank they touch; k_max = 0 returns the input unchanged.
    """
    spec = FAMILIES.get(family)
    if spec is None:
        raise ValueError(f"unknown family {family!r}, expected one of {tuple(FAMILIES)}")
    if p.cfg.m != 5:
        raise ValueError("reshuffle families are defined for m=5 only")
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    if k_max > spec.k_max(p.horizon):  # before any column is read
        need = 6 * (spec.k_min + k_max - 1) + spec.high
        raise HorizonError(f"horizon {p.horizon} too short for k_max={k_max}, need {need}")
    (low, a, (x, y)), (high, b, _) = spec.pairs(p.columns, k_max)
    # sets x and y of each low column take the high pair in order; the high pair takes theirs
    source = {x: (b, 0), y: (b, 1)}
    low_cols = zip(*(map(itemgetter(j), c) for c, j in (source.get(i, (a, i - 1)) for i in (1, 2, 3))))
    high_cols = zip(map(itemgetter(x - 1), a), map(itemgetter(y - 1), a), map(itemgetter(2), b))
    return _written_over(p, chain(zip(low, low_cols), zip(high, high_cols)))


def verify_sum_pattern(p: Partition, horizon: int) -> bool:
    """True when every column 1..horizon sums to the schedule."""
    return not broken_ranks(p, horizon)
