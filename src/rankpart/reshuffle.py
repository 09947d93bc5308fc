"""Sum-preserving element exchanges between partition slots.

A slot is (set index, rank).  The generic primitive swaps the contents of
two slots and reports which column sums broke; chaining swaps whose pair
sums match yields new partitions with the sum pattern intact.  Two infinite
families of such exchanges exist for the m=5 standard partition:

  family i  (k >= 1): the pair at rank 4k in sets one and three trades
      places with the pair at rank 6k-1 in sets one and two; both pairs
      sum to 30k - 7.
  family ii (k >= 0): the pair at rank 4k+3 in sets two and three trades
      places with the pair at rank 6k+4 in sets one and two; both pairs
      sum to 30k + 17.

The pair sums hold only at m=5, so both families refuse any other modulus.
Each reads the input's columns once and zips the new tuples from
`itemgetter` maps over two extended slices of them, not a loop per k.  The
output is the input's deviation map with the exchanged columns written over
it, so the verification battery finds the exchanged ranks by comparing maps.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

from .errors import HorizonError
from .partition import Column, Partition, broken_ranks, standard_columns

_first, _second, _third = itemgetter(0), itemgetter(1), itemgetter(2)


@dataclass(frozen=True)
class SwapSpec:
    """Two distinct slots, each a (set index, rank) pair, both 1-based."""

    first: tuple[int, int]
    second: tuple[int, int]

    def __post_init__(self):
        if self.first == self.second:
            raise ValueError("swap slots must be distinct")


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


def _check_family(p: Partition, k_max: int) -> None:
    if p.cfg.m != 5:
        raise ValueError("reshuffle families are defined for m=5 only")
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")


def reshuffle_family_i(p: Partition, k_max: int) -> Partition:
    """Apply the family-i exchanges for k = 1..k_max to an m=5 standard partition.

    Needs horizon >= 6*k_max; k_max = 0 returns the input unchanged.
    """
    _check_family(p, k_max)
    if p.horizon < 6 * k_max:
        raise HorizonError(f"horizon {p.horizon} too short for k_max={k_max}, need {6 * k_max}")
    cols = p.columns
    # ranks 4k are even and 6k-1 odd, so the two slices never share a column
    a, b = cols[3:4 * k_max:4], cols[4:6 * k_max:6]
    return _written_over(p, chain(
        zip(range(4, 4 * k_max + 1, 4), zip(map(_first, b), map(_second, a), map(_second, b))),
        zip(range(5, 6 * k_max, 6), zip(map(_first, a), map(_third, a), map(_third, b))),
    ))


def reshuffle_family_ii(p: Partition, k_max: int) -> Partition:
    """Apply the family-ii exchanges for k = 0..k_max-1 to an m=5 standard partition.

    k_max counts applications; needs horizon >= 6*k_max + 4 when k_max > 0.
    """
    _check_family(p, k_max)
    if k_max and p.horizon < 6 * k_max + 4:
        raise HorizonError(f"horizon {p.horizon} too short for k_max={k_max}, need {6 * k_max + 4}")
    cols = p.columns
    # ranks 4k+3 are odd and 6k+4 even, so the two slices never share a column
    a, b = cols[2:4 * k_max:4], cols[3:6 * k_max:6]
    return _written_over(p, chain(
        zip(range(3, 4 * k_max, 4), zip(map(_first, a), map(_first, b), map(_second, b))),
        zip(range(4, 6 * k_max, 6), zip(map(_second, a), map(_third, a), map(_third, b))),
    ))


def verify_sum_pattern(p: Partition, horizon: int) -> bool:
    """True when every column 1..horizon sums to the schedule."""
    return not broken_ranks(p, horizon)
