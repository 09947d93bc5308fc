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
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import HorizonError
from .partition import Partition, broken_ranks


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


def swap_pair(p: Partition, spec: SwapSpec) -> tuple[Partition, tuple[int, ...]]:
    """Exchange the elements of two slots.

    Returns the new partition together with all ranks whose column sums are
    broken afterwards, so a caller chaining repairs can watch the damage
    move and finally vanish.
    """
    _check_slot(p, spec.first)
    _check_slot(p, spec.second)
    cols = list(p.columns)
    (i1, n1), (i2, n2) = spec.first, spec.second
    x, y = cols[n1 - 1][i1 - 1], cols[n2 - 1][i2 - 1]
    for i, n, v in ((i1, n1, y), (i2, n2, x)):  # in turn, so one column may hold both slots
        col = cols[n - 1]
        cols[n - 1] = (*col[:i - 1], v, *col[i:])
    q = Partition(p.cfg, tuple(cols))
    return q, broken_ranks(q)


def reshuffle_family_i(p: Partition, k_max: int) -> Partition:
    """Apply the family-i exchanges for k = 1..k_max to an m=5 standard partition.

    Needs horizon >= 6*k_max; k_max = 0 returns the input unchanged.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    if p.horizon < 6 * k_max:
        raise HorizonError(f"horizon {p.horizon} too short for k_max={k_max}, need {6 * k_max}")
    cols = list(p.columns)
    for k in range(1, k_max + 1):  # ranks 4k are even and 6k-1 odd, so no column is touched twice
        a, b = cols[4 * k - 1], cols[6 * k - 2]
        cols[4 * k - 1] = (b[0], a[1], b[1], *a[3:])
        cols[6 * k - 2] = (a[0], a[2], *b[2:])
    return Partition(p.cfg, tuple(cols))


def reshuffle_family_ii(p: Partition, k_max: int) -> Partition:
    """Apply the family-ii exchanges for k = 0..k_max-1 to an m=5 standard partition.

    k_max counts applications; needs horizon >= 6*k_max + 4 when k_max > 0.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    if k_max and p.horizon < 6 * k_max + 4:
        raise HorizonError(f"horizon {p.horizon} too short for k_max={k_max}, need {6 * k_max + 4}")
    cols = list(p.columns)
    for k in range(k_max):  # ranks 4k+3 are odd and 6k+4 even, so no column is touched twice
        a, b = cols[4 * k + 2], cols[6 * k + 3]
        cols[4 * k + 2] = (a[0], b[0], b[1], *a[3:])
        cols[6 * k + 3] = (a[1], a[2], *b[2:])
    return Partition(p.cfg, tuple(cols))


def verify_sum_pattern(p: Partition, horizon: int) -> bool:
    """True when every column 1..horizon sums to the schedule."""
    return not broken_ranks(p, horizon)
