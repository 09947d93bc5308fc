"""Equivalence of partitions and closed-form deviation signatures.

Two partitions are equivalent when their columns are identical beyond some
finite rank N and the first N columns hold the same elements as multisets.
At a finite horizon H the decision is necessarily bounded: we locate the last
differing rank, require it to fall in the first half of the horizon (tail
agreement over a mere suffix proves nothing), and compare the prefix
multisets.  `equivalent_up_to` and `classify` decide it from the partitions'
deviation maps, which is all a partition holds (`_tail_key`).  The census
needs no such margin: it merges greedy extensions whose used sets meet,
which proves the equivalence (the greedy module docstring).

For m=5 the twenty deduplicated head extensions collapse into eight classes,
and each class deviates from the standard partition on explicit *exception
families*: geometric rank progressions a*2^k + b at which a fixed triple
(expressed in 2^k) replaces the standard column.  Checking a partition
against a class signature is exact arithmetic, no heuristics: away from
family ranks the column must be standard, on family ranks it must equal the
variant triple entrywise.  Both that check and `diff_vs_standard` read only
the partition's deviation map (`Partition.deviations`) and the family ranks,
so their cost grows with the number of deviations, not with the horizon.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass

from .config import ModulusConfig
from .errors import HorizonError
from .partition import Column, Partition, standard_column


@dataclass(frozen=True)
class EquivalenceWitness:
    """Rank bound N with columns identical on (N, verified_to]."""

    N: int
    verified_to: int


@dataclass(frozen=True)
class ExceptionFamily:
    """Ranks a*2^k + b (k >= k_min) where a class swaps one triple for another.

    Entry formulas are (c, d) pairs denoting c*2^k + d evaluated at the same
    k as the position; `standard` restates the standard column there and
    `variant` gives the replacement, both entrywise (entry i belongs to set i).
    """

    position: tuple[int, int]
    k_min: int
    standard: tuple[tuple[int, int], ...]
    variant: tuple[tuple[int, int], ...]

    def rank_at(self, k: int) -> int:
        a, b = self.position
        return a * 2**k + b

    def k_for_rank(self, rank: int) -> int | None:
        """The k with rank = a*2^k + b, or None when rank is off-family."""
        a, b = self.position
        rem = rank - b
        if rem <= 0 or rem % a:
            return None
        q = rem // a
        if q & (q - 1):
            return None
        k = q.bit_length() - 1
        return k if k >= self.k_min else None

    def positions_up_to(self, limit: int) -> Iterator[tuple[int, int]]:
        """(k, rank) for every family rank up to limit, in increasing order."""
        k = self.k_min
        while (rank := self.rank_at(k)) <= limit:
            yield k, rank
            k += 1

    def ranks_up_to(self, limit: int) -> list[int]:
        return [rank for _, rank in self.positions_up_to(limit)]

    def standard_at(self, k: int) -> Column:
        return tuple(c * 2**k + d for c, d in self.standard)

    def variant_at(self, k: int) -> Column:
        return tuple(c * 2**k + d for c, d in self.variant)


@dataclass(frozen=True)
class ClassSignature:
    """Deviation pattern of one m=5 class relative to the standard partition.

    coincide_after is the nominal rank after which the class's listed
    representative follows the pattern.  Members of the same class can
    deviate at a handful of later non-family ranks (class 2 members reach
    rank 12), so conformity is judged adaptively instead: the last
    non-conforming rank must fall within the first half of the horizon.
    Family positions recur geometrically, so a partition checked against a
    wrong signature keeps missing expected variants in the second half and
    is rejected.
    """

    class_id: int
    coincide_after: int
    families: tuple[ExceptionFamily, ...]


SIGNATURES: dict[int, ClassSignature] = {
    1: ClassSignature(1, 10, (
        ExceptionFamily((10, 1), 0, ((25, 1), (25, 2), (50, 0)), ((25, 0), (25, 2), (50, 1))),
        ExceptionFamily((12, 2), 0, ((30, 3), (30, 4), (60, 5)), ((30, 3), (30, 5), (60, 4))),
    )),
    2: ClassSignature(2, 10, (
        ExceptionFamily((10, 1), 0, ((25, 1), (25, 2), (50, 0)), ((25, 0), (25, 1), (50, 2))),
        ExceptionFamily((12, 2), 0, ((30, 3), (30, 4), (60, 5)), ((30, 4), (30, 5), (60, 3))),
    )),
    3: ClassSignature(3, 8, (
        ExceptionFamily((2, 1), 2, ((5, 1), (5, 2), (10, 0)), ((5, 0), (5, 1), (10, 2))),
        ExceptionFamily((2, 2), 2, ((5, 3), (5, 4), (10, 5)), ((5, 4), (5, 5), (10, 3))),
    )),
    4: ClassSignature(4, 6, ()),
    5: ClassSignature(5, 10, (
        ExceptionFamily((10, 1), 0, ((25, 1), (25, 2), (50, 0)), ((25, 0), (25, 2), (50, 1))),
        ExceptionFamily((12, 1), 0, ((30, 1), (30, 2), (60, 0)), ((30, 0), (30, 2), (60, 1))),
        ExceptionFamily((12, 2), 0, ((30, 3), (30, 4), (60, 5)), ((30, 4), (30, 5), (60, 3))),
    )),
    6: ClassSignature(6, 8, (
        ExceptionFamily((2, 1), 2, ((5, 1), (5, 2), (10, 0)), ((5, 0), (5, 2), (10, 1))),
        ExceptionFamily((2, 2), 2, ((5, 3), (5, 4), (10, 5)), ((5, 3), (5, 5), (10, 4))),
    )),
    7: ClassSignature(7, 10, (
        ExceptionFamily((12, 1), 0, ((30, 1), (30, 2), (60, 0)), ((30, 0), (30, 2), (60, 1))),
        ExceptionFamily((12, 2), 0, ((30, 3), (30, 4), (60, 5)), ((30, 3), (30, 5), (60, 4))),
    )),
    8: ClassSignature(8, 12, (
        ExceptionFamily((12, 1), 0, ((30, 1), (30, 2), (60, 0)), ((30, 0), (30, 1), (60, 2))),
        ExceptionFamily((12, 2), 0, ((30, 3), (30, 4), (60, 5)), ((30, 4), (30, 5), (60, 3))),
    )),
}


def _require_stored(p: Partition, horizon: int) -> None:
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if horizon > p.horizon:
        raise HorizonError(f"horizon {horizon} exceeds stored {p.horizon} columns")


def _tail_key(p: Partition, horizon: int) -> tuple:
    """(cfg, non-standard columns on (H/2, H], element delta on 1..H/2) of p's deviation map.

    The delta is the multiset of p's first H/2 columns less the standard
    partition's: each deviating column's elements counted up, the standard
    column's at that rank counted down, zero counts dropped.  Counts, not
    sets, since a column may repeat an element.

    Equal keys are the equivalence at H (columns identical beyond some
    N <= H/2, equal multisets in columns 1..N).  Equal keys give identical
    columns on (H/2, H], so N <= H/2, and equal multisets on 1..H/2, hence
    on 1..N as the columns on (N, H/2] are shared.  Conversely a witness
    N <= H/2 leaves identical columns on (H/2, H] and, adding the shared
    columns on (N, H/2], equal multisets on 1..H/2.
    """
    half = horizon // 2
    tail = []
    delta: Counter[int] = Counter()
    for n, col in p.deviations.items():
        if n <= half:
            delta.update(col)
            delta.subtract(standard_column(p.cfg, n))
        elif n <= horizon:
            tail.append((n, col))
    return p.cfg, tuple(tail), frozenset((x, c) for x, c in delta.items() if c)


def equivalent_up_to(p: Partition, q: Partition, horizon: int) -> EquivalenceWitness | None:
    """Decide equivalence at a finite horizon.

    Returns the smallest N such that columns agree on (N, horizon] and the
    multisets of elements in columns 1..N coincide, provided N is at most
    horizon/2; None otherwise.  The half-horizon margin keeps a spurious
    late agreement from counting as evidence.  Equal tail keys decide the
    verdict; N is then the last rank where the two deviation maps disagree.
    """
    if p.cfg != q.cfg:
        raise ValueError("partitions use different moduli")
    _require_stored(p, horizon)
    _require_stored(q, horizon)
    if _tail_key(p, horizon) != _tail_key(q, horizon):
        return None
    theirs = {n: col for n, col in q.deviations.items() if n <= horizon}  # _witness reads all of it
    return EquivalenceWitness(_witness(p.cfg, p.deviations, theirs, horizon), horizon)


def classify(partitions: list[Partition], horizon: int) -> list[list[int]]:
    """Group partitions into equivalence classes at the given horizon.

    Returns lists of indices into the input, ordered by first member.
    Partitions share a class exactly when their tail keys are equal, which
    is when equivalent_up_to finds a witness (see _tail_key); partitions of
    different moduli never share one.
    """
    buckets: dict[tuple, list[int]] = {}
    for idx, p in enumerate(partitions):
        _require_stored(p, horizon)
        buckets.setdefault(_tail_key(p, horizon), []).append(idx)
    return list(buckets.values())  # a bucket enters the dict with its first member


def diff_vs_standard(p: Partition, horizon: int) -> list[tuple[int, Column, Column]]:
    """Ranks where p differs from the standard partition, with both columns."""
    _require_stored(p, horizon)
    return [
        (n, standard_column(p.cfg, n), col) for n, col in p.deviations.items() if n <= horizon
    ]


def _expected_columns(sig: ClassSignature, horizon: int) -> dict[int, Column]:
    """Rank -> variant column at every family rank up to the horizon."""
    expected: dict[int, Column] = {}
    for fam in sig.families:  # a later family overrides an earlier one at a shared rank
        for k, rank in fam.positions_up_to(horizon):
            expected[rank] = fam.variant_at(k)
    return expected


def _witness(
    cfg: ModulusConfig, devs: dict[int, Column], expected: dict[int, Column], horizon: int
) -> int | None:
    """signature_witness read from a deviation map and a signature's expected columns."""
    for n in sorted({n for n in devs if n <= horizon} | expected.keys(), reverse=True):
        std = standard_column(cfg, n)
        if devs.get(n, std) != expected.get(n, std):
            return n if n <= horizon // 2 else None
    return 0


def signature_witness(p: Partition, sig: ClassSignature, horizon: int) -> int | None:
    """Last rank at which p breaks the signature's pattern, or None on failure.

    A rank conforms when it carries the family variant (on family positions)
    or the standard column (elsewhere).  The returned witness is 0 for a
    perfectly conforming partition and must not exceed horizon/2; beyond
    that the signature is rejected and None is returned.  Off the family
    ranks and p's deviating ranks both sides are standard, so only those
    ranks are compared, from the top down.
    """
    _require_stored(p, horizon)
    return _witness(p.cfg, p.deviations, _expected_columns(sig, horizon), horizon)


def check_signature(p: Partition, sig: ClassSignature, horizon: int) -> bool:
    """True when p follows the signature's deviation pattern at this horizon."""
    return signature_witness(p, sig, horizon) is not None


def signature_matches(p: Partition, horizon: int) -> list[tuple[int, int]]:
    """(class_id, witness) for every built-in signature the partition passes."""
    out = []
    for class_id, sig in sorted(SIGNATURES.items()):
        witness = signature_witness(p, sig, horizon)
        if witness is not None:
            out.append((class_id, witness))
    return out
