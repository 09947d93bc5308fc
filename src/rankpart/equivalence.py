"""Equivalence of partitions and closed-form deviation signatures.

Two partitions are equivalent when their columns are identical beyond some
finite rank N and the first N columns hold the same elements as multisets.
At a finite horizon H the decision is necessarily bounded: we locate the last
differing rank, require it to fall in the first half of the horizon (tail
agreement over a mere suffix proves nothing), and compare the prefix
multisets.

For m=5 the twenty deduplicated head extensions collapse into eight classes,
and each class deviates from the standard partition on explicit *exception
families*: geometric rank progressions a*2^k + b at which a fixed triple
(expressed in 2^k) replaces the standard column.  Checking a partition
against a class signature is exact arithmetic, no heuristics: away from
family ranks the column must be standard, on family ranks it must equal the
variant triple entrywise.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .config import ModulusConfig
from .errors import HorizonError
from .greedy import lockstep_classes
from .partition import Column, Partition, standard_columns, standard_partition


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


def equivalent_up_to(p: Partition, q: Partition, horizon: int) -> EquivalenceWitness | None:
    """Decide equivalence at a finite horizon.

    Returns the smallest N such that columns agree on (N, horizon] and the
    multisets of elements in columns 1..N coincide, provided N is at most
    horizon/2; None otherwise.  The half-horizon margin keeps a spurious
    late agreement from counting as evidence.
    """
    if p.cfg != q.cfg:
        raise ValueError("partitions use different moduli")
    _require_stored(p, horizon)
    _require_stored(q, horizon)
    last_diff = 0
    for n in range(1, horizon + 1):
        if p.columns[n - 1] != q.columns[n - 1]:
            last_diff = n
    if last_diff == 0:
        return EquivalenceWitness(0, horizon)
    if last_diff > horizon // 2:
        return None
    mine = sorted(x for col in p.columns[:last_diff] for x in col)
    theirs = sorted(x for col in q.columns[:last_diff] for x in col)
    if mine != theirs:
        return None
    return EquivalenceWitness(last_diff, horizon)


def classify(partitions: list[Partition], horizon: int) -> list[list[int]]:
    """Group partitions into equivalence classes at the given horizon.

    Returns lists of indices into the input, ordered by first member.

    Grouping uses the key (columns on the second half of the horizon, full
    element multiset), which agrees with pairwise equivalent_up_to: a witness
    N <= H/2 forces identical second halves and equal total multisets, and
    conversely identical second halves put the last difference at N <= H/2
    while equal totals minus the shared tail leave equal prefix multisets.
    """
    buckets: dict[tuple, list[int]] = {}
    half = horizon // 2
    for idx, p in enumerate(partitions):
        _require_stored(p, horizon)
        key = (p.columns[half:horizon], tuple(sorted(x for col in p.columns[:horizon] for x in col)))
        buckets.setdefault(key, []).append(idx)
    return sorted(buckets.values(), key=lambda members: members[0])


def diff_vs_standard(p: Partition, horizon: int) -> list[tuple[int, Column, Column]]:
    """Ranks where p differs from the standard partition, with both columns."""
    _require_stored(p, horizon)
    std = standard_columns(p.cfg, horizon)
    return [
        (n, std[n - 1], p.columns[n - 1])
        for n in range(1, horizon + 1)
        if p.columns[n - 1] != std[n - 1]
    ]


def signature_witness(p: Partition, sig: ClassSignature, horizon: int) -> int | None:
    """Last rank at which p breaks the signature's pattern, or None on failure.

    A rank conforms when it carries the family variant (on family positions)
    or the standard column (elsewhere).  The returned witness is 0 for a
    perfectly conforming partition and must not exceed horizon/2; beyond
    that the signature is rejected and None is returned.  The second half is
    compared in one slice, then the first half is walked down from H/2.
    """
    _require_stored(p, horizon)
    std = standard_columns(p.cfg, horizon)
    expected = list(std)
    for fam in sig.families:
        for k, rank in fam.positions_up_to(horizon):
            expected[rank - 1] = fam.variant_at(k)
    half = horizon // 2
    if p.columns[half:horizon] != tuple(expected[half:]):
        return None
    for n in range(half, 0, -1):
        if p.columns[n - 1] != expected[n - 1]:
            return n
    return 0


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


def standard_equivalent_heads(heads: list, horizon: int) -> set[int]:
    """Ids of heads whose greedy extension is equivalent to the standard partition.

    The heads and the standard head of the same length run in lockstep (see
    greedy.lockstep_classes); a head is standard-equivalent when it lands in
    the standard head's class.  Heads that do not extend to the horizon
    (forced collision) are never equivalent.  Heads with the standard union
    merge with the standard head at the head's last rank even when that rank
    exceeds horizon/2, so below horizon 10 the union alone decides.
    """
    if not heads:
        return set()
    cfg: ModulusConfig = heads[0].cfg
    std_head = standard_partition(cfg, len(heads[0].columns)).columns
    *roots, std_root = lockstep_classes(cfg, [h.columns for h in heads] + [std_head], horizon)
    return {
        head.choice_id if head.choice_id is not None else pos
        for pos, (head, root) in enumerate(zip(heads, roots), start=1)
        if root is not None and root == std_root
    }
