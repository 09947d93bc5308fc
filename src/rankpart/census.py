"""Full enumeration census for one modulus: counts, dedup groups, classes.

The census enumerates every five-column head and groups heads by union key
as the search finds them (enumeration.head_groups), without building a Head
per head.  One builder per group representative, plus one for the standard
head, then run in lockstep (greedy.lockstep_classes): every builder advances
from event to event, the ranks where its column can leave the standard
partition's, and at rank 5 and at every rank up to H/2 builders whose used
sets coincide are merged, the later one being dropped.

That merge is exactly the equivalence at horizon H.  Greedy extension from
rank n depends only on the set of integers used so far, so two builders with
equal used sets at rank n <= H/2 have identical columns from rank n+1 on and
equal element multisets in their first n columns: their columns agree beyond
a rank N <= H/2 with equal prefix multisets.  Conversely two extensions that
agree beyond some N <= H/2 with equal prefix multisets have equal used sets
at rank H/2.  Past H/2 only the class roots extend, to the horizon.

Some representatives for m >= 7 hit a forced collision while extending; a
builder that fails takes its whole class with it, and those representatives
are reported as non-extendable and left out of the classification.  The
representatives in the standard head's class are the standard-equivalent
ones.  `_group_classes` is the one place the standard head joins the run:
the census and `standard_equivalent_heads`, which groups a caller's heads
with enumeration.dedup_heads, both read it.

Because nothing says whether the class tally should count the class of the
standard partition's own head group, both protocols are available:
"exclude-standard" drops the standard group before counting (for m=5 this
leaves the familiar 20 representatives), "include-standard" keeps it.  Both
read the same lockstep run.  The two tallies agree for every modulus tried
so far, since some non-standard representative is always equivalent to the
standard partition and absorbs it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .config import DEFAULT_HORIZON, DEFAULT_NODE_BUDGET, ModulusConfig
from .enumeration import (
    DedupGroup,
    Head,
    dedup_heads,
    fifth_column_candidates,
    head_groups,
    partition_numbering,
    sum_decompositions,
)
from .greedy import lockstep_classes
from .partition import standard_partition, sum_schedule

PROTOCOLS = ("exclude-standard", "include-standard")
HEAD_COLUMNS = 5


@dataclass(frozen=True)
class CensusReport:
    m: int
    horizon: int
    protocol: str
    heads: int
    statements: int
    dedup_groups: int
    group_members: tuple[tuple[int, ...], ...]
    representatives: int
    non_extendable: tuple[int, ...]
    classes: int
    class_members: tuple[tuple[int, ...], ...]
    standard_equivalent: tuple[int, ...]
    decompositions: tuple[int, int, int] | None
    partition_numbers: tuple[tuple[int, int], ...] | None

    def to_dict(self) -> dict:
        """JSON-friendly view with deterministic key order left to the encoder."""
        out = {
            "m": self.m,
            "horizon": self.horizon,
            "protocol": self.protocol,
            "heads": self.heads,
            "statements": self.statements,
            "dedup_groups": self.dedup_groups,
            "group_members": [list(g) for g in self.group_members],
            "dedup": self.representatives,
            "non_extendable": list(self.non_extendable),
            "classes": self.classes,
            "class_members": [list(c) for c in self.class_members],
            "standard_equivalent": list(self.standard_equivalent),
        }
        if self.decompositions is not None:
            r3, r4, r5 = self.decompositions
            out["decompositions"] = {"rank3": r3, "rank4": r4, "rank5": r5}
        if self.partition_numbers is not None:
            out["partition_numbers"] = {str(h): n for h, n in self.partition_numbers}
        return out


def _decomposition_counts(cfg: ModulusConfig) -> tuple[int, int, int]:
    # m=5 only: choices for columns 3 and 4, plus the rowwise rank-5 pool
    first_two = set(range(6))
    col3_choices = sum_decompositions(sum_schedule(cfg, 3), 3, 0, first_two)
    col4_sets = {
        d
        for c3 in col3_choices
        for d in sum_decompositions(sum_schedule(cfg, 4), 3, 0, first_two | set(c3))
    }
    return len(col3_choices), len(col4_sets), len(fifth_column_candidates(cfg))


def _group_classes(
    cfg: ModulusConfig, groups: list[DedupGroup], horizon: int
) -> tuple[list[int | None], tuple[int, ...]]:
    """Lockstep roots of the group representatives, and the standard-equivalent ids.

    The representatives and the standard head of the same length run in
    lockstep (greedy.lockstep_classes); roots[i] is the index of the first
    group in group i's class, or None when that class dies.  The member ids
    of every group in the standard head's class come back sorted.
    """
    std_head = standard_partition(cfg, len(groups[0].representative.columns)).columns
    *roots, std_root = lockstep_classes(
        cfg, [g.representative.columns for g in groups] + [std_head], horizon
    )
    std_ids = tuple(sorted(
        head_id
        for group, root in zip(groups, roots)
        if root is not None and root == std_root
        for head_id in group.member_ids
    ))
    return roots, std_ids


def _census(
    m: int, horizon: int, protocols: tuple[str, ...], node_budget: int
) -> tuple[CensusReport, ...]:
    for protocol in protocols:
        if protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {protocol!r}, expected one of {PROTOCOLS}")
    cfg = ModulusConfig(m)
    if horizon < HEAD_COLUMNS:
        raise ValueError(f"horizon {horizon} is shorter than the {HEAD_COLUMNS} head columns")
    head_count, groups = head_groups(cfg, HEAD_COLUMNS, node_budget)
    roots, std_equivalent = _group_classes(cfg, groups, horizon)
    m5 = cfg.m == 5
    reports = []
    for protocol in protocols:
        selected = [
            (group.representative.choice_id, root)
            for group, root in zip(groups, roots)
            if protocol == "include-standard" or not group.is_standard
        ]
        classes: dict[int, list[int]] = {}
        for rep_id, root in selected:
            if root is not None:
                classes.setdefault(root, []).append(rep_id)
        reports.append(CensusReport(
            m=cfg.m,
            horizon=horizon,
            protocol=protocol,
            heads=head_count,
            statements=head_count * math.factorial(cfg.set_count) ** HEAD_COLUMNS,
            dedup_groups=len(groups),
            group_members=tuple(g.member_ids for g in groups),
            representatives=len(selected),
            non_extendable=tuple(rep_id for rep_id, root in selected if root is None),
            classes=len(classes),
            class_members=tuple(tuple(members) for members in classes.values()),
            standard_equivalent=std_equivalent,
            decompositions=_decomposition_counts(cfg) if m5 else None,
            partition_numbers=tuple(sorted(partition_numbering(groups).items())) if m5 else None,
        ))
    return tuple(reports)


def run_census(
    m: int,
    horizon: int = DEFAULT_HORIZON,
    protocol: str = "exclude-standard",
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> CensusReport:
    """Census for one modulus under one dedup protocol.

    Raises ValueError for an unknown protocol or a horizon shorter than the
    head, ResourceError when head enumeration exceeds node_budget.
    """
    (report,) = _census(m, horizon, (protocol,), node_budget)
    return report


def run_census_both(
    m: int,
    horizon: int = DEFAULT_HORIZON,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[CensusReport, CensusReport]:
    """Census under both protocols, sharing the enumeration and the lockstep run."""
    return _census(m, horizon, PROTOCOLS, node_budget)


def standard_equivalent_heads(heads: list[Head], horizon: int) -> set[int]:
    """Ids of heads whose greedy extension is equivalent to the standard partition.

    The heads are grouped as by dedup_heads (a head without a choice_id takes
    its position) and classed as in a census.  Heads that die before the
    horizon are never equivalent.  A head with the standard union merges with
    the standard head at its last rank even beyond horizon/2, so below
    horizon 10 the union alone decides.
    """
    if not heads:
        return set()
    return set(_group_classes(heads[0].cfg, dedup_heads(heads), horizon)[1])
