"""Verification suites: internal consistency checks over generated data.

Each check builds the data it needs and reports pass/fail with a detail
string.  The suite doubles as a fault-injection target: the caller can
request a deliberate corruption (a column sum knocked off the schedule, or
two elements swapped across slots) and confirm the failure is caught and
named.
"""
from __future__ import annotations

from dataclasses import dataclass

from .census import run_census
from .config import DEFAULT_HORIZON, DEFAULT_NODE_BUDGET, ModulusConfig
from .enumeration import head_groups
from .equivalence import SIGNATURES, signature_matches
from .errors import InvariantError, RankPartError
from .greedy import greedy_extend
from .partition import Partition, broken_ranks, residue_set_index, standard_partition, sum_schedule
from .reshuffle import (
    SwapSpec,
    reshuffle_family_i,
    reshuffle_family_ii,
    swap_pair,
    verify_sum_pattern,
)

# class tallies confirmed by full runs at horizons 64 and 4096
KNOWN_CLASS_COUNTS = {5: 8, 7: 13, 9: 19, 11: 26, 13: 34, 15: 43}

INJECTIONS = ("sum-schedule", "swap")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _inject(p: Partition, inject: str | None) -> Partition:
    if inject is None:
        return p
    if inject == "sum-schedule":
        # off-by-one on the last entry of column 7
        cols = list(p.columns)
        col = cols[6]
        cols[6] = col[:-1] + (col[-1] + 1,)
        return Partition(p.cfg, tuple(cols))
    if inject == "swap":
        # one-sided exchange across ranks; breaks two column sums
        q, _ = swap_pair(p, SwapSpec((2, 4), (1, 5)))
        return q
    raise ValueError(f"unknown injection {inject!r}, expected one of {INJECTIONS}")


def _check_sum_schedule(cfg: ModulusConfig, p: Partition, horizon: int) -> CheckResult:
    broken = broken_ranks(p, horizon)
    if broken:
        n = broken[0]
        got, want = sum(p.column(n)), sum_schedule(cfg, n)
        return CheckResult("sum-schedule", False, f"column {n} sums to {got}, schedule wants {want}")
    t = cfg.t
    for n in range(1, horizon + 1):
        want = sum_schedule(cfg, n)
        if cfg.m == 5 and want != 11 * n - 2 * (n // 2) - 8:
            return CheckResult("sum-schedule", False, f"m=5 closed form disagrees at rank {n}")
        if n > 1:
            diff = want - sum_schedule(cfg, n - 1)
            expected = (t + 1) ** 2 + (t if n % 2 == 1 else 0)
            if diff != expected:
                return CheckResult(
                    "sum-schedule", False, f"difference at rank {n} is {diff}, expected {expected}"
                )
    return CheckResult("sum-schedule", True, f"{horizon} columns follow the schedule")


def _check_residues(cfg: ModulusConfig, p: Partition, horizon: int) -> CheckResult:
    for n in range(1, horizon + 1):
        for i, x in enumerate(p.column(n), start=1):
            if residue_set_index(cfg, x) != i:
                return CheckResult(
                    "residue-membership", False, f"element {x} sits in set {i}, residue says {residue_set_index(cfg, x)}"
                )
    return CheckResult("residue-membership", True, f"all elements through rank {horizon} match their residue set")


def _check_completeness(p: Partition) -> CheckResult:
    try:
        p.validate(require_sums=False)
    except InvariantError as e:
        return CheckResult("prefix-completeness", False, str(e))
    return CheckResult("prefix-completeness", True, "stored elements are distinct and gap-free")


def _check_greedy(cfg: ModulusConfig, p: Partition, horizon: int) -> CheckResult:
    try:
        regenerated = greedy_extend(cfg, p.columns[:5], horizon)
    except RankPartError as e:
        return CheckResult("greedy-reproduction", False, str(e))
    if regenerated.columns != p.columns[:horizon]:
        first_bad = next(
            n for n in range(1, horizon + 1) if regenerated.columns[n - 1] != p.columns[n - 1]
        )
        return CheckResult("greedy-reproduction", False, f"extension deviates at rank {first_bad}")
    return CheckResult("greedy-reproduction", True, "greedy extension of the first five columns reproduces the rest")


def _check_signatures(cfg: ModulusConfig, horizon: int) -> CheckResult:
    _, groups = head_groups(cfg)
    reps = [g.representative for g in groups if not g.is_standard]
    tally: dict[int, int] = {}
    for rep in reps:
        ext = greedy_extend(cfg, rep.columns, horizon)
        matches = signature_matches(ext, horizon)
        if len(matches) != 1:
            ids = [class_id for class_id, _ in matches]
            return CheckResult(
                "signatures", False, f"head {rep.choice_id} matches signatures {ids}, expected exactly one"
            )
        class_id = matches[0][0]
        tally[class_id] = tally.get(class_id, 0) + 1
    if sorted(tally) != sorted(SIGNATURES):
        return CheckResult("signatures", False, f"classes seen: {sorted(tally)}")
    detail = f"{len(reps)} representatives each match exactly one of {len(SIGNATURES)} signatures"
    return CheckResult("signatures", True, detail)


def _check_reshuffles(cfg: ModulusConfig, horizon: int) -> CheckResult:
    std = standard_partition(cfg, horizon)
    k_i = horizon // 6
    k_ii = max((horizon - 4) // 6, 0)
    for k in range(1, k_i + 1):
        a = std.column(4 * k)[0] + std.column(4 * k)[2]
        b = std.column(6 * k - 1)[0] + std.column(6 * k - 1)[1]
        if not a == b == 30 * k - 7:
            return CheckResult("reshuffle-identities", False, f"family i pair sums differ at k={k}")
    for k in range(k_ii):
        a = std.column(4 * k + 3)[1] + std.column(4 * k + 3)[2]
        b = std.column(6 * k + 4)[0] + std.column(6 * k + 4)[1]
        if not a == b == 30 * k + 17:
            return CheckResult("reshuffle-identities", False, f"family ii pair sums differ at k={k}")
    for result in (reshuffle_family_i(std, k_i), reshuffle_family_ii(std, k_ii)):
        if not verify_sum_pattern(result, horizon):
            return CheckResult("reshuffle-identities", False, "reshuffled partition breaks the sum pattern")
        try:
            result.validate()
        except InvariantError as e:
            return CheckResult("reshuffle-identities", False, str(e))
    return CheckResult(
        "reshuffle-identities", True, f"pair sums and sum pattern hold through k={k_i}"
    )


def _check_class_count(cfg: ModulusConfig, horizon: int, node_budget: int) -> CheckResult:
    expected = KNOWN_CLASS_COUNTS[cfg.m]
    report = run_census(cfg.m, horizon, "exclude-standard", node_budget)
    if report.classes != expected:
        return CheckResult(
            "class-count", False, f"m={cfg.m} census found {report.classes} classes, expected {expected}"
        )
    return CheckResult("class-count", True, f"classes: {report.classes}")


def run_verification(
    m: int = 5,
    horizon: int = DEFAULT_HORIZON,
    inject: str | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[CheckResult]:
    """Run every applicable check; returns one result per check.

    The deep checks (signatures, class tallies) need room for the deviation
    families to separate in the second half of the horizon, so they only run
    at horizon 2048 or more.
    """
    cfg = ModulusConfig(m)
    if horizon < 12:
        raise ValueError("verification needs a horizon of at least 12")
    std = _inject(standard_partition(cfg, horizon), inject)
    results = [
        _check_sum_schedule(cfg, std, horizon),
        _check_residues(cfg, std, horizon),
        _check_completeness(std),
        _check_greedy(cfg, std, horizon),
    ]
    if cfg.m == 5:
        results.append(_check_reshuffles(cfg, horizon))
        if horizon >= 2048:
            results.append(_check_signatures(cfg, horizon))
    if horizon >= 2048 and cfg.m in KNOWN_CLASS_COUNTS:
        results.append(_check_class_count(cfg, horizon, node_budget))
    return results


def verification_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)
