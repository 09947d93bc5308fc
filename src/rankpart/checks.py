"""Verification suites: internal consistency checks over generated data.

Each check builds the data it needs and reports pass/fail with a detail
string.  Every scan over the horizon is a bulk pass of C builtins (`map`
over sums, residues or pair sums, compared with the schedule or an
arithmetic sequence); a failed pass fails its check, and a per-rank loop
runs only to name the first violation in the detail.  The signature and
greedy checks compare deviation maps; the signature check extends the eight
m=5 classes in one lockstep run (greedy.lockstep_extensions).  The reshuffle
check reads each family's slices, set pairs and closed form from
`reshuffle.FAMILIES` (its pass yields the first broken k) and applies the
exchanges below the last column to the battery's standard partition; once
prefix-completeness and sum-schedule have passed that partition, each output
is checked as an exchange of it: only the ranks in either deviation map are
compared for width, sum and element set, all that `validate` could still
find wrong.  Any other output, and every one under an injection, runs the
full `validate()`, whose message the check reports.  The suite doubles as a
fault-injection target: the caller can request a deliberate corruption (a
column sum knocked off the schedule, or two elements swapped across slots)
and confirm the failure is caught and named.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, repeat
from operator import add, eq, itemgetter, mod, ne

from .census import run_census
from .config import DEFAULT_HORIZON, DEFAULT_NODE_BUDGET, ModulusConfig
from .enumeration import head_groups
from .equivalence import SIGNATURES, _expected_columns, _witness
from .errors import InvariantError, RankPartError
from .greedy import greedy_extend, lockstep_extensions
from .partition import (
    Partition, _schedule, broken_ranks, residue_set_index, standard_columns, standard_partition, sum_schedule
)
from .reshuffle import FAMILIES, SwapSpec, _written_over, reshuffle_family, swap_pair

# class tallies confirmed by full runs at horizons 64 and 4096
KNOWN_CLASS_COUNTS = {5: 8, 7: 13, 9: 19, 11: 26, 13: 34, 15: 43, 17: 53}

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
        col = p.column(7)
        return _written_over(p, [(7, col[:-1] + (col[-1] + 1,))])
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
    t, schedule = cfg.t, partial(sum_schedule, cfg)
    if all(map(eq, map(schedule, range(1, horizon + 1)), _schedule(cfg))):
        return CheckResult("sum-schedule", True, f"{horizon} columns follow the schedule")
    # the schedule misses its recurrence: name where, else it is off by a constant from rank 1 on
    for n in range(1, horizon + 1):
        if cfg.m == 5 and schedule(n) != 11 * n - 2 * (n // 2) - 8:
            return CheckResult("sum-schedule", False, f"m=5 closed form disagrees at rank {n}")
        if n > 1:
            diff, expected = schedule(n) - schedule(n - 1), (t + 1) ** 2 + t * (n % 2)
            if diff != expected:
                return CheckResult("sum-schedule", False, f"difference at rank {n} is {diff}, expected {expected}")
    return CheckResult("sum-schedule", False, f"schedule starts at {schedule(1)}, not t(t+1)/2 = {t * (t + 1) // 2}")


def _check_residues(cfg: ModulusConfig, p: Partition, horizon: int) -> CheckResult:
    # the standard set of each residue mod m, read once; entry i of every column belongs to set i
    m = cfg.m
    residue_set = [residue_set_index(cfg, r) for r in range(m)]
    passed = CheckResult("residue-membership", True, f"all elements through rank {horizon} match their residue set")
    cols = p.columns[:horizon]
    if all(
        set(map(mod, map(itemgetter(i - 1), cols), repeat(m))) <= {r for r, j in enumerate(residue_set) if j == i}
        for i in range(1, cfg.set_count + 1)
    ):
        return passed
    for col in cols:
        i = 1
        for x in col:
            if residue_set[x % m] != i:
                return CheckResult(
                    "residue-membership", False, f"element {x} sits in set {i}, residue says {residue_set[x % m]}"
                )
            i += 1
    return passed


def _check_completeness(p: Partition) -> CheckResult:
    try:
        p.validate(require_sums=False)
    except InvariantError as e:
        return CheckResult("prefix-completeness", False, str(e))
    return CheckResult("prefix-completeness", True, "stored elements are distinct and gap-free")


def _check_greedy(cfg: ModulusConfig, p: Partition, horizon: int) -> CheckResult:
    try:
        regenerated = greedy_extend(cfg, list(map(p.column, range(1, 6))), horizon)
    except RankPartError as e:
        return CheckResult("greedy-reproduction", False, str(e))
    got, want = regenerated.deviations, {n: col for n, col in p.deviations.items() if n <= horizon}
    if got != want:
        first_bad = min(n for n in got.keys() | want.keys() if got.get(n) != want.get(n))
        return CheckResult("greedy-reproduction", False, f"extension deviates at rank {first_bad}")
    return CheckResult("greedy-reproduction", True, "greedy extension of the first five columns reproduces the rest")


def _check_signatures(cfg: ModulusConfig, horizon: int, node_budget: int) -> CheckResult:
    _, groups = head_groups(cfg, node_budget=node_budget)
    reps = [g.representative for g in groups if not g.is_standard]
    expected = {class_id: _expected_columns(sig, horizon) for class_id, sig in sorted(SIGNATURES.items())}
    tally: dict[int, int] = {}
    for rep, ext in zip(reps, lockstep_extensions(cfg, [rep.columns for rep in reps], horizon)):
        ids = [class_id for class_id, cols in expected.items() if _witness(cfg, ext.deviations, cols, horizon) is not None]
        if len(ids) != 1:
            return CheckResult(
                "signatures", False, f"head {rep.choice_id} matches signatures {ids}, expected exactly one"
            )
        tally[ids[0]] = tally.get(ids[0], 0) + 1
    if sorted(tally) != sorted(SIGNATURES):
        return CheckResult("signatures", False, f"classes seen: {sorted(tally)}")
    detail = f"{len(reps)} representatives each match exactly one of {len(SIGNATURES)} signatures"
    return CheckResult("signatures", True, detail)


def _is_exchange_of(q: Partition, std: Partition) -> bool:
    """True when q.validate() must pass because q only moves std's elements between slots.

    std must already be validated in full.  Every column where the two
    differ is at a rank in one of their deviation maps; q is an exchange of
    std when, at those ranks only, every column keeps its width and its sum,
    the elements are exactly std's elements there, and the last column,
    which bounds the gap test, is untouched.  (A rank where both hold the
    same column adds the same to both sides.)  Then q has std's elements,
    widths and sums, so every invariant of validate() carries over.
    """
    mine, theirs = q.deviations, std.deviations
    if q.cfg != std.cfg or q.horizon != std.horizon or mine.get(q.horizon) != theirs.get(q.horizon):
        return False
    std_cols = standard_columns(q.cfg, q.horizon)
    ranks = mine.keys() | theirs.keys()
    got = [mine.get(n, std_cols[n - 1]) for n in ranks]
    want = [theirs.get(n, std_cols[n - 1]) for n in ranks]
    # full widths mean as many elements as std's distinct ones there, so set equality leaves no repeat
    return (
        {std.cfg.set_count}.issuperset(map(len, got))
        and all(map(eq, map(sum, got), map(sum, want)))
        and set(chain.from_iterable(got)) == set(chain.from_iterable(want))
    )


def _check_reshuffles(cfg: ModulusConfig, horizon: int, validated: Partition | None = None) -> CheckResult:
    """Check the family pair sums, and that every family's output passes validate().

    validated, when given, is the standard partition that this run's
    prefix-completeness and sum-schedule checks have passed: a family output
    that is an exchange of it (_is_exchange_of) needs no scan of its own.
    Any other output, and every output when validated is None, runs the
    full validate(), whose message names the first fault.
    """
    std = standard_partition(cfg, horizon) if validated is None else validated
    # only exchanges below the last column, which the exchange test needs untouched
    k_max = {name: family.k_max(horizon - 1) for name, family in FAMILIES.items()}
    for name, family in FAMILIES.items():
        ks, want = range(family.k_min, family.k_min + k_max[name]), family.sums(k_max[name])
        broken = [  # the k of each pair whose sum misses the closed form
            k for _, at, (x, y) in family.pairs(std.columns, k_max[name])
            for k in compress(ks, map(ne, map(add, map(itemgetter(x - 1), at), map(itemgetter(y - 1), at)), want))
        ]
        if broken:
            return CheckResult("reshuffle-identities", False, f"family {name} pair sums differ at k={min(broken)}")
    for name in FAMILIES:
        result = reshuffle_family(std, name, k_max[name])
        if validated is not None and _is_exchange_of(result, validated):
            continue
        try:  # the column check includes every column sum
            result.validate()
        except InvariantError as e:
            return CheckResult("reshuffle-identities", False, str(e))
    return CheckResult(
        "reshuffle-identities", True, f"pair sums and sum pattern hold through k={next(iter(k_max.values()))}"
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
        # the battery's own standard partition, once both scans have passed it, is the exchanges' base
        passed = {r.name for r in results if r.passed}
        validated = std if inject is None and {"sum-schedule", "prefix-completeness"} <= passed else None
        results.append(_check_reshuffles(cfg, horizon, validated))
        if horizon >= 2048:
            results.append(_check_signatures(cfg, horizon, node_budget))
    if horizon >= 2048 and cfg.m in KNOWN_CLASS_COUNTS:
        results.append(_check_class_count(cfg, horizon, node_budget))
    return results


def verification_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)
