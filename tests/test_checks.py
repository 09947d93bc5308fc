"""Self-verification battery and its fault injections."""
from __future__ import annotations

import pytest

import rankpart as rp
import rankpart.checks as checks
import rankpart.partition as partition
from rankpart.checks import CheckResult, run_verification, verification_passed

FAST_NAMES = {
    "sum-schedule", "residue-membership", "prefix-completeness",
    "greedy-reproduction", "reshuffle-identities",
}


def by_name(results):
    return {r.name: r for r in results}


def test_fast_battery_passes():
    results = run_verification(5, 256)
    assert {r.name for r in results} == FAST_NAMES
    assert verification_passed(results)
    for r in results:
        assert r.detail


def test_deep_battery_adds_signatures_and_class_count():
    results = run_verification(5, 2048)
    names = {r.name for r in results}
    assert names == FAST_NAMES | {"signatures", "class-count"}
    assert verification_passed(results)
    assert by_name(results)["class-count"].detail == "classes: 8"


def test_seven_set_battery():
    results = run_verification(7, 256)
    names = {r.name for r in results}
    # reshuffle identities are specific to the five-set system
    assert names == FAST_NAMES - {"reshuffle-identities"}
    assert verification_passed(results)


def test_injected_schedule_corruption_is_caught():
    results = run_verification(5, 256, inject="sum-schedule")
    assert not verification_passed(results)
    schedule = by_name(results)["sum-schedule"]
    assert not schedule.passed
    assert "column 7" in schedule.detail


def test_injected_swap_is_caught():
    results = run_verification(5, 256, inject="swap")
    assert not verification_passed(results)
    failed = {r.name for r in results if not r.passed}
    assert "sum-schedule" in failed


def test_verify_scans_every_standard_column(monkeypatch):
    # the standard partition's deviation map is empty, so only a scan that
    # reads each standard column can see one that is off the schedule
    column = partition.standard_column

    def off_at_100(cfg, n):
        col = column(cfg, n)
        return col[:-1] + (col[-1] + 1,) if n == 100 else col

    partition.standard_columns.cache_clear()
    monkeypatch.setattr(partition, "standard_column", off_at_100)
    try:
        schedule = by_name(run_verification(5, 256))["sum-schedule"]
    finally:
        monkeypatch.undo()
        partition.standard_columns.cache_clear()
    assert not schedule.passed
    assert schedule.detail.startswith("column 100 sums to ")


def test_reshuffle_check_names_a_broken_column_sum(monkeypatch):
    build = checks.reshuffle_family

    def broken(p, family, k_max):
        if family != "i":
            return build(p, family, k_max)
        cols = list(build(p, family, k_max).columns)
        cols[40] = cols[40][:-1] + (cols[40][-1] + 5,)  # column 41 sums 5 too high
        return rp.Partition.from_columns(p.cfg, tuple(cols))

    monkeypatch.setattr(checks, "reshuffle_family", broken)
    result = by_name(run_verification(5, 256))["reshuffle-identities"]
    assert not result.passed
    assert "column 41" in result.detail


@pytest.mark.parametrize("m, rank, order, detail", [
    (5, 3, (1, 0, 2), "element 7 sits in set 1, residue says 2"),
    (7, 2, (3, 1, 2, 0), "element 7 sits in set 1, residue says 4"),
    (9, 200, (0, 1, 2, 4, 3), "element 1791 sits in set 4, residue says 5"),
])
def test_residue_check_names_an_element_in_the_wrong_set(m, rank, order, detail):
    cfg = rp.ModulusConfig(m)
    cols = list(rp.standard_partition(cfg, 256).columns)
    cols[rank - 1] = tuple(cols[rank - 1][i] for i in order)
    result = checks._check_residues(cfg, rp.Partition.from_columns(cfg, tuple(cols)), 256)
    assert result == CheckResult("residue-membership", False, detail)
    assert checks._check_residues(cfg, rp.standard_partition(cfg, 256), 256).passed


@pytest.mark.parametrize("m, rank, detail", [
    (5, 1, "m=5 closed form disagrees at rank 1"),
    (5, 77, "m=5 closed form disagrees at rank 77"),
    (7, 40, "difference at rank 40 is 17, expected 16"),
    (7, 41, "difference at rank 41 is 20, expected 19"),
    (7, 1, "difference at rank 2 is 15, expected 16"),
])
def test_sum_schedule_check_names_the_first_disagreeing_rank(monkeypatch, m, rank, detail):
    schedule = checks.sum_schedule

    def off_by_one(cfg, n):
        return schedule(cfg, n) + (n == rank)

    monkeypatch.setattr(checks, "sum_schedule", off_by_one)
    cfg = rp.ModulusConfig(m)
    result = checks._check_sum_schedule(cfg, rp.standard_partition(cfg, 256), 256)
    assert result == CheckResult("sum-schedule", False, detail)


@pytest.mark.parametrize("m, detail", [
    (7, "schedule starts at 7, not t(t+1)/2 = 6"),
    (9, "schedule starts at 11, not t(t+1)/2 = 10"),
])
def test_sum_schedule_check_fails_a_schedule_off_by_a_constant(monkeypatch, m, detail):
    # every difference holds, so only the start value shows the fault
    schedule = checks.sum_schedule
    monkeypatch.setattr(checks, "sum_schedule", lambda cfg, n: schedule(cfg, n) + 1)
    cfg = rp.ModulusConfig(m)
    result = checks._check_sum_schedule(cfg, rp.standard_partition(cfg, 256), 256)
    assert result == CheckResult("sum-schedule", False, detail)


# (set, rank) entries to raise by one: at rank 4k set 3 is only in a family-i
# pair, at rank 6k+4 set 2 only in a family-ii pair
@pytest.mark.parametrize("slots, detail", [
    ([(3, 4 * 9)], "family i pair sums differ at k=9"),
    ([(2, 6 * 5 + 4)], "family ii pair sums differ at k=5"),
    ([(1, 6 * 30 - 1)], "family i pair sums differ at k=30"),
    ([(2, 6 * 5 + 4), (3, 4 * 9)], "family i pair sums differ at k=9"),
])
def test_reshuffle_check_names_the_first_broken_pair(monkeypatch, slots, detail):
    standard = checks.standard_partition

    def altered(cfg, horizon):
        cols = [list(col) for col in standard(cfg, horizon).columns]
        for i, n in slots:
            cols[n - 1][i - 1] += 1
        return rp.Partition.from_columns(cfg, tuple(map(tuple, cols)))

    monkeypatch.setattr(checks, "standard_partition", altered)
    result = checks._check_reshuffles(rp.ModulusConfig(5), 256)
    assert result == CheckResult("reshuffle-identities", False, detail)


def test_unknown_injection_rejected():
    with pytest.raises(ValueError):
        run_verification(5, 256, inject="gamma-rays")


def test_tiny_horizon_rejected():
    with pytest.raises(ValueError):
        run_verification(5, 8)


def test_verification_passed_helper():
    good = [CheckResult("a", True, ""), CheckResult("b", True, "")]
    assert verification_passed(good)
    assert not verification_passed(good + [CheckResult("c", False, "")])
    assert verification_passed([])


def test_signature_check_searches_heads_within_the_callers_budget(monkeypatch):
    budgets = []

    def head_groups(cfg, **options):
        budgets.append(options.get("node_budget"))
        return rp.head_groups(cfg, **options)

    monkeypatch.setattr(checks, "head_groups", head_groups)
    assert verification_passed(run_verification(5, 2048, node_budget=10**6))
    assert budgets == [10**6]
