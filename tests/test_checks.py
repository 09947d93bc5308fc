"""Self-verification battery and its fault injections."""
from __future__ import annotations

import pytest

import rankpart as rp
import rankpart.checks as checks
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


def test_reshuffle_check_names_a_broken_column_sum(monkeypatch):
    family_i = checks.reshuffle_family_i

    def broken(p, k_max):
        cols = list(family_i(p, k_max).columns)
        cols[40] = cols[40][:-1] + (cols[40][-1] + 5,)  # column 41 sums 5 too high
        return rp.Partition(p.cfg, tuple(cols))

    monkeypatch.setattr(checks, "reshuffle_family_i", broken)
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
    result = checks._check_residues(cfg, rp.Partition(cfg, tuple(cols)), 256)
    assert result == CheckResult("residue-membership", False, detail)
    assert checks._check_residues(cfg, rp.standard_partition(cfg, 256), 256).passed


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
