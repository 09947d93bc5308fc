"""End-to-end census runs for the five-set and seven-set systems."""
from __future__ import annotations

import dataclasses
import json
from array import array

import pytest

import rankpart as rp

M5_GROUPS = [
    [1, 15, 19], [2, 9, 20], [3, 21, 27], [4, 22, 33], [5, 23], [6, 24],
    [7, 13, 31], [8, 26], [10], [11], [12], [14, 25], [16], [17], [18],
    [28], [29, 35], [30], [32], [34], [36],
]

M5_CLASSES = [
    [2, 32], [3, 4, 5, 6, 11, 12, 18, 28, 29, 30, 34, 36],
    [7], [8], [10], [14], [16], [17],
]

M7_DEAD = (10, 14, 15, 33, 52, 70, 109, 144, 160, 174)
M7_CLASS_SIZES = [1, 1, 1, 1, 1, 1, 1, 2, 2, 4, 4, 5, 40]


@pytest.fixture(scope="module")
def census5():
    return rp.run_census(5, 1024)


@pytest.fixture(scope="module")
def census7():
    return rp.run_census_both(7, 1024)


def test_five_set_counts(census5):
    r = census5
    assert (r.m, r.horizon, r.protocol) == (5, 1024, "exclude-standard")
    assert r.heads == 36
    assert r.statements == 279936
    assert r.dedup_groups == 21
    assert r.representatives == 20
    assert r.classes == 8
    assert r.non_extendable == ()
    assert r.decompositions == (2, 6, 25)
    assert r.standard_equivalent == (1, 8, 15, 19, 26)


def test_five_set_group_and_class_members(census5):
    assert [list(g) for g in census5.group_members] == M5_GROUPS
    assert [list(c) for c in census5.class_members] == M5_CLASSES


def test_five_set_partition_numbers(census5):
    nums = dict(census5.partition_numbers)
    assert len(nums) == 20
    assert sorted(nums.values()) == list(range(1, 21))
    assert nums[2] == 1 and nums[8] == 7 and nums[36] == 20


def test_include_standard_protocol_merges_one_class():
    r = rp.run_census(5, 1024, protocol="include-standard")
    assert r.representatives == 21
    assert r.classes == 8
    with_std = next(c for c in r.class_members if 1 in c)
    assert tuple(with_std) == (1, 8)


def test_unknown_protocol_rejected():
    with pytest.raises(ValueError):
        rp.run_census(5, 64, protocol="majority-vote")


def test_report_serializes_to_json(census5):
    d = census5.to_dict()
    text = json.dumps(d, sort_keys=True)
    back = json.loads(text)
    assert back["dedup"] == 20
    assert back["decompositions"] == {"rank3": 2, "rank4": 6, "rank5": 25}
    assert back["heads"] == 36
    assert back["partition_numbers"]["8"] == 7


def is_plain(value) -> bool:
    """True for what json.loads gives back: dicts with str keys, lists, str, int, None."""
    if isinstance(value, dict):
        return all(type(k) is str and is_plain(v) for k, v in value.items())
    if isinstance(value, list):
        return all(map(is_plain, value))
    return value is None or type(value) in (str, int)


def test_reports_hold_id_arrays_hash_without_them_and_give_plain_dicts(census5, census7):
    for report in (census5, *census7):
        assert all(type(ids) is array and ids.typecode == "q" for ids in report.group_members)
        assert hash(report) == hash(dataclasses.replace(report, group_members=()))
        doc = report.to_dict()
        assert is_plain(doc) and json.loads(json.dumps(doc)) == doc
        assert doc["group_members"] == [list(ids) for ids in report.group_members]
    assert len({census5, *census7}) == 3


def test_seven_set_census_both_protocols(census7):
    excl, incl = census7
    assert excl.protocol == "exclude-standard"
    assert incl.protocol == "include-standard"
    for r in census7:
        assert r.heads == 365
        assert r.statements == 365 * 24**5
        assert r.dedup_groups == 75
        assert r.non_extendable == M7_DEAD
        assert r.classes == 13
    assert excl.representatives == 74
    assert incl.representatives == 75


def test_seven_set_class_sizes(census7):
    excl, _ = census7
    assert sorted(len(c) for c in excl.class_members) == M7_CLASS_SIZES


def test_both_protocols_share_one_enumeration(census7):
    excl, incl = census7
    assert excl.group_members == incl.group_members
    # the decomposition triple is a five-set story only
    assert excl.decompositions is None
    assert incl.decompositions is None


@pytest.mark.parametrize("horizon", [64, 4096])
@pytest.mark.parametrize("m", [5, 7, 9])
def test_standard_equivalent_heads_match_the_census(m, horizon):
    heads = rp.enumerate_heads_general(rp.ModulusConfig(m))
    want = rp.run_census(m, horizon).standard_equivalent
    assert rp.standard_equivalent_heads(heads, horizon) == set(want)
    assert want
