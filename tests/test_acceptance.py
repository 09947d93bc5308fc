"""Acceptance battery: one test per shipping criterion.

Run with -v to get one pass/fail line per criterion.  Where a criterion
carries a time budget the test measures the relevant computation itself,
excluding fixture reuse from other tests.
"""
from __future__ import annotations

import time

import rankpart as rp
from rankpart.cli import main
from rankpart.equivalence import SIGNATURES

from oracles import decomposition_table, greedy_columns

DEEP = 4096

CLASS_MEMBERS_BY_HEAD = [
    [2, 32], [3, 4, 5, 6, 11, 12, 18, 28, 29, 30, 34, 36],
    [7], [8], [10], [14], [16], [17],
]

CLASS_MEMBERS_BY_NUMBER = [
    [1, 18], [2, 3, 4, 5, 9, 10, 14, 15, 16, 17, 19, 20],
    [6], [7], [8], [11], [12], [13],
]


def test_criterion_01_schedule_values():
    started = time.perf_counter()
    m5 = rp.ModulusConfig(5)
    m7 = rp.ModulusConfig(7)
    assert [rp.sum_schedule(m5, n) for n in range(1, 6)] == [3, 12, 23, 32, 43]
    assert [rp.sum_schedule(m7, n) for n in range(1, 6)] == [6, 22, 41, 57, 76]
    assert time.perf_counter() - started < 0.5


def test_criterion_02_residue_membership():
    started = time.perf_counter()
    limit = 10**5
    for m in (5, 7, 9, 11):
        cfg = rp.ModulusConfig(m)
        # enough ranks that every integer <= limit has been placed
        horizon = limit // (cfg.set_count - 1) + 4
        p = rp.standard_partition(cfg, horizon)
        assert min(p.column(horizon)) > limit
        # the residue rule depends only on x mod m: check the function on
        # a stride of raw values, then sweep membership via the table
        table = [rp.residue_set_index(cfg, r) for r in range(m)]
        for x in range(0, limit + 1, 97):
            assert rp.residue_set_index(cfg, x) == table[x % m]
        covered = 0
        for i in range(1, cfg.set_count + 1):
            members = [x for x in p.set_elements(i) if x <= limit]
            covered += len(members)
            assert all(table[x % m] == i for x in members)
        assert covered == limit + 1
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"residue sweep took {elapsed:.2f}s"


def test_criterion_03_head_census():
    started = time.perf_counter()
    report = rp.run_census(5, 16)
    assert report.decompositions == (2, 6, 25)
    assert report.heads == 36
    assert report.statements == 279936
    assert report.representatives == 20
    members = {g[0]: tuple(g) for g in report.group_members}
    assert members[1] == (1, 15, 19)
    assert members[2] == (2, 9, 20)
    assert members[3] == (3, 21, 27)
    assert members[4] == (4, 22, 33)
    assert members[5] == (5, 23)
    assert members[6] == (6, 24)
    assert members[7] == (7, 13, 31)
    assert members[8] == (8, 26)
    assert members[14] == (14, 25)
    assert members[29] == (29, 35)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"census took {elapsed:.2f}s"


def test_criterion_04_worked_head_and_standard_extension():
    cfg = rp.ModulusConfig(5)
    head = ((0, 1, 2), (3, 4, 5), (6, 7, 10), (8, 11, 13), (9, 14, None))
    done = rp.complete_head(cfg, head)
    assert done[4] == (9, 14, 20)
    p = rp.greedy_extend(cfg, done, 32)
    assert p.column(6) == (12, 15, 25)
    assert p.column(7) == (16, 17, 30)
    deep = 10**4
    std_head = tuple(rp.standard_column(cfg, n) for n in range(1, 6))
    regrown = rp.greedy_extend(cfg, std_head, deep)
    assert regrown.columns == rp.standard_partition(cfg, deep).columns


def test_criterion_05_twenty_partitions_eight_classes(heads36, numbering):
    started = time.perf_counter()
    cfg = rp.ModulusConfig(5)
    groups = rp.dedup_heads(heads36)
    reps = [g.representative for g in groups if not g.is_standard]
    parts = [rp.greedy_extend(cfg, r.columns, DEEP) for r in reps]
    classes = rp.classify(parts, DEEP)
    by_head = [[reps[i].choice_id for i in c] for c in classes]
    assert by_head == CLASS_MEMBERS_BY_HEAD
    by_number = [sorted(numbering[h] for h in c) for c in by_head]
    assert by_number == CLASS_MEMBERS_BY_NUMBER
    assert rp.standard_equivalent_heads(heads36, DEEP) == {1, 8, 15, 19, 26}
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"classification took {elapsed:.2f}s"


def test_criterion_06_signatures_separate_all_classes(ext_deep):
    class_of = {h: c + 1 for c, heads in enumerate(CLASS_MEMBERS_BY_HEAD)
                for h in heads}
    for head, class_id in class_of.items():
        matches = rp.signature_matches(ext_deep[head], DEEP)
        assert len(matches) == 1, f"head {head} matches {matches}"
        got_class, witness = matches[0]
        assert got_class == class_id
        assert 0 < witness <= DEEP // 2
        for other_id, sig in SIGNATURES.items():
            w = rp.signature_witness(ext_deep[head], sig, DEEP)
            if other_id == class_id:
                assert w == witness
            else:
                assert w is None


def test_criterion_07_reshuffle_identities(std_deep):
    for k in range(1, DEEP // 6 + 1):
        low = std_deep.column(4 * k)
        high = std_deep.column(6 * k - 1)
        assert low[0] + low[2] == high[0] + high[1] == 30 * k - 7
    for k in range((DEEP - 4) // 6 + 1):
        low = std_deep.column(4 * k + 3)
        high = std_deep.column(6 * k + 4)
        assert low[1] + low[2] == high[0] + high[1] == 30 * k + 17
    first = rp.reshuffle_family(std_deep, "i", DEEP // 6)
    second = rp.reshuffle_family(std_deep, "ii", (DEEP - 4) // 6)
    for out in (first, second):
        assert rp.verify_sum_pattern(out, DEEP)
        out.validate()
        assert sorted(out.elements()) == sorted(std_deep.elements())


def test_criterion_08_general_class_counts():
    started = time.perf_counter()
    expected = {7: 13, 9: 19, 11: 26}
    for m, classes in expected.items():
        excl, incl = rp.run_census_both(m, DEEP)
        assert excl.classes == classes, f"m={m} exclude protocol"
        assert incl.classes == classes, f"m={m} include protocol"
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"general census took {elapsed:.1f}s"


def test_criterion_09_oracle_agreement(heads36):
    for size in (2, 3, 4):
        table = decomposition_table(size, 0, 120)
        for total in range(121):
            assert rp.sum_decompositions(total, size) == table[total]
    table = decomposition_table(3, 6, 120, frozenset({8, 13}))
    for total in range(121):
        got = rp.sum_decompositions(total, 3, min_value=6,
                                    excluded=frozenset({8, 13}))
        assert got == table[total]
    cfg = rp.ModulusConfig(5)
    for head in heads36:
        fast = rp.greedy_extend(cfg, head.columns, 512)
        slow = greedy_columns(5, head.columns, 512)
        assert list(fast.columns) == slow


def test_criterion_10_verification_detects_faults(capsys):
    assert main(["verify", "--horizon", "256"]) == 0
    out = capsys.readouterr().out
    assert "all 5 checks passed" in out

    assert main(["verify", "--horizon", "256", "--inject", "sum-schedule"]) == 1
    out = capsys.readouterr().out
    assert "FAIL sum-schedule" in out

    assert main(["verify", "--horizon", "256", "--inject", "swap"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
