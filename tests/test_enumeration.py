"""Head enumeration, sum decompositions, dedup grouping."""
from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import rankpart as rp
import rankpart.enumeration as enumeration
from rankpart.errors import ResourceError

from oracles import decomposition_table, head_columns

M5 = rp.ModulusConfig(5)
M7 = rp.ModulusConfig(7)

# the screened fifth-column pool, in lexicographic order
FIFTH_POOL = (
    (8, 13, 22), (8, 14, 21), (8, 15, 20), (8, 16, 19), (8, 17, 18),
    (9, 11, 23), (9, 12, 22), (9, 13, 21), (9, 14, 20), (9, 15, 19),
    (9, 16, 18),
    (10, 11, 22), (10, 12, 21), (10, 13, 20), (10, 14, 19), (10, 15, 18),
    (10, 16, 17),
    (11, 12, 20), (11, 13, 19), (11, 14, 18), (11, 15, 17),
    (12, 13, 18), (12, 14, 17), (12, 15, 16),
    (13, 14, 16),
)

DEDUP_GROUPS = (
    ((1, 15, 19), True),
    ((2, 9, 20), False),
    ((3, 21, 27), False),
    ((4, 22, 33), False),
    ((5, 23), False),
    ((6, 24), False),
    ((7, 13, 31), False),
    ((8, 26), False),
    ((10,), False),
    ((11,), False),
    ((12,), False),
    ((14, 25), False),
    ((16,), False),
    ((17,), False),
    ((18,), False),
    ((28,), False),
    ((29, 35), False),
    ((30,), False),
    ((32,), False),
    ((34,), False),
    ((36,), False),
)

REPRESENTATIVES = (2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 14, 16, 17, 18,
                   28, 29, 30, 32, 34, 36)


def test_third_column_decompositions():
    got = rp.sum_decompositions(23, 3, excluded=frozenset(range(6)))
    assert got == [(6, 7, 10), (6, 8, 9)]


def test_fourth_column_decompositions_per_third():
    used = frozenset(range(6))
    after_first = rp.sum_decompositions(32, 3, excluded=used | {6, 7, 10})
    assert after_first == [(8, 9, 15), (8, 11, 13), (9, 11, 12)]
    after_second = rp.sum_decompositions(32, 3, excluded=used | {6, 8, 9})
    assert after_second == [(7, 10, 15), (7, 11, 14), (7, 12, 13)]
    union = {frozenset(c) for c in after_first} | {frozenset(c) for c in after_second}
    assert len(union) == 6


def test_unconstrained_decompositions_are_honest():
    # without exclusions there are ten ways to write 32, not six
    got = rp.sum_decompositions(32, 3, min_value=7)
    assert len(got) == 10
    assert (7, 8, 17) in got and (9, 11, 12) in got


def test_decomposition_edge_cases():
    assert rp.sum_decompositions(3, 3) == [(0, 1, 2)]
    assert rp.sum_decompositions(5, 3, min_value=4) == []
    assert rp.sum_decompositions(7, 1) == [(7,)]
    with pytest.raises(ValueError):
        rp.sum_decompositions(10, 0)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 70),
    st.integers(1, 4),
    st.integers(0, 8),
    st.sets(st.integers(0, 30), max_size=6),
)
def test_decompositions_are_sorted_increasing_and_legal(total, size, lo, excl):
    excluded = frozenset(excl)
    got = rp.sum_decompositions(total, size, min_value=lo, excluded=excluded)
    assert got == sorted(got)
    assert len(set(got)) == len(got)
    for combo in got:
        assert sum(combo) == total
        assert all(a < b for a, b in zip(combo, combo[1:]))
        assert combo[0] >= lo
        assert not excluded.intersection(combo)


def test_decompositions_match_bucketed_oracle():
    for size in (2, 3, 4):
        for lo, excl in ((0, frozenset()), (3, frozenset({5, 9}))):
            table = decomposition_table(size, lo, 60, excl)
            for total in range(61):
                got = rp.sum_decompositions(total, size, min_value=lo,
                                            excluded=excl)
                assert got == table[total]


def test_fifth_column_pool_is_frozen():
    pool = rp.fifth_column_candidates(M5)
    assert len(pool) == 25
    assert tuple(pool) == FIFTH_POOL
    assert pool[0] == (8, 13, 22)
    assert pool[-1] == (13, 14, 16)
    with pytest.raises(ValueError):
        rp.fifth_column_candidates(M7)


def test_pool_spread_screen():
    for combo in rp.fifth_column_candidates(M5):
        assert sum(combo) == 43
        assert combo[0] >= 8
        assert combo[2] - combo[0] <= 14


def test_pool_covers_realized_fifth_columns(heads36):
    realized = {h.columns[4] for h in heads36}
    pool = set(rp.fifth_column_candidates(M5))
    assert len(realized) == 23
    assert realized <= pool
    assert pool - realized == {(9, 11, 23), (9, 13, 21)}


def test_enumeration_count_and_numbering(heads36):
    assert len(heads36) == 36
    assert [h.choice_id for h in heads36] == list(range(1, 37))


def test_enumeration_anchor_heads(heads36):
    first = heads36[0]
    assert first.columns[:2] == ((0, 1, 2), (3, 4, 5))
    assert first.columns[2:] == ((6, 7, 10), (8, 9, 15), (11, 12, 20))
    assert heads36[7].columns[4] == (9, 14, 20)
    assert heads36[14].columns[3] == (9, 11, 12)
    assert heads36[14].columns[4] == (8, 15, 20)
    assert heads36[18].columns[2] == (6, 8, 9)
    assert heads36[18].columns[3] == (7, 10, 15)
    assert heads36[35].columns[4] == (11, 15, 17)


def test_heads_group_by_shared_prefix(heads36):
    # six blocks of six: within a block columns 3 and 4 are fixed
    for g in range(6):
        block = heads36[6 * g:6 * g + 6]
        assert len({(h.columns[2], h.columns[3]) for h in block}) == 1
    assert len({(h.columns[2], h.columns[3]) for h in heads36}) == 6


def test_heads_are_valid_and_keyed(heads36):
    for h in heads36:
        h.validate()
        assert len(h.union_key) == 15


def test_statement_counts(heads36):
    assert rp.count_statements(heads36) == 279936
    assert rp.count_statements(heads36[:1]) == 7776
    assert rp.count_statements([]) == 0


def test_seven_set_statement_count():
    heads = rp.enumerate_heads_general(M7)
    assert len(heads) == 365
    assert rp.count_statements(heads) == 365 * 24**5


def test_general_enumeration_matches_five_set_catalogue(heads36):
    general = rp.enumerate_heads_general(M5)
    assert [h.columns for h in general] == [h.columns for h in heads36]
    assert [h.choice_id for h in general] == [h.choice_id for h in heads36]


def test_general_enumeration_short_prefix():
    heads = rp.enumerate_heads_general(M5, column_count=2)
    assert len(heads) == 1
    assert heads[0].columns == ((0, 1, 2), (3, 4, 5))


def test_enumeration_respects_node_budget():
    with pytest.raises(ResourceError):
        rp.enumerate_heads_general(M5, node_budget=10)


def test_five_set_helper_rejects_other_moduli():
    with pytest.raises(ValueError):
        rp.enumerate_heads(M7)


def test_dedup_groups_are_frozen(groups36):
    got = tuple((g.member_ids, g.is_standard) for g in groups36)
    assert got == DEDUP_GROUPS
    assert sum(1 for g in groups36 if g.is_standard) == 1


def test_dedup_representatives(groups36, rep_ids):
    assert tuple(rep_ids) == REPRESENTATIVES
    for g in groups36:
        assert g.representative.choice_id == g.member_ids[0]


def test_dedup_merges_known_duplicates(groups36):
    by_id = {}
    for g in groups36:
        for hid in g.member_ids:
            by_id[hid] = g.member_ids
    for keep, drop in ((2, 9), (3, 27), (4, 33), (7, 13), (7, 31),
                       (8, 26), (14, 25), (29, 35)):
        assert by_id[keep] == by_id[drop]
    for a, b in zip(range(1, 7), range(19, 25)):
        assert by_id[a] == by_id[b]


def test_union_key_matches_tail_behaviour(heads36, ext_deep):
    # two heads share a union key exactly when their deep tails coincide
    tails = {h.choice_id: ext_deep[h.choice_id].columns[5:] for h in heads36}
    for i, a in enumerate(heads36):
        for b in heads36[i + 1:]:
            same_key = a.union_key == b.union_key
            same_tail = tails[a.choice_id] == tails[b.choice_id]
            assert same_key == same_tail


def test_partition_numbering_anchors(numbering):
    assert len(numbering) == 20
    assert numbering[2] == 1
    assert numbering[8] == 7
    assert numbering[17] == 13
    assert numbering[36] == 20


def test_dedup_accepts_unnumbered_heads(heads36):
    anon = [rp.Head(M5, h.columns) for h in heads36]
    groups = rp.dedup_heads(anon)
    assert len(groups) == 21


@pytest.mark.parametrize("m", [5, 7, 9, 11])
def test_head_groups_match_dedup_of_every_head(m):
    cfg = rp.ModulusConfig(m)
    heads = rp.enumerate_heads_general(cfg)
    assert [h.columns for h in heads] == head_columns(m)
    count, groups = rp.head_groups(cfg)
    assert count == len(heads)
    got = [(g.representative, g.member_ids, g.is_standard) for g in groups]
    want = [(g.representative, g.member_ids, g.is_standard) for g in rp.dedup_heads(heads)]
    assert got == want
    assert sum(g.is_standard for g in groups) == 1


def count_nodes(monkeypatch, search) -> int:
    spent = []
    spend = enumeration._Budget.spend

    def counting(self):
        spent.append(None)
        spend(self)

    with monkeypatch.context() as patch:
        patch.setattr(enumeration._Budget, "spend", counting)
        search()
    return len(spent)


@pytest.mark.parametrize("m, nodes", [(5, 77), (7, 615), (9, 5447)])
def test_search_node_counts(monkeypatch, m, nodes):
    cfg = rp.ModulusConfig(m)
    assert count_nodes(monkeypatch, lambda: rp.head_groups(cfg)) == nodes
    assert count_nodes(monkeypatch, lambda: rp.enumerate_heads_general(cfg)) == nodes


def test_node_budget_is_spent_once_per_node(monkeypatch):
    nodes = count_nodes(monkeypatch, lambda: rp.enumerate_heads_general(M7))
    assert nodes > 365
    for search in (rp.enumerate_heads_general, rp.head_groups):
        search(M7, node_budget=nodes)
        with pytest.raises(ResourceError, match=f"node budget of {nodes - 1}"):
            search(M7, node_budget=nodes - 1)


def test_head_groups_short_prefix_and_guards():
    count, (group,) = rp.head_groups(M5, column_count=2)
    assert count == 1 and group.member_ids == (1,) and group.is_standard
    assert group.representative.columns == ((0, 1, 2), (3, 4, 5))
    with pytest.raises(ValueError):
        rp.head_groups(M5, column_count=0)


def test_decomposition_bounds():
    assert rp.sum_decompositions(3, 2, min_value=9) == []
    assert rp.sum_decompositions(-4, 2) == []
    assert rp.sum_decompositions(9, 2, excluded={-1, 0, 40}) == [(1, 8), (2, 7), (3, 6), (4, 5)]
    with pytest.raises(ValueError):
        rp.sum_decompositions(10, 2, min_value=-1)


HEAD_COUNTS = {5: 36, 7: 365, 9: 3474}


@pytest.mark.parametrize("m", (5, 7, 9))
def test_head_by_id_equals_the_enumerated_head(m):
    cfg = rp.ModulusConfig(m)
    heads = rp.enumerate_heads_general(cfg)
    assert len(heads) == HEAD_COUNTS[m]
    ids = sorted({1, 2, len(heads) // 2, len(heads) - 1, len(heads)} | set(range(1, len(heads) + 1, 97)))
    for head_id in ids:
        assert rp.head_by_id(cfg, head_id) == heads[head_id - 1], head_id
    for head_id in (0, -3, len(heads) + 1, 10**6):
        with pytest.raises(ValueError, match=rf"^head id {head_id} outside 1\.\.{len(heads)} for m={m}$"):
            rp.head_by_id(cfg, head_id)


def test_head_by_id_stops_at_the_requested_head(monkeypatch):
    full = count_nodes(monkeypatch, lambda: rp.enumerate_heads_general(M7))
    first = count_nodes(monkeypatch, lambda: rp.head_by_id(M7, 1))
    last = count_nodes(monkeypatch, lambda: rp.head_by_id(M7, 365))
    assert first < last <= full
    assert count_nodes(monkeypatch, lambda: pytest.raises(ValueError, rp.head_by_id, M7, 366)) == full
    # the budget caps the nodes spent up to the requested head
    assert rp.head_by_id(M7, 1, node_budget=first).choice_id == 1
    with pytest.raises(ResourceError, match=f"node budget of {first - 1}"):
        rp.head_by_id(M7, 1, node_budget=first - 1)
    with pytest.raises(ResourceError):
        rp.head_by_id(M7, 366, node_budget=full - 1)
