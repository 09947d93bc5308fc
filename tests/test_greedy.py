"""Greedy column extension: builder mechanics, worked heads, error paths."""
from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import rankpart as rp
from rankpart.errors import CollisionError, InvariantError, NegativeError

from oracles import PartitionBuilder, greedy_columns

M5 = rp.ModulusConfig(5)
M7 = rp.ModulusConfig(7)

STD4 = tuple(rp.standard_column(M5, n) for n in range(1, 5))

HEADS = rp.enumerate_heads(M5)


def test_standard_head_regenerates_standard():
    head = tuple(rp.standard_column(M5, n) for n in range(1, 6))
    p = rp.greedy_extend(M5, head, 300)
    assert p.columns == rp.standard_partition(M5, 300).columns


def test_empty_prefix_reaches_standard_content():
    # from scratch the first column comes out (0, 1, 2): same set as the
    # standard (1, 2, 0), just placed in scan order
    p = rp.greedy_extend(M5, (), 50)
    assert p.column(1) == (0, 1, 2)
    std = rp.standard_partition(M5, 50)
    assert p.columns[1:] == std.columns[1:]


def test_builder_steps_one_rank_at_a_time():
    b = PartitionBuilder(M5, (rp.standard_column(M5, 1),))
    assert b.next_rank == 2
    assert b.extend_one() == (3, 4, 5)
    assert b.next_rank == 3
    assert b.extend_one() == (6, 7, 10)
    p = b.to_partition()
    assert p.horizon == 3


def test_worked_variant_head_extension():
    head = ((0, 1, 2), (3, 4, 5), (6, 7, 10), (8, 11, 13), (9, 14, 20))
    p = rp.greedy_extend(M5, head, 200)
    assert p.column(6) == (12, 15, 25)
    assert p.column(7) == (16, 17, 30)
    # past the disturbed prefix the standard tail takes over
    std = rp.standard_partition(M5, 200)
    assert p.columns[6:] == std.columns[6:]


def test_completion_fills_single_blank():
    head = ((0, 1, 2), (3, 4, 5), (6, 7, 10), (8, 11, 13), (9, 14, None))
    done = rp.complete_head(M5, head)
    assert done[4] == (9, 14, 20)


def test_worked_seven_set_head():
    # a scrambled four-column prefix with one unknown in the fifth column
    head = (
        (1, 0, 3, 2),
        (6, 5, 7, 4),
        (9, 8, 13, 11),
        (21, 14, 10, 12),
        (28, 15, 17, None),
    )
    done = rp.complete_head(M7, head)
    assert done[4] == (28, 15, 17, 16)
    p = rp.greedy_extend(M7, done, 40)
    assert p.column(6) == (18, 19, 20, 35)
    assert p.column(7) == (22, 23, 24, 42)


def test_extension_agrees_with_rescan_oracle():
    for head in HEADS[::5]:
        got = rp.greedy_extend(M5, head.columns, 128)
        want = greedy_columns(5, head.columns, 128)
        assert list(got.columns) == want


def test_completion_collision():
    head = STD4 + ((11, 22, None),)
    with pytest.raises(CollisionError) as exc:
        rp.complete_head(M5, head)
    assert exc.value.rank == 5
    assert exc.value.value == 10


def test_completion_negative():
    head = STD4 + ((20, 25, None),)
    with pytest.raises(NegativeError) as exc:
        rp.complete_head(M5, head)
    assert exc.value.rank == 5
    assert exc.value.value == -2


def test_completion_requires_exactly_one_blank():
    with pytest.raises(InvariantError):
        rp.complete_head(M5, STD4 + ((11, None, None),))
    with pytest.raises(InvariantError):
        rp.complete_head(M5, STD4 + ((11, 12, 20),))


def test_extension_collision_on_dead_head():
    # this seven-set head cannot continue: rank 7 forces an already used value
    head = ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 14), (11, 12, 13, 21),
            (15, 18, 20, 23))
    with pytest.raises(CollisionError) as exc:
        rp.greedy_extend(M7, head, 16)
    assert exc.value.rank == 7
    assert exc.value.value == 40


def test_builder_rejects_broken_prefixes():
    with pytest.raises(InvariantError):
        PartitionBuilder(M5, ((1, 1, 1),))
    with pytest.raises(InvariantError):
        PartitionBuilder(M5, ((1, 2, 4),))  # sum 7, schedule wants 3
    with pytest.raises(InvariantError):
        PartitionBuilder(M5, ((1, 2, 0), (3, 4),))
    with pytest.raises(InvariantError):
        PartitionBuilder(M5, ((1, 2, 0), (3, 4, -2),))
    with pytest.raises(InvariantError):
        PartitionBuilder(M5, ((1, 2, 0), (3, 4, 1),))  # reuses 1


def test_extension_is_deterministic():
    head = HEADS[11].columns
    a = rp.greedy_extend(M5, head, 96)
    b = rp.greedy_extend(M5, head, 96)
    assert a.columns == b.columns


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 35), st.integers(6, 64))
def test_extensions_stay_valid(idx, horizon):
    p = rp.greedy_extend(M5, HEADS[idx].columns, horizon)
    p.validate()


def test_extend_to_is_idempotent_past_target():
    b = PartitionBuilder(M5, HEADS[0].columns)
    b.extend_to(20)
    b.extend_to(12)  # lower target: nothing removed
    assert b.to_partition().horizon == 20


@pytest.mark.parametrize("m", (5, 7, 9, 11, 13))
def test_standard_head_regrows_standard_partition(m):
    cfg = rp.ModulusConfig(m)
    head = rp.standard_partition(cfg, 5).columns
    assert rp.greedy_extend(cfg, head, 256) == rp.standard_partition(cfg, 256)


@pytest.mark.parametrize("m, head, rank, value", [
    (7, ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 14), (11, 12, 13, 21), (15, 18, 20, 23)), 7, 40),
    (11, ((0, 1, 2, 3, 4, 5), (6, 7, 8, 9, 10, 11), (12, 13, 14, 15, 16, 22),
          (17, 18, 19, 20, 21, 33), (23, 24, 25, 29, 32, 36)), 7, 63),
], ids=["m7-head10", "m11-head22"])
def test_dead_head_fails_at_a_pinned_rank_and_value(m, head, rank, value):
    cfg = rp.ModulusConfig(m)
    with pytest.raises(CollisionError) as exc:
        rp.greedy_extend(cfg, head, 256)
    assert (exc.value.rank, exc.value.value) == (rank, value)
    b = PartitionBuilder(cfg, head)
    b.extend_to(rank - 1)
    with pytest.raises(CollisionError) as exc:
        b.extend_one()
    assert (exc.value.rank, exc.value.value) == (rank, value)
    assert b.next_rank == rank  # the failed rank leaves no column behind
