"""Sum schedule, standard partition, and residue membership."""
from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

import rankpart as rp
from rankpart.errors import HorizonError, InvariantError

from oracles import PartitionBuilder

M5 = rp.ModulusConfig(5)

# frozen leading schedule values per modulus
SCHEDULE_HEAD = {
    5: (3, 12, 23, 32, 43, 52, 63, 72, 83, 92, 103, 112, 123, 132),
    7: (6, 22, 41, 57, 76, 92, 111),
    9: (10, 35),
    11: (15, 51, 92, 128, 169),
}

moduli = st.sampled_from((5, 7, 9, 11))


def test_schedule_matches_frozen_values():
    for m, values in SCHEDULE_HEAD.items():
        cfg = rp.ModulusConfig(m)
        got = tuple(rp.sum_schedule(cfg, n) for n in range(1, len(values) + 1))
        assert got == values


def test_modulus_config_validation():
    for bad in (4, 2, 1, 0, -5):
        with pytest.raises(ValueError):
            rp.ModulusConfig(bad)
    cfg = rp.ModulusConfig(9)
    assert cfg.t == 4
    assert cfg.set_count == 5


def test_m5_schedule_closed_form():
    for n in range(1, 2001):
        assert rp.sum_schedule(M5, n) == 11 * n - 2 * (n // 2) - 8


def test_schedule_rejects_nonpositive_rank():
    with pytest.raises(ValueError):
        rp.sum_schedule(M5, 0)
    with pytest.raises(ValueError):
        rp.standard_column(M5, -1)


@given(st.integers(1, 10**6), moduli)
def test_schedule_difference_alternates(n, m):
    # the step gains an extra t exactly when the lower rank is even
    cfg = rp.ModulusConfig(m)
    t = cfg.t
    step = rp.sum_schedule(cfg, n + 1) - rp.sum_schedule(cfg, n)
    assert step == (t + 1) ** 2 + (t if n % 2 == 0 else 0)


@given(st.integers(1, 10**6))
def test_m5_schedule_step_is_ten_plus_sign(n):
    step = rp.sum_schedule(M5, n + 1) - rp.sum_schedule(M5, n)
    assert step == 10 + (-1) ** n


@given(st.integers(1, 10**9))
def test_floor_split_identity(n):
    assert n - 1 == n // 2 + (n - 1) // 2


def test_standard_column_anchors():
    assert rp.standard_column(M5, 1) == (1, 2, 0)
    assert rp.standard_column(M5, 2) == (3, 4, 5)
    assert rp.standard_column(M5, 3) == (6, 7, 10)
    assert rp.standard_column(M5, 4) == (8, 9, 15)
    assert rp.standard_column(M5, 5) == (11, 12, 20)
    m7 = rp.ModulusConfig(7)
    assert rp.standard_column(m7, 1) == (1, 2, 3, 0)
    assert rp.standard_column(m7, 2) == (4, 5, 6, 7)
    assert rp.standard_column(m7, 3) == (8, 9, 10, 14)


@given(st.integers(1, 10**5), moduli)
def test_standard_column_sums_follow_schedule(n, m):
    cfg = rp.ModulusConfig(m)
    assert sum(rp.standard_column(cfg, n)) == rp.sum_schedule(cfg, n)


def test_standard_columns_partition_the_integers():
    # every natural below the last column's minimum appears exactly once;
    # larger elements are sparse because the multiples column runs ahead
    for m in (5, 7, 9):
        cfg = rp.ModulusConfig(m)
        horizon = 900 // m
        p = rp.standard_partition(cfg, horizon)
        elems = p.elements()
        assert len(set(elems)) == cfg.set_count * horizon
        bound = min(p.column(horizon))
        assert [x for x in elems if x <= bound] == list(range(bound + 1))


def test_standard_partition_set_slices():
    p = rp.standard_partition(M5, 6)
    assert p.set_elements(3) == (0, 5, 10, 15, 20, 25)
    assert p.set_elements(1) == (1, 3, 6, 8, 11, 13)
    assert p.set_elements(2) == (2, 4, 7, 9, 12, 14)


def test_residue_anchors():
    assert rp.residue_set_index(M5, 13) == 1
    assert rp.residue_set_index(M5, 0) == 3
    assert rp.residue_set_index(M5, 10) == 3
    m7 = rp.ModulusConfig(7)
    assert rp.residue_set_index(m7, 10) == 3
    assert rp.residue_set_index(m7, 14) == 4


@given(st.integers(0, 10**6), moduli)
def test_residue_index_in_range(x, m):
    cfg = rp.ModulusConfig(m)
    i = rp.residue_set_index(cfg, x)
    assert 1 <= i <= cfg.set_count
    r = x % m
    if r == 0:
        assert i == cfg.set_count
    else:
        assert r in (i, i + cfg.t)


def test_membership_matches_residue_rule():
    for m in (5, 7, 9, 11):
        cfg = rp.ModulusConfig(m)
        p = rp.standard_partition(cfg, 400)
        for i in range(1, cfg.set_count + 1):
            for x in p.set_elements(i):
                assert rp.residue_set_index(cfg, x) == i


def test_validate_accepts_standard():
    rp.standard_partition(M5, 64).validate()


def test_validate_catches_corruption():
    base = rp.standard_partition(M5, 8)

    def corrupt(rank, col):
        cols = list(base.columns)
        cols[rank - 1] = col
        return rp.Partition(M5, tuple(cols))

    with pytest.raises(InvariantError):
        corrupt(3, (6, 6, 11)).validate()  # duplicate inside column
    with pytest.raises(InvariantError):
        corrupt(3, (6, 7, 11)).validate()  # sum off by one
    with pytest.raises(InvariantError):
        corrupt(3, (6, 7, 10, 0)).validate()  # wrong width
    with pytest.raises(InvariantError):
        corrupt(1, (-1, 4, 0)).validate()  # negative entry
    # value 3 appears twice across columns
    with pytest.raises(InvariantError):
        corrupt(3, (3, 10, 10)).validate()
    # skipping 6 leaves a gap below the maximum used value
    with pytest.raises(InvariantError):
        corrupt(3, (5, 7, 11)).validate()


def test_validate_can_skip_sums():
    cols = list(rp.standard_partition(M5, 4).columns)
    cols[2] = (6, 7, 11)
    broken = rp.Partition(M5, tuple(cols))
    broken.validate(require_sums=False)
    with pytest.raises(InvariantError):
        broken.validate()


def test_column_access_and_bounds():
    p = rp.standard_partition(M5, 10)
    assert p.horizon == 10
    assert p.column(1) == (1, 2, 0)
    with pytest.raises(HorizonError):
        p.column(11)
    with pytest.raises(HorizonError):
        p.column(0)
    with pytest.raises(ValueError):
        p.set_elements(4)


def test_elements_are_sorted():
    p = rp.standard_partition(M5, 12)
    elems = p.elements()
    assert list(elems) == sorted(elems)


# three-column m=5 prefixes, each broken in one way only in column 3
BAD_PREFIXES = {
    "width": ((6, 17), "entries, expected"),
    "negative": ((-1, 7, 17), "negative element"),
    "repeated": ((5, 7, 11), "more than once"),
    "sum": ((6, 7, 11), "schedule wants"),
}
ENTRY_POINTS = {
    "Partition.validate": lambda cols: rp.Partition(M5, cols).validate(),
    "Head.validate": lambda cols: rp.Head(M5, cols).validate(),
    "PartitionBuilder": lambda cols: PartitionBuilder(M5, cols),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("fault", BAD_PREFIXES)
def test_every_entry_point_rejects_the_same_bad_columns(fault, entry):
    col, message = BAD_PREFIXES[fault]
    cols = ((1, 2, 0), (3, 4, 5), col)
    with pytest.raises(InvariantError, match=message):
        ENTRY_POINTS[entry](cols)
    if fault == "sum":
        rp.Partition(M5, cols).validate(require_sums=False)
