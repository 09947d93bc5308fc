"""Element exchanges: single swaps, repair chains, and the two families."""
from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import rankpart as rp
from rankpart.errors import HorizonError

M5 = rp.ModulusConfig(5)
M7 = rp.ModulusConfig(7)


def swap(p, a, b):
    return rp.swap_pair(p, rp.SwapSpec(a, b))


def test_cross_rank_swap_breaks_both_sums(std_deep):
    q, broken = swap(std_deep, (2, 4), (1, 5))
    assert broken == (4, 5)
    assert q.column(4) == (8, 11, 15)
    assert q.column(5) == (9, 12, 20)


def test_within_column_swap_breaks_nothing(std_deep):
    q, broken = swap(std_deep, (1, 1), (3, 1))
    assert broken == ()
    assert q.column(1) == (0, 2, 1)


def test_repair_chain_reaches_known_variant(std_deep):
    # walk a chain of four exchanges: each swap moves the damage until the
    # last one cancels it, landing on a valid non-standard prefix
    p = std_deep
    p, broken = swap(p, (1, 1), (3, 1))
    assert broken == ()
    p, broken = swap(p, (2, 1), (3, 1))
    assert broken == ()
    assert p.column(1) == (0, 1, 2)
    p, broken = swap(p, (2, 4), (1, 5))
    assert broken == (4, 5)
    p, broken = swap(p, (3, 4), (1, 6))
    assert broken == (5, 6)
    p, broken = swap(p, (2, 5), (2, 6))
    assert broken == ()
    assert p.column(4) == (8, 11, 13)
    assert p.column(5) == (9, 14, 20)
    assert p.column(6) == (15, 12, 25)
    assert p.columns[:5] == (
        (0, 1, 2), (3, 4, 5), (6, 7, 10), (8, 11, 13), (9, 14, 20))
    p.validate(require_sums=True)


def test_seven_set_compensating_swaps():
    p = rp.standard_partition(M7, 8)
    p, broken = swap(p, (4, 3), (3, 4))
    assert broken == (3, 4)
    p, broken = swap(p, (1, 4), (3, 3))
    assert broken == ()
    assert p.column(3) == (8, 9, 11, 13)
    assert p.column(4) == (10, 12, 14, 21)
    p.validate()


def test_swap_is_involutive(std_deep):
    spec = rp.SwapSpec((2, 7), (3, 9))
    q, _ = rp.swap_pair(std_deep, spec)
    r, _ = rp.swap_pair(q, spec)
    assert r.columns == std_deep.columns


def test_swap_slot_validation(std_deep):
    with pytest.raises(ValueError):
        rp.SwapSpec((1, 3), (1, 3))
    with pytest.raises(ValueError):
        swap(std_deep, (4, 3), (1, 5))
    with pytest.raises(ValueError):
        swap(std_deep, (0, 3), (1, 5))
    with pytest.raises(HorizonError):
        swap(std_deep, (1, 0), (1, 5))
    with pytest.raises(HorizonError):
        swap(std_deep, (1, 3), (1, std_deep.horizon + 1))


@settings(max_examples=50, deadline=None)
@given(
    st.tuples(st.integers(1, 3), st.integers(1, 64)),
    st.tuples(st.integers(1, 3), st.integers(1, 64)),
)
def test_swap_preserves_elements_and_localizes_damage(a, b):
    if a == b:
        return
    p = rp.standard_partition(M5, 64)
    q, broken = rp.swap_pair(p, rp.SwapSpec(a, b))
    assert sorted(q.elements()) == sorted(p.elements())
    assert set(broken) <= {a[1], b[1]}
    if a[1] == b[1]:
        assert broken == ()


@settings(max_examples=50, deadline=None)
@given(
    st.tuples(st.integers(1, 3), st.integers(1, 64)),
    st.tuples(st.integers(1, 3), st.integers(1, 64)),
)
def test_swap_twice_restores_the_partition(a, b):
    if a == b:
        return
    p = rp.standard_partition(M5, 64)
    spec = rp.SwapSpec(a, b)
    q, _ = rp.swap_pair(p, spec)
    r, broken = rp.swap_pair(q, spec)
    assert r.columns == p.columns
    assert broken == ()


@settings(max_examples=30, deadline=None)
@given(st.integers(6, 256), st.data())
def test_families_on_random_k_keep_the_pattern(horizon, data):
    p = rp.standard_partition(M5, horizon)
    k_i = data.draw(st.integers(0, horizon // 6), label="k_i")
    k_ii = data.draw(st.integers(0, (horizon - 4) // 6), label="k_ii")
    for out in (rp.reshuffle_family_i(p, k_i), rp.reshuffle_family_ii(p, k_ii)):
        assert rp.verify_sum_pattern(out, horizon)
        out.validate()


def test_family_i_first_exchange(std_deep):
    out = rp.reshuffle_family_i(std_deep, 1)
    assert out.column(4) == (11, 9, 12)
    assert out.column(5) == (8, 15, 20)
    assert out.columns[5:] == std_deep.columns[5:]


def test_family_ii_first_exchange(std_deep):
    out = rp.reshuffle_family_ii(std_deep, 1)
    assert out.column(3) == (6, 8, 9)
    assert out.column(4) == (7, 10, 15)
    assert out.columns[4:] == std_deep.columns[4:]


def test_family_pair_sums(std_deep):
    # both slots of every exchanged pair carry the same total, which is
    # why the exchanges preserve all column sums
    for k in range(1, std_deep.horizon // 6 + 1):
        low = std_deep.column(4 * k)
        high = std_deep.column(6 * k - 1)
        assert low[0] + low[2] == 30 * k - 7
        assert high[0] + high[1] == 30 * k - 7
    for k in range((std_deep.horizon - 4) // 6 + 1):
        low = std_deep.column(4 * k + 3)
        high = std_deep.column(6 * k + 4)
        assert low[1] + low[2] == 30 * k + 17
        assert high[0] + high[1] == 30 * k + 17


def test_families_keep_schedule_and_invariants(std_deep):
    a = rp.reshuffle_family_i(std_deep, std_deep.horizon // 6)
    b = rp.reshuffle_family_ii(std_deep, (std_deep.horizon - 4) // 6)
    for out in (a, b):
        assert rp.verify_sum_pattern(out, out.horizon)
        out.validate()
        assert sorted(out.elements()) == sorted(std_deep.elements())


def test_family_outputs_are_equivalent_to_standard(std_deep):
    a = rp.reshuffle_family_i(std_deep, 3)
    w = rp.equivalent_up_to(a, std_deep, std_deep.horizon)
    assert w is not None and w.N == 17
    b = rp.reshuffle_family_ii(std_deep, 3)
    w = rp.equivalent_up_to(b, std_deep, std_deep.horizon)
    assert w is not None and w.N == 16


def test_family_zero_is_identity(std_deep):
    assert rp.reshuffle_family_i(std_deep, 0).columns == std_deep.columns
    assert rp.reshuffle_family_ii(std_deep, 0).columns == std_deep.columns


def test_family_horizon_guards():
    short = rp.standard_partition(M5, 17)
    assert rp.reshuffle_family_i(short, 2).horizon == 17
    with pytest.raises(HorizonError):
        rp.reshuffle_family_i(short, 3)
    with pytest.raises(HorizonError):
        rp.reshuffle_family_ii(short, 3)  # needs 22 columns
    with pytest.raises(ValueError):
        rp.reshuffle_family_i(short, -1)


def test_broken_ranks_and_pattern_check(std_deep):
    assert rp.broken_ranks(std_deep) == ()
    assert rp.verify_sum_pattern(std_deep, 512)
    q, _ = swap(std_deep, (1, 7), (1, 9))
    assert rp.broken_ranks(q) == (7, 9)
    assert not rp.verify_sum_pattern(q, 512)
    # the scan stops at the horizon: rank 7 is the first broken one
    assert rp.verify_sum_pattern(q, 6)
    assert not rp.verify_sum_pattern(q, 7)
    with pytest.raises(HorizonError):
        rp.verify_sum_pattern(std_deep, std_deep.horizon + 1)
