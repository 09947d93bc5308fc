"""Element exchanges: single swaps, repair chains, and the two families."""
from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import rankpart as rp
from oracles import reshuffle_family_i_loop, reshuffle_family_ii_loop
from rankpart.errors import HorizonError
from rankpart.reshuffle import FAMILIES

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
    for out in (rp.reshuffle_family(p, "i", k_i), rp.reshuffle_family(p, "ii", k_ii)):
        assert rp.verify_sum_pattern(out, horizon)
        out.validate()
    assert_families_match_the_loops(p, k_i, k_ii)


def assert_families_match_the_loops(p, k_i, k_ii):
    for family, loop, k_max in (
        ("i", reshuffle_family_i_loop, k_i),
        ("ii", reshuffle_family_ii_loop, k_ii),
    ):
        out = rp.reshuffle_family(p, family, k_max)
        assert list(out.columns) == loop(p.columns, k_max)
        # a column no exchange touches is the input's own tuple, not a copy
        assert all(got is col for got, col in zip(out.columns, p.columns) if got == col)


def test_families_match_the_loops_at_every_k():
    # up to the largest k_max: family i's last rank is 6k_max - 1, family ii's 6k_max - 2
    for horizon in range(6, 65):
        p = rp.standard_partition(M5, horizon)
        for k_i in range((horizon + 1) // 6 + 1):
            assert_families_match_the_loops(p, k_i, 0)
        for k_ii in range((horizon + 2) // 6 + 1):
            assert_families_match_the_loops(p, 0, k_ii)


def test_families_match_the_loops_at_the_largest_k():
    p = rp.standard_partition(M5, 16384)
    assert_families_match_the_loops(p, 16384 // 6, (16384 - 4) // 6)


def test_family_specs_give_the_standard_pair_sums():
    # both pairs of exchange k sum to 30k + total in the standard partition, at every k that fits
    cols = rp.standard_partition(M5, 16384).columns
    for family in FAMILIES.values():
        k_max = family.k_max(16384)
        assert k_max == len(range(family.k_min, 16384 // 6 + 1))
        want = [30 * k + family.total for k in range(family.k_min, family.k_min + k_max)]
        assert list(family.sums(k_max)) == want
        pairs = family.pairs(cols, k_max)
        assert [sets for _, _, sets in pairs] == [family.low_sets, (1, 2)]
        for ranks, at, (x, y) in pairs:
            assert [cols[n - 1] for n in ranks] == list(at)
            assert [col[x - 1] + col[y - 1] for col in at] == want


def test_families_refuse_other_moduli():
    p = rp.standard_partition(M7, 64)
    # the pair sums match only at m = 5: at m = 7 family i would leave column 4 at 64, not 57
    assert sum(reshuffle_family_i_loop(p.columns, 10)[3]) == 64 != rp.sum_schedule(M7, 4)
    for cfg in (M7, rp.ModulusConfig(9)):
        p = rp.standard_partition(cfg, 64)
        for family in FAMILIES:
            with pytest.raises(ValueError, match="reshuffle families are defined for m=5 only"):
                rp.reshuffle_family(p, family, 10)


def test_an_unknown_family_is_refused(std_deep):
    with pytest.raises(ValueError, match=r"unknown family 'iii', expected one of \('i', 'ii'\)"):
        rp.reshuffle_family(std_deep, "iii", 1)


def test_family_i_first_exchange(std_deep):
    out = rp.reshuffle_family(std_deep, "i", 1)
    assert out.column(4) == (11, 9, 12)
    assert out.column(5) == (8, 15, 20)
    assert out.columns[5:] == std_deep.columns[5:]


def test_family_ii_first_exchange(std_deep):
    out = rp.reshuffle_family(std_deep, "ii", 1)
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
    a = rp.reshuffle_family(std_deep, "i", std_deep.horizon // 6)
    b = rp.reshuffle_family(std_deep, "ii", (std_deep.horizon - 4) // 6)
    for out in (a, b):
        assert rp.verify_sum_pattern(out, out.horizon)
        out.validate()
        assert sorted(out.elements()) == sorted(std_deep.elements())


def test_family_outputs_are_equivalent_to_standard(std_deep):
    a = rp.reshuffle_family(std_deep, "i", 3)
    w = rp.equivalent_up_to(a, std_deep, std_deep.horizon)
    assert w is not None and w.N == 17
    b = rp.reshuffle_family(std_deep, "ii", 3)
    w = rp.equivalent_up_to(b, std_deep, std_deep.horizon)
    assert w is not None and w.N == 16


def test_family_zero_is_identity(std_deep):
    assert rp.reshuffle_family(std_deep, "i", 0).columns == std_deep.columns
    assert rp.reshuffle_family(std_deep, "ii", 0).columns == std_deep.columns


def test_family_horizon_guards():
    # three exchanges reach rank 17 in family i and rank 16 in family ii
    for family, fits in (("i", 17), ("ii", 16)):
        with pytest.raises(HorizonError, match=f"need {fits}"):
            rp.reshuffle_family(rp.standard_partition(M5, fits - 1), family, 3)
        assert rp.reshuffle_family(rp.standard_partition(M5, fits), family, 3).horizon == fits
    with pytest.raises(ValueError):
        rp.reshuffle_family(rp.standard_partition(M5, 17), "i", -1)


def test_broken_ranks_and_pattern_check(std_deep):
    assert rp.broken_ranks(std_deep) == ()
    assert rp.verify_sum_pattern(std_deep, 512)
    q, _ = swap(std_deep, (1, 7), (1, 9))
    assert rp.broken_ranks(q) == (7, 9)
    assert not rp.verify_sum_pattern(q, 512)
    # the scan stops at the horizon: rank 7 is the first broken one
    assert rp.verify_sum_pattern(q, 6)
    assert not rp.verify_sum_pattern(q, 7)
    # a horizon below 1 scans nothing
    assert rp.broken_ranks(q, 0) == rp.broken_ranks(q, -3) == ()
    assert rp.verify_sum_pattern(q, -3)
    with pytest.raises(HorizonError):
        rp.verify_sum_pattern(std_deep, std_deep.horizon + 1)
