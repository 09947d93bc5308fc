"""Eventual-coincidence equivalence, classification, and signatures."""
from __future__ import annotations

from itertools import combinations_with_replacement

import pytest

import rankpart as rp
from rankpart.checks import INJECTIONS, _inject
from rankpart.equivalence import SIGNATURES
from rankpart.errors import HorizonError

from oracles import classify_scan, diff_scan, equivalent_scan, signature_witness_scan

M5 = rp.ModulusConfig(5)
M7 = rp.ModulusConfig(7)

DEEP = 4096

# class membership of the 20 deduplicated heads, keyed by class id
CLASSES_BY_HEAD = {
    1: (2, 32),
    2: (3, 4, 5, 6, 11, 12, 18, 28, 29, 30, 34, 36),
    3: (7,),
    4: (8,),
    5: (10,),
    6: (14,),
    7: (16,),
    8: (17,),
}

# last rank at which each head's extension leaves its class pattern
WITNESS_BY_HEAD = {
    2: 8, 3: 8, 4: 8, 5: 12, 6: 12, 7: 6, 8: 6, 10: 8, 11: 12, 12: 12,
    14: 6, 16: 8, 17: 8, 18: 12, 28: 8, 29: 8, 30: 12, 32: 8, 34: 8, 36: 12,
}

CLASS_OF_HEAD = {h: c for c, heads in CLASSES_BY_HEAD.items() for h in heads}


def test_witness_for_known_equivalent_pair(ext_deep, std_deep):
    w = rp.equivalent_up_to(ext_deep[8], std_deep, DEEP)
    assert w is not None
    assert w.N == 6
    assert w.verified_to == DEEP


def test_identical_partitions_have_zero_witness(std_deep):
    w = rp.equivalent_up_to(std_deep, std_deep, 100)
    assert w == rp.EquivalenceWitness(0, 100)


def test_persistent_deviation_is_not_equivalent(ext_deep, std_deep):
    assert rp.equivalent_up_to(ext_deep[2], std_deep, DEEP) is None


def test_late_coincidence_fails_half_horizon_margin(ext_deep, std_deep):
    # at horizon 12 this pair last differs at rank 11 > 6, so no verdict,
    # while a genuinely equivalent pair passes at the same horizon
    assert rp.equivalent_up_to(ext_deep[2], std_deep, 12) is None
    w = rp.equivalent_up_to(ext_deep[8], std_deep, 12)
    assert w is not None and w.N == 6


def test_equivalence_requires_same_modulus(std_deep):
    other = rp.standard_partition(M7, 64)
    with pytest.raises(ValueError):
        rp.equivalent_up_to(std_deep, other, 64)


def test_equivalence_requires_stored_columns(std_deep):
    with pytest.raises(HorizonError):
        rp.equivalent_up_to(std_deep, std_deep, DEEP + 1)


def test_prefix_multiset_must_match(std_deep):
    # same tail, same column sums would not even be needed: the prefix
    # multiset check alone must reject this crafted lookalike
    cols = ((7, 7, 7),) + std_deep.columns[1:]
    fake = rp.Partition.from_columns(M5, cols)
    assert rp.equivalent_up_to(fake, std_deep, DEEP) is None


def test_members_of_one_class_are_equivalent(ext_deep):
    w = rp.equivalent_up_to(ext_deep[3], ext_deep[5], DEEP)
    assert w is not None and w.N <= 20
    assert rp.equivalent_up_to(ext_deep[2], ext_deep[3], DEEP) is None


def test_classify_agrees_with_pairwise_checks(ext_deep, rep_ids):
    parts = [ext_deep[h] for h in rep_ids]
    groups = rp.classify(parts, DEEP)
    # rebuild the grouping from scratch out of pairwise verdicts
    assigned: list[list[int]] = []
    for i in range(len(parts)):
        for group in assigned:
            if rp.equivalent_up_to(parts[group[0]], parts[i], DEEP):
                group.append(i)
                break
        else:
            assigned.append([i])
    assert [tuple(g) for g in groups] == [tuple(g) for g in assigned]


def test_classify_matches_frozen_classes(ext_deep, rep_ids):
    parts = [ext_deep[h] for h in rep_ids]
    groups = rp.classify(parts, DEEP)
    got = [tuple(rep_ids[i] for i in g) for g in groups]
    assert got == [CLASSES_BY_HEAD[c] for c in range(1, 9)]


def test_classify_single_partition(std_deep):
    assert rp.classify([std_deep], DEEP) == [[0]]


def test_diff_against_standard_is_empty_for_standard(std_deep):
    assert rp.diff_vs_standard(std_deep, DEEP) == []


def test_diff_ranks_for_eventually_standard_head(ext_deep):
    diffs = rp.diff_vs_standard(ext_deep[8], DEEP)
    assert [d[0] for d in diffs] == [1, 4, 5, 6]
    rank, std_col, got_col = diffs[1]
    assert (rank, std_col, got_col) == (4, (8, 9, 15), (8, 11, 13))


def test_diff_ranks_split_into_prefix_and_families(ext_deep):
    # beyond the head region every deviation sits on a family position
    diffs = [d[0] for d in rp.diff_vs_standard(ext_deep[10], DEEP)]
    fam_ranks: set[int] = set()
    for fam in SIGNATURES[5].families:
        fam_ranks.update(fam.ranks_up_to(DEEP))
    assert {r for r in diffs if r > 10} == fam_ranks
    assert {r for r in diffs if r <= 10} == {1, 4, 5, 6, 7, 8}


def test_family_rank_arithmetic():
    fam = SIGNATURES[1].families[0]
    assert fam.position == (10, 1)
    assert fam.rank_at(0) == 11
    assert fam.rank_at(3) == 81
    assert fam.k_for_rank(11) == 0
    assert fam.k_for_rank(21) == 1
    assert fam.k_for_rank(12) is None
    assert fam.k_for_rank(1) is None
    assert fam.k_for_rank(31) is None  # (31 - 1) / 10 = 3 is not a power of two
    assert fam.ranks_up_to(100) == [11, 21, 41, 81]


def test_family_minimum_doubling_index():
    fam = SIGNATURES[3].families[0]
    assert fam.position == (2, 1)
    assert fam.k_min == 2
    assert fam.k_for_rank(5) is None  # k = 1 sits below the threshold
    assert fam.k_for_rank(9) == 2
    assert fam.ranks_up_to(40) == [9, 17, 33]


def test_family_entry_formulas():
    fam = SIGNATURES[1].families[0]
    assert fam.standard_at(0) == (26, 27, 50)
    assert fam.variant_at(0) == (25, 27, 51)
    assert fam.standard_at(1) == (51, 52, 100)
    assert fam.variant_at(1) == (50, 52, 101)


def test_family_standard_entries_match_standard_partition(std_deep):
    for sig in SIGNATURES.values():
        for fam in sig.families:
            for rank in fam.ranks_up_to(DEEP):
                k = fam.k_for_rank(rank)
                assert fam.standard_at(k) == std_deep.column(rank)
                assert fam.variant_at(k) != fam.standard_at(k)
                assert sum(fam.variant_at(k)) == rp.sum_schedule(M5, rank)


def test_family_positions_do_not_collide():
    for sig in SIGNATURES.values():
        seen: set[int] = set()
        for fam in sig.families:
            ranks = set(fam.ranks_up_to(10**6))
            assert not ranks & seen
            seen |= ranks


def test_exception_positions_interleave():
    for k in range(20):
        step = 2**k
        assert 50 * step + 1 < 60 * step + 5 < 100 * step + 1 < 120 * step + 4


def test_signature_catalogue_shape():
    assert sorted(SIGNATURES) == list(range(1, 9))
    assert SIGNATURES[4].families == ()
    assert SIGNATURES[4].coincide_after == 6
    assert SIGNATURES[8].coincide_after == 12
    assert len(SIGNATURES[5].families) == 3


def test_standard_passes_exactly_one_signature(std_deep):
    assert rp.signature_matches(std_deep, DEEP) == [(4, 0)]
    assert rp.check_signature(std_deep, SIGNATURES[4], DEEP)
    assert not rp.check_signature(std_deep, SIGNATURES[1], DEEP)


def test_each_head_passes_only_its_own_signature(ext_deep):
    for head, class_id in CLASS_OF_HEAD.items():
        matches = rp.signature_matches(ext_deep[head], DEEP)
        assert matches == [(class_id, WITNESS_BY_HEAD[head])]


def test_witness_is_last_nonconforming_rank(ext_deep):
    for head, class_id in CLASS_OF_HEAD.items():
        sig = SIGNATURES[class_id]
        w = rp.signature_witness(ext_deep[head], sig, DEEP)
        assert w == WITNESS_BY_HEAD[head]


def test_cross_class_witness_is_none(ext_deep):
    assert rp.signature_witness(ext_deep[2], SIGNATURES[2], DEEP) is None


def test_standard_equivalent_heads(heads36):
    got = rp.standard_equivalent_heads(heads36, DEEP)
    assert got == {1, 8, 15, 19, 26}
    assert rp.standard_equivalent_heads([heads36[7]], DEEP) == {8}
    assert rp.standard_equivalent_heads([heads36[4]], DEEP) == set()
    assert rp.standard_equivalent_heads([], 64) == set()


def test_standard_equivalence_skips_dead_heads():
    heads = rp.enumerate_heads_general(M7)
    dead = heads[9]  # collides during extension
    live = heads[0]  # the sorted standard head
    assert rp.standard_equivalent_heads([dead], 512) == set()
    assert rp.standard_equivalent_heads([live, dead], 512) == {1}


def test_a_malformed_head_sharing_a_valid_union_is_rejected(heads36):
    # swapping entries across columns keeps the union but breaks two sums
    cols = [list(col) for col in heads36[0].columns]
    cols[0][0], cols[1][0] = cols[1][0], cols[0][0]
    bad = rp.Head(rp.ModulusConfig(5), tuple(tuple(col) for col in cols), choice_id=99)
    for call in (lambda: rp.dedup_heads([heads36[0], bad]),
                 lambda: rp.standard_equivalent_heads([heads36[0], bad], 256)):
        with pytest.raises(rp.InvariantError, match="column 1 sums to"):
            call()


# odd horizons put the first rank of the compared second half at H//2 + 1
ORACLE_HORIZONS = (2048, 2049, 4097)


@pytest.fixture(scope="module")
def reps_and_standard(groups36):
    top = max(ORACLE_HORIZONS)
    reps = [g.representative for g in groups36 if not g.is_standard]
    return [rp.greedy_extend(M5, r.columns, top) for r in reps] + [rp.standard_partition(M5, top)]


def test_signature_witness_matches_forward_scan(reps_and_standard):
    assert len(reps_and_standard) == 21
    for horizon in ORACLE_HORIZONS:
        for p in reps_and_standard:
            for sig in SIGNATURES.values():
                want = signature_witness_scan(5, p.columns, sig.families, horizon)
                assert rp.signature_witness(p, sig, horizon) == want, (horizon, sig.class_id)


def test_signature_witness_at_the_half_horizon_boundary():
    for horizon in ORACLE_HORIZONS:
        half = horizon // 2
        std = rp.standard_partition(M5, horizon)
        for rank, want in ((half, half), (half + 1, None)):
            cols = list(std.columns)
            cols[rank - 1] = cols[rank - 1][::-1]
            p = rp.Partition.from_columns(M5, tuple(cols))
            assert rp.signature_witness(p, SIGNATURES[4], horizon) == want
            for sig in SIGNATURES.values():
                assert rp.signature_witness(p, sig, horizon) == signature_witness_scan(
                    5, p.columns, sig.families, horizon
                )


# the map readers against the dense scans, from below the smallest horizon
# the census trusts (24) up to verify-long's
PARITY_HORIZONS = (12, 16, 24, 64, 257, 2048, 16384)
FAMILY_RANKS = sorted({
    rank
    for sig in SIGNATURES.values()
    for fam in sig.families
    for rank in fam.ranks_up_to(max(PARITY_HORIZONS))
})


@pytest.fixture(scope="module")
def engine_at_top(groups36):
    top = max(PARITY_HORIZONS)
    return rp.lockstep_extensions(M5, [g.representative.columns for g in groups36], top)


def partitions_from_columns(horizon: int) -> dict[str, rp.Partition]:
    """Partitions built from columns, whose deviation map is scanned on first read."""
    std = rp.standard_partition(M5, horizon)
    out = {"standard": std}
    for inject in INJECTIONS:
        out[f"inject {inject}"] = _inject(std, inject)
    out["family i"] = rp.reshuffle_family(std, "i", horizon // 6)
    out["family ii"] = rp.reshuffle_family(std, "ii", max((horizon - 4) // 6, 0))
    half = horizon // 2
    swap_ranks = {
        "first half": half,
        "second half": half + 1,
        "family rank in the first half": max((r for r in FAMILY_RANKS if r <= half), default=None),
        "family rank": max(r for r in FAMILY_RANKS if r <= horizon),
    }
    for name, rank in swap_ranks.items():
        if rank is not None:
            out[f"swap at {name} ({rank})"] = rp.swap_pair(std, rp.SwapSpec((1, rank), (2, rank)))[0]
    # equal element sets, unequal multisets: only counts tell these two apart
    for first in ((7, 7, 8), (7, 8, 8)):
        out[f"repeats {first}"] = rp.Partition.from_columns(M5, (first,) + std.columns[1:])
    return out


@pytest.fixture(scope="module")
def groups7():
    return rp.head_groups(M7)[1]


# pairwise checks on every pair up to this horizon, beyond it against two anchors each
PAIRWISE_UP_TO = 2048


def assert_equivalence_matches_scans(cases: dict[str, rp.Partition], anchors, horizon: int):
    names, parts = list(cases), list(cases.values())
    assert rp.classify(parts, horizon) == classify_scan([p.columns for p in parts], horizon)
    if horizon <= PAIRWISE_UP_TO:
        pairs = combinations_with_replacement(range(len(parts)), 2)
    else:
        pairs = ((i, names.index(a)) for i in range(len(parts)) for a in anchors)
    for i, j in pairs:
        want = equivalent_scan(parts[i].columns, parts[j].columns, horizon)
        assert rp.equivalent_up_to(parts[i], parts[j], horizon) == want, (names[i], names[j])


@pytest.mark.parametrize("horizon", PARITY_HORIZONS)
def test_map_readers_match_dense_scans(horizon, groups36, groups7, engine_at_top):
    engine = rp.lockstep_extensions(M5, [g.representative.columns for g in groups36], horizon)
    cases = {f"engine head {g.representative.choice_id}": p for g, p in zip(groups36, engine)}
    if horizon < max(PARITY_HORIZONS):  # stored beyond the horizon read
        cases |= {f"deep head {g.representative.choice_id}": p for g, p in zip(groups36, engine_at_top)}
    cases |= partitions_from_columns(horizon)
    assert len(engine) == 21 and None not in engine
    engine7 = rp.lockstep_extensions(M7, [g.representative.columns for g in groups7], horizon)
    cases7 = {
        f"m=7 engine head {g.representative.choice_id}": p
        for g, p in zip(groups7, engine7)
        if p is not None
    } | {"m=7 standard": rp.standard_partition(M7, horizon)}
    assert len(cases7) == 66
    assert_equivalence_matches_scans(cases, ("standard", "engine head 3"), horizon)
    assert_equivalence_matches_scans(cases7, ("m=7 standard", "m=7 engine head 2"), horizon)
    mixed = [*cases.values(), *cases7.values()]
    assert rp.classify(mixed, horizon) == classify_scan([p.columns for p in mixed], horizon)
    for name, p in cases.items():
        assert rp.diff_vs_standard(p, horizon) == diff_scan(5, p.columns, horizon), name
        for sig in SIGNATURES.values():
            want = signature_witness_scan(5, p.columns, sig.families, horizon)
            assert rp.signature_witness(p, sig, horizon) == want, (name, sig.class_id)
        for reader in (rp.diff_vs_standard, lambda p, h: rp.signature_witness(p, SIGNATURES[1], h)):
            with pytest.raises(HorizonError):
                reader(p, p.horizon + 1)
            with pytest.raises(ValueError):
                reader(p, 0)
