"""Lockstep frontier-state engine against the extend-everything reference.

The reference census below extends every dedup representative to the
horizon with greedy_extend and sorts the extensions with classify and
equivalent_up_to, the way the census worked before the engine existed.
lockstep_extensions is held to greedy_extend prefix by prefix.  Since
greedy_extend runs the same event-driven engine, every entry point is also
held to oracles.dense_lockstep, which steps PartitionBuilders rank by rank,
and the engine's event bound is checked on its own on synthetic states.
"""
from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

import rankpart as rp
import rankpart.greedy as greedy

from oracles import dense_lockstep, greedy_step

HORIZONS = (5, 6, 7, 8, 9, 10, 11, 12, 16, 20, 24, 64, 256)


@pytest.fixture(scope="module")
def groups_by_m():
    return {m: rp.dedup_heads(rp.enumerate_heads_general(rp.ModulusConfig(m))) for m in (5, 7, 9, 11)}


def std_head(cfg: rp.ModulusConfig) -> tuple[tuple[int, ...], ...]:
    return tuple(rp.standard_column(cfg, n) for n in range(1, 6))


def reference_fields(groups: list[rp.DedupGroup], horizon: int, protocol: str) -> dict:
    """The census fields the engine decides, computed by extending every representative."""
    cfg = groups[0].representative.cfg
    extensions = {}
    for group in groups:
        rep = group.representative
        try:
            extensions[rep.choice_id] = rp.greedy_extend(cfg, rep.columns, horizon)
        except (rp.CollisionError, rp.NegativeError):
            extensions[rep.choice_id] = None
    std = rp.standard_partition(cfg, horizon)
    std_equivalent = sorted(
        head_id
        for group in groups
        if (ext := extensions[group.representative.choice_id]) is not None
        and rp.equivalent_up_to(ext, std, horizon) is not None
        for head_id in group.member_ids
    )
    selected = [
        g.representative.choice_id
        for g in groups
        if protocol == "include-standard" or not g.is_standard
    ]
    alive = [i for i in selected if extensions[i] is not None]
    classes = rp.classify([extensions[i] for i in alive], horizon)
    return {
        "representatives": len(selected),
        "non_extendable": tuple(i for i in selected if extensions[i] is None),
        "classes": len(classes),
        "class_members": tuple(tuple(alive[k] for k in members) for members in classes),
        "standard_equivalent": tuple(std_equivalent),
    }


def engine_fields(report: rp.CensusReport) -> dict:
    return {key: getattr(report, key) for key in (
        "representatives", "non_extendable", "classes", "class_members", "standard_equivalent",
    )}


@pytest.mark.parametrize("m", (5, 7, 9))
def test_census_matches_extend_everything_reference(m, groups_by_m):
    groups = groups_by_m[m]
    for horizon in HORIZONS:
        reports = rp.run_census_both(m, horizon)
        for report in reports:
            assert engine_fields(report) == reference_fields(groups, horizon, report.protocol), (
                f"m={m} horizon={horizon} {report.protocol}"
            )
        assert rp.run_census(m, horizon, reports[1].protocol) == reports[1]


def test_eleven_set_census_matches_reference(groups_by_m):
    for horizon in (16, 64):
        excl, incl = rp.run_census_both(11, horizon)
        assert engine_fields(excl) == reference_fields(groups_by_m[11], horizon, excl.protocol)
        assert engine_fields(incl) == reference_fields(groups_by_m[11], horizon, incl.protocol)


class ConstantHashKey(tuple):
    """A merge key that compares exactly but hashes every state alike."""

    def __hash__(self):
        return 0


def test_constant_hash_leaves_every_merge_to_the_exact_comparison(monkeypatch):
    cases = [(m, h) for m in (5, 7) for h in (8, 12, 16, 64, 256)]
    honest = {case: rp.run_census_both(*case) for case in cases}
    heads36 = rp.enumerate_heads(rp.ModulusConfig(5))
    honest_std = rp.standard_equivalent_heads(heads36, 256)
    monkeypatch.setattr(greedy, "_state_key", lambda dplus, dminus: ConstantHashKey((dplus, dminus)))
    for case in cases:
        assert rp.run_census_both(*case) == honest[case], case
    assert rp.standard_equivalent_heads(heads36, 256) == honest_std == {1, 8, 15, 19, 26}


def test_standard_head_joins_the_standard_union_at_rank_five():
    cfg = rp.ModulusConfig(5)
    head1 = rp.enumerate_heads(cfg)[0]
    assert rp.lockstep_classes(cfg, [head1.columns, std_head(cfg)], 5) == [0, 0]
    assert rp.lockstep_classes(cfg, [], 64) == []


def test_dead_root_kills_its_class():
    cfg = rp.ModulusConfig(7)
    heads = rp.enumerate_heads_general(cfg)
    dead, live = heads[9], heads[0]
    roots = rp.lockstep_classes(cfg, [live.columns, dead.columns, dead.columns], 512)
    assert roots == [0, None, None]


def test_lockstep_rejects_short_horizon_and_ragged_prefixes():
    cfg = rp.ModulusConfig(5)
    head = std_head(cfg)
    with pytest.raises(ValueError):
        rp.lockstep_classes(cfg, [head], 4)
    with pytest.raises(ValueError):
        rp.lockstep_classes(cfg, [head, head[:4]], 64)
    with pytest.raises(rp.InvariantError):
        rp.lockstep_classes(cfg, [((0, 1, 2), (3, 4, 6))], 64)


def _prefix_pool(m: int) -> list[tuple[tuple[int, ...], ...]]:
    cfg = rp.ModulusConfig(m)
    groups = rp.dedup_heads(rp.enumerate_heads_general(cfg))
    return [g.representative.columns for g in groups] + [std_head(cfg)]


POOLS = {m: _prefix_pool(m) for m in (5, 7)}


@st.composite
def prefix_subsets(draw):
    m = draw(st.sampled_from((5, 7)))
    chosen = draw(st.lists(st.sampled_from(range(len(POOLS[m]))), min_size=1, max_size=24))
    return m, [POOLS[m][i] for i in chosen]


@settings(max_examples=40, deadline=None)
@given(prefix_subsets(), st.integers(10, 256))
def test_engine_classes_equal_classify(subset, horizon):
    m, prefixes = subset
    cfg = rp.ModulusConfig(m)
    extensions = []
    for cols in prefixes:
        try:
            extensions.append(rp.greedy_extend(cfg, cols, horizon))
        except (rp.CollisionError, rp.NegativeError):
            extensions.append(None)
    alive = [i for i, ext in enumerate(extensions) if ext is not None]
    expected = [[alive[k] for k in c] for c in rp.classify([extensions[i] for i in alive], horizon)]
    roots = rp.lockstep_classes(cfg, prefixes, horizon)
    got: dict[int, list[int]] = {}
    for i, root in enumerate(roots):
        if root is not None:
            got.setdefault(root, []).append(i)
    assert [i for i, root in enumerate(roots) if root is None] == [
        i for i, ext in enumerate(extensions) if ext is None
    ]
    assert list(got.values()) == expected
    assert all(root == members[0] for root, members in got.items())


def greedy_or_none(cfg: rp.ModulusConfig, cols, horizon: int) -> rp.Partition | None:
    try:
        return rp.greedy_extend(cfg, cols, horizon)
    except (rp.CollisionError, rp.NegativeError):
        return None


@pytest.mark.parametrize("m", (5, 7, 9))
def test_lockstep_extensions_equal_greedy_extend(m, groups_by_m):
    cfg = rp.ModulusConfig(m)
    prefixes = [g.representative.columns for g in groups_by_m[m]] + [std_head(cfg)]
    for horizon in (5, 6, 12, 64, 257):
        got = rp.lockstep_extensions(cfg, prefixes, horizon)
        want = [greedy_or_none(cfg, cols, horizon) for cols in prefixes]
        assert got == want, (m, horizon)
        dead = sum(ext is None for ext in got)
        assert dead == (10 if m == 7 and horizon >= 7 else 0), (m, horizon)
    assert rp.lockstep_extensions(cfg, [], 64) == []


@settings(max_examples=40, deadline=None)
@given(prefix_subsets(), st.integers(5, 256))
def test_lockstep_extensions_property(subset, horizon):
    m, prefixes = subset
    cfg = rp.ModulusConfig(m)
    assert rp.lockstep_extensions(cfg, prefixes, horizon) == [
        greedy_or_none(cfg, cols, horizon) for cols in prefixes
    ]


# --- the event-driven engine against the dense reference -------------------

DENSE_HORIZONS = (5, 6, 12, 64, 257, 4096)


def greedy_or_error(cfg: rp.ModulusConfig, cols, horizon: int) -> tuple:
    try:
        return rp.greedy_extend(cfg, cols, horizon).columns, None
    except (rp.CollisionError, rp.NegativeError) as e:
        return None, (type(e), e.rank, e.value)


def assert_matches_dense(cfg: rp.ModulusConfig, prefixes, horizon: int, every_greedy: bool) -> None:
    """Classes, extensions and greedy_extend errors agree with the dense engine.

    greedy_extend is run on every prefix whose class dies, and on all of
    them when every_greedy is set.
    """
    roots, extension, errors = dense_lockstep(cfg, prefixes, horizon)
    assert rp.lockstep_classes(cfg, prefixes, horizon) == roots, horizon
    for i, ext in enumerate(rp.lockstep_extensions(cfg, prefixes, horizon)):
        assert (None if ext is None else ext.columns) == extension(i), (horizon, i)
    for i, cols in enumerate(prefixes):
        if every_greedy or errors[i] is not None:
            assert greedy_or_error(cfg, cols, horizon) == (extension(i), errors[i]), (horizon, i)


@pytest.mark.parametrize("m", (5, 7, 9, 11, 13))
def test_engine_matches_dense_reference_for_every_group(m):
    cfg = rp.ModulusConfig(m)
    _, groups = rp.head_groups(cfg)
    prefixes = [g.representative.columns for g in groups] + [std_head(cfg)]
    for horizon in DENSE_HORIZONS:
        assert_matches_dense(cfg, prefixes, horizon, every_greedy=horizon == 257)


@settings(max_examples=40, deadline=None)
@given(prefix_subsets(), st.integers(5, 300))
def test_engine_matches_dense_reference_on_subsets(subset, horizon):
    m, prefixes = subset
    assert_matches_dense(rp.ModulusConfig(m), prefixes, horizon, every_greedy=True)


def test_greedy_extend_matches_dense_builder_from_any_prefix_length():
    cfg = rp.ModulusConfig(5)
    head = rp.enumerate_heads(cfg)[7].columns
    for cut in range(6):
        b = rp.PartitionBuilder(cfg, head[:cut])
        b.extend_to(200)
        assert rp.greedy_extend(cfg, head[:cut], 200) == b.to_partition(), cut
    assert rp.greedy_extend(cfg, head, 3).columns == head  # nothing to extend


# --- the event bound on synthetic states ------------------------------------

EVENT_REACH = 24  # D+ holds standard-free values below rank n + EVENT_REACH


def std_used_by(cfg: rp.ModulusConfig, n: int) -> set[int]:
    return {x for r in range(1, n + 1) for x in rp.standard_column(cfg, r)}


@st.composite
def synthetic_states(draw):
    """(cfg, n, D+, D-) with D- inside Std(n), D+ outside it and |D+| = |D-| <= 6."""
    cfg = rp.ModulusConfig(draw(st.sampled_from((5, 7, 9, 11, 13))))
    m, t = cfg.m, cfg.t
    n = draw(st.integers(1, 64))
    std = std_used_by(cfg, n)
    ahead = std_used_by(cfg, n + EVENT_REACH) - std

    def pick(pool: set[int], size: int) -> list[int]:
        return draw(st.lists(st.sampled_from(sorted(pool)), unique=True, min_size=size, max_size=size))

    multiples = draw(st.integers(0, min(6, n)))
    dminus = pick({x for x in std if x % m == 0}, multiples)
    dminus += pick({x for x in std if x % m}, draw(st.integers(0, min(6 - multiples, t * n))))
    k = len(dminus)
    multiples = draw(st.integers(0, k))
    dplus = pick({x for x in ahead if x % m == 0}, multiples)
    dplus += pick({x for x in ahead if x % m}, k - multiples)
    return cfg, n, frozenset(dplus), frozenset(dminus)


def check_event_bound(cfg: rp.ModulusConfig, n: int, dplus: frozenset[int], dminus: frozenset[int]) -> None:
    """Every rank before the event is standard and keeps D; the event rank is not standard.

    Dense steps come from the scan-from-zero oracle over the explicit used
    set.  At the event the engine's own dense step must also agree with it.
    """
    m, t = cfg.m, cfg.t
    event = greedy._next_event(m, t, n, dplus, dminus)
    used = (std_used_by(cfg, n) | dplus) - dminus
    if not dplus:
        assert event == math.inf
        event = n + 9  # check a stretch of standard ranks, then stop
    assert event > n
    for rank in range(n + 1, event):
        col = greedy_step(m, used, rank)
        assert col == rp.standard_column(cfg, rank), (rank, event)
        used.update(col)
    std_before = std_used_by(cfg, event - 1)
    assert (used - std_before, std_before - used) == (dplus, dminus)
    if not dplus:
        return
    try:
        col = greedy_step(m, used, event)
    except ValueError:
        with pytest.raises((rp.CollisionError, rp.NegativeError)) as exc:
            greedy._dense_step(m, t, event - 1, dplus, dminus)
        assert exc.value.rank == event
        return
    assert col != rp.standard_column(cfg, event)
    got, new_plus, new_minus = greedy._dense_step(m, t, event - 1, dplus, dminus)
    assert got == col
    used.update(col)
    std_after = std_used_by(cfg, event)
    assert (new_plus, new_minus) == (used - std_after, std_after - used)


@settings(max_examples=300, deadline=None)
@given(synthetic_states())
def test_event_bound_is_exact_on_synthetic_states(state):
    check_event_bound(*state)


@pytest.mark.parametrize("m", (5, 7))
def test_event_bound_is_exact_for_every_single_exchange(m):
    """Every state one element off the standard, so each rule binds on its own somewhere."""
    cfg = rp.ModulusConfig(m)
    for n in range(1, 7):
        std = std_used_by(cfg, n)
        ahead = std_used_by(cfg, n + 8) - std
        for out in sorted(std):
            for extra in sorted(ahead):
                check_event_bound(cfg, n, frozenset({extra}), frozenset({out}))
