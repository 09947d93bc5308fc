"""Lockstep frontier-state engine against the extend-everything reference.

The reference census below extends every dedup representative to the
horizon with greedy_extend and sorts the extensions' columns with dense
oracles, the way the census worked before the engine existed; the map-based
classify would read the deviation maps the engine itself handed over.  At
every horizon the engine's classes are exactly used_set_classes, the
equivalences its merges prove, and each is a union of classify_scan's
classes, which need columns identical on the second half of the horizon.
From H = 24 on, the two references agree on every census tested.
lockstep_extensions is held to greedy_extend prefix by prefix.  Since
greedy_extend walks the same events (`greedy._events`) with the same dense
step, every entry point is also held to oracles.dense_lockstep, which steps
PartitionBuilders rank by rank; an event stream resumed from the last state
it yielded fills greedy_extend's columns, and the engine's event bound is
checked on its own on synthetic states.  So is the dense step's lemma: the
forced entry clears every pick, and a step dies only by colliding with D+
or with a standard multiple the builder still holds.
"""
from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings, strategies as st

import rankpart as rp
import rankpart.greedy as greedy
from rankpart.census import _group_classes
from rankpart.partition import check_columns

from oracles import (
    PartitionBuilder,
    classify_scan,
    dense_lockstep,
    diff_scan,
    equivalent_scan,
    greedy_step,
    used_set_classes,
)

HORIZONS = (5, 6, 7, 8, 9, 10, 11, 12, 16, 20, 23, 24, 64, 256)
EXACT_FROM = 24  # classify's H/2 rule sees every merge of these censuses from here on


@pytest.fixture(scope="module")
def groups_by_m():
    return {m: rp.dedup_heads(rp.enumerate_heads_general(rp.ModulusConfig(m))) for m in (5, 7, 9, 11)}


def std_head(cfg: rp.ModulusConfig) -> tuple[tuple[int, ...], ...]:
    return tuple(rp.standard_column(cfg, n) for n in range(1, 6))


def reference_fields(groups: list[rp.DedupGroup], horizon: int, protocol: str) -> tuple[dict, dict]:
    """The census fields the engine decides, computed by extending every representative.

    Returns them twice: classed by used_set_classes, standard-equivalent
    when the used set equals the standard partition's, and classed by
    classify_scan, standard-equivalent by equivalent_scan.
    """
    cfg = groups[0].representative.cfg
    extensions = {}
    for group in groups:
        rep = group.representative
        try:
            extensions[rep.choice_id] = rp.greedy_extend(cfg, rep.columns, horizon)
        except (rp.CollisionError, rp.NegativeError):
            extensions[rep.choice_id] = None
    std = rp.standard_partition(cfg, horizon)
    std_used = {x for col in std.columns for x in col}
    selected = [
        g.representative.choice_id
        for g in groups
        if protocol == "include-standard" or not g.is_standard
    ]
    alive = [i for i in selected if extensions[i] is not None]

    def fields(classify, equivalent) -> dict:
        classes = classify([extensions[i].columns for i in alive], horizon)
        return {
            "representatives": len(selected),
            "non_extendable": tuple(i for i in selected if extensions[i] is None),
            "classes": len(classes),
            "class_members": tuple(tuple(alive[k] for k in members) for members in classes),
            "standard_equivalent": tuple(sorted(
                head_id
                for group in groups
                if (ext := extensions[group.representative.choice_id]) is not None
                and equivalent(ext)
                for head_id in group.member_ids
            )),
        }

    return (
        fields(used_set_classes, lambda ext: {x for col in ext.columns for x in col} == std_used),
        fields(classify_scan, lambda ext: equivalent_scan(ext.columns, std.columns, horizon) is not None),
    )


def engine_fields(report: rp.CensusReport) -> dict:
    return {key: getattr(report, key) for key in (
        "representatives", "non_extendable", "classes", "class_members", "standard_equivalent",
    )}


def assert_unions_of(coarse, fine) -> None:
    """Each class of coarse is a union of classes of fine, and both cover the same members."""
    where = {i: k for k, members in enumerate(coarse) for i in members}
    assert sorted(where) == sorted(i for members in fine for i in members)
    for members in fine:
        assert len({where[i] for i in members}) == 1, members


def assert_census_matches_reference(report: rp.CensusReport, groups: list[rp.DedupGroup]) -> None:
    """Equal to the used-set reference; a coarsening of classify's, and equal to it from EXACT_FROM."""
    horizon = report.horizon
    proved, classified = reference_fields(groups, horizon, report.protocol)
    got = engine_fields(report)
    context = f"m={report.m} horizon={horizon} {report.protocol}"
    assert got == proved, context
    assert_unions_of(got["class_members"], classified["class_members"])
    assert set(got["standard_equivalent"]) >= set(classified["standard_equivalent"]), context
    if horizon >= EXACT_FROM:
        assert got == classified, context


@pytest.mark.parametrize("m", (5, 7, 9))
def test_census_matches_extend_everything_reference(m, groups_by_m):
    for horizon in HORIZONS:
        reports = rp.run_census_both(m, horizon)
        for report in reports:
            assert_census_matches_reference(report, groups_by_m[m])
        assert rp.run_census(m, horizon, reports[1].protocol) == reports[1]


def test_eleven_set_census_matches_reference(groups_by_m):
    for horizon in (16, 64):
        for report in rp.run_census_both(11, horizon):
            assert_census_matches_reference(report, groups_by_m[11])


def test_census_classes_are_exact_from_horizon_twelve():
    """A merge at any horizon holds at 4096, and from H = 12 the classes are those at 4096.

    For m = 5 ... 13 the census roots and standard-equivalent ids equal
    their H = 4096 values at every H from 12 to 64.  Below 12 some classes
    have not merged yet, so there the count is too high.
    """
    for m in (5, 7, 9, 11, 13):
        cfg = rp.ModulusConfig(m)
        _, groups = rp.head_groups(cfg)
        exact = _group_classes(cfg, groups, 4096)
        for horizon in range(5, 65):
            roots, std_ids = _group_classes(cfg, groups, horizon)
            for i, root in enumerate(roots):
                if root is not None:
                    assert exact[0][i] == exact[0][root], (m, horizon, i)
            if horizon >= 12:
                assert (roots, std_ids) == exact, (m, horizon)


def test_constant_hash_leaves_every_merge_to_the_exact_comparison(monkeypatch):
    """With one hash for every D+ and D-, equality alone decides each merge.

    The engine keys its merge index by (D+, D-), and it makes both sets with
    greedy.frozenset, patched here; the count of sets made shows the patch
    took effect: each builder makes its D+ and D- at least once, at the
    prefix rank.
    """
    cases = [(m, h) for m in (5, 7) for h in (8, 12, 16, 64, 256)]
    honest = {case: rp.run_census_both(*case) for case in cases}
    heads36 = rp.enumerate_heads(rp.ModulusConfig(5))
    honest_std = rp.standard_equivalent_heads(heads36, 256)
    made = []

    class ConstantHashSet(frozenset):
        def __new__(cls, *args):
            made.append(None)
            return super().__new__(cls, *args)

        def __hash__(self):
            return 0

    monkeypatch.setattr(greedy, "frozenset", ConstantHashSet, raising=False)
    for case in cases:
        made.clear()
        assert rp.run_census_both(*case) == honest[case], case
        builders = honest[case][0].dedup_groups + 1  # the groups and the standard head
        assert len(made) >= 2 * builders, case
    made.clear()
    assert rp.standard_equivalent_heads(heads36, 256) == honest_std == {1, 8, 15, 19, 26}
    assert len(made) >= 2 * (len(rp.dedup_heads(heads36)) + 1)


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


# --- the bulk entry check ----------------------------------------------------

M5_FAULTS = {  # columns replaced in the standard head, one fault each
    "width": {3: (6, 7, 10, 99)},
    "width, element count kept": {2: (5, 7), 3: (3, 4, 6, 10)},  # every sum on the schedule
    "negative": {2: (-5, 4, 13)},  # every sum on the schedule
    "repeat": {3: (6, 13, 4)},  # 4 is in column 2; every sum on the schedule
    "sum": {4: (8, 9, 16)},
}


def malformed_head(fault: str) -> tuple[tuple[int, ...], ...]:
    head = list(std_head(rp.ModulusConfig(5)))
    for rank, col in M5_FAULTS[fault].items():
        head[rank - 1] = col
    return tuple(head)


def check_columns_message(cfg: rp.ModulusConfig, cols) -> str:
    with pytest.raises(rp.InvariantError) as exc:
        check_columns(cfg, cols)
    return str(exc.value)


@pytest.mark.parametrize("fault", sorted(M5_FAULTS))
def test_malformed_middle_prefix_raises_the_check_columns_message(fault):
    cfg = rp.ModulusConfig(5)
    bad = malformed_head(fault)
    want = check_columns_message(cfg, bad)
    batch = [rp.enumerate_heads(cfg)[0].columns, bad, std_head(cfg)]
    for entry in (rp.lockstep_classes, rp.lockstep_extensions):
        with pytest.raises(rp.InvariantError) as exc:
            entry(cfg, batch, 64)
        assert str(exc.value) == want, (entry.__name__, fault)
    with pytest.raises(rp.InvariantError) as exc:
        rp.greedy_extend(cfg, bad, 64)
    assert str(exc.value) == want
    with pytest.raises(rp.InvariantError) as exc:
        rp.greedy_extend(cfg, bad, len(bad))  # no rank left to fill: the prefix is still checked
    assert str(exc.value) == want


def test_first_malformed_prefix_names_the_fault():
    cfg = rp.ModulusConfig(5)
    batch = [std_head(cfg), malformed_head("sum"), malformed_head("width")]
    with pytest.raises(rp.InvariantError) as exc:
        rp.lockstep_classes(cfg, batch, 64)
    assert str(exc.value) == check_columns_message(cfg, batch[1])


def test_invariant_error_comes_before_ragged_and_short_horizon_errors():
    cfg = rp.ModulusConfig(5)
    head, bad = std_head(cfg), malformed_head("repeat")
    want = check_columns_message(cfg, bad)
    for batch in ([head[:4], bad], [bad, head[:4]], [head, bad[:4], head[:3]]):
        for horizon in (64, 2):
            with pytest.raises(rp.InvariantError) as exc:
                rp.lockstep_classes(cfg, batch, horizon)
            assert str(exc.value) == want, (len(batch), horizon)
    with pytest.raises(ValueError, match="equal length"):
        rp.lockstep_classes(cfg, [head, head[:4]], 2)  # ragged before the horizon


def test_empty_prefixes_and_the_empty_batch():
    cfg = rp.ModulusConfig(5)
    assert rp.lockstep_classes(cfg, [], 64) == []
    assert rp.lockstep_classes(cfg, [], -1) == []
    assert rp.lockstep_extensions(cfg, [], 64) == []
    assert rp.lockstep_classes(cfg, [(), ()], 8) == [0, 0]
    assert rp.greedy_extend(cfg, [], 0) == rp.Partition.from_columns(cfg, ())
    from_empty = rp.greedy_extend(cfg, [], 6)
    assert from_empty.columns == (
        (0, 1, 2), (3, 4, 5), (6, 7, 10), (8, 9, 15), (11, 12, 20), (13, 14, 25),
    )
    assert from_empty.deviations == {1: (0, 1, 2)}
    assert rp.lockstep_extensions(cfg, [[]], 6) == [from_empty]
    with pytest.raises(ValueError, match="shorter"):
        rp.lockstep_classes(cfg, [()], -1)


# --- the work the census does -------------------------------------------------

@pytest.mark.parametrize(
    "m, horizon, steps, unmerged_events",
    ((11, 4096, 1214, 1833), (13, 64, 1884, 3448), (11, 16, 734, 1353)),
)
def test_census_work_is_pinned(monkeypatch, m, horizon, steps, unmerged_events):
    """The dense steps a census takes are fixed; merged builders schedule no event.

    unmerged_events is the number of event lookups when every builder that
    stepped looked up its next event before the merge check.
    """
    calls = {"_dense_step": 0, "_next_event": 0}

    def counted(name):
        inner = getattr(greedy, name)

        def call(*args):
            calls[name] += 1
            return inner(*args)

        return call

    for name in calls:
        monkeypatch.setattr(greedy, name, counted(name))
    rp.run_census(m, horizon)
    assert calls["_dense_step"] == steps
    assert calls["_next_event"] < unmerged_events


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


def short_horizons(test):
    """Explicit examples at every H from 10 to 23, where builders merge past H/2.

    Each is a whole pool, so every merge of its census happens; the two
    moduli alternate with the horizon's parity.
    """
    for horizon in range(10, 24):
        m = 5 if horizon % 2 else 7
        test = example((m, POOLS[m]), horizon)(test)
    return test


@settings(max_examples=40, deadline=None)
@short_horizons
@given(prefix_subsets(), st.integers(10, 256))
def test_engine_classes_equal_classify(subset, horizon):
    """The engine's classes are used_set_classes at every H, coarsen classify's, and equal them from H = 24."""
    m, prefixes = subset
    cfg = rp.ModulusConfig(m)
    extensions = []
    for cols in prefixes:
        try:
            extensions.append(rp.greedy_extend(cfg, cols, horizon))
        except (rp.CollisionError, rp.NegativeError):
            extensions.append(None)
    alive = [i for i, ext in enumerate(extensions) if ext is not None]
    columns = [extensions[i].columns for i in alive]
    proved = [[alive[k] for k in c] for c in used_set_classes(columns, horizon)]
    classified = [[alive[k] for k in c] for c in classify_scan(columns, horizon)]
    roots = rp.lockstep_classes(cfg, prefixes, horizon)
    got: dict[int, list[int]] = {}
    for i, root in enumerate(roots):
        if root is not None:
            got.setdefault(root, []).append(i)
    assert [i for i, root in enumerate(roots) if root is None] == [
        i for i, ext in enumerate(extensions) if ext is None
    ]
    assert list(got.values()) == proved
    assert_unions_of(proved, classified)
    if horizon >= EXACT_FROM:
        assert proved == classified
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


@pytest.mark.parametrize("m", (5, 7))
def test_extensions_carry_the_deviation_map_of_their_columns(m, groups_by_m):
    cfg = rp.ModulusConfig(m)
    prefixes = [g.representative.columns for g in groups_by_m[m]]
    extensions = rp.lockstep_extensions(cfg, prefixes, 1024)
    singles = [greedy_or_none(cfg, cols, 1024) for cols in prefixes]
    for ext in (*extensions, *singles):
        if ext is None:
            continue
        scanned = rp.Partition.from_columns(cfg, ext.columns)
        assert ext.deviations == scanned.deviations
        assert list(ext.deviations.items()) == [(n, col) for n, _, col in diff_scan(m, ext.columns, 1024)]
        assert ext == scanned and hash(ext) == hash(scanned)
        assert repr(ext) == repr(scanned) == f"Partition(cfg={cfg!r}, horizon=1024, deviations={ext.deviations!r})"


@settings(max_examples=40, deadline=None)
@short_horizons
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
@short_horizons
@given(prefix_subsets(), st.integers(5, 300))
def test_engine_matches_dense_reference_on_subsets(subset, horizon):
    m, prefixes = subset
    assert_matches_dense(rp.ModulusConfig(m), prefixes, horizon, every_greedy=True)


@pytest.mark.parametrize("m", (5, 7, 9))
def test_event_stream_resumes_from_its_last_state(m, groups_by_m):
    """The state _events yields is a builder's whole frontier: resuming from it loses nothing.

    Each representative and the standard head is run to H = 64, then run on
    from the last state yielded (the start state when none was) to 256.  The
    columns filled equal greedy_extend's deviations past the prefix, and a
    dying prefix raises the same error on both paths.
    """
    cfg = rp.ModulusConfig(m)
    dead = 0
    for cols in [g.representative.columns for g in groups_by_m[m]] + [std_head(cfg)]:
        (dplus,), (dminus,) = greedy._start_states(cfg, [cols])
        state, filled = (len(cols), dplus, dminus), {}
        try:
            for until in (64, 256):
                for n, col, dplus, dminus in greedy._events(m, cfg.t, *state, until):
                    state = n, dplus, dminus
                    filled[n] = col
        except (rp.CollisionError, rp.NegativeError) as e:
            got = type(e), e.rank, e.value
        else:
            got = filled
        try:
            ext = rp.greedy_extend(cfg, cols, 256)
        except (rp.CollisionError, rp.NegativeError) as e:
            want = type(e), e.rank, e.value
            dead += 1
        else:
            want = {n: col for n, col in ext.deviations.items() if n > len(cols)}
        assert got == want, cols
    assert dead == (10 if m == 7 else 0)


def test_greedy_extend_matches_dense_builder_from_any_prefix_length():
    cfg = rp.ModulusConfig(5)
    head = rp.enumerate_heads(cfg)[7].columns
    for cut in range(6):
        b = PartitionBuilder(cfg, head[:cut])
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
        with pytest.raises(rp.CollisionError) as exc:
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


@pytest.mark.parametrize(
    "m, dplus, dminus, value",
    ((5, {23, 24, 26}, {25, 30, 35}, 40), (7, {32, 34}, {42, 49}, 56)),
)
def test_forced_entry_collides_with_a_standard_multiple_still_in_use(m, dplus, dminus, value):
    """The one way to die besides D+: the forced entry is a multiple below m*n the builder has used."""
    cfg = rp.ModulusConfig(m)
    dplus, dminus = frozenset(dplus), frozenset(dminus)
    assert greedy._next_event(m, cfg.t, 9, dplus, dminus) == 10
    check_event_bound(cfg, 9, dplus, dminus)
    with pytest.raises(rp.CollisionError) as exc:
        greedy._dense_step(m, cfg.t, 9, dplus, dminus)
    assert (exc.value.rank, exc.value.value) == (10, value)
    assert value not in dplus | dminus and value % m == 0 and value < m * 9


# --- the lemma of greedy._dense_step ------------------------------------------

def forced_floor(t: int, n: int) -> int:
    """The least forced entry of rank n+1: S(n+1) less the t largest picks possible."""
    return (t + 1) * n + t * (n // 2) + t


@pytest.mark.parametrize("m", (5, 7, 9, 11))
def test_forced_entry_clears_the_picks_on_every_walk(m, groups_by_m):
    """Every step of every representative and the standard head, walked to H = 1024."""
    cfg = rp.ModulusConfig(m)
    dead = 0
    for cols in [g.representative.columns for g in groups_by_m[m]] + [std_head(cfg)]:
        (dplus,), (dminus,) = greedy._start_states(cfg, [cols])
        try:
            for rank, col, _, _ in greedy._events(m, cfg.t, len(cols), dplus, dminus, 1024):
                assert col[-1] >= forced_floor(cfg.t, rank - 1) > max(col[:-1]), (cols, rank)
        except rp.CollisionError as e:
            assert e.value >= forced_floor(cfg.t, e.rank - 1)
            dead += 1
    assert dead == {7: 10, 11: 75}.get(m, 0)  # every one collides with D+ at rank 7


@settings(max_examples=300, deadline=None)
@given(synthetic_states())
def test_forced_entry_clears_the_picks_on_synthetic_states(state):
    """A step returns a fresh column above the bound, or collides with D+ or a used standard multiple."""
    cfg, n, dplus, dminus = state
    m, t = cfg.m, cfg.t
    used = (std_used_by(cfg, n) | dplus) - dminus
    try:
        col, _, _ = greedy._dense_step(m, t, n, dplus, dminus)
    except rp.CollisionError as e:
        assert e.rank == n + 1 and e.value >= forced_floor(t, n)
        assert e.value in dplus or (e.value in used and e.value % m == 0 and e.value < m * n)
    else:
        assert col[-1] >= forced_floor(t, n) > max(col[:-1])
        assert used.isdisjoint(col)
