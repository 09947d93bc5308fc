"""Library calls leave no reference cycles: what a call allocates goes when it returns.

Each case calls once to warm the caches, then calls again with the cyclic
collector off and drops the result; `gc.collect()` must then find nothing.
An object only the collector can free is one a reference cycle kept alive
past the call: the head search's self-referring closures, say, or a dead
builder's error whose traceback holds the frames of the lockstep run and
of every caller.
"""
from __future__ import annotations

import gc
import weakref

import pytest

import rankpart as rp
import rankpart.greedy as greedy
from rankpart.checks import run_verification

M5, M7, M9, M11 = (rp.ModulusConfig(m) for m in (5, 7, 9, 11))


def cyclic_garbage(call) -> int:
    """Objects the cyclic collector finds after one warm call with the collector off."""
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def representatives(cfg: rp.ModulusConfig) -> list:
    return [g.representative.columns for g in rp.head_groups(cfg)[1]]


@pytest.fixture(scope="module")
def heads7() -> list[rp.Head]:
    return rp.enumerate_heads_general(M7)


@pytest.fixture(scope="module")
def reps11() -> list:
    return representatives(M11)


@pytest.fixture(scope="module")
def dead11() -> rp.Head:
    """An m=11 head whose greedy extension hits a forced collision."""
    return rp.head_by_id(M11, rp.run_census(11, 64).non_extendable[0])


def first_event_of_a_live_representative(cfg: rp.ModulusConfig) -> None:
    """Open the event stream of the first representative off the standard whose class lives; close it after one event."""
    reps = representatives(cfg)
    plus, minus = greedy._start_states(cfg, reps)
    i = next(i for i, root in enumerate(rp.lockstep_classes(cfg, reps, 64)) if root is not None and plus[i])
    stream = greedy._events(cfg.m, cfg.t, len(reps[i]), plus[i], minus[i], 4096)
    next(stream)
    stream.close()


CALLS = {
    "run_census(11, 4096)": lambda: rp.run_census(11, 4096),
    "run_census_both(7, 64)": lambda: rp.run_census_both(7, 64),
    "run_verification(7, 4096)": lambda: run_verification(7, 4096),
    "run_verification(5, 4096)": lambda: run_verification(5, 4096),
    "lockstep_extensions of the m=9 representatives at 1024": (
        lambda: rp.lockstep_extensions(M9, representatives(M9), 1024)
    ),
    "head_by_id(m=9, 1737)": lambda: rp.head_by_id(M9, 1737),
    "enumerate_heads_general(m=7)": lambda: rp.enumerate_heads_general(M7),
    "sum_decompositions(43, 3, 8)": lambda: rp.sum_decompositions(43, 3, 8),
    "greedy_extend of m=5 head 8 at 10**18": lambda: rp.greedy_extend(M5, rp.head_by_id(M5, 8).columns, 10**18),
    "an m=11 event stream closed after its first event": lambda: first_event_of_a_live_representative(M11),
}


@pytest.mark.parametrize("name", CALLS)
def test_a_call_leaves_no_cyclic_garbage(name):
    assert cyclic_garbage(CALLS[name]) == 0


def test_a_failed_extension_leaves_no_cyclic_garbage(dead11):
    def extend():
        with pytest.raises((rp.CollisionError, rp.NegativeError)):
            rp.greedy_extend(M11, dead11.columns, 64)

    assert cyclic_garbage(extend) == 0


def test_lockstep_runs_with_dead_builders_leave_no_cyclic_garbage(reps11):
    assert cyclic_garbage(lambda: rp.lockstep_extensions(M11, reps11, 1024)) == 0
    assert cyclic_garbage(lambda: rp.lockstep_classes(M11, reps11, 1024)) == 0


def test_calls_on_a_callers_heads_leave_no_cyclic_garbage(heads7):
    assert cyclic_garbage(lambda: rp.dedup_heads(heads7)) == 0
    assert cyclic_garbage(lambda: rp.standard_equivalent_heads(heads7, 64)) == 0


def test_a_census_frees_its_callers_locals():
    class Marker:
        pass

    def caller() -> weakref.ref:
        marker = Marker()
        rp.run_census(11, 64)  # has dead builders, whose errors once held every calling frame
        return weakref.ref(marker)

    caller()
    gc.collect()
    gc.disable()
    try:
        assert caller()() is None
    finally:
        gc.enable()
