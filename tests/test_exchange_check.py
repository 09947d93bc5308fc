"""The reshuffle check's exchange test: family outputs checked against the validated standard partition.

A family output that only moves the standard partition's elements between
slots passes without a validate() of its own; anything else goes to the full
validate(), whose message the check reports.
"""
from __future__ import annotations

import pytest

import rankpart as rp
import rankpart.checks as checks
from rankpart.checks import CheckResult, run_verification
from rankpart.errors import InvariantError


def reshuffle_result():
    """The reshuffle-identities result of the m = 5 battery at H = 256."""
    (result,) = [r for r in run_verification(5, 256) if r.name == "reshuffle-identities"]
    return result


def alter_family(monkeypatch, family, alter):
    """Make the battery pass the named family's output through alter(p, out); other families build as before."""
    build = checks.reshuffle_family

    def altered(p, name, k_max):
        return alter(p, build(p, name, k_max)) if name == family else build(p, name, k_max)

    monkeypatch.setattr(checks, "reshuffle_family", altered)


# each alteration replaces columns of a family's output at H = 256 and keeps
# every column sum, so only the exchange test's element, width and
# last-column rules can turn it away
@pytest.mark.parametrize("family, changes, detail", [
    # (a) 71 twice in rank 20, an exchanged rank
    ("i", [(20, (71, 49, 72), (71, 71, 50))], "element 71 appears more than once (column 20)"),
    # (b) 832 and 836 are no elements of the standard partition
    ("i", [(251, (418, 835, 1250), (832, 835, 836))], "prefix incomplete: 418 missing below 638"),
    # (c) the last column
    ("ii", [(256, (638, 639, 1275), (637, 640, 1275))], "element 637 appears more than once (column 256)"),
    # (d) rank 30 is exchanged by neither family
    ("ii", [(30, (73, 74, 145), (72, 75, 145))], "element 72 appears more than once (column 30)"),
    # 3 + 4 = 7 moves ranks 2 and 3 off width 3 with the same elements and sums
    ("i", [(2, (3, 4, 5), (7, 5)), (3, (6, 7, 10), (6, 3, 4, 10))], "column 2 has 2 entries, expected 3"),
])
def test_reshuffle_check_turns_away_what_is_no_exchange(monkeypatch, family, changes, detail):
    altered = []

    def alter(p, out):
        cols = list(out.columns)
        for rank, old, new in changes:
            assert cols[rank - 1] == old and sum(new) == sum(old)
            cols[rank - 1] = new
        altered.append(rp.Partition.from_columns(p.cfg, tuple(cols)))
        return altered[-1]

    alter_family(monkeypatch, family, alter)
    result = reshuffle_result()
    (q,) = altered
    assert rp.broken_ranks(q) == ()
    with pytest.raises(InvariantError) as e:
        q.validate()
    assert str(e.value) == detail
    assert result == CheckResult("reshuffle-identities", False, detail)


def test_reshuffle_check_names_a_sum_broken_inside_the_exchanged_ranks(monkeypatch):
    # the exchanged ranks keep exactly their elements, so only the sum rule turns this away
    def moved(p, out):
        return rp.swap_pair(out, rp.SwapSpec((1, 20), (1, 29)))[0]

    alter_family(monkeypatch, "i", moved)
    result = reshuffle_result()
    assert result == CheckResult("reshuffle-identities", False, "column 20 sums to 169, schedule wants 192")


def count_family_validations(monkeypatch, alter=None):
    """Wrap the family builder and Partition.validate; returns (outputs, partitions validated)."""
    outputs, calls = [], []
    family = checks.reshuffle_family

    def build(p, name, k_max):
        outputs.append(family(p, name, k_max) if alter is None else alter(family(p, name, k_max)))
        return outputs[-1]

    monkeypatch.setattr(checks, "reshuffle_family", build)
    validate = rp.Partition.validate

    def counting(self, *args, **kwargs):
        calls.append(self)
        return validate(self, *args, **kwargs)

    monkeypatch.setattr(rp.Partition, "validate", counting)
    return outputs, calls


@pytest.mark.parametrize("inject, validated", [(None, 0), ("swap", 2)])
def test_reshuffle_check_validates_outputs_only_without_a_validated_base(monkeypatch, inject, validated):
    # without an injection the battery's standard partition passed its own
    # scans, so both family outputs are checked as exchanges of it
    outputs, calls = count_family_validations(monkeypatch)
    run_verification(5, 4096, inject=inject)
    assert len(outputs) == 2
    assert sum(any(p is q for p in calls) for q in outputs) == validated


def test_a_changed_last_column_goes_to_the_full_validation(monkeypatch):
    # permuting the last column keeps a valid partition, but the last column
    # bounds the gap test, so the exchange test leaves it to validate()
    def permuted(q):
        *cols, (x, y, z) = q.columns
        return rp.Partition.from_columns(q.cfg, (*cols, (y, x, z)))

    outputs, calls = count_family_validations(monkeypatch, permuted)
    result = reshuffle_result()
    assert result.passed
    assert [any(p is q for p in calls) for q in outputs] == [True, True]
