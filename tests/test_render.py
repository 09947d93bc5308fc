"""Output formatting for tables, reports, and check summaries."""
from __future__ import annotations

import dataclasses
import json

import pytest

import rankpart as rp
from rankpart.checks import CheckResult
from rankpart.render import render_census, render_checks, render_partition

M5 = rp.ModulusConfig(5)


@pytest.fixture(scope="module")
def std():
    return rp.standard_partition(M5, 32)


def test_text_table_is_rank_major(std):
    out = render_partition(std, 3, "text")
    assert out == "1 2 0\n3 4 5\n6 7 10\n"


def test_csv_is_set_major(std):
    out = render_partition(std, 4, "csv")
    lines = out.splitlines()
    assert lines[0] == "set,rank,value"
    assert len(lines) == 1 + 3 * 4
    assert lines[1] == "1,1,1"
    assert "3,1,0" in lines
    assert "2,3,7" in lines


def test_json_lists_each_set(std):
    doc = json.loads(render_partition(std, 5, "json"))
    assert set(doc) == {"m", "columns_shown", "sets"}
    assert doc["m"] == 5
    assert doc["sets"][2] == [0, 5, 10, 15, 20]
    assert doc["sets"][0] == [1, 3, 6, 8, 11]


def test_shown_bounds(std):
    with pytest.raises(ValueError):
        render_partition(std, 0, "text")
    with pytest.raises(ValueError):
        render_partition(std, 33, "text")
    with pytest.raises(ValueError):
        render_partition(std, 3, "xml")


def test_census_json_object_and_list():
    single = rp.run_census(5, 128)
    doc = json.loads(render_census([single]))
    assert doc["heads"] == 36
    both = rp.run_census_both(5, 128)
    docs = json.loads(render_census(list(both)))
    assert [d["protocol"] for d in docs] == [
        "exclude-standard", "include-standard"]


def encoded(reports) -> str:
    docs = [r.to_dict() for r in reports]
    return json.dumps(docs[0] if len(docs) == 1 else docs, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("m", [5, 7, 9, 11, 13])
@pytest.mark.parametrize("horizon", [16, 64])
def test_census_json_equals_the_standard_indent_encoder(m, horizon):
    both = list(rp.run_census_both(m, horizon))
    # m = 5, 9 and 13 have no non-extendable head; no census has an empty standard class, so copies give one
    emptied = [dataclasses.replace(r, standard_equivalent=(), class_members=()) for r in both]
    for reports in ([both[0]], [both[1]], both, emptied, emptied[:1]):
        assert render_census(reports) == encoded(reports)
    assert (m == 5) == (both[0].partition_numbers is not None)
    assert all((not r.non_extendable) == (m in (5, 9, 13)) for r in both)


def test_census_json_writer_handles_every_kind_of_value():
    report = dataclasses.replace(
        rp.run_census(5, 16), protocol="caf\u00e9 \"q\"\n", group_members=((), (1,), (2, 3)),
        partition_numbers=(), decompositions=(0, 1, 2),
    )
    doc = report.to_dict()
    assert doc["partition_numbers"] == {} and doc["group_members"][0] == []
    assert render_census([report]) == encoded([report])
    assert render_census([]) == "[]\n" == encoded([])


def test_census_csv_flattens_fields():
    report = rp.run_census(5, 128)
    out = render_census([report], "csv")
    lines = out.splitlines()
    assert lines[0] == "protocol,field,value"
    assert 'exclude-standard,heads,"36"' in lines
    assert any(line.startswith("exclude-standard,standard_equivalent,") for line in lines)
    with pytest.raises(ValueError):
        render_census([report], "toml")


def test_check_lines_and_summary():
    ok = CheckResult("alpha", True, "fine")
    bad = CheckResult("beta", False, "broken at rank 3")
    assert render_checks([ok, ok]) == (
        "PASS alpha: fine\nPASS alpha: fine\nall 2 checks passed\n")
    out = render_checks([ok, bad])
    assert "FAIL beta: broken at rank 3" in out
    assert out.endswith("1/2 checks passed\n")
