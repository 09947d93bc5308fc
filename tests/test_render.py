"""Output formatting for tables, reports, and check summaries."""
from __future__ import annotations

import dataclasses
import enum
import json
from array import array

import pytest
from oracles import census_csv, partition_table_by_column

import rankpart as rp
from rankpart.checks import CheckResult
from rankpart.errors import HorizonError
from rankpart.render import _BLOCK, _indented, partition_pieces, render_census, render_checks, render_partition

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


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_table_pieces_are_read_as_they_are_written(fmt):
    p = rp.standard_partition(M5, 10**18)
    pieces = partition_pieces(p, 10**15, fmt)  # far too many ranks to hold at once
    for _ in range(4):
        assert len(next(pieces)) < 30 * _BLOCK  # a piece covers at most _BLOCK ranks
    with pytest.raises(ValueError):
        next(partition_pieces(p, 10**15, "xml"))


# The per-set reader, Partition.set_run, against whole columns.  Four greedy
# extensions at H = 10**18 whose maps reach past rank 2**58, each read
# entry by entry from its map, and an m=5 reshuffle whose map is longer
# than a block, read rank by rank.
def _greedy(m: int, head_id: int) -> rp.Partition:
    cfg = rp.ModulusConfig(m)
    return rp.greedy_extend(cfg, rp.head_by_id(cfg, head_id).columns, 10**18)


READER_PARTITIONS = {
    "m5-head7": lambda: _greedy(5, 7),
    "m7-head40": lambda: _greedy(7, 40),
    "m9-head100": lambda: _greedy(9, 100),
    "m13-head50": lambda: _greedy(13, 50),
    "m5-family-ii": lambda: rp.reshuffle_family(rp.standard_partition(M5, 9000), "ii", 1400),
}


@pytest.fixture(scope="module", params=READER_PARTITIONS)
def reader_partition(request):
    return READER_PARTITIONS[request.param]()


def test_set_run_reads_the_entries_of_whole_columns(reader_partition):
    p = reader_partition
    far = sorted(p.deviations)[-3:]  # map ranks of both parities
    starts = {1, 2, 3, 4, _BLOCK - 1, _BLOCK, _BLOCK + 1, p.horizon - _BLOCK, p.horizon - _BLOCK - 1}
    starts.update(lo for n in far for lo in (n - 2000, n - 1, n))
    for lo in sorted(starts):
        for ranks in (range(lo, lo + k) for k in (1, 2, 3, _BLOCK + 1) if lo + k - 1 <= p.horizon):
            cols = list(map(p.column, ranks))
            for i in range(1, p.cfg.set_count + 1):
                assert p.set_run(i, ranks) == [col[i - 1] for col in cols], (i, ranks)


def test_set_elements_is_the_reader_over_the_horizon():
    cfg = rp.ModulusConfig(13)
    for p in (
        READER_PARTITIONS["m5-family-ii"](),
        rp.greedy_extend(cfg, rp.head_by_id(cfg, 50).columns, 4097),
        rp.standard_partition(cfg, 4096),
    ):
        cols = p.columns
        for i in range(1, p.cfg.set_count + 1):
            assert p.set_elements(i) == tuple(col[i - 1] for col in cols)


def test_set_run_bounds():
    p = rp.standard_partition(M5, 10)
    assert p.set_run(3, range(1, 1)) == [] and p.set_run(3, range(10, 11)) == [45]
    for ranks in (range(0, 3), range(9, 12)):
        with pytest.raises(HorizonError):
            p.set_run(1, ranks)
    for i in (0, 4):
        with pytest.raises(ValueError):
            p.set_run(i, range(1, 3))


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_set_tables_equal_the_per_column_writer(reader_partition, fmt):
    p = reader_partition
    for shown in (1, 2, 3, 46, _BLOCK - 1, _BLOCK, _BLOCK + 1, 9000):
        out = render_partition(p, shown, fmt)
        assert out == partition_table_by_column(p, shown, fmt), shown
    if fmt == "json":
        assert json.loads(out)["sets"] == [[col[i] for col in map(p.column, range(1, 9001))] for i in range(p.cfg.set_count)]


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
        assert first_difference(render_census(reports), encoded(reports)) is None
    assert (m == 5) == (both[0].partition_numbers is not None)
    assert all((not r.non_extendable) == (m in (5, 9, 13)) for r in both)


def test_census_json_writer_handles_every_kind_of_value():
    report = dataclasses.replace(
        rp.run_census(5, 16), protocol="caf\u00e9 \"q\"\n", group_members=((), (1,), (2, 3)),
        partition_numbers=(), decompositions=(0, 1, 2),
    )
    doc = report.to_dict()
    assert doc["partition_numbers"] == {} and doc["group_members"][0] == []
    assert first_difference(render_census([report]), encoded([report])) is None
    assert render_census([]) == "[]\n" == encoded([])


class Rank(enum.IntEnum):
    FIRST = 1
    SECOND = 2


@pytest.mark.parametrize("value", [
    array("q"),
    array("q", [7]),
    array("q", [-3, -(2**63), 0, 2**31, 2**63 - 1]),
    [],
    [7],
    (-1, 2**31),
    [1, True, 3],
    (Rank.FIRST, 2),
    [array("q", [1]), array("q"), (2, 3), [False]],
    {"b": array("q", [2**32, -5]), "a": [Rank.SECOND]},
], ids=repr)
def test_id_sequences_are_written_as_the_standard_indent_encoder_writes_them(value):
    assert "".join(_indented(value)) == json.dumps(value, sort_keys=True, indent=2, default=list)


def first_difference(a: str, b: str) -> tuple[int, str, str] | None:
    """Where two texts part, with a little of each around it; None when they are equal.

    A census text runs to megabytes (2.75 MB of JSON at m = 13), and the
    CSV puts all head ids on one line: too long for pytest's diff, which
    takes minutes on them when they differ.
    """
    if a == b:
        return None
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return i, a[max(i - 30, 0):i + 30], b[max(i - 30, 0):i + 30]


@pytest.mark.parametrize("m", [5, 7, 9, 11, 13])
@pytest.mark.parametrize("horizon", [16, 64])
def test_census_csv_equals_the_per_id_writer(m, horizon):
    both = list(rp.run_census_both(m, horizon))
    for reports in ([both[0]], [both[1]], both):
        assert first_difference(render_census(reports, "csv"), census_csv(reports)) is None


def test_census_csv_flattens_fields():
    report = rp.run_census(5, 128)
    out = render_census([report], "csv")
    lines = out.splitlines()
    assert lines[0] == "protocol,field,value"
    assert 'exclude-standard,heads,"36"' in lines
    assert any(line.startswith("exclude-standard,standard_equivalent,") for line in lines)
    with pytest.raises(ValueError):
        render_census([report], "toml")


def test_census_output_is_the_same_from_id_arrays_and_id_tuples():
    for m in (5, 7):
        both = list(rp.run_census_both(m, 64))
        tuples = [
            dataclasses.replace(r, group_members=tuple(tuple(ids) for ids in r.group_members))
            for r in both
        ]
        for fmt in ("csv", "json"):
            assert first_difference(render_census(both, fmt), render_census(tuples, fmt)) is None
            assert first_difference(render_census(both[:1], fmt), render_census(tuples[:1], fmt)) is None


def test_check_lines_and_summary():
    ok = CheckResult("alpha", True, "fine")
    bad = CheckResult("beta", False, "broken at rank 3")
    assert render_checks([ok, ok]) == (
        "PASS alpha: fine\nPASS alpha: fine\nall 2 checks passed\n")
    out = render_checks([ok, bad])
    assert "FAIL beta: broken at rank 3" in out
    assert out.endswith("1/2 checks passed\n")
