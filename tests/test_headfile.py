"""Head file parsing, completion, and serialization."""
from __future__ import annotations

import pytest

import rankpart as rp
from rankpart.errors import InvariantError, ParseError
from rankpart.cli import main
from rankpart.headfile import parse_head_file, serialize_head

FIG_TEXT = """\
# five columns, one entry left for the schedule to fill
0 1 2
3 4 5

6 7 10
8 11 13
9 14 _
"""


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content)
    return path


def test_text_parse_completes_blank(tmp_path):
    head = parse_head_file(write(tmp_path, "h.txt", FIG_TEXT))
    assert head.cfg.m == 5
    assert head.columns[3] == (8, 11, 13)
    assert head.columns[4] == (9, 14, 20)


def test_columns_are_canonically_sorted(tmp_path):
    head = parse_head_file(write(tmp_path, "h.txt", "2 0 1\n5 3 4\n"))
    assert head.columns == ((0, 1, 2), (3, 4, 5))


def test_bad_token_reports_position(tmp_path):
    path = write(tmp_path, "h.txt", "0 1 2\n3 x 5\n")
    with pytest.raises(ParseError) as exc:
        parse_head_file(path)
    assert exc.value.line == 2
    assert exc.value.column == 2
    assert "line 2" in str(exc.value)


def test_ragged_line_rejected(tmp_path):
    path = write(tmp_path, "h.txt", "0 1 2\n3 4\n")
    with pytest.raises(ParseError) as exc:
        parse_head_file(path)
    assert exc.value.line == 2


def test_empty_file_rejected(tmp_path):
    with pytest.raises(ParseError):
        parse_head_file(write(tmp_path, "h.txt", "# nothing\n\n"))


def test_narrow_columns_rejected(tmp_path):
    with pytest.raises(ParseError):
        parse_head_file(write(tmp_path, "h.txt", "3\n12\n"))


def test_json_parse_with_null(tmp_path):
    doc = '{"m": 5, "columns": [[0, 1, 2], [3, 4, 5], [6, 7, 10], [8, 11, 13], [9, 14, null]]}'
    head = parse_head_file(write(tmp_path, "h.json", doc))
    assert head.columns[4] == (9, 14, 20)


def test_json_m_mismatch(tmp_path):
    path = write(tmp_path, "h.json", '{"m": 7, "columns": [[0, 1, 2]]}')
    with pytest.raises(ParseError):
        parse_head_file(path)


def test_json_syntax_error_reports_position(tmp_path):
    path = write(tmp_path, "h.json", '{"columns": [[0, 1, 2],]}')
    with pytest.raises(ParseError) as exc:
        parse_head_file(path)
    assert exc.value.line is not None


def test_json_shape_errors(tmp_path):
    for doc in ('{"m": 5}', '{"columns": []}', '{"columns": [[0, 1, "a"]]}',
                '{"columns": [[0, 1, 2], [3, 4]]}', '{"m": "five", "columns": [[0, 1, 2]]}'):
        with pytest.raises(ParseError):
            parse_head_file(write(tmp_path, "h.json", doc))


def test_two_blanks_rejected(tmp_path):
    path = write(tmp_path, "h.txt", "0 1 2\n3 _ _\n")
    with pytest.raises(InvariantError):
        parse_head_file(path)


def test_inconsistent_sums_rejected(tmp_path):
    path = write(tmp_path, "h.txt", "0 1 2\n3 4 6\n")
    with pytest.raises(InvariantError):
        parse_head_file(path)


def test_repeated_value_rejected(tmp_path):
    path = write(tmp_path, "h.txt", "0 1 2\n2 4 6\n")
    with pytest.raises(InvariantError):
        parse_head_file(path)


def test_serialize_round_trip(tmp_path, heads36):
    head = heads36[7]
    for fmt, name in (("text", "h.txt"), ("json", "h.json")):
        content = serialize_head(head, fmt)
        again = parse_head_file(write(tmp_path, name, content))
        assert again.columns == head.columns
        assert again.cfg.m == 5


def test_serialize_unknown_format(heads36):
    with pytest.raises(ValueError):
        serialize_head(heads36[0], "yaml")


@pytest.mark.parametrize("doc, message", [
    ('{"columns": [[true, 2, 0], [3, 4, 5], [6, 7, 10], [8, 9, 15], [11, 12, 20]]}',
     "non-integer entry True"),
    ('{"m": true, "columns": [[1, 2, 0], [3, 4, 5], [6, 7, 10], [8, 9, 15], [11, 12, 20]]}',
     "'m' must be an integer"),
], ids=["entry", "m"])
def test_json_booleans_rejected(tmp_path, capsys, doc, message):
    # JSON true loads as a bool, which is an int to isinstance
    path = write(tmp_path, "b.json", doc)
    with pytest.raises(ParseError, match=message):
        parse_head_file(path)
    assert main(["generate", "--head", str(path), "--horizon", "8", "--show", "3"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("token", ["1_0", "+10", "\u0661\u0660"], ids=["underscore", "plus", "arabic-indic"])
def test_text_entries_are_plain_decimal(tmp_path, capsys, token):
    # int() reads each of these as 10
    path = write(tmp_path, "h.txt", f"0 1 2\n3 4 5\n6 7 {token}\n8 9 15\n11 12 20\n")
    with pytest.raises(ParseError) as exc:
        parse_head_file(path)
    assert (exc.value.line, exc.value.column) == (3, 3)
    assert main(["generate", "--head", str(path), "--horizon", "8", "--show", "3"]) == 2
    assert capsys.readouterr().out == ""


def test_negative_text_entry_reaches_validation(tmp_path):
    with pytest.raises(InvariantError, match="negative"):
        parse_head_file(write(tmp_path, "h.txt", "0 1 2\n-3 4 11\n"))
