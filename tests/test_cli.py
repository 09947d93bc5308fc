"""Command line behaviour: outputs, formats, and exit codes."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rankpart.cli import main

FIG_TEXT = "0 1 2\n3 4 5\n6 7 10\n8 11 13\n9 14 _\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_standard_text(capsys):
    code, out, err = run(capsys, "generate", "--horizon", "8", "--show", "3")
    assert code == 0 and err == ""
    assert out == "1 2 0\n3 4 5\n6 7 10\n"


def test_generate_head_by_id_csv(capsys):
    code, out, _ = run(capsys, "generate", "--head", "8", "--horizon", "16",
                       "--show", "8", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "set,rank,value"
    assert "3,7,30" in lines
    assert "2,5,14" in lines


def test_generate_seven_set_table(capsys):
    code, out, _ = run(capsys, "generate", "--m", "7", "--horizon", "8",
                       "--show", "2")
    assert code == 0
    assert out == "1 2 3 0\n4 5 6 7\n"


def test_generate_from_head_file(capsys, tmp_path):
    path = tmp_path / "head.txt"
    path.write_text(FIG_TEXT)
    code, out, _ = run(capsys, "generate", "--head", str(path),
                       "--horizon", "8", "--show", "7")
    assert code == 0
    rows = out.splitlines()
    assert rows[3] == "8 11 13"
    assert rows[5] == "12 15 25"
    assert rows[6] == "16 17 30"


def test_generate_json(capsys):
    code, out, _ = run(capsys, "generate", "--horizon", "8", "--show", "4",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["columns_shown"] == 4


def test_generate_rejects_out_of_range_id(capsys):
    code, _, err = run(capsys, "generate", "--head", "99", "--horizon", "8")
    assert code == 2
    assert "99" in err


def test_generate_rejects_modulus_mismatch(capsys, tmp_path):
    path = tmp_path / "head.txt"
    path.write_text(FIG_TEXT)
    code, _, err = run(capsys, "generate", "--m", "7", "--head", str(path),
                       "--horizon", "8")
    assert code == 2 and "m" in err


def test_generate_rejects_show_beyond_horizon(capsys):
    code, _, err = run(capsys, "generate", "--horizon", "8", "--show", "9")
    assert code == 2 and err.startswith("error:")


GUARDED = {
    "generate": ("generate",),
    "reshuffle": ("reshuffle", "--family", "i", "--kmax", "1"),
}
BAD_SIZES = {
    "show-zero": ("--horizon", "12", "--show", "0"),
    "show-beyond-horizon": ("--horizon", "12", "--show", "13"),
    "horizon-zero": ("--horizon", "0", "--show", "1"),
}


@pytest.mark.parametrize("sizes", BAD_SIZES)
@pytest.mark.parametrize("command", GUARDED)
def test_table_commands_reject_bad_sizes(capsys, command, sizes):
    code, out, err = run(capsys, *GUARDED[command], *BAD_SIZES[sizes])
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


def test_census_json(capsys):
    code, out, _ = run(capsys, "census", "--m", "5", "--horizon", "256")
    assert code == 0
    doc = json.loads(out)
    assert doc["heads"] == 36
    assert doc["classes"] == 8
    assert doc["dedup"] == 20


def test_census_both_protocols(capsys):
    code, out, _ = run(capsys, "census", "--m", "5", "--horizon", "256",
                       "--both-protocols")
    assert code == 0
    docs = json.loads(out)
    assert len(docs) == 2
    assert {d["protocol"] for d in docs} == {
        "exclude-standard", "include-standard"}


def test_census_into_a_closed_pipe_ends_quietly():
    """`rankpart census --m 13 --horizon 64 | head -1`: exit 1, nothing on stderr.

    The 2.7 MB report fills the pipe, so the census is still writing when
    the reader closes it after one line.
    """
    with subprocess.Popen(
        [sys.executable, "-m", "rankpart.cli", "census", "--m", "13", "--horizon", "64"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
    ) as proc:
        assert proc.stdout.readline() == "{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err
    assert err == ""


def test_census_budget_exhaustion(capsys, monkeypatch):
    monkeypatch.setenv("RANKPART_NODE_BUDGET", "10")
    code, _, err = run(capsys, "census", "--m", "7", "--horizon", "64")
    assert code == 3
    assert "budget" in err


def test_bad_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("RANKPART_NODE_BUDGET", "lots")
    code, _, err = run(capsys, "census", "--m", "5", "--horizon", "64")
    assert code == 2


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--horizon", "256")
    assert code == 0
    assert out.endswith("all 5 checks passed\n")
    assert out.count("PASS") == 5


def test_verify_detects_injected_fault(capsys):
    code, out, _ = run(capsys, "verify", "--horizon", "256",
                       "--inject", "sum-schedule")
    assert code == 1
    assert "FAIL sum-schedule" in out


def test_diff_output(capsys):
    code, out, _ = run(capsys, "diff", "--head", "8", "--horizon", "128")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "4 differing ranks through 128"
    assert any(line.startswith("rank 4:") for line in lines)


def test_diff_lexicographic_first_head(capsys):
    # head 1 stores the standard content with rank 1 in sorted order
    code, out, _ = run(capsys, "diff", "--head", "1", "--horizon", "64")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rank 1: 1 2 0 -> 0 1 2"
    assert lines[-1] == "1 differing ranks through 64"


def test_reshuffle_family_ii(capsys):
    code, out, _ = run(capsys, "reshuffle", "--family", "ii", "--kmax", "1",
                       "--horizon", "12", "--show", "4")
    assert code == 0
    assert out == "1 2 0\n3 4 5\n6 8 9\n7 10 15\n"


def test_reshuffle_family_i(capsys):
    code, out, _ = run(capsys, "reshuffle", "--family", "i", "--kmax", "1",
                       "--horizon", "12", "--show", "5")
    assert code == 0
    assert out.splitlines()[3] == "11 9 12"
    assert out.splitlines()[4] == "8 15 20"


def test_reshuffle_requires_five_sets(capsys):
    code, _, err = run(capsys, "reshuffle", "--m", "7", "--family", "i",
                       "--kmax", "1", "--horizon", "12")
    assert code == 2
    assert "reshuffle families are defined for m=5 only" in err


def test_reshuffle_kmax_beyond_horizon(capsys):
    code, _, err = run(capsys, "reshuffle", "--family", "i", "--kmax", "5",
                       "--horizon", "12", "--show", "4")
    assert code == 2
    assert "horizon" in err


def test_argparse_errors_exit_2(capsys):
    assert run(capsys, "generate", "--format", "xml")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "frobnicate")[0] == 2


def test_parse_error_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1 2\n3 x 5\n")
    code, _, err = run(capsys, "generate", "--head", str(path),
                       "--horizon", "8")
    assert code == 2
    assert "line 2" in err


def test_missing_head_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "generate", "--head",
                       str(tmp_path / "absent.txt"), "--horizon", "8")
    assert code == 2


@pytest.mark.parametrize("command", ["generate", "diff"])
def test_head_path_that_is_a_directory_exits_2(capsys, tmp_path, command):
    code, out, err = run(capsys, command, "--head", str(tmp_path), "--horizon", "8")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read head file {tmp_path}: ")


@pytest.mark.skipif(os.geteuid() == 0, reason="root reads a file of mode 000")
@pytest.mark.parametrize("command", ["generate", "diff"])
def test_head_file_without_read_permission_exits_2(capsys, tmp_path, command):
    path = tmp_path / "head.txt"
    path.write_text(FIG_TEXT)
    path.chmod(0)
    code, out, err = run(capsys, command, "--head", str(path), "--horizon", "8")
    assert (code, out, err) == (2, "", f"error: cannot read head file {path}: Permission denied\n")


@pytest.mark.parametrize("command", ["generate", "diff"])
def test_head_file_read_error_exits_2(capsys, tmp_path, monkeypatch, command):
    # the mode-000 case above, for a process that may read every file
    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    path = tmp_path / "head.txt"
    path.write_text(FIG_TEXT)
    monkeypatch.setattr(Path, "read_text", refuse)
    code, out, err = run(capsys, command, "--head", str(path), "--horizon", "8")
    assert (code, out, err) == (2, "", f"error: cannot read head file {path}: Permission denied\n")


@pytest.mark.parametrize("token", ["\u0663", "\u00b2"])  # ARABIC-INDIC DIGIT THREE, SUPERSCRIPT TWO
@pytest.mark.parametrize("command", ["generate", "diff"])
def test_head_ids_take_only_ascii_digits(capsys, command, token):
    assert token.isdigit()
    argv = (command, "--horizon", "8", *(("--show", "3") if command == "generate" else ()))
    assert run(capsys, *argv, "--head", "3")[0] == 0
    code, out, err = run(capsys, *argv, "--head", token)
    assert (code, out) == (2, "") and err.startswith("error: ")


def test_census_rejects_horizon_shorter_than_head(capsys):
    code, out, err = run(capsys, "census", "--m", "5", "--horizon", "2")
    assert code == 2 and out == ""
    assert "horizon" in err
    assert run(capsys, "census", "--m", "5", "--horizon", "5")[0] == 0


def test_diff_rejects_horizon_shorter_than_head(capsys):
    code, out, err = run(capsys, "diff", "--head", "8", "--horizon", "3")
    assert code == 2 and out == ""
    assert "horizon" in err
    assert run(capsys, "diff", "--head", "8", "--horizon", "5")[0] == 0


def test_generate_rejects_horizon_shorter_than_head(capsys):
    code, out, err = run(capsys, "generate", "--head", "8", "--horizon", "3", "--show", "3")
    assert code == 2 and out == ""
    assert "horizon" in err
    assert run(capsys, "generate", "--head", "8", "--horizon", "5", "--show", "3")[0] == 0


def test_census_rejects_modulus_three(capsys):
    code, out, err = run(capsys, "census", "--m", "3", "--horizon", "64")
    assert code == 2 and out == ""
    assert "modulus" in err


def test_head_ids_resolve_through_the_stopping_search(capsys, monkeypatch):
    code, out, err = run(capsys, "diff", "--m", "9", "--head", "3474", "--horizon", "64")
    assert code == 0 and err == "" and out.endswith("through 64\n")
    code, out, err = run(capsys, "generate", "--m", "9", "--head", "3475", "--horizon", "64")
    assert (code, out, err) == (2, "", "error: head id 3475 outside 1..3474 for m=9\n")
    code, out, err = run(capsys, "diff", "--m", "7", "--head", "0", "--horizon", "64")
    assert (code, out, err) == (2, "", "error: head id 0 outside 1..365 for m=7\n")
    monkeypatch.setenv("RANKPART_NODE_BUDGET", "10")
    code, out, err = run(capsys, "generate", "--m", "7", "--head", "300", "--horizon", "64")
    assert code == 3 and out == "" and "node budget of 10" in err
    monkeypatch.setenv("RANKPART_NODE_BUDGET", "-1")
    code, _, err = run(capsys, "generate", "--m", "7", "--head", "1", "--horizon", "64")
    assert code == 2 and "RANKPART_NODE_BUDGET" in err
