"""Command line behaviour: outputs, formats, and exit codes."""
from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import rankpart.greedy as greedy
from oracles import reshuffle_family_ii_loop
from rankpart.checks import run_verification, verification_passed
from rankpart.cli import COMMANDS, main
from rankpart.config import ModulusConfig
from rankpart.errors import HorizonError
from rankpart.partition import standard_partition
from rankpart.reshuffle import FAMILIES

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


@pytest.mark.parametrize("argv", [("generate",), ("reshuffle", "--family", "ii", "--kmax", "2")])
def test_table_commands_show_a_short_horizon_whole_by_default(capsys, argv):
    code, out, err = run(capsys, *argv, "--horizon", "16")
    assert (code, err) == (0, "") and len(out.splitlines()) == 16
    assert run(capsys, *argv, "--horizon", "16", "--show", "16")[1] == out
    code, out, err = run(capsys, *argv, "--horizon", "16", "--show", "46")
    assert (code, out, err) == (2, "", "error: columns shown must be within 1..16, got 46\n")
    code, out, err = run(capsys, *argv, "--horizon", "64")
    assert (code, err) == (0, "") and len(out.splitlines()) == 46


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


@pytest.mark.parametrize("m, classes", ((5, 8), (11, 26)))
def test_census_at_a_short_horizon_reports_the_exact_count(capsys, m, classes):
    """Builders merge at every rank up to H, so H = 16 already gives the H = 4096 count."""
    code, out, _ = run(capsys, "census", "--m", str(m), "--horizon", "16")
    assert code == 0
    assert json.loads(out)["classes"] == classes


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


def test_reshuffle_family_ii_fills_the_horizon(capsys):
    # three family-ii exchanges touch ranks 3, 4, 7, 10, 11 and 16, so 16 columns hold them
    code, out, _ = run(capsys, "reshuffle", "--family", "ii", "--kmax", "3",
                       "--horizon", "16", "--show", "16")
    assert code == 0
    cols = reshuffle_family_ii_loop(standard_partition(ModulusConfig(5), 16).columns, 3)
    assert out == "".join(" ".join(map(str, col)) + "\n" for col in cols)


def test_a_families_row_is_all_a_family_needs(capsys, monkeypatch):
    # the CLI's choices and the verify battery read FAMILIES, so one more row reaches both
    code, want, _ = run(capsys, "reshuffle", "--family", "ii", "--kmax", "3", "--horizon", "16")
    assert code == 0
    battery = run_verification(5, 256)
    monkeypatch.setitem(FAMILIES, "iii", FAMILIES["ii"])
    assert run(capsys, "reshuffle", "--family", "iii", "--kmax", "3", "--horizon", "16") == (0, want, "")
    code, _, err = run(capsys, "reshuffle", "--kmax", "3")
    assert code == 2 and "--family {i,ii,iii}" in err
    assert run_verification(5, 256) == battery and verification_passed(battery)


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


def test_horizon_error_exits_2_from_any_command(capsys, monkeypatch):
    def short(cfg, columns, horizon):
        raise HorizonError(f"horizon {horizon} exceeds stored 4 columns")

    monkeypatch.setattr(greedy, "greedy_extend", short)
    assert run(capsys, "diff", "--m", "5", "--head", "1", "--horizon", "8") == (
        2, "", "error: horizon 8 exceeds stored 4 columns\n"
    )


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


# a partition holds its deviations, not its columns, so `generate` and
# `diff` answer at any horizon; the child's address space is capped, so a
# reader that builds every column fails in seconds instead of filling memory
HUGE = str(10**18)
CHILD_MEMORY = 256 << 20


def capped(*argv):
    """`rankpart argv` run in a child process with CHILD_MEMORY of address space."""
    def cap():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY, CHILD_MEMORY))

    return subprocess.run(
        [sys.executable, "-m", "rankpart.cli", *argv],
        capture_output=True, text=True, timeout=60, preexec_fn=cap,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
    )


def run_capped(*argv):
    """stdout of `rankpart argv` in a capped child process; it must exit 0."""
    done = capped(*argv)
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout


@pytest.mark.parametrize("head", ("8", "7"))
def test_diff_at_any_horizon(capsys, head):
    code, near, _ = run(capsys, "diff", "--head", head, "--horizon", "4096")
    assert code == 0
    far = run_capped("diff", "--head", head, "--horizon", HUGE).splitlines()
    assert far[-1] == f"{len(far) - 1} differing ranks through {HUGE}"
    assert [line for line in far[:-1] if int(line.split()[1][:-1]) <= 4096] == near.splitlines()[:-1]


@pytest.mark.parametrize("fmt", ("text", "csv", "json"))
def test_generate_at_any_horizon(capsys, fmt):
    argv = ("generate", "--head", "8", "--show", "46", "--format", fmt)
    code, near, _ = run(capsys, *argv, "--horizon", "1024")
    assert code == 0
    assert run_capped(*argv, "--horizon", HUGE) == near


def test_generate_streams_a_table_larger_than_its_memory(capsys):
    """Two million ranks (47 MB of text) under the 256 MiB cap: the table is written as it is read."""
    argv = ("generate", "--head", "8", "--horizon", HUGE)
    code, first, _ = run(capsys, *argv, "--show", "46")
    assert code == 0
    out = run_capped(*argv, "--show", "2000000")
    assert out.count("\n") == 2_000_000 and out.endswith("\n")
    assert out.startswith(first)


def test_reshuffle_checks_the_horizon_before_reading_a_column():
    # the columns of 10**8 ranks would not fit under the cap; the horizon rule reads none of them
    done = capped("reshuffle", "--family", "i", "--kmax", "100000000", "--horizon", "100000000")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: horizon 100000000 too short for k_max=100000000, need 599999999\n"


# The argparse surface, recorded with COLUMNS=80 (argparse wraps help and
# usage to the terminal width): help texts, usage errors and exit codes.
TOP_USAGE = "usage: rankpart [-h] {generate,census,verify,diff,reshuffle} ...\n"
SUB_USAGE = {
    "generate": (
        "usage: rankpart generate [-h] [--m M] [--horizon HORIZON] [--head HEAD]\n"
        "                         [--show SHOW] [--format {text,csv,json}]\n"
    ),
    "census": (
        "usage: rankpart census [-h] [--m M] [--horizon HORIZON]\n"
        "                       [--protocol {exclude-standard,include-standard}]\n"
        "                       [--both-protocols] [--format {json,csv}]\n"
    ),
    "verify": (
        "usage: rankpart verify [-h] [--m M] [--horizon HORIZON]\n"
        "                       [--inject {sum-schedule,swap}]\n"
    ),
    "diff": (
        "usage: rankpart diff [-h] [--m M] [--horizon HORIZON] --head HEAD\n"
        "                     [--against {standard}]\n"
    ),
    "reshuffle": (
        "usage: rankpart reshuffle [-h] [--m M] [--horizon HORIZON] --family {i,ii}\n"
        "                          --kmax KMAX [--show SHOW] [--format {text,csv,json}]\n"
    ),
}
COMMON_OPTIONS = (
    "\noptions:\n"
    "  -h, --help            show this help message and exit\n"
    "  --m M                 odd modulus, default 5\n"
    "  --horizon HORIZON     columns generated internally\n"
)
HELP = {
    None: TOP_USAGE + (
        "\n"
        "Construct, enumerate, classify, and verify rank-sum partitions.\n"
        "\n"
        "positional arguments:\n"
        "  {generate,census,verify,diff,reshuffle}\n"
        "    generate            render a partition table\n"
        "    census              enumeration and classification report\n"
        "    verify              run consistency checks\n"
        "    diff                columns differing from the standard partition\n"
        "    reshuffle           apply an exchange family to the standard partition\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
    ),
    "generate": SUB_USAGE["generate"] + COMMON_OPTIONS + (
        "  --head HEAD           'standard', a head id, or a head file path\n"
        "  --show SHOW           ranks to display\n"
        "  --format {text,csv,json}\n"
    ),
    "census": SUB_USAGE["census"] + COMMON_OPTIONS + (
        "  --protocol {exclude-standard,include-standard}\n"
        "  --both-protocols      report under both dedup protocols\n"
        "  --format {json,csv}\n"
    ),
    "verify": SUB_USAGE["verify"] + COMMON_OPTIONS + (
        "  --inject {sum-schedule,swap}\n"
        "                        deliberately corrupt the data first\n"
    ),
    "diff": SUB_USAGE["diff"] + COMMON_OPTIONS + (
        "  --head HEAD           head id or head file path\n"
        "  --against {standard}\n"
    ),
    "reshuffle": SUB_USAGE["reshuffle"] + COMMON_OPTIONS + (
        "  --family {i,ii}\n"
        "  --kmax KMAX           number of exchange steps\n"
        "  --show SHOW           ranks to display\n"
        "  --format {text,csv,json}\n"
    ),
}
CHOICES = "'generate', 'census', 'verify', 'diff', 'reshuffle'"
# name -> (argv, stderr); every one exits 2 with nothing on stdout
USAGE_ERRORS = {
    "no-arguments": ((), TOP_USAGE + "rankpart: error: the following arguments are required: command\n"),
    "unknown-command": (
        ("frobnicate",),
        TOP_USAGE + f"rankpart: error: argument command: invalid choice: 'frobnicate' (choose from {CHOICES})\n",
    ),
    "option-first": (
        ("--m", "5", "census"),
        TOP_USAGE + f"rankpart: error: argument command: invalid choice: '5' (choose from {CHOICES})\n",
    ),
    "unknown-option": (("generate", "--bogus"), TOP_USAGE + "rankpart: error: unrecognized arguments: --bogus\n"),
    "trailing-token": (("verify", "extra"), TOP_USAGE + "rankpart: error: unrecognized arguments: extra\n"),
    "diff-without-head": (
        ("diff",),
        SUB_USAGE["diff"] + "rankpart diff: error: the following arguments are required: --head\n",
    ),
    "reshuffle-without-kmax": (
        ("reshuffle", "--family", "i"),
        SUB_USAGE["reshuffle"] + "rankpart reshuffle: error: the following arguments are required: --kmax\n",
    ),
    "reshuffle-without-family": (
        ("reshuffle", "--kmax", "2"),
        SUB_USAGE["reshuffle"] + "rankpart reshuffle: error: the following arguments are required: --family\n",
    ),
    "bad-format": (
        ("generate", "--format", "xml"),
        SUB_USAGE["generate"]
        + "rankpart generate: error: argument --format: invalid choice: 'xml' (choose from 'text', 'csv', 'json')\n",
    ),
    "bad-family": (
        ("reshuffle", "--family", "x", "--kmax", "1"),
        SUB_USAGE["reshuffle"]
        + "rankpart reshuffle: error: argument --family: invalid choice: 'x' (choose from 'i', 'ii')\n",
    ),
    "bad-protocol": (
        ("census", "--protocol", "x"),
        SUB_USAGE["census"] + "rankpart census: error: argument --protocol: invalid choice: 'x' "
        "(choose from 'exclude-standard', 'include-standard')\n",
    ),
    "bad-injection": (
        ("verify", "--inject", "x"),
        SUB_USAGE["verify"]
        + "rankpart verify: error: argument --inject: invalid choice: 'x' (choose from 'sum-schedule', 'swap')\n",
    ),
    "bad-int": (
        ("census", "--m", "five"),
        SUB_USAGE["census"] + "rankpart census: error: argument --m: invalid int value: 'five'\n",
    ),
    "missing-value": (
        ("census", "--m"),
        SUB_USAGE["census"] + "rankpart census: error: argument --m: expected one argument\n",
    ),
    "census-unknown-option": (("census", "--bogus"), TOP_USAGE + "rankpart: error: unrecognized arguments: --bogus\n"),
    "diff-trailing-token": (
        ("diff", "--head", "8", "extra"), TOP_USAGE + "rankpart: error: unrecognized arguments: extra\n",
    ),
    "reshuffle-unknown-option": (
        ("reshuffle", "--family", "i", "--kmax", "1", "--bogus"),
        TOP_USAGE + "rankpart: error: unrecognized arguments: --bogus\n",
    ),
    "generate-trailing-token": (("generate", "extra"), TOP_USAGE + "rankpart: error: unrecognized arguments: extra\n"),
    # the subcommand's own error comes before the leftover token's
    "diff-unknown-option-without-head": (
        ("diff", "--bogus"),
        SUB_USAGE["diff"] + "rankpart diff: error: the following arguments are required: --head\n",
    ),
}


@pytest.fixture
def columns80(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("command", HELP, ids=lambda c: c or "top")
def test_help_texts(capsys, columns80, command):
    argv = ("--help",) if command is None else (command, "--help")
    assert run(capsys, *argv) == (0, HELP[command], "")


@pytest.mark.parametrize("case", USAGE_ERRORS)
def test_usage_errors(capsys, columns80, case):
    argv, err = USAGE_ERRORS[case]
    assert run(capsys, *argv) == (2, "", err)


def test_main_reads_sys_argv(capsys, columns80, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["rankpart", "generate", "--horizon", "8", "--show", "3"])
    assert (main(), *capsys.readouterr()) == (0, "1 2 0\n3 4 5\n6 7 10\n", "")
    monkeypatch.setattr(sys, "argv", ["rankpart", "generate", "--format", "xml"])
    assert main() == 2
    assert capsys.readouterr().err == USAGE_ERRORS["bad-format"][1]
    monkeypatch.setattr(sys, "argv", ["rankpart"])
    assert main() == 2
    assert capsys.readouterr().err == USAGE_ERRORS["no-arguments"][1]
    monkeypatch.setattr(sys, "argv", ["rankpart", "diff", "--help"])
    assert (main(), *capsys.readouterr()) == (0, HELP["diff"], "")


VALID_CALLS = {
    "generate": ("generate", "--horizon", "8", "--show", "3"),
    "census": ("census", "--horizon", "16"),
    "verify": ("verify", "--horizon", "64"),
    "diff": ("diff", "--head", "8", "--horizon", "16"),
    "reshuffle": ("reshuffle", "--family", "i", "--kmax", "1", "--horizon", "12"),
}


@pytest.fixture
def parsers_built(monkeypatch):
    """The prog of every ArgumentParser constructed, in order, counted through a wrapped __init__."""
    progs = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return progs


@pytest.mark.parametrize("command", VALID_CALLS)
def test_a_valid_call_builds_one_parser(capsys, parsers_built, command):
    assert list(VALID_CALLS) == list(COMMANDS)
    assert run(capsys, *VALID_CALLS[command])[::2] == (0, "")
    assert parsers_built == [f"rankpart {command}"]


@pytest.mark.parametrize("command", VALID_CALLS)
def test_a_leftover_token_builds_the_full_parser_too(capsys, parsers_built, columns80, command):
    assert run(capsys, *VALID_CALLS[command], "extra") == (
        2, "", TOP_USAGE + "rankpart: error: unrecognized arguments: extra\n"
    )
    assert parsers_built == [f"rankpart {command}", "rankpart", *(f"rankpart {name}" for name in COMMANDS)]
