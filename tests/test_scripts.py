"""The scripts in scripts/ run end to end on small inputs, with src/ on PYTHONPATH.

Each runs under `python -W error`, as the test suite itself turns warnings
into errors.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def script_argv(name: str, *args: str) -> list[str]:
    """The command line that runs scripts/<name> with warnings as errors."""
    return [sys.executable, "-W", "error", str(ROOT / "scripts" / name), *args]


ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def run_script(name: str, *args: str) -> str:
    """stdout of scripts/<name> run with src/ on PYTHONPATH; the run must exit 0."""
    done = subprocess.run(script_argv(name, *args), capture_output=True, text=True, env=ENV, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_census_stages_prints_one_json_line():
    (line,) = run_script("census_stages.py", "--m", "5", "--horizon", "64", "--runs", "1").splitlines()
    doc = json.loads(line)
    assert (doc["m"], doc["horizon"], doc["runs"]) == (5, 64, 1)
    assert set(doc["stages"]) == {"walk", "search", "classes", "census", "render", "ids"}


def test_deviation_survey_lists_every_representative():
    header, *rows = run_script("deviation_survey.py", "--horizon", "64").splitlines()
    assert header.split()[:4] == ["head", "partition", "class", "witness"]
    assert len(rows) == 20


@pytest.mark.parametrize("unbuffered", ("1", ""), ids=("unbuffered", "buffered"))
def test_deviation_survey_into_a_closed_pipe_ends_quietly(unbuffered):
    """`deviation_survey.py | head -2` with a reader that is gone: exit 1, nothing on stderr.

    The survey prints about 2 KB, which a live pipe would take whole, so the
    pipe has no reader from the start: the first write, or the flush of the
    buffered output, fails however stdout is buffered.
    """
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            script_argv("deviation_survey.py", "--horizon", "64"),
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env={**ENV, "PYTHONUNBUFFERED": unbuffered},
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in done.stderr
    assert (done.returncode, done.stderr) == (1, "")


def test_run_census_reports_the_class_count():
    (doc,) = json.loads(run_script("run_census.py", "--m", "5", "--horizon", "64"))
    assert (doc["m"], doc["horizon"], doc["classes"]) == (5, 64, 8)


def test_startup_prints_one_line_per_subcommand():
    docs = [json.loads(line) for line in run_script("startup.py", "--runs", "1").splitlines()]
    assert [d["command"] for d in docs] == ["generate", "census", "verify", "diff", "reshuffle"]
    assert all(d["runs"] == 1 and 0 < d["min_ms"] <= d["median_ms"] for d in docs)
    assert all(d["parse_us"] > 0 for d in docs)
    loaded = {d["command"]: set(d["modules"]) for d in docs}
    assert "rankpart.checks" in loaded["verify"] and "rankpart.census" in loaded["census"]
    assert not loaded["generate"] & {"rankpart.census", "rankpart.checks", "rankpart.reshuffle"}
