"""The scripts in scripts/ run end to end on small inputs, with src/ on PYTHONPATH."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> str:
    """stdout of scripts/<name> run with src/ on PYTHONPATH; the run must exit 0."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_census_stages_prints_one_json_line():
    (line,) = run_script("census_stages.py", "--m", "5", "--horizon", "64", "--runs", "1").splitlines()
    doc = json.loads(line)
    assert (doc["m"], doc["horizon"], doc["runs"]) == (5, 64, 1)
    assert set(doc["stages"]) == {"search", "classes", "census", "render"}


def test_deviation_survey_lists_every_representative():
    header, *rows = run_script("deviation_survey.py", "--horizon", "64").splitlines()
    assert header.split()[:4] == ["head", "partition", "class", "witness"]
    assert len(rows) == 20


def test_run_census_reports_the_class_count():
    (doc,) = json.loads(run_script("run_census.py", "--m", "5", "--horizon", "64"))
    assert (doc["m"], doc["horizon"], doc["classes"]) == (5, 64, 8)
