"""The README's Python examples run, and its shown CLI reports match,
against this kslab."""

from __future__ import annotations

import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from test_acceptance import LABELS

from kslab.cli import EXIT_PASS, main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)
# (argv, shown JSON) of each ``$ kslab ...`` example followed by its report
REPORTS = re.findall(r"^\$ kslab ([^\n]*)\n(\{\n.*?^\})$", TEXT, re.M | re.S)
# the labels of the acceptance printout, timings dropped
ACCEPTANCE = re.findall(r"^acceptance (.*): PASS \([\d.]+s\)$", TEXT, re.M)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_example_runs(index, kslab_env):
    result = subprocess.run(
        [sys.executable, "-c", BLOCKS[index]],
        capture_output=True, text=True, env=kslab_env, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_acceptance_printout_names_the_battery():
    assert ACCEPTANCE == list(LABELS)


def test_readme_shows_reports():
    assert {argv.split()[0] for argv, _ in REPORTS} == {"violate", "bound"}


@pytest.mark.parametrize("argv, shown", REPORTS, ids=[argv for argv, _ in REPORTS])
def test_shown_report_matches(argv, shown, capsys):
    assert main(shlex.split(argv)) == EXIT_PASS
    actual, expected = json.loads(capsys.readouterr().out), json.loads(shown)
    # timing differs from run to run
    for report in (actual, expected):
        report.pop("elapsed", None)
    assert actual == expected
