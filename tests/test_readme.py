"""The README's Python examples run and show the values they print, and
its shown CLI reports match, against this kslab."""

from __future__ import annotations

import ast
import io
import json
import re
import shlex
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest
from golden_corpus import run
from test_acceptance import LABELS

from kslab.cli import EXIT_PASS

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


def _leading_literal(comment: str) -> tuple:
    """``(value,)`` of the Python literal that ``comment`` starts with, or
    ``()`` when it starts with none: the shortest prefix, ending before a
    comma, colon, semicolon, space or the end, that ``ast.literal_eval``
    reads."""
    ends = [match.start() for match in re.finditer(r"[,:;\s]", comment)]
    for end in [*ends, len(comment)]:
        try:
            return (ast.literal_eval(comment[:end]),)
        except (ValueError, TypeError, SyntaxError):
            continue
    return ()


def _shown_values(block: str) -> dict[int, object]:
    """By line number, the value that a trailing comment of ``block`` shows
    when it starts with a literal."""
    shown = {}
    for token in tokenize.generate_tokens(io.StringIO(block).readline):
        if token.type == tokenize.COMMENT and token.line[: token.start[1]].strip():
            literal = _leading_literal(token.string[1:].strip())
            if literal:
                shown[token.start[0]] = literal[0]
    return shown


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_example_shows_what_it_prints(index):
    block, namespace, checked = BLOCKS[index], {}, []
    shown = _shown_values(block)
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr) and node.end_lineno in shown:
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            assert value == shown[node.end_lineno], ast.get_source_segment(block, node)
            checked.append(node.end_lineno)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert checked == sorted(shown)


def test_acceptance_printout_names_the_battery():
    assert ACCEPTANCE == list(LABELS)


def test_readme_shows_reports():
    assert {argv.split()[0] for argv, _ in REPORTS} == {"violate", "bound"}


@pytest.mark.parametrize("argv, shown", REPORTS, ids=[argv for argv, _ in REPORTS])
def test_shown_report_matches(argv, shown):
    record = run(shlex.split(argv))
    assert record["exit"] == EXIT_PASS
    actual, expected = json.loads(record["stdout"]), json.loads(shown)
    # timing differs from run to run
    for report in (actual, expected):
        report.pop("elapsed", None)
    assert actual == expected
