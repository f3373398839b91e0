"""The CLI reproduces its golden corpus (``tests/golden/``).

Each golden JSON value must appear unchanged in the report; keys the
golden file lacks are allowed, so new report keys are additive.
Non-JSON stdout, the exit code and the first stderr line compare
exactly.  A file with a ``doctor`` field runs under that patch.
"""

from __future__ import annotations

import json

import pytest
from golden_corpus import CASES, DOCTORED, DOCTORS, GOLDEN, prepare, run

FILES = sorted(GOLDEN.glob("*.json"))


def _contains(actual, golden) -> bool:
    if isinstance(golden, dict):
        return isinstance(actual, dict) and all(
            key in actual and _contains(actual[key], value) for key, value in golden.items()
        )
    return actual == golden


def _parsed(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return text


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    prepare(directory)
    return directory


def test_corpus_matches_the_cases():
    assert [path.stem for path in FILES] == sorted(CASES)


def test_every_doctored_route_is_pinned():
    assert set(DOCTORED.values()) == set(DOCTORS)


@pytest.mark.parametrize("path", FILES, ids=[path.stem for path in FILES])
def test_invocation_matches_golden(path, inputs, monkeypatch):
    golden = json.loads(path.read_text(encoding="utf-8"))
    monkeypatch.chdir(inputs)
    actual = run(golden["argv"], golden.get("doctor"))
    assert actual["exit"] == golden["exit"]
    assert actual["stderr"] == golden["stderr"]
    stdout, expected = _parsed(actual["stdout"]), _parsed(golden["stdout"])
    if isinstance(expected, str):
        assert actual["stdout"] == golden["stdout"]
    else:
        assert _contains(stdout, expected), actual["stdout"]
