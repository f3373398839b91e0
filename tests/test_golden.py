"""The CLI reproduces its golden corpus (``tests/golden/``).

Each golden JSON value must appear unchanged in the report; keys the
golden file lacks are allowed, so new report keys are additive.
Non-JSON stdout, the exit code and the first stderr line compare
exactly.  A file with a ``doctor`` field runs under that patch.  Every
invocation runs through ``golden_corpus.run``, which checks the outcome
rule.
"""

from __future__ import annotations

import json
import shutil

import golden_corpus
import pytest
from golden_corpus import CASES, GOLDEN, prepare, run

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


def test_regenerate_writes_missing_files_and_keeps_differing_ones(tmp_path, monkeypatch):
    cases = {name: CASES[name] for name in ("group_3", "violate_werner")}
    for name in cases:
        shutil.copy(GOLDEN / f"{name}.json", tmp_path)
    (tmp_path / "group_3.json").unlink()
    tampered = tmp_path / "violate_werner.json"
    text = tampered.read_text(encoding="utf-8").replace('"exit": 0', '"exit": 1')
    tampered.write_text(text, encoding="utf-8")
    monkeypatch.setattr(golden_corpus, "GOLDEN", tmp_path)
    monkeypatch.setattr(golden_corpus, "CASES", cases)
    assert golden_corpus.regenerate() == ["violate_werner"]
    assert (tmp_path / "group_3.json").read_bytes() == (GOLDEN / "group_3.json").read_bytes()
    assert tampered.read_text(encoding="utf-8") == text


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
