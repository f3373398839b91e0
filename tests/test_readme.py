"""The README's Python examples run against this kslab."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_example_runs(index, kslab_env):
    result = subprocess.run(
        [sys.executable, "-c", BLOCKS[index]],
        capture_output=True, text=True, env=kslab_env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
