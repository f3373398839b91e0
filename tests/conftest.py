"""Fixtures shared by the test modules."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

import kslab


@pytest.fixture
def kslab_env() -> dict[str, str]:
    """Environment for a child interpreter that must import this kslab,
    installed or not."""
    root = str(Path(kslab.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=root + (os.pathsep + path if path else ""))
