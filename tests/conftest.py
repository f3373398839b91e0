"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest
from golden_corpus import child_env


@pytest.fixture
def kslab_env() -> dict[str, str]:
    """Environment for a child interpreter that must import this kslab,
    installed or not."""
    return child_env()
