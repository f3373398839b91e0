"""Every library function runs under some golden CLI invocation, or is
listed in ``LIBRARY_ONLY`` with the reason it stays.

The corpus (``golden_corpus.CASES``) runs once, in process, under
``sys.setprofile``.  The functions and methods of ``src/kslab`` that
never ran, counting those defined with ``def`` and leaving out class
and module bodies, lambdas and comprehensions, must be exactly the
table's entries.  So a function that no invocation reaches fails the
test until a route calls it, it moves under ``tests/``, it is deleted
or it is listed, and an entry whose function runs or is gone fails it
too.  The case that runs ``python -m kslab.cli`` reaches nothing here,
as it runs in a child process.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

from golden_corpus import record_cases
from uncovered import SOURCE, code_objects

# Functions that no CLI invocation calls, as "module.py:qualified name",
# with the reason each stays in the library.
LIBRARY_ONLY = {
    "__init__.py:__getattr__": "the documented lazy import of the public names; the CLI imports modules directly",
    "__init__.py:__dir__": "lists the lazily imported public names beside the loaded ones",
    "experiment.py:required_words": "the correlators an experiment must measure, asked before there is a CSV to check",
    "hv_oracle.py:halfgroup_sums": "perfbench/driver.py wraps each TRACED name, so it must import (ROADMAP item 3 moves it)",
    "states.py:write_dense_state": "README's way to write the dense-state format that violate --state dense:@FILE reads",
}


def uncalled() -> set[str]:
    """The ``def`` functions of ``src/kslab`` that the corpus never calls."""
    called = set()
    sys.setprofile(lambda frame, event, arg: called.add(frame.f_code))
    try:
        record_cases()
    finally:
        sys.setprofile(None)
    ran = {
        (Path(code.co_filename).name, code.co_firstlineno, code.co_name)
        for code in called
        if Path(code.co_filename).resolve().parent == SOURCE
    }
    return {
        f"{path.name}:{code.co_qualname}"
        for path in SOURCE.glob("*.py")
        for code in code_objects(path)
        if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<")
        if (path.name, code.co_firstlineno, code.co_name) not in ran
    }


def test_every_unreached_function_is_listed():
    assert uncalled() == set(LIBRARY_ONLY)
