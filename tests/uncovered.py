"""Lines of ``src/kslab`` that no Tier-1 test runs.

Runs the Tier-1 suite in this process under a line tracer
(``sys.settrace`` and ``threading.settrace``: the standard library only,
as no coverage tool is needed) and prints every executable line of
``src/kslab`` that never ran.  A line that runs only in a child process
(``python -m kslab.cli``, the sweep's worker processes) counts as
unexecuted.  It exits 1 when an unexecuted line holds ``raise`` and is
not in ``EXPECTED``: every check of the library needs a test that
reaches it, or a stated reason.  Pytest does not collect this file.
Run it from anywhere with::

    python tests/uncovered.py

The traced suite takes about twice as long as the plain one.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "kslab"

# Unexecuted raise lines that stay so, as "module.py:line", with the reason.
EXPECTED = {
    "fine_model.py:157": "fresh_name's loop over itertools.count ends only by returning",
}


def executable_lines(path: Path) -> set[int]:
    """The line numbers that the compiled code of ``path`` can run."""
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def trace_suite() -> tuple[int, dict[str, set[int]]]:
    """Run Tier-1 from the repository root under the tracer; return its
    exit status and the lines that ran, by module file name."""
    modules: dict[str, str | None] = {}  # co_filename -> module file name
    executed: dict[str, set[int]] = {}

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in modules:
            path = Path(filename).resolve()
            modules[filename] = path.name if path.parent == SOURCE else None
        name = modules[filename]
        if name is None:
            return None
        lines = executed.setdefault(name, set())
        lines.add(frame.f_lineno)

        def trace_lines(frame, event, arg):
            lines.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    os.chdir(ROOT)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), executed


def main() -> int:
    status, executed = trace_suite()
    unexpected = []
    raising = set()
    for path in sorted(SOURCE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - executed.get(path.name, set())):
            text = source[line - 1].strip()
            place = f"{path.name}:{line}"
            print(f"{place}: {text}")
            if text.startswith("raise"):
                raising.add(place)
                if place not in EXPECTED:
                    unexpected.append(place)
    for place in sorted(set(EXPECTED) - raising):
        print(f"EXPECTED names {place}, which is not an unexecuted raise line")
    for place in unexpected:
        print(f"unexecuted raise line without a reason in EXPECTED: {place}")
    if status:
        print(f"the suite exited {status}")
    return 1 if unexpected or status else 0


if __name__ == "__main__":
    sys.exit(main())
