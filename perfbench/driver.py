"""Runs one benchmark job in this interpreter, optionally traced.

    python3 perfbench/driver.py [--spans FILE JOB] cli <kslab arguments...>
    python3 perfbench/driver.py [--spans FILE JOB] hvkn <n>

``cli`` runs ``kslab.cli.main`` on the arguments; ``hvkn`` prints
``verify_hvkn(n)`` as JSON.  With ``--spans`` the public functions listed
in ``TRACED`` are wrapped before the job starts, in every kslab module
that bound them at import, and each call becomes a span
``[name, start, end, parent, attrs]`` kept in memory.  When the job
ends they are written to FILE as ``{"job": JOB, "serialize_s": ...,
"spans": [...]}``.  kslab must be importable (``src`` on ``PYTHONPATH``).
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, Callable

# (module, attribute) of each wrapped function; a dotted attribute is a
# classmethod patched on its class.
TRACED = (
    ("kslab.cli", "main"),
    ("kslab.pauli", "pauli_mul"),
    ("kslab.pauli", "verify_sum_identities"),
    ("kslab.pauli", "lambda_element"),
    ("kslab.pauli", "PauliString.from_text"),
    ("kslab.states", "f_value"),
    ("kslab.states", "expectation"),
    ("kslab.states", "read_dense_state"),
    ("kslab.inequalities", "two_partite_report"),
    ("kslab.inequalities", "multipartite_report"),
    ("kslab.inequalities", "scan"),
    ("kslab.hv_oracle", "bruteforce_report"),
    ("kslab.hv_oracle", "halfgroup_sums"),
    ("kslab.hv_oracle", "verify_hvkn"),
    ("kslab.fine_model", "build_model"),
    ("kslab.fine_model", "run_fine_suite"),
    ("kslab.experiment", "ingest_correlators"),
    ("kslab.experiment", "evaluate_experiment"),
)


def _span_name(module: str, attr: str, args: tuple) -> str:
    name = f"{module.removeprefix('kslab.')}.{attr.rpartition('.')[2]}"
    if attr == "f_value":
        dense = type(args[0]).__name__ == "DenseState"
        name += ".dense" if dense else ".analytic"
    return name


def _attrs(attr: str, args: tuple, result: Any) -> dict | None:
    """Counts read at the boundary: work sizes and report fields."""
    if attr == "read_dense_state":
        return {"bytes": os.path.getsize(args[0])}
    if attr == "halfgroup_sums":
        return {"count": len(args[1])}
    if attr == "bruteforce_report":
        return {"elapsed": result.elapsed, "workers": result.workers,
                "assignments": 1 << (2 * result.n)}
    if attr == "verify_hvkn":
        return {"checked": result.checked}
    if attr == "ingest_correlators":
        return {"rows": len(result)}
    return None


class Tracer:
    """In-memory spans of the wrapped calls, with parent links."""

    def __init__(self) -> None:
        self.spans: list[list | None] = []
        self._stack: list[int] = []

    def wrap(self, module: str, attr: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = [_span_name(module, attr, args), start, end, parent,
                                _attrs(attr, args, result) if result is not None else None]

        return traced

    def install(self) -> None:
        import importlib

        import kslab.cli  # noqa: F401  (loads every kslab module)

        for module_name, attr in TRACED:
            module = importlib.import_module(module_name)
            owner_name, _, fn_name = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = getattr(owner, fn_name).__func__
                setattr(owner, fn_name, classmethod(self.wrap(module_name, attr, original)))
                continue
            original = getattr(module, fn_name)
            wrapped = self.wrap(module_name, attr, original)
            for name, loaded in list(sys.modules.items()):
                if name == "kslab" or name.startswith("kslab."):
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, key, wrapped)


def run_job(kind: str, args: list[str]) -> int:
    if kind == "cli":
        import kslab.cli

        return kslab.cli.main(args)
    if kind == "hvkn":
        import kslab.hv_oracle

        report = kslab.hv_oracle.verify_hvkn(int(args[0]))
        print(json.dumps({**report.to_dict(), "ok": report.ok}))
        return 0 if report.ok else 2
    raise SystemExit(f"unknown job kind {kind!r}")


def main(argv: list[str]) -> int:
    spans_path = job_id = None
    if argv[:1] == ["--spans"]:
        spans_path, job_id, argv = argv[1], argv[2], argv[3:]
    if not argv:
        raise SystemExit(__doc__)
    tracer = None
    if spans_path is not None:
        tracer = Tracer()
        tracer.install()
    try:
        return run_job(argv[0], argv[1:])
    finally:
        if tracer is not None:
            start = time.perf_counter()
            spans = json.dumps(tracer.spans)
            # The dump is tracing overhead: report its cost so the client
            # can leave it out of the job's time outside main.
            serialize_s = time.perf_counter() - start
            with open(spans_path, "w", encoding="utf-8") as fh:
                fh.write(f'{{"job": {json.dumps(job_id)}, "serialize_s": {serialize_s!r}, '
                         f'"spans": {spans}}}')


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
