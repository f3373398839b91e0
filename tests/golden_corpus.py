"""The golden CLI corpus: invocations whose argv, exit code, stdout and
first stderr line (after the parser's usage text, whose wrapping
follows the terminal's width) are pinned, one JSON file per invocation,
in ``tests/golden/``.

Every invocation runs in process through ``kslab.cli.main``, in a
directory that holds the committed files of ``tests/golden/inputs/``
and the large inputs built by ``GENERATED``, so that argv can name them
by bare file name.  An argv that starts with ``python -m kslab.cli``
runs as a child process of the current interpreter instead, to pin the
module entry point.  ``elapsed`` is masked in stdout.

``run`` is the one runner of the corpus and of the CLI fuzz tests, and
``record_cases`` runs every case through it, for ``regenerate`` and for
the reach gate of ``test_reach.py``.
Every invocation it runs must end by the outcome rule, or it raises, so
no golden file can pin a record that breaks it:

- the exit code is 0, 1 or 2;
- stdout that starts with ``{`` or ``[`` is strict JSON (no NaN or
  Infinity);
- stderr holds at most one line.  When the parser refused argv, its
  usage text is not counted, only its ``...: error: ...`` line.

To add a case, add its argv to ``CASES``.  To add a doctored route, one
that must fail its verification (exit 2), add one entry to ``DOCTORS``:
its case name, argv, the dotted patch target and the patch.  The entry
makes the case, and its file records the patch in a ``doctor`` field.
Then write the file of every case that has none with::

    PYTHONPATH=src python tests/golden_corpus.py

It rewrites and deletes no file.  When the fresh record of a case
differs from its file, it keeps the file, names the case and exits 1.
Such a difference records a change of the CLI contract, not a fix: to
re-pin the case, delete its file by hand and run the command again.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable
from unittest import mock

import kslab
from kslab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"
MODULE = ["python", "-m", "kslab.cli"]

# Inputs too large to commit, by file name.
GENERATED = {
    "oversized_field.csv": 'word,value,sigma\nXX,0.5,0\n"' + "Z" * 200_000 + '",0.5,0\n',
    "oversized_header.csv": '"' + "w" * 200_000 + '",value,sigma\nZZ,0.25,0\n',
}


def edit_products(kernel: Callable, edits) -> Callable:
    """The site-product kernel ``kernel`` with ``delta`` added to the real
    (part 0) or imaginary (part 1) product at each (sites, code, part,
    delta) of ``edits``.  The two halves of an odd n differ in size, so
    an edit reaches one of them only."""

    def doctored(k, codes):
        parts = kernel(k, codes)
        for sites, code, part, delta in edits:
            if sites == k:
                parts[part][codes == code] += delta
        return parts

    return doctored


def _raise_word_sum(spectrum: Callable, n: int, mask: int) -> Callable:
    """``spectrum`` with the even family's word sum at ``mask`` raised by 2
    at n sites."""

    def doctored(k, odd):
        table = spectrum(k, odd)
        if (k, odd) == (n, False):
            table[mask] += 2
        return table

    return doctored


def _check(name: str, *argv: str) -> list[str]:
    return ["check", "--file", name, *argv]


def _dense(name: str, *argv: str) -> list[str]:
    return ["violate", "--state", f"dense:@{name}", *argv]


def _violate(spec: str, *argv: str) -> list[str]:
    return ["violate", "--state", spec, *argv]


def _suite(suite: str) -> list[str]:
    return ["verify", "--suite", suite]


# Routes that each fail their verification under one patch, by the name of
# the patch: the case that pins the route, its argv, the dotted patch
# target and a function from the target's original value to the doctored
# one.  The two routes whose message prints a float residual run on
# inputs where it is exact: the dense term sums of the Bell state, and the
# fine suite's first model, whose family (+ZI, +IZ) is diagonal.
DOCTORS: dict[str, tuple[str, list[str], str, Callable]] = {
    "bound-bruteforce": (
        "doctored_bound_formula", ["bound", "--n", "4", "--bruteforce"],
        "kslab.inequalities.multipartite_bound", lambda f: lambda n: f(n) + 1,
    ),
    # at n = 13: a low-half code that is not the smallest of its word
    # mask, and a high-half code that is
    "bound-bruteforce-kernel": (
        "doctored_bound_kernel", ["bound", "--n", "13", "--bruteforce"],
        "kslab.hv_oracle._signed_products",
        lambda f: edit_products(f, ((6, 1 << 6, 0, 1), (7, 16, 0, 1))),
    ),
    "bound-bruteforce-spectrum": (
        "doctored_bound_spectrum", ["bound", "--n", "4", "--bruteforce"],
        "kslab.hv_oracle._spectrum", lambda f: _raise_word_sum(f, 4, 0b0101),
    ),
    "bound-bruteforce-witness": (
        "doctored_bound_witness", ["bound", "--n", "4", "--bruteforce"],
        "kslab.hv_oracle.g_value", lambda f: lambda a: f(a) + 1,
    ),
    "violate-dense-multi": (
        "doctored_violate_dense_multi", _dense("bell.txt", "--kind", "multi"),
        "kslab.states.walsh_hadamard", lambda f: lambda d: f(d) + 1,
    ),
    "violate-werner": (
        "doctored_violate_werner", _violate("werner:lambda=0.5"),
        "kslab.states._pi_overlap", lambda f: lambda state: float("nan"),
    ),
    "group": (
        "doctored_group", ["group", "--n", "3"],
        "kslab.pauli.lambda_element",
        lambda f: lambda idx: dataclasses.replace(f(idx), phase_exp=2) if idx.p == 5 else f(idx),
    ),
    "verify-identities-element": (
        "doctored_identities_element", _suite("identities"),
        "kslab.pauli._element",
        lambda f: lambda *a: dataclasses.replace(f(*a), phase_exp=(f(*a).phase_exp + 1) % 4),
    ),
    # drops every term without a z factor: +II is the first of z-even at n = 2
    "verify-identities-expansion": (
        "doctored_identities_expansion", _suite("identities"),
        "kslab.pauli._projector_expansion",
        lambda f: lambda *a: {key: c for key, c in f(*a).items() if key[0]},
    ),
    "verify-identities-residual": (
        "doctored_identities_residual", _suite("identities"),
        "kslab.pauli._dense_residual", lambda f: lambda *a: 1.0,
    ),
    "verify-identities-residual-nan": (
        "doctored_identities_residual_nan", _suite("identities"),
        "kslab.pauli._dense_residual", lambda f: lambda *a: float("nan"),
    ),
    "verify-identities-residual-inf": (
        "doctored_identities_residual_inf", _suite("identities"),
        "kslab.pauli._dense_residual", lambda f: lambda *a: float("inf"),
    ),
    "verify-hvkn": (
        "doctored_hvkn", _suite("hvkn"),
        "kslab.hv_oracle._signed_products", lambda f: lambda *a: (f(*a)[0] + 1, f(*a)[1]),
    ),
    "verify-certificates": (
        "doctored_certificates", _suite("certificates"),
        "kslab.certificates.commutes", lambda f: lambda a, b: False,
    ),
    # flips an x bit of every product: the Peres-Mermin rows flip it twice
    "verify-certificates-product": (
        "doctored_certificates_product", _suite("certificates"),
        "kslab.certificates.pauli_mul",
        lambda f: lambda a, b: dataclasses.replace(f(a, b), x_mask=f(a, b).x_mask ^ 1),
    ),
    "verify-fine-register": (
        "doctored_fine_register", _suite("fine"),
        "kslab.fine_model.ATOL_DIAGONAL", lambda v: -1.0,
    ),
    "verify-fine-pullback": (
        "doctored_fine_pullback", _suite("fine"),
        "kslab.fine_model.ATOL_PULLBACK", lambda v: -1.0,
    ),
}
# The case of each doctored route: the ``DOCTORS`` name it runs under.
DOCTORED = {case: doctor for doctor, (case, *_) in DOCTORS.items()}


@contextlib.contextmanager
def doctored(doctor: str | None):
    """Apply the ``DOCTORS`` patch named ``doctor`` (none when None) for
    the duration of the block."""
    if doctor is None:
        yield
        return
    _, _, target, spoil = DOCTORS[doctor]
    module, _, name = target.rpartition(".")
    with mock.patch(target, spoil(getattr(importlib.import_module(module), name))):
        yield


CASES: dict[str, list[str]] = {
    "check_two": _check("werner.csv", "--kind", "two"),
    "check_two_k20": _check("werner.csv", "--kind", "two", "--k", "20"),
    "check_two_signed": _check("werner_signed.csv", "--kind", "two"),
    "check_multi_ghz3": _check("ghz3.csv", "--kind", "multi"),
    "check_multi_signed": _check("multi4_signed.csv", "--kind", "multi", "--k", "1"),
    "check_field_count": _check("field_count.csv", "--kind", "two"),
    "check_bad_value": _check("bad_value.csv", "--kind", "two"),
    "check_bad_sigma": _check("bad_sigma.csv", "--kind", "two"),
    "check_bad_word": _check("bad_word.csv", "--kind", "two"),
    "check_not_observable": _check("not_observable.csv", "--kind", "two"),
    "check_nan_value": _check("nan_value.csv", "--kind", "two"),
    "check_inf_value": _check("inf_value.csv", "--kind", "two"),
    "check_negative_sigma": _check("negative_sigma.csv", "--kind", "two"),
    "check_nan_sigma": _check("nan_sigma.csv", "--kind", "two"),
    "check_exceeds": _check("exceeds.csv", "--kind", "two"),
    "check_exceeds_negative": _check("exceeds_negative.csv", "--kind", "two"),
    "check_duplicate": _check("duplicate.csv", "--kind", "two"),
    "check_empty": _check("empty.csv", "--kind", "multi"),
    "check_wrong_header": _check("wrong_header.csv", "--kind", "two"),
    "check_header_only": _check("header_only.csv", "--kind", "multi"),
    "check_short_two": _check("short_two.csv", "--kind", "two"),
    "check_short_multi": _check("short_multi.csv", "--kind", "multi"),
    "check_missing_two": _check("missing_two.csv", "--kind", "two"),
    "check_missing_multi": _check("missing_multi.csv", "--kind", "multi"),
    "check_unknown_two": _check("unknown_two.csv", "--kind", "two"),
    "check_unknown_multi": _check("unknown_multi.csv", "--kind", "multi"),
    "check_two_needs_two_sites": _check("ghz3.csv", "--kind", "two"),
    "check_oversized_field": _check("oversized_field.csv", "--kind", "two"),
    "check_oversized_header": _check("oversized_header.csv", "--kind", "two"),
    "check_missing_file": _check("no_such_file.csv", "--kind", "two"),
    "check_negative_k": _check("werner.csv", "--kind", "two", "--k=-inf"),
    "check_overflow_two": _check("overflow_two.csv", "--kind", "two"),
    "check_overflow_multi": _check("overflow_multi.csv", "--kind", "multi"),
    "check_overflow_sigma": _check("overflow_sigma.csv", "--kind", "multi"),
    "check_bom": _check("bom.csv", "--kind", "two"),
    "check_not_utf8": _check("not_utf8.csv", "--kind", "two"),
    "check_reading_order": _check("reading_order.csv", "--kind", "two"),
    "check_multi_one_site": _check("one_site.csv", "--kind", "multi"),
    "dense_pi": _dense("pi.txt"),
    "dense_bell": _dense("bell.txt"),
    "dense_bell_multi": _dense("bell.txt", "--kind", "multi"),
    "dense_qubit": _dense("qubit.txt"),
    "dense_entry_count": _dense("dense_entry_count.txt"),
    "dense_not_pair": _dense("dense_not_pair.txt"),
    "dense_not_numeric": _dense("dense_not_numeric.txt"),
    "dense_row_count": _dense("dense_row_count.txt"),
    "dense_extra_row": _dense("dense_extra_row.txt"),
    "dense_bad_header": _dense("dense_bad_header.txt"),
    "dense_header_range": _dense("dense_header_range.txt"),
    "dense_empty": _dense("dense_empty.txt"),
    "dense_not_hermitian": _dense("dense_not_hermitian.txt"),
    "dense_trace": _dense("dense_trace.txt"),
    "dense_not_psd": _dense("dense_not_psd.txt"),
    "dense_psd_within_tolerance": _dense("dense_psd_within_tolerance.txt"),
    "dense_not_psd_second_panel": _dense("dense_not_psd_panel2.txt", "--kind", "multi"),
    "dense_overflow": _dense("dense_overflow.txt", "--kind", "multi"),
    "dense_bom": _dense("dense_bom.txt"),
    "dense_not_utf8": _dense("dense_not_utf8.txt"),
    "dense_missing_file": _dense("no_such_file.txt"),
    "dense_nan_entry": _dense("dense_nan_entry.txt"),
    "dense_long_row": _dense("dense_long_row.txt"),
    **{
        f"bound_{n}_workers_{workers}": [
            "bound", "--n", str(n), "--bruteforce", "--workers", str(workers)
        ]
        for n in range(2, 7)
        for workers in (1, 2)
    },
    "bound_workers_0": ["bound", "--n", "4", "--bruteforce", "--workers", "0"],
    **{f"bound_{n}": ["bound", "--n", str(n), "--bruteforce"] for n in range(7, 15)},
    "bound_15": ["bound", "--n", "15", "--bruteforce"],
    "bound_1023": ["bound", "--n", "1023"],
    "bound_n_not_an_integer": ["bound", "--n", "x"],
    **{
        f"verify_{suite}": _suite(suite) for suite in ("identities", "hvkn", "certificates", "fine")
    },
    "violate_ghz": _violate("ghz:n=5,alpha=0.6,beta=0.8"),
    "violate_ghz_two": _violate("ghz:n=2,alpha=0.6,beta=0.8", "--kind", "two"),
    "violate_product": _violate("product:+-+-+"),
    "violate_product_two_sites": _violate("product:+-"),
    "violate_product_multi": _violate("product:++", "--kind", "multi"),
    "violate_werner": _violate("werner:lambda=0.5"),
    "violate_werner_multi": _violate("werner:lambda=0.5", "--kind", "multi"),
    "violate_unknown_field": _violate("ghz:n=3,alpha=1,beta=0,gamma=5"),
    "violate_repeated_field": _violate("werner:lambda=0.5,lambda=0.9"),
    "violate_malformed_field": _violate("werner:lambda"),
    "violate_missing_field": _violate("ghz:n=3,alpha=1"),
    "violate_no_kind": _violate("werner"),
    "violate_unknown_kind": _violate("bell:x=1"),
    "violate_dense_without_at": _violate("dense:file.txt"),
    "violate_werner_out_of_range": _violate("werner:lambda=2"),
    "violate_ghz_not_normalized": _violate("ghz:n=3,alpha=1,beta=1"),
    "violate_ghz_nan": _violate("ghz:n=3,alpha=nan,beta=0"),
    "violate_ghz_no_sites": _violate("ghz:n=0,alpha=1,beta=0"),
    "violate_ghz_above_limit": _violate("ghz:n=1024,alpha=1,beta=0"),
    "violate_ghz_two_needs_two_sites": _violate("ghz:n=3,alpha=1,beta=0", "--kind", "two"),
    "violate_product_bad_letter": _violate("product:+x"),
    "group_0": ["group", "--n", "0"],
    "group_3": ["group", "--n", "3"],
    "scan_csv": ["scan", "--from", "2", "--to", "6"],
    "scan_json": ["scan", "--from", "2", "--to", "6", "--format", "json"],
    "scan_above_limit": ["scan", "--from", "2", "--to", "5000"],
    "module_violate_werner": [*MODULE, "violate", "--state", "werner:lambda=0.7"],
    **{case: argv for case, argv, *_ in DOCTORS.values()},
}

def prepare(directory: Path) -> None:
    """Put every input file of the corpus into ``directory``."""
    for path in INPUTS.iterdir():
        shutil.copy(path, directory / path.name)
    for name, text in GENERATED.items():
        (directory / name).write_text(text, encoding="utf-8")


def child_env() -> dict[str, str]:
    """Environment for a child interpreter that must import this kslab,
    installed or not."""
    root = str(Path(kslab.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=root + (os.pathsep + path if path else ""))


def _run_module(argv: list[str]) -> tuple[int, str, str]:
    """Run ``python -m kslab.cli`` on argv in a child of this interpreter
    that imports this kslab, installed or not."""
    child = subprocess.run(
        [sys.executable, "-m", "kslab.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env=child_env(),
    )
    return child.returncode, child.stdout, child.stderr


def _reject_constant(name: str):
    """A ``parse_constant`` for ``json.loads`` that makes it strict."""
    raise ValueError(f"non-strict JSON constant {name}")


def _check_outcome(argv: list[str], code, stdout: str, stderr: str) -> list[str]:
    """Raise AssertionError unless the invocation ended by the outcome rule
    (module docstring); stdout that is not strict JSON raises ValueError.
    Return the stderr lines that the rule counts."""
    lines = stderr.splitlines()
    if stderr.startswith("usage:"):
        # argparse's usage text, wrapped onto indented lines, precedes its error line
        lines = list(itertools.dropwhile(lambda line: line.startswith(("usage:", " ")), lines))
    if code not in (0, 1, 2) or len(lines) > 1:
        raise AssertionError(f"{argv}: exit {code!r} with stderr {stderr!r}")
    if stdout.startswith(("{", "[")):
        json.loads(stdout, parse_constant=_reject_constant)
    return lines


def run(argv: list[str], doctor: str | None = None) -> dict:
    """Run one invocation in the current directory, under the named
    ``DOCTORS`` patch if any, check that it ends by the outcome rule, and
    record it."""
    if argv[: len(MODULE)] == MODULE:
        code, stdout, stderr = _run_module(argv[len(MODULE) :])
    else:
        out, err = io.StringIO(), io.StringIO()
        with doctored(doctor), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        stdout, stderr = out.getvalue(), err.getvalue()
    lines = _check_outcome(argv, code, stdout, stderr)
    record = {
        "argv": argv,
        "exit": code,
        "stdout": re.sub(r'("elapsed": )[^,\n]+', r'\1"*"', stdout),
        "stderr": lines[0] if lines else "",
    }
    if doctor is not None:
        record["doctor"] = doctor
    return record


def record_cases() -> dict[str, dict]:
    """Run every case of ``CASES`` in a fresh directory that holds the
    corpus inputs, and return its record by case name."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        prepare(Path(scratch))
        os.chdir(scratch)
        try:
            return {name: run(argv, DOCTORED.get(name)) for name, argv in CASES.items()}
        finally:
            os.chdir(home)


def regenerate() -> list[str]:
    """Write the golden file of every case that has none, and return the
    cases whose file differs from a fresh record.  No file is rewritten
    or deleted."""
    differ = []
    for name, record in record_cases().items():
        path = GOLDEN / f"{name}.json"
        if not path.exists():
            text = json.dumps(record, indent=2, ensure_ascii=False)
            path.write_text(text + "\n", encoding="utf-8")
        elif json.loads(path.read_text(encoding="utf-8")) != record:
            differ.append(name)
    return differ


if __name__ == "__main__":
    changed = regenerate()
    for name in changed:
        print(f"{name}: differs from its golden file, which is kept", file=sys.stderr)
    sys.exit(1 if changed else 0)
