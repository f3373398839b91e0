"""Command line interface: the checks that a golden file cannot hold.

Where a new CLI check goes:

- an argv whose exit code, stdout and stderr line pin the behaviour is
  a ``CASES`` entry in ``tests/golden_corpus.py``;
- a check that needs a patch, a fixture (such as ``tmp_path``) or an
  oracle (such as ``scan_from_csv`` against ``scan``) is a test here
  that calls ``golden_corpus.run``.

``run`` judges every invocation by the corpus's outcome rule (exit 0, 1
or 2, strict JSON, at most one stderr line) and returns its record:
``exit``, ``stdout`` and the one ``stderr`` line.  The tests below assert
on that record only.  Two tests start their own child process, because
``run`` cannot give them their setup:
``test_line_without_end_exits_without_traceback`` caps the address
space, and ``TestStreamedInput`` reads from a FIFO or a pipe whose
writer stays open.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest
from golden_corpus import MODULE, run
from oracle import scan_from_csv

import kslab.experiment
import kslab.inequalities
import kslab.pauli
from kslab.cli import EXIT_PASS, EXIT_USAGE, EXIT_VERIFICATION
from kslab.experiment import required_words
from kslab.inequalities import scan
from kslab.pauli import GROUP_LIMIT, PauliString


class TestGroup:
    def test_two_site_table(self):
        record = run(["group", "--n", "2"])
        assert record["exit"] == EXIT_PASS
        payload = json.loads(record["stdout"])
        assert payload["order"] == 4
        assert payload["closure"] is True
        words = [entry["word"] for entry in payload["elements"]]
        assert words == ["+II", "+ZZ", "+XX", "-YY"]

    def test_larger_table_closes(self):
        record = run(["group", "--n", "5"])
        assert record["exit"] == EXIT_PASS
        payload = json.loads(record["stdout"])
        assert payload["order"] == 32
        assert payload["closure"] is True

    @pytest.mark.parametrize("n", [-1, 0, GROUP_LIMIT + 1])
    def test_out_of_range_size_names_the_range(self, n):
        record = run(["group", "--n", str(n)])
        assert record["exit"] == EXIT_USAGE
        assert record["stdout"] == ""
        assert f"1 <= n <= {GROUP_LIMIT}" in record["stderr"]

    @pytest.mark.parametrize("n", [11, 12])
    def test_largest_tables_close(self, n):
        record = run(["group", "--n", str(n)])
        assert record["exit"] == EXIT_PASS
        payload = json.loads(record["stdout"])
        assert payload["order"] == 1 << n
        assert payload["closure"] is True
        assert "first_break" not in payload

    def test_missing_flag_is_usage_error(self):
        assert run(["group"])["exit"] == EXIT_USAGE

    def test_size_above_cap_builds_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("group table built above the cap")

        monkeypatch.setattr(kslab.pauli, "lambda_element", refuse)
        record = run(["group", "--n", str(GROUP_LIMIT + 1)])
        assert record["exit"] == EXIT_USAGE
        assert record["stdout"] == ""
        assert "error" in record["stderr"]


class TestBound:
    def test_formula_only(self):
        record = run(["bound", "--n", "5"])
        assert record["exit"] == EXIT_PASS
        assert json.loads(record["stdout"]) == {"n": 5, "bound": 4.0}

    def test_oversized_n_exits_without_traceback(self):
        record = run(["bound", "--n", "5000"])
        assert record["exit"] == EXIT_USAGE
        assert record["stdout"] == ""
        assert "error" in record["stderr"]

    def test_non_finite_payload_is_not_printed(self, monkeypatch):
        monkeypatch.setattr(kslab.inequalities, "multipartite_bound", lambda n: float("nan"))
        record = run(["bound", "--n", "4"])
        assert record["exit"] == EXIT_USAGE
        assert record["stdout"] == ""

    def test_too_small_is_usage_error(self):
        assert run(["bound", "--n", "1"])["exit"] == EXIT_USAGE

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_bad_workers_is_usage_error_without_bruteforce(self, workers):
        record = run(["bound", "--n", "4", "--workers", workers])
        assert record["exit"] == EXIT_USAGE
        assert record["stdout"] == ""
        assert "error: workers must be >= 1" in record["stderr"]


class TestViolate:
    def test_product_state_violates(self):
        record = run(["violate", "--state", "product:+++"])
        assert record["exit"] == EXIT_PASS
        payload = json.loads(record["stdout"])
        assert payload["lhs"] == pytest.approx(4.0, abs=1e-9)
        assert payload["violated"] is True

    def test_malformed_spec_is_usage_error(self):
        record = run(["violate", "--state", "werner"])
        assert record["exit"] == EXIT_USAGE
        assert "kind prefix" in record["stderr"]

    def test_kind_mismatch_is_usage_error(self):
        record = run(["violate", "--state", "ghz:n=3,alpha=0.6,beta=0.8", "--kind", "two"])
        assert record["exit"] == EXIT_USAGE

    def test_unknown_kind_is_usage_error(self):
        record = run(["violate", "--state", "werner:lambda=0.5", "--kind", "both"])
        assert record["exit"] == EXIT_USAGE

    @pytest.mark.parametrize(
        "spec",
        ["ghz:n=3,alpha=nan,beta=1", "ghz:n=3,alpha=1,beta=infj", "werner:lambda=nan"],
    )
    def test_non_finite_spec_is_usage_error(self, spec):
        record = run(["violate", "--state", spec])
        assert record["exit"] == EXIT_USAGE
        assert record["stdout"] == ""
        assert record["stderr"].startswith("error:")

    def test_non_finite_dense_file_is_usage_error(self, tmp_path):
        path = tmp_path / "nan.txt"
        rows = [["0.25,0" if i == j else "0,0" for j in range(4)] for i in range(4)]
        rows[0][1] = rows[1][0] = "nan,0"
        path.write_text("2\n" + "\n".join(" ".join(row) for row in rows) + "\n")
        record = run(["violate", "--state", f"dense:@{path}"])
        assert record["exit"] == EXIT_USAGE
        assert record["stdout"] == ""
        assert "finite" in record["stderr"]

    def test_overflowing_dense_file_prints_one_error_line(self, tmp_path):
        # the trace of these entries overflows; numpy's warning must not
        # leak, so the command runs as a child, outside pytest's warning filters
        path = tmp_path / "huge.txt"
        path.write_text("1\n1e308,0 1e308,0\n1e308,0 1e308,0\n")
        record = run([*MODULE, "violate", "--state", f"dense:@{path}"])
        assert record["exit"] == EXIT_USAGE
        assert record["stdout"] == ""
        assert "trace is not 1" in record["stderr"]

    @pytest.mark.parametrize("header", ["100000", "-3", "0", "11"])
    def test_dense_header_out_of_range_is_usage_error(self, tmp_path, header):
        path = tmp_path / "state.txt"
        path.write_text(header + "\n0.5,0 0,0\n0,0 0.5,0\n")
        record = run(["violate", "--state", f"dense:@{path}"])
        assert record["exit"] == EXIT_USAGE
        assert record["stdout"] == ""
        assert record["stderr"].startswith("error:")
        assert f"site count {header} outside 1..10" in record["stderr"]

    def test_large_product_state(self):
        n = 1023
        record = run(["violate", "--state", "product:" + "+" * n])
        assert record["exit"] == EXIT_PASS
        payload = json.loads(record["stdout"])
        assert payload["lhs"] == 2.0 ** (n - 1)
        assert payload["bound"] == 2.0 ** (n // 2)


class TestScan:
    def test_csv_round_trips_to_identical_reports(self):
        record = run(["scan", "--from", "2", "--to", "5"])
        assert record["exit"] == EXIT_PASS
        assert record["stdout"].splitlines()[0] == "state,kind,n,lhs,bound,ratio,violated,sigma"
        assert scan_from_csv(record["stdout"]) == scan(2, 5)

    def test_reversed_range_is_usage_error(self):
        assert run(["scan", "--from", "4", "--to", "2"])["exit"] == EXIT_USAGE


class TestCheck:
    def write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_default_threshold_is_the_library_default(self, tmp_path, monkeypatch):
        monkeypatch.setattr(kslab.inequalities, "SIGNIFICANCE_K", 20.0)
        path = self.write(tmp_path, "word,value,sigma\nXX,0.7,0.01\nYY,0.7,0.01\nZZ,-0.7,0.01\n")
        record = run(["check", "--file", path, "--kind", "two"])
        assert record["exit"] == EXIT_PASS
        assert json.loads(record["stdout"])["k"] == 20.0

    @pytest.mark.parametrize("k", ["-5", "nan", "inf", "-inf", "-1e3", "-nan"])
    def test_bad_threshold_is_usage_error(self, tmp_path, k):
        # lhs 1.95 lies below the bound 2, so no valid k reports a violation
        path = self.write(tmp_path, "word,value,sigma\nXX,0.5,0.02\nYY,0.45,0.02\nZZ,0,0.02\n")
        record = run(["check", "--file", path, "--kind", "two", "--k", k])
        assert record["exit"] == EXIT_USAGE
        assert record["stdout"] == ""
        assert "k must be finite and >= 0" in record["stderr"]

    def test_multipartite_success_builds_no_word(self, tmp_path, monkeypatch):
        words = required_words("multipartite", 6)
        path = self.write(
            tmp_path, "word,value,sigma\n" + "".join(f"{w},0.25,0.01\n" for w in words)
        )
        calls = []

        def forbidden(*args):
            calls.append(args)
            raise AssertionError("word built on the success path")

        letters = PauliString.letters
        monkeypatch.setattr(kslab.experiment, "lambda_element", forbidden)
        monkeypatch.setattr(kslab.pauli, "lambda_element", forbidden)
        monkeypatch.setattr(
            PauliString, "letters", property(lambda w: calls.append(w) or letters.fget(w))
        )
        record = run(["check", "--file", path, "--kind", "multi"])
        assert record["exit"] == EXIT_PASS
        assert json.loads(record["stdout"])["lhs"] == 8.0
        assert calls == []

    @pytest.mark.parametrize(
        "kind, rows",
        [
            ("two", "XX,0.5,1e200\nYY,0.5,0\nZZ,-0.5,0\n"),
            ("multi", "II,1,0\nZZ,0.5,1e200\n"),
        ],
        ids=["two", "multi"],
    )
    def test_huge_sigma_is_carried_through(self, tmp_path, kind, rows):
        path = self.write(tmp_path, "word,value,sigma\n" + rows)
        record = run(["check", "--file", path, "--kind", kind])
        assert record["exit"] == EXIT_PASS
        payload = json.loads(record["stdout"])
        assert payload["sigma"] == 1e200
        assert payload["violated"] is False


# Runs ``kslab.cli.main`` on the command line arguments with the address
# space capped at 512 MiB, so that an unbounded read fails fast.
_CAPPED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
from kslab.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", "--file", "/dev/zero", "--kind", "multi"], "error: line 1: longer than"),
        (["violate", "--state", "dense:@/dev/zero"], "error: /dev/zero: line 1: longer than"),
    ],
    ids=["check", "violate"],
)
def test_line_without_end_exits_without_traceback(argv, message, kslab_env):
    # one thread keeps numpy's own address space small
    env = dict(kslab_env, OPENBLAS_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, "-c", _CAPPED, *argv],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert result.returncode == EXIT_USAGE
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith(message)


class TestStreamedInput:
    """A bad byte read from a pipe, or from a FIFO whose writer stays
    open, exits 1 naming its line without waiting for the writer."""

    CASES = {
        "check": (["check", "--file", "{}", "--kind", "two"],
                  b"word,value,sigma\nXX,0.5,0.02\nYY,0.5,0.02\nZZ,-0.5,\xff0.02\n",
                  "error: line 4: byte 0xff is not UTF-8\n"),
        "dense": (["violate", "--state", "dense:@{}"],
                  b"1\n0.5,0 0,0\n0,0 0.5,\xff\n",
                  "error: {}: line 3: byte 0xff is not UTF-8\n"),
    }

    @pytest.mark.parametrize("source", ["fifo", "pipe"])
    @pytest.mark.parametrize("reader", sorted(CASES))
    def test_bad_byte_is_named_while_the_writer_is_open(
        self, tmp_path, kslab_env, reader, source
    ):
        argv, data, message = self.CASES[reader]
        if source == "fifo":
            name = str(tmp_path / "input")
            os.mkfifo(name)
            writer = os.open(name, os.O_RDWR)  # opens without a reader, and stays a writer
            stdin = subprocess.DEVNULL
        else:
            name = "/dev/stdin"
            stdin, writer = os.pipe()
        try:
            os.write(writer, data)
            child = subprocess.Popen(
                [sys.executable, "-m", "kslab.cli", *(arg.format(name) for arg in argv)],
                stdin=stdin,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=kslab_env,
            )
            try:
                # a reader that waits for the writer fails here instead of hanging
                out, err = child.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                child.kill()
                child.communicate()
                raise
        finally:
            os.close(writer)
            if source == "pipe":
                os.close(stdin)
        assert child.returncode == EXIT_USAGE
        assert out == ""
        assert err == message.format(name)


class TestVerify:
    def test_unknown_suite_is_usage_error(self):
        assert run(["verify", "--suite", "everything"])["exit"] == EXIT_USAGE


class TestUsage:
    def test_no_arguments(self):
        assert run([])["exit"] == EXIT_USAGE

    def test_unknown_command(self):
        assert run(["frobnicate"])["exit"] == EXIT_USAGE

    def test_exit_codes_are_distinct(self):
        assert (EXIT_PASS, EXIT_USAGE, EXIT_VERIFICATION) == (0, 1, 2)
