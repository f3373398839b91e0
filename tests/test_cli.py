"""Command line interface: outputs, exit codes, round trips."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from oracle import oracle_matrix, scan_from_csv

import kslab.experiment
import kslab.inequalities
import kslab.pauli
from kslab.cli import EXIT_PASS, EXIT_USAGE, EXIT_VERIFICATION, build_parser, main
from kslab.experiment import required_words
from kslab.inequalities import SIGNIFICANCE_K, scan
from kslab.pauli import GROUP_LIMIT, PauliString
from kslab.states import (
    DenseState,
    GhzSuperposition,
    pi_vector,
    to_density_matrix,
    write_dense_state,
)


def run_cli(capsys, *argv: str):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = int(exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv: str):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_PASS, err
    return json.loads(out)


class TestGroup:
    def test_two_site_table(self, capsys):
        payload = run_json(capsys, "group", "--n", "2")
        assert payload["order"] == 4
        assert payload["closure"] is True
        words = [entry["word"] for entry in payload["elements"]]
        assert words == ["+II", "+ZZ", "+XX", "-YY"]

    def test_larger_table_closes(self, capsys):
        payload = run_json(capsys, "group", "--n", "5")
        assert payload["order"] == 32
        assert payload["closure"] is True

    def test_bad_size_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "group", "--n", "0")
        assert code == EXIT_USAGE
        assert "error" in err

    @pytest.mark.parametrize("n", [-1, 0, GROUP_LIMIT + 1])
    def test_out_of_range_size_names_the_range(self, capsys, n):
        code, out, err = run_cli(capsys, "group", "--n", str(n))
        assert code == EXIT_USAGE
        assert out == ""
        assert f"1 <= n <= {GROUP_LIMIT}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("n", [11, 12])
    def test_largest_tables_close(self, capsys, n):
        payload = run_json(capsys, "group", "--n", str(n))
        assert payload["order"] == 1 << n
        assert payload["closure"] is True
        assert "first_break" not in payload

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "group")
        assert code == EXIT_USAGE

    def test_size_above_cap_builds_nothing(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("group table built above the cap")

        monkeypatch.setattr(kslab.pauli, "lambda_element", refuse)
        code, out, err = run_cli(capsys, "group", "--n", str(GROUP_LIMIT + 1))
        assert code == EXIT_USAGE
        assert out == ""
        assert "error" in err


class TestBound:
    def test_formula_only(self, capsys):
        payload = run_json(capsys, "bound", "--n", "5")
        assert payload == {"n": 5, "bound": 4.0}

    def test_oversized_n_exits_without_traceback(self, kslab_env):
        result = subprocess.run(
            [sys.executable, "-m", "kslab.cli", "bound", "--n", "5000"],
            capture_output=True,
            text=True,
            timeout=60,
            env=kslab_env,
        )
        assert result.returncode == EXIT_USAGE
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert "error" in result.stderr

    def test_non_finite_payload_is_not_printed(self, capsys, monkeypatch):
        monkeypatch.setattr(kslab.inequalities, "multipartite_bound", lambda n: float("nan"))
        code, out, _ = run_cli(capsys, "bound", "--n", "4")
        assert code == EXIT_USAGE
        assert out == ""

    def test_bruteforce_agrees(self, capsys):
        payload = run_json(capsys, "bound", "--n", "3", "--bruteforce")
        assert payload["bound_formula"] == 2.0
        assert payload["bound_bruteforce"] == 2
        assert payload["agree"] is True
        assert payload["cross_check"] == "exhaustive"
        assert set(payload["witness_assignment"]) == {"vx", "vy"}

    def test_bruteforce_with_workers(self, capsys):
        payload = run_json(capsys, "bound", "--n", "6", "--bruteforce", "--workers", "2")
        assert payload["agree"] is True

    def test_too_small_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "bound", "--n", "1")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_bad_workers_is_usage_error_without_bruteforce(self, capsys, workers):
        code, out, err = run_cli(capsys, "bound", "--n", "4", "--workers", workers)
        assert code == EXIT_USAGE
        assert out == ""
        assert "error: workers must be >= 1" in err


class TestViolate:
    def test_werner_half_violates(self, capsys):
        payload = run_json(
            capsys, "violate", "--state", "werner:lambda=0.5", "--kind", "two"
        )
        assert payload["violated"] is True
        assert payload["lhs"] == pytest.approx(2.5, abs=1e-10)
        assert payload["fidelity"] == pytest.approx(0.625, abs=1e-10)

    def test_werner_kind_defaults_to_two(self, capsys):
        payload = run_json(capsys, "violate", "--state", "werner:lambda=0.5")
        assert payload["kind"] == "two-partite"
        assert "fidelity" in payload

    def test_ghz_kind_defaults_to_multi(self, capsys):
        payload = run_json(
            capsys, "violate", "--state", "ghz:n=3,alpha=0.6,beta=0.8"
        )
        assert payload["kind"] == "multipartite"
        assert payload["lhs"] == pytest.approx(4.0, abs=1e-9)
        assert payload["ratio"] == pytest.approx(2.0, abs=1e-9)
        assert payload["violated"] is True

    def test_product_state_violates(self, capsys):
        payload = run_json(capsys, "violate", "--state", "product:+++")
        assert payload["lhs"] == pytest.approx(4.0, abs=1e-9)
        assert payload["violated"] is True

    def test_dense_state_from_file(self, capsys, tmp_path):
        path = tmp_path / "pi.txt"
        v = pi_vector()
        write_dense_state(str(path), DenseState(np.outer(v, v.conj())))
        payload = run_json(capsys, "violate", "--state", f"dense:@{path}", "--kind", "two")
        assert payload["lhs"] == pytest.approx(4.0, abs=1e-10)
        assert payload["fidelity"] == pytest.approx(1.0, abs=1e-10)

    def test_malformed_spec_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "violate", "--state", "werner")
        assert code == EXIT_USAGE
        assert "kind prefix" in err

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("ghz:n=3,alpha=0.6,beta=0.8,gamma=5", "unknown field 'gamma'"),
            ("werner:lambda=0.5,lambda=0.9", "repeated field 'lambda'"),
        ],
    )
    def test_unknown_or_repeated_field_is_usage_error(self, capsys, spec, message):
        code, out, err = run_cli(capsys, "violate", "--state", spec)
        assert code == EXIT_USAGE
        assert out == ""
        assert message in err

    def test_missing_dense_file_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "violate", "--state", "dense:@/no/such/file")
        assert code == EXIT_USAGE

    def test_kind_mismatch_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "violate", "--state", "ghz:n=3,alpha=0.6,beta=0.8", "--kind", "two"
        )
        assert code == EXIT_USAGE

    def test_unknown_kind_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "violate", "--state", "werner:lambda=0.5", "--kind", "both"
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "spec",
        ["ghz:n=3,alpha=nan,beta=1", "ghz:n=3,alpha=1,beta=infj", "werner:lambda=nan"],
    )
    def test_non_finite_spec_is_usage_error(self, capsys, spec):
        code, out, err = run_cli(capsys, "violate", "--state", spec)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:")

    def test_non_finite_dense_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "nan.txt"
        rows = [["0.25,0" if i == j else "0,0" for j in range(4)] for i in range(4)]
        rows[0][1] = rows[1][0] = "nan,0"
        path.write_text("2\n" + "\n".join(" ".join(row) for row in rows) + "\n")
        code, out, err = run_cli(capsys, "violate", "--state", f"dense:@{path}")
        assert code == EXIT_USAGE
        assert out == ""
        assert "finite" in err

    def test_overflowing_dense_file_prints_one_error_line(self, tmp_path, kslab_env):
        # the trace of these entries overflows; numpy's warning must not leak
        path = tmp_path / "huge.txt"
        path.write_text("1\n1e308,0 1e308,0\n1e308,0 1e308,0\n")
        result = subprocess.run(
            [sys.executable, "-m", "kslab.cli", "violate", "--state", f"dense:@{path}"],
            capture_output=True,
            text=True,
            timeout=60,
            env=kslab_env,
        )
        assert result.returncode == EXIT_USAGE
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert "trace is not 1" in result.stderr

    def test_overflowing_spectrum_is_not_positive(self, tmp_path, kslab_env):
        # finite, Hermitian, trace 1; eigenvalues +-2.4e308 overflow to NaN
        path = tmp_path / "huge.txt"
        path.write_text(
            "2\n0.25,0 1.7e308,1.7e308 0,0 0,0\n1.7e308,-1.7e308 0.25,0 0,0 0,0\n"
            "0,0 0,0 0.25,0 0,0\n0,0 0,0 0,0 0.25,0\n"
        )
        result = subprocess.run(
            [sys.executable, "-m", "kslab.cli", "violate", "--state", f"dense:@{path}",
             "--kind", "multi"],
            capture_output=True,
            text=True,
            timeout=60,
            env=kslab_env,
        )
        assert result.returncode == EXIT_USAGE
        assert result.stdout == ""
        assert result.stderr == "error: density matrix is not positive semidefinite\n"

    @pytest.mark.parametrize("header", ["100000", "-3", "0", "11"])
    def test_dense_header_out_of_range_is_usage_error(self, capsys, tmp_path, header):
        path = tmp_path / "state.txt"
        path.write_text(header + "\n0.5,0 0,0\n0,0 0.5,0\n")
        code, out, err = run_cli(capsys, "violate", "--state", f"dense:@{path}")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:")
        assert f"site count {header} outside 1..10" in err
        assert len(err.splitlines()) == 1

    def test_large_product_state(self, capsys):
        n = 1023
        payload = run_json(capsys, "violate", "--state", "product:" + "+" * n)
        assert payload["lhs"] == 2.0 ** (n - 1)
        assert payload["bound"] == 2.0 ** (n // 2)


class TestScan:
    def test_csv_round_trips_to_identical_reports(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--from", "2", "--to", "5")
        assert code == EXIT_PASS
        assert out.splitlines()[0] == "state,kind,n,lhs,bound,ratio,violated,sigma"
        assert scan_from_csv(out) == scan(2, 5)

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--from", "2", "--to", "3", "--format", "json")
        assert code == EXIT_PASS
        rows = json.loads(out)
        assert [row["state"] for row in rows] == ["ghz", "product", "ghz", "product"]
        assert all(row["bound"] == 2.0 for row in rows)

    def test_reversed_range_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "scan", "--from", "4", "--to", "2")
        assert code == EXIT_USAGE


class TestCheck:
    WERNER_ROWS = "word,value,sigma\nXX,0.5,0.02\nYY,0.5,0.02\nZZ,-0.5,0.02\n"

    def write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_noisy_werner_data(self, capsys, tmp_path):
        path = self.write(tmp_path, self.WERNER_ROWS)
        payload = run_json(capsys, "check", "--file", path, "--kind", "two")
        assert payload["lhs"] == pytest.approx(2.5, abs=1e-12)
        assert payload["sigma"] == pytest.approx(3**0.5 * 0.02, abs=1e-12)
        assert payload["violated"] is True

    def test_strict_threshold_flips_the_call(self, capsys, tmp_path):
        path = self.write(tmp_path, self.WERNER_ROWS)
        payload = run_json(capsys, "check", "--file", path, "--kind", "two", "--k", "100")
        assert payload["violated"] is False
        assert payload["k"] == 100.0

    def test_default_threshold_is_the_library_default(self):
        # the parser loads no kslab.inequalities, so it spells the value out
        args = build_parser().parse_args(["check", "--file", "data.csv", "--kind", "two"])
        assert args.k == SIGNIFICANCE_K

    @pytest.mark.parametrize("k", ["-5", "nan", "inf", "-inf", "-1e3", "-nan"])
    def test_bad_threshold_is_usage_error(self, capsys, tmp_path, k):
        # lhs 1.95 lies below the bound 2, so no valid k reports a violation
        path = self.write(tmp_path, "word,value,sigma\nXX,0.5,0.02\nYY,0.45,0.02\nZZ,0,0.02\n")
        code, out, err = run_cli(capsys, "check", "--file", path, "--kind", "two", "--k", k)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.count("\n") == 1 and "k must be finite and >= 0" in err

    def test_ghz_synthetic_matches_analytic(self, capsys, tmp_path):
        rho = to_density_matrix(GhzSuperposition(3, 2**-0.5, 2**-0.5))
        lines = ["word,value,sigma"]
        for letters in required_words("multipartite", 3):
            value = float(np.real(np.trace(rho @ oracle_matrix("+" + letters))))
            lines.append(f"{letters},{min(1.0, max(-1.0, value))!r},0")
        path = self.write(tmp_path, "\n".join(lines) + "\n")
        payload = run_json(capsys, "check", "--file", path, "--kind", "multi")
        assert payload["lhs"] == pytest.approx(4.0, abs=1e-10)
        assert payload["bound"] == 2.0
        assert payload["violated"] is True

    def test_multipartite_success_builds_no_word(self, capsys, tmp_path, monkeypatch):
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
        payload = run_json(capsys, "check", "--file", path, "--kind", "multi")
        assert payload["lhs"] == 8.0
        assert calls == []

    def test_missing_word_is_usage_error(self, capsys, tmp_path):
        path = self.write(tmp_path, "word,value,sigma\nXX,0.5,0.02\n")
        code, _, err = run_cli(capsys, "check", "--file", path, "--kind", "two")
        assert code == EXIT_USAGE
        assert "missing" in err

    def test_short_file_with_long_word_is_brief(self, capsys, tmp_path):
        path = self.write(tmp_path, "word,value,sigma\n" + "Z" * 40 + ",0.5,0.01\n")
        code, out, err = run_cli(capsys, "check", "--file", path, "--kind", "multi")
        assert code == EXIT_USAGE
        assert out == ""
        assert len(err.encode()) < 1024
        assert "missing" in err
        assert len(err.splitlines()) == 1

    def test_oversized_field_exits_without_traceback(self, tmp_path, kslab_env):
        word = '"' + "Z" * 200_000 + '"'
        path = self.write(tmp_path, f"word,value,sigma\n{word},0.5,0.01\n")
        result = subprocess.run(
            [sys.executable, "-m", "kslab.cli", "check", "--file", path, "--kind", "multi"],
            capture_output=True,
            text=True,
            timeout=60,
            env=kslab_env,
        )
        assert result.returncode == EXIT_USAGE
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error: line 2: field larger than field limit")
        assert len(result.stderr.splitlines()) == 1

    @pytest.mark.parametrize(
        "kind, rows",
        [
            ("two", "XX,0.5,1e200\nYY,0.5,0\nZZ,-0.5,0\n"),
            ("multi", "II,1,0\nZZ,0.5,1e200\n"),
        ],
        ids=["two", "multi"],
    )
    def test_huge_sigma_is_carried_through(self, capsys, tmp_path, kind, rows):
        path = self.write(tmp_path, "word,value,sigma\n" + rows)
        payload = run_json(capsys, "check", "--file", path, "--kind", kind)
        assert payload["sigma"] == 1e200
        assert payload["violated"] is False

    def test_malformed_file_is_usage_error(self, capsys, tmp_path):
        path = self.write(tmp_path, "word,value\nXX,0.5\n")
        code, _, _ = run_cli(capsys, "check", "--file", path, "--kind", "two")
        assert code == EXIT_USAGE

    def test_empty_file_is_usage_error(self, capsys, tmp_path):
        path = self.write(tmp_path, "word,value,sigma\n")
        code, _, err = run_cli(capsys, "check", "--file", path, "--kind", "two")
        assert code == EXIT_USAGE
        assert "no correlator rows" in err

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "check", "--file", str(tmp_path / "nope.csv"), "--kind", "two"
        )
        assert code == EXIT_USAGE


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
    def test_identities_suite(self, capsys):
        payload = run_json(capsys, "verify", "--suite", "identities")
        assert payload["ok"] is True
        assert [r["n"] for r in payload["reports"]] == list(range(2, 9))
        assert all(r["ok"] for r in payload["reports"])

    def test_hvkn_suite(self, capsys):
        payload = run_json(capsys, "verify", "--suite", "hvkn")
        assert payload["ok"] is True
        assert all(r["mode"] == "exhaustive" for r in payload["reports"])
        assert all(r["failures"] == 0 for r in payload["reports"])

    def test_fine_suite(self, capsys):
        payload = run_json(capsys, "verify", "--suite", "fine")
        assert payload["ok"] is True
        assert payload["failures"] == 0

    def test_certificates_suite(self, capsys):
        payload = run_json(capsys, "verify", "--suite", "certificates")
        assert payload["ok"] is True
        scenarios = {r["scenario"]: r for r in payload["reports"]}
        assert set(scenarios) == {"peres-mermin", "ghz"}
        assert all(r["satisfying_count"] == 0 for r in scenarios.values())

    def test_unknown_suite_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--suite", "everything")
        assert code == EXIT_USAGE


class TestUsage:
    def test_no_arguments(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == EXIT_USAGE

    def test_unknown_command(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == EXIT_USAGE

    def test_exit_codes_are_distinct(self):
        assert (EXIT_PASS, EXIT_USAGE, EXIT_VERIFICATION) == (0, 1, 2)


class TestConsoleScript:
    def test_installed_entry_point(self, kslab_env):
        result = subprocess.run(
            [sys.executable, "-m", "kslab.cli", "violate",
             "--state", "werner:lambda=0.5", "--kind", "two"],
            capture_output=True,
            text=True,
            timeout=60,
            env=kslab_env,
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)
        assert payload["violated"] is True
