"""Correlator CSV ingestion and measured-inequality evaluation."""

from __future__ import annotations

import builtins
import io
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import ingest_correlators_reference

import kslab.experiment
from kslab.experiment import (
    WORD_LIST_LIMIT,
    evaluate_experiment,
    ingest_correlators,
    required_words,
)
from kslab.pauli import LINE_LIMIT, PauliString, parse_word


def csv_of(rows: list[str]) -> io.StringIO:
    return io.StringIO("word,value,sigma\n" + "\n".join(rows) + "\n")


WERNER_HALF = ["XX,0.5,0.02", "YY,0.5,0.02", "ZZ,-0.5,0.02"]


class TestIngestion:
    def test_reads_rows_in_order(self):
        table = ingest_correlators(csv_of(WERNER_HALF))
        assert table == {"XX": (0.5, 0.02), "YY": (0.5, 0.02), "ZZ": (-0.5, 0.02)}
        assert list(table) == ["XX", "YY", "ZZ"]

    def test_reads_from_path(self, tmp_path):
        path = tmp_path / "correlators.csv"
        path.write_text(csv_of(WERNER_HALF).getvalue(), encoding="utf-8")
        assert len(ingest_correlators(str(path))) == 3

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "correlators.csv"
        path.write_bytes(b"\xef\xbb\xbf" + csv_of(WERNER_HALF).getvalue().encode())
        assert ingest_correlators(str(path)) == ingest_correlators(csv_of(WERNER_HALF))

    @pytest.mark.parametrize(
        "text, message",
        [
            (b"word,value,sigma\nXX,0.5,0.02\nYY,0.5,0.02\nZZ,-0.5,\xff0.02\n",
             "line 4: byte 0xff is not UTF-8"),
            (b"wo\xffrd,value,sigma\nXX,0.5,0.02\n", "line 1: byte 0xff is not UTF-8"),
            (b"word,value,sigma\r\n" + b"\r\n" * 3000 + b"YY,\xe2,0\r\n",
             "line 3002: byte 0xe2 is not UTF-8"),
            (b'word,value,sigma\nZZ,"0.5\n",0\nYY,\xc3,0\n', "line 4: byte 0xc3 is not UTF-8"),
            (b"word,value,sigma\nQQ,0.5,0\n" + b"\n" * 600 + b"ZZ,\xff,0\n",
             "line 2: not a Pauli word: 'QQ'"),
        ],
        ids=["line-4", "header", "deep-crlf", "quoted-newline", "reading-order"],
    )
    def test_undecodable_byte_is_named_by_line(self, tmp_path, text, message):
        # faults are reported in reading order, whatever the text layer buffers
        path = tmp_path / "correlators.csv"
        path.write_bytes(text)
        with pytest.raises(ValueError) as info:
            ingest_correlators(str(path))
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "errors, message",
        [("strict", "byte 0xff is not UTF-8"),
         ("surrogateescape", "line 4: byte 0xff is not UTF-8")],
        ids=["strict", "surrogateescape"],
    )
    def test_undecodable_byte_in_a_caller_stream(self, errors, message):
        # a strict stream fails ahead of the line it is on, so no line is named
        data = b"word,value,sigma\nXX,0.5,0.02\nYY,0.5,0.02\nZZ,-0.5,\xff0.02\n"
        stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors=errors, newline="")
        with pytest.raises(ValueError) as info:
            ingest_correlators(stream)
        assert str(info.value) == message

    def test_undecodable_file_is_opened_once(self, tmp_path, monkeypatch):
        path = tmp_path / "correlators.csv"
        path.write_bytes(b"word,value,sigma\nXX,0.5,0.02\nYY,\xff,0\n")
        opened = []

        def counting(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        real_open = builtins.open
        monkeypatch.setattr(builtins, "open", counting)
        with pytest.raises(ValueError, match="line 3: byte 0xff is not UTF-8"):
            ingest_correlators(str(path))
        assert opened == [str(path)]

    def test_header_is_case_and_space_tolerant(self):
        text = " Word , VALUE , Sigma \nZZ,0.25,0\n"
        assert ingest_correlators(io.StringIO(text)) == {"ZZ": (0.25, 0.0)}

    # One row after a valid XX row: the table it gives, or the error it
    # raises.  Rows that fail two checks show the order of the checks.
    @pytest.mark.parametrize(
        "row, expected",
        [
            ("YY,0.5,0.02", {"YY": (0.5, 0.02)}),
            ("-YY,0.5,0", {"YY": (-0.5, 0.0)}),
            ("+ZZ, -0.25 , 0", {"ZZ": (-0.25, 0.0)}),
            ("ZZ,1.05,0.02", {"ZZ": (1.05, 0.02)}),
            ("ZZ,0.5", "expected 3 fields, got 2"),
            ("ZZ,half,wide", "could not convert string to float: 'half'"),
            ("ZZ,0.5,wide", "could not convert string to float: 'wide'"),
            ("QQ,nan,-1", "not a Pauli word: 'QQ'"),
            ("+iXY,nan,0", "word '+iXY' is not an observable"),
            ("ZZ,nan,-1", "non-finite value for 'ZZ'"),
            ("ZZ,inf,0", "non-finite value for 'ZZ'"),
            ("ZZ,5,-0.01", "bad standard error for 'ZZ': -0.01"),
            ("ZZ,0.1,inf", "bad standard error for 'ZZ': inf"),
            ("ZZ,1.05,0.01", "value 1.05 for 'ZZ' exceeds |1| + 3*sigma"),
            ("-XX,-1.2,0", "value -1.2 for '-XX' exceeds |1| + 3*sigma"),
            ("-XX,0.5,0", "duplicate word '-XX'"),
        ],
        ids=[
            "plain_word",
            "signed_word_folds_into_value",
            "spaced_fields",
            "value_range_allows_three_sigma_slack",
            "field_count",
            "bad_value_before_bad_sigma",
            "bad_sigma",
            "bad_word_before_value_checks",
            "rejects_non_observable_word",
            "non_finite_value_before_sigma",
            "rejects_non_finite_value",
            "rejects_negative_sigma",
            "rejects_infinite_sigma",
            "value_range_exceeded",
            "value_range_before_duplicate",
            "duplicate_letters",
        ],
    )
    def test_row(self, row, expected):
        source = csv_of(["XX,0.5,0.02", row])
        if isinstance(expected, str):
            with pytest.raises(ValueError) as info:
                ingest_correlators(source)
            assert str(info.value) == f"line 3: {expected}"
        else:
            assert ingest_correlators(source) == {"XX": (0.5, 0.02), **expected}

    def test_each_row_is_parsed_once(self, monkeypatch):
        calls = []

        def counting(text):
            calls.append(text)
            return parse_word(text)

        monkeypatch.setattr(kslab.experiment, "parse_word", counting)
        monkeypatch.setattr(PauliString, "from_text", None)  # no word is built
        table = ingest_correlators(csv_of(["-ZZ,0.25,0", "", "XX,0.5,0", "YY,0.5,0"]))
        assert table["ZZ"] == (-0.25, 0.0)
        assert calls == ["-ZZ", "XX", "YY"]

    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["", "+", "-", "i", "+i", "-i", "--", "i-"]),
                st.text(alphabet="IXYZxyz ", max_size=3),
                st.sampled_from(["0.5", "-0.25", "1.2", "nan"]),
            ).map(lambda r: f"{r[0]}{r[1]},{r[2]},0.02"),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=300)
    def test_rows_match_the_pauli_string_reference(self, rows):
        # signs, phases, lowercase letters, inner spaces and empty words
        text = csv_of(rows).getvalue()
        try:
            expected = ingest_correlators_reference(text)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                ingest_correlators(io.StringIO(text))
            assert str(info.value) == str(exc)
        else:
            assert list(ingest_correlators(io.StringIO(text)).items()) == list(expected.items())

    def test_blank_lines_are_skipped(self):
        text = "word,value,sigma\n\nZZ,0.25,0\n\n"
        assert len(ingest_correlators(io.StringIO(text))) == 1

    def test_empty_file_is_an_error(self):
        with pytest.raises(ValueError, match="line 1"):
            ingest_correlators(io.StringIO(""))

    def test_wrong_header_is_an_error(self):
        with pytest.raises(ValueError, match="line 1"):
            ingest_correlators(io.StringIO("observable,mean,err\nZZ,0.25,0\n"))

    def test_field_count_error_carries_line_number(self):
        with pytest.raises(ValueError, match="line 3"):
            ingest_correlators(csv_of(["XX,0.5,0.02", "YY,0.5"]))

    def test_bad_float_error_carries_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            ingest_correlators(csv_of(["XX,half,0.02"]))

    def test_bad_word_error_carries_line_number(self):
        with pytest.raises(ValueError, match="line 4"):
            ingest_correlators(csv_of(["XX,0.5,0", "YY,0.5,0", "QQ,0.5,0"]))

    @pytest.mark.parametrize(
        "text, line",
        [
            ('"' + "w" * 200_000 + '",value,sigma\nZZ,0.25,0\n', "line 1"),
            ('word,value,sigma\nXX,0.5,0\n"' + "Z" * 200_000 + '",0.5,0\n', "line 3"),
        ],
        ids=["header", "row"],
    )
    def test_oversized_field_error_carries_line_number(self, text, line):
        with pytest.raises(ValueError, match=f"{line}: field larger than field limit"):
            ingest_correlators(io.StringIO(text))

    def test_lines_are_counted_across_quoted_newlines(self):
        text = 'word,value,sigma\n"ZZ\n",0.5,0\nQQ,1,0\n'
        with pytest.raises(ValueError, match="^line 4: not a Pauli word: 'QQ'$"):
            ingest_correlators(io.StringIO(text))

    def test_line_limit(self):
        # a line of LINE_LIMIT characters, line ending included, is parsed;
        # one more character and it is refused unread
        commas = "," * (LINE_LIMIT - 1)
        with pytest.raises(ValueError, match=f"^line 2: expected 3 fields, got {LINE_LIMIT}$"):
            ingest_correlators(io.StringIO(f"word,value,sigma\n{commas}\n"))
        with pytest.raises(ValueError, match=f"^line 2: longer than {LINE_LIMIT} characters$"):
            ingest_correlators(io.StringIO(f"word,value,sigma\n,{commas}\n"))

    @pytest.mark.parametrize(("header", "first"), [("", 1), ("word,value,sigma\n", 2)])
    def test_record_limit_spans_lines(self, header, first):
        # quoted newlines split a record over many lines, but the record
        # as a whole may hold LINE_LIMIT characters and is refused unread
        # past them; the header is bounded the same way
        fields = (LINE_LIMIT - 1) // 5
        record = '"a\n",' * fields + "\n"
        assert len(record) == LINE_LIMIT
        with pytest.raises(ValueError, match=f"^line {first + fields}: expected "):
            ingest_correlators(io.StringIO(header + record))
        with pytest.raises(
            ValueError, match=f"^line {first + fields}: longer than {LINE_LIMIT} characters$"
        ):
            ingest_correlators(io.StringIO(header + '"a\n",' + record))

    def test_each_record_has_its_own_limit(self):
        # sixteen two-line rows of a tenth of LINE_LIMIT characters each
        words = required_words("multipartite", 5)
        pad = " " * (LINE_LIMIT // 10)
        rows = "".join(f'{w},"0.25\n{pad}",0\n' for w in words)
        table = ingest_correlators(io.StringIO("word,value,sigma\n" + rows))
        assert table == dict.fromkeys(words, (0.25, 0.0))

    def test_duplicate_word_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ingest_correlators(csv_of(["XX,0.5,0", "XX,0.6,0"]))

    def test_signed_duplicate_collides_with_plain_form(self):
        # -YY measures the same letters as YY, so both rows conflict
        with pytest.raises(ValueError, match="duplicate"):
            ingest_correlators(csv_of(["YY,0.5,0", "-YY,-0.5,0"]))


class TestRequiredWords:
    def test_two_partite_set(self):
        assert required_words("two-partite", 2) == ["XX", "YY", "ZZ"]

    def test_two_partite_needs_two_sites(self):
        with pytest.raises(ValueError, match="n = 2"):
            required_words("two-partite", 3)

    def test_multipartite_three_sites(self):
        assert required_words("multipartite", 3) == ["III", "IZZ", "ZIZ", "ZZI"]

    def test_multipartite_counts(self):
        for n in range(2, 9):
            words = required_words("multipartite", n)
            assert len(words) == 1 << (n - 1)
            assert len(set(words)) == len(words)
            assert all(len(w) == n and set(w) <= {"I", "Z"} for w in words)
            # every required word flips an even number of sites
            assert all(w.count("Z") % 2 == 0 for w in words)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown inequality kind"):
            required_words("triangle", 3)

    def test_largest_list_is_built(self):
        words = required_words("multipartite", WORD_LIST_LIMIT)
        assert len(words) == 1 << (WORD_LIST_LIMIT - 1)

    @pytest.mark.parametrize("n", [WORD_LIST_LIMIT + 1, 30, 1023])
    def test_larger_lists_are_refused_before_any_word(self, n, monkeypatch):
        def refuse(index):
            raise AssertionError(f"word built at n = {index.n}")

        monkeypatch.setattr(kslab.experiment, "lambda_element", refuse)
        with pytest.raises(ValueError, match=rf"n <= {WORD_LIST_LIMIT}, got {n}"):
            required_words("multipartite", n)


class TestEvaluateTwoPartite:
    def test_werner_synthetic_run(self):
        table = ingest_correlators(csv_of(WERNER_HALF))
        report = evaluate_experiment(table, "two-partite", 2)
        assert report.lhs == pytest.approx(2.5, abs=1e-12)
        assert report.bound == 2.0
        assert report.uncertainty == pytest.approx(math.sqrt(3) * 0.02, abs=1e-12)
        assert report.violated  # 0.5 excess against 3 sigma ~ 0.104

    def test_wide_error_bars_block_the_claim(self):
        rows = ["XX,0.5,0.2", "YY,0.5,0.2", "ZZ,-0.5,0.2"]
        report = evaluate_experiment(ingest_correlators(csv_of(rows)), "two-partite", 2)
        assert report.lhs == pytest.approx(2.5, abs=1e-12)
        assert not report.violated  # 3 sigma ~ 1.04 swallows the excess

    def test_k_parameter_is_honored(self):
        table = ingest_correlators(csv_of(WERNER_HALF))
        assert evaluate_experiment(table, "two-partite", 2, k=3.0).violated
        assert not evaluate_experiment(table, "two-partite", 2, k=20.0).violated

    def test_all_zero_correlators(self):
        rows = ["XX,0,0", "YY,0,0", "ZZ,0,0"]
        report = evaluate_experiment(ingest_correlators(csv_of(rows)), "two-partite", 2)
        assert report.lhs == pytest.approx(1.0)
        assert not report.violated

    def test_signed_rows_agree_with_plain_rows(self):
        plain = evaluate_experiment(
            ingest_correlators(csv_of(WERNER_HALF)), "two-partite", 2
        )
        signed_rows = ["XX,0.5,0.02", "-YY,-0.5,0.02", "-ZZ,0.5,0.02"]
        signed = evaluate_experiment(
            ingest_correlators(csv_of(signed_rows)), "two-partite", 2
        )
        assert signed.lhs == pytest.approx(plain.lhs, abs=1e-12)
        assert signed.uncertainty == pytest.approx(plain.uncertainty, abs=1e-12)

    def test_missing_word_error_names_it(self):
        table = ingest_correlators(csv_of(["XX,0.5,0", "YY,0.5,0"]))
        with pytest.raises(ValueError, match="missing.*ZZ"):
            evaluate_experiment(table, "two-partite", 2)

    def test_extra_word_error_names_it(self):
        rows = WERNER_HALF + ["XY,0.1,0"]
        table = ingest_correlators(csv_of(rows))
        with pytest.raises(ValueError, match="unknown.*XY"):
            evaluate_experiment(table, "two-partite", 2)


class TestEvaluateOverflow:
    @pytest.mark.parametrize(
        ("rows", "kind", "n"),
        [
            (["XX,1e308,1e308", "YY,1e308,1e308", "ZZ,1e308,1e308"], "two-partite", 2),
            # fsum raises on its partial sum instead of returning inf
            (["II,1e308,1e308", "ZZ,1e308,1e308"], "multipartite", 2),
            # the lhs cancels to 0; only sigma overflows
            (["III,1e308,1e308", "IZZ,-1e308,1e308", "ZIZ,1e308,1e308", "ZZI,-1e308,1e308"],
             "multipartite", 3),
        ],
    )
    def test_overflowing_sums_are_rejected(self, rows, kind, n):
        # every row passes its own checks, since |value| <= 1 + 3 sigma
        table = ingest_correlators(csv_of(rows))
        with pytest.raises(ValueError, match=f"^{kind} sums overflow: lhs "):
            evaluate_experiment(table, kind, n)


class TestEvaluateMultipartite:
    def test_ghz_three_sites(self):
        rows = ["III,1,0", "IZZ,1,0", "ZIZ,1,0", "ZZI,1,0"]
        report = evaluate_experiment(ingest_correlators(csv_of(rows)), "multipartite", 3)
        assert report.kind == "multipartite"
        assert report.lhs == pytest.approx(4.0)
        assert report.bound == 2.0
        assert report.ratio == pytest.approx(2.0)
        assert report.violated

    def test_two_sites_on_the_bound(self):
        rows = ["II,1,0", "ZZ,1,0"]
        report = evaluate_experiment(ingest_correlators(csv_of(rows)), "multipartite", 2)
        assert report.lhs == pytest.approx(2.0)
        assert not report.violated

    def test_quadrature_uncertainty(self):
        rows = ["III,1,0.1", "IZZ,1,0.1", "ZIZ,1,0.1", "ZZI,1,0.1"]
        report = evaluate_experiment(ingest_correlators(csv_of(rows)), "multipartite", 3)
        assert report.uncertainty == pytest.approx(0.2, abs=1e-12)
        assert report.violated  # excess 2 against 3 sigma = 0.6

    def test_four_sites_noisy_ghz(self):
        # each correlator damped to 0.7: lhs = 8 * 0.7, still over bound 4
        rows = [f"{w},0.7,0.01" for w in required_words("multipartite", 4)]
        report = evaluate_experiment(ingest_correlators(csv_of(rows)), "multipartite", 4)
        assert report.lhs == pytest.approx(5.6, abs=1e-12)
        assert report.violated

    def test_missing_word_is_reported(self):
        rows = ["III,1,0", "IZZ,1,0", "ZIZ,1,0"]
        table = ingest_correlators(csv_of(rows))
        with pytest.raises(ValueError, match="ZZI"):
            evaluate_experiment(table, "multipartite", 3)

    def test_short_file_never_builds_the_word_list(self, monkeypatch):
        built = []
        build = kslab.experiment.lambda_element

        def counting(index):
            built.append(index.p)
            return build(index)

        monkeypatch.setattr(kslab.experiment, "lambda_element", counting)
        table = ingest_correlators(csv_of(["Z" * 30 + ",0.5,0"]))
        with pytest.raises(ValueError, match="needs 536870912 correlators, got 1") as info:
            evaluate_experiment(table, "multipartite", 30)
        assert len(str(info.value)) < 300
        assert "I" * 30 in str(info.value)
        assert built == [0, 1, 2, 3]  # only the words quoted in the error

    def test_many_missing_words_are_counted_not_listed(self):
        # as many rows as required, but half of them are the wrong words
        good = required_words("multipartite", 5)[:8]
        bad = [w.replace("Z", "X") for w in required_words("multipartite", 5)[1:9]]
        table = ingest_correlators(csv_of([f"{w},0,0" for w in good + bad]))
        with pytest.raises(ValueError, match="8 missing correlators .* and 4 more") as info:
            evaluate_experiment(table, "multipartite", 5)
        assert str(info.value).count("'") == 8  # four words quoted

    def test_many_unknown_words_are_counted(self):
        words = required_words("multipartite", 3)
        extra = ["XXX", "XYY", "YXY", "YYX", "XIX", "IXX"]
        table = ingest_correlators(csv_of([f"{w},0,0" for w in words + extra]))
        with pytest.raises(ValueError, match="6 unknown correlators .* and 2 more"):
            evaluate_experiment(table, "multipartite", 3)

    def test_site_count_is_capped(self):
        with pytest.raises(ValueError, match="n <= 1023"):
            required_words("multipartite", 1024)

    def test_lhs_does_not_depend_on_row_order(self):
        rng = random.Random(8)
        rows = [f"{w},{rng.uniform(-1, 1)!r},0.01" for w in required_words("multipartite", 8)]
        report = evaluate_experiment(ingest_correlators(csv_of(rows)), "multipartite", 8)
        rng.shuffle(rows)
        shuffled = evaluate_experiment(ingest_correlators(csv_of(rows)), "multipartite", 8)
        assert shuffled.lhs == report.lhs
        assert shuffled.uncertainty == report.uncertainty
        exact = sum(Fraction(row.split(",")[1]) for row in rows)
        assert report.lhs == float(exact)  # fsum is correctly rounded

    @given(data=st.data(), n=st.integers(3, 6))
    @settings(deadline=None, max_examples=150)
    def test_accepts_exactly_the_required_word_set(self, data, n):
        required = required_words("multipartite", n)
        words = data.draw(st.permutations(required))
        edits = data.draw(
            st.lists(
                st.sampled_from(["swap", "drop", "duplicate", "lengthen", "shorten"]),
                max_size=3,
            )
        )
        for edit in edits:
            if not words:
                break
            i = data.draw(st.integers(0, len(words) - 1))
            if edit == "swap":
                j = data.draw(st.integers(0, n - 1))
                letter = data.draw(st.sampled_from("IXYZ"))
                words[i] = words[i][:j] + letter + words[i][j + 1 :]
            elif edit == "drop":
                del words[i]
            elif edit == "duplicate":
                words.append(words[i])
            elif edit == "lengthen":
                words[i] += data.draw(st.sampled_from("IZ"))
            elif len(words[i]) > 1:
                words[i] = words[i][1:]
        table = {w: (0.5, 0.0) for w in words}
        if set(words) == set(required):
            report = evaluate_experiment(table, "multipartite", n)
            assert report.lhs == 0.5 * len(required)
        else:
            with pytest.raises(ValueError, match="correlators"):
                evaluate_experiment(table, "multipartite", n)

    def test_wrong_length_words_are_unknown(self):
        table = ingest_correlators(csv_of(["II,1,0", "ZZ,1,0"]))
        with pytest.raises(ValueError, match="missing"):
            evaluate_experiment(table, "multipartite", 3)
