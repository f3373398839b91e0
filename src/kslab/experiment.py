"""Measured-correlator ingestion and inequality evaluation.

A CSV with header ``word,value,sigma`` (one measured expectation per
Pauli word, with its standard error) is read into one table keyed by
letter word.  The table is matched against the required words of an
inequality, and uncertainties propagate in quadrature.
"""

from __future__ import annotations

import csv
import itertools
import math
from typing import IO, Callable, Iterator

from .errors import line_fault
from .inequalities import SIGNIFICANCE_K, InequalityReport
from .pauli import LINE_LIMIT, SITE_LIMIT, LambdaIndex, lambda_element, parse_word

KINDS = ("two-partite", "multipartite")

# Largest n whose word list ``required_words`` builds: 2^(n-1) words at
# about 11 us each, 0.4 s at n = 16 and doubling with each site.
WORD_LIST_LIMIT = 16


def ingest_correlators(source: str | IO[str]) -> dict[str, tuple[float, float]]:
    """Read a correlator CSV into ``{letters: (value, sigma)}``, in file order.

    Values are referred to the plain letter word: the row ``-YY,-0.5,s``
    reads ``"YY": (0.5, s)``.  Rows are checked in order for three fields,
    a float value and sigma, a Hermitian Pauli word, a finite value, a
    finite sigma >= 0, |value| <= 1 + 3 sigma and new letters.  A failed
    check, a record (the header or a row, over however many lines its
    quoted fields span) of more than ``LINE_LIMIT`` characters, or a
    record the csv module rejects raises ValueError naming its line,
    counted in the file, the first in reading order.  A file is read as
    UTF-8 after an optional byte-order mark, and a byte that does not
    decode is reported by its line; so is one in a text stream opened
    with ``errors="surrogateescape"``.  A stream that decodes strictly
    fails ahead of the line, so its bad byte is reported without one.
    """
    if isinstance(source, str):
        with open(source, encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
            return _read_correlators(fh)
    return _read_correlators(source)


def _read_correlators(fh: IO[str]) -> dict[str, tuple[float, float]]:
    lineno = taken = 0  # taken: characters read of the current record

    def lines() -> Iterator[str]:
        nonlocal lineno, taken
        while line := fh.readline(LINE_LIMIT - taken + 1):
            lineno += 1
            taken += len(line)
            if fault := line_fault(line, taken, LINE_LIMIT):
                raise ValueError(fault)
            yield line

    table: dict[str, tuple[float, float]] = {}
    try:
        reader = csv.reader(lines())
        header = next(reader, None)
        taken = 0
        if header is None:
            raise ValueError("empty correlator file")
        if [h.strip().lower() for h in header] != ["word", "value", "sigma"]:
            raise ValueError(f"expected header word,value,sigma, got {header!r}")
        for row in reader:
            taken = 0
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise ValueError(f"expected 3 fields, got {len(row)}")
            word, value, sigma = (field.strip() for field in row)
            value, sigma = float(value), float(sigma)
            sign_exp, letters = parse_word(word)
            if sign_exp % 2:  # an i in the prefix: anti-Hermitian
                raise ValueError(f"word {word!r} is not an observable")
            if not math.isfinite(value):
                raise ValueError(f"non-finite value for {word!r}")
            if sigma < 0 or not math.isfinite(sigma):
                raise ValueError(f"bad standard error for {word!r}: {sigma}")
            if abs(value) > 1 + 3 * sigma:
                raise ValueError(f"value {value} for {word!r} exceeds |1| + 3*sigma")
            if letters in table:
                raise ValueError(f"duplicate word {word!r}")
            table[letters] = (-value if sign_exp else value, sigma)
    except UnicodeDecodeError as exc:  # from a strict caller stream
        raise ValueError(f"byte {exc.object[exc.start]:#04x} is not UTF-8") from None
    except (csv.Error, ValueError) as exc:
        raise ValueError(f"line {max(lineno, 1)}: {exc}") from None
    return table


def _is_half_word(word: str, n: int) -> bool:
    """True for the lower half-group words: even-weight I/Z strings of length n."""
    return len(word) == n and not word.strip("IZ") and word.count("Z") % 2 == 0


def _required(kind: str, n: int) -> tuple[int, Callable[[str], bool], Iterator[str]]:
    """Number of correlators an inequality needs, a test that is true
    exactly for the words it needs, and those words in letter form,
    produced lazily in index order."""
    if kind == "two-partite":
        if n != 2:
            raise ValueError("two-partite inequality needs n = 2")
        words = ("XX", "YY", "ZZ")
        return 3, frozenset(words).__contains__, iter(words)
    if kind == "multipartite":
        if not 2 <= n <= SITE_LIMIT:
            raise ValueError(f"multipartite inequality needs 2 <= n <= {SITE_LIMIT}")
        count = 1 << (n - 1)
        words = (lambda_element(LambdaIndex(n, p)).letters for p in range(count))
        return count, lambda word: _is_half_word(word, n), words
    raise ValueError(f"unknown inequality kind {kind!r}; choose from {KINDS}")


def required_words(kind: str, n: int) -> list[str]:
    """Letter form of the correlators an inequality needs, for n up to
    ``WORD_LIST_LIMIT``; a larger n raises ValueError before any word is
    built."""
    words = _required(kind, n)[2]
    if n > WORD_LIST_LIMIT:
        raise ValueError(f"word lists need n <= {WORD_LIST_LIMIT}, got {n}")
    return list(words)


# Words quoted in a missing- or unknown-correlator error.
_NAMED_WORDS = 4


def _first_words(words: list[str], total: int) -> str:
    rest = total - len(words)
    return f"{words}" + (f" and {rest} more" if rest > 0 else "")


def evaluate_experiment(
    table: dict[str, tuple[float, float]], kind: str, n: int, k: float = SIGNIFICANCE_K
) -> InequalityReport:
    """Signed sum of an ``ingest_correlators`` table against the classical bound.

    One rule for both kinds: words that fail the required-word test are
    unknown, and the missing count is the required count less the words
    that pass.  A short table is reported first, then missing words,
    then unknown ones.  The required words are produced only to quote
    the first few missing ones.  Sums run over the sorted words, and
    either lhs is a correctly rounded ``math.fsum``, so it does not
    depend on row order.  An lhs or sigma that overflows the float
    range raises ValueError.
    """
    count, needed, words = _required(kind, n)
    unknown = sorted(word for word in table if not needed(word))
    missing = count - (len(table) - len(unknown))
    if missing:
        named = list(itertools.islice((w for w in words if w not in table), _NAMED_WORDS))
        if len(table) < count:
            raise ValueError(
                f"{kind} with n = {n} needs {count} correlators, got {len(table)}; "
                f"missing correlators include {named}"
            )
        raise ValueError(
            f"{missing} missing correlators {_first_words(named, missing)} for {kind}"
        )
    if unknown:
        raise ValueError(
            f"{len(unknown)} unknown correlators "
            f"{_first_words(unknown[:_NAMED_WORDS], len(unknown))} for {kind}"
        )
    # I < Z and X < Y < Z: the sums run in a fixed order, XX, YY, ZZ first
    values, sigmas = zip(*(table[word] for word in sorted(table)))
    if kind == "two-partite":
        values = (1.0, values[0], values[1], -values[2])
    try:
        lhs = math.fsum(values)
    except OverflowError:  # a partial sum left the float range
        lhs = math.inf
    sigma = math.hypot(*sigmas)
    if not (math.isfinite(lhs) and math.isfinite(sigma)):
        raise ValueError(f"{kind} sums overflow: lhs {lhs}, sigma {sigma}")
    return InequalityReport.scored(kind, n, lhs, sigma, k)
