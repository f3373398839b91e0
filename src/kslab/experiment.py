"""Measured-correlator ingestion and inequality evaluation.

Input is a CSV with header ``word,value,sigma``: one measured expectation
per Pauli word, with its standard error.  Words are matched against the
required set for the chosen inequality; each word's intrinsic sign is
applied to the measured value, and uncertainties propagate in quadrature.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field
from typing import IO, Callable, Iterable, Iterator

import math

from .inequalities import (
    InequalityReport,
    decide_violation,
    multipartite_bound,
)
from .pauli import SITE_LIMIT, LambdaIndex, PauliString, lambda_element

KINDS = ("two-partite", "multipartite")


@dataclass(frozen=True)
class CorrelatorRecord:
    """One measured expectation value for a Pauli word."""

    word: str
    value: float
    sigma: float = 0.0
    letters: str = field(init=False, repr=False, compare=False)
    sign: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        parsed = PauliString.from_text(self.word)
        if not parsed.is_hermitian:
            raise ValueError(f"word {self.word!r} is not an observable")
        if not math.isfinite(self.value):
            raise ValueError(f"non-finite value for {self.word!r}")
        if self.sigma < 0 or not math.isfinite(self.sigma):
            raise ValueError(f"bad standard error for {self.word!r}: {self.sigma}")
        if abs(self.value) > 1 + 3 * self.sigma:
            raise ValueError(
                f"value {self.value} for {self.word!r} exceeds |1| + 3*sigma"
            )
        # the text after the sign prefix, equal to parsed.letters
        object.__setattr__(self, "letters", self.word.strip().lstrip("+-i"))
        object.__setattr__(self, "sign", {0: 1.0, 2: -1.0}[parsed.sign_exp])

    @property
    def letter_value(self) -> float:
        """Measured value referred to the plain letter word (a signed word
        like ``-YY`` reports the negated observable)."""
        return self.sign * self.value


def csv_records(lines: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """CSV records numbered from 1.  A record the csv module rejects, such
    as one with a field over its size limit, raises ValueError naming
    its line."""
    reader = csv.reader(lines)
    for lineno in itertools.count(1):
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        yield lineno, row


def ingest_correlators(source: str | IO[str]) -> list[CorrelatorRecord]:
    """Parse a correlator CSV; duplicates and malformed lines are errors."""
    if isinstance(source, str):
        with open(source, encoding="utf-8", newline="") as fh:
            return _read_correlators(fh)
    return _read_correlators(source)


def _read_correlators(lines: Iterable[str]) -> list[CorrelatorRecord]:
    rows = csv_records(lines)
    try:
        _, header = next(rows)
    except StopIteration:
        raise ValueError("line 1: empty correlator file") from None
    if [h.strip().lower() for h in header] != ["word", "value", "sigma"]:
        raise ValueError(f"line 1: expected header word,value,sigma, got {header!r}")
    records: list[CorrelatorRecord] = []
    seen: set[str] = set()
    for lineno, row in rows:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 3:
            raise ValueError(f"line {lineno}: expected 3 fields, got {len(row)}")
        word, value, sigma = (field.strip() for field in row)
        try:
            record = CorrelatorRecord(word, float(value), float(sigma))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if record.letters in seen:
            raise ValueError(f"line {lineno}: duplicate word {word!r}")
        seen.add(record.letters)
        records.append(record)
    return records


def _is_half_word(word: str, n: int) -> bool:
    """True for the lower half-group words: I/Z strings of length n with
    an even number of Zs."""
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
    """Letter form of the correlators an inequality needs."""
    return list(_required(kind, n)[2])


# Words quoted in a missing- or unknown-correlator error.
_NAMED_WORDS = 4


def _first_words(words: list[str], total: int) -> str:
    rest = total - len(words)
    return f"{words}" + (f" and {rest} more" if rest > 0 else "")


def evaluate_experiment(
    records: Iterable[CorrelatorRecord], kind: str, n: int, k: float = 3.0
) -> InequalityReport:
    """Signed sum of measured correlators against the classical bound.

    One rule for both kinds: words that fail the required-word test are
    unknown, and the missing count is the required count less the words
    that pass.  A short table is reported first, then missing words,
    then unknown ones.  The required words are produced only to quote
    the first few missing ones.  Sums run over the sorted words, and the
    multipartite lhs is a correctly rounded ``math.fsum``, so it does
    not depend on row order.
    """
    table = {record.letters: record for record in records}
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
    # I < Z and X < Y < Z: hypot sums the sigmas in a fixed order
    required = sorted(table)

    if kind == "two-partite":
        lhs = (
            1.0
            + table["XX"].letter_value
            + table["YY"].letter_value
            - table["ZZ"].letter_value
        )
        bound = 2.0
    else:
        # lower-half words are Z-strings, all with sign +1
        lhs = math.fsum(table[word].letter_value for word in required)
        bound = multipartite_bound(n)

    sigma = math.hypot(*(table[word].sigma for word in required))
    return InequalityReport(
        kind=kind,
        n=n,
        lhs=lhs,
        bound=bound,
        ratio=lhs / bound,
        violated=decide_violation(lhs, bound, sigma, k),
        uncertainty=sigma,
    )
