"""Peres-Mermin and GHZ contradiction certificates, enumerated without numpy."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import VerificationError
from .pauli import PauliString, commutes, pauli_mul


@dataclass(frozen=True)
class ContradictionCertificate:
    """Outcome of enumerating every candidate value assignment against a
    set of forced operator products."""

    scenario: str
    constraints: tuple[tuple[tuple[str, ...], int], ...]
    satisfying_count: int
    total_count: int
    conclusion: str
    dropped: int | None = None

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "constraints": [
                {"words": list(words), "forced": forced}
                for words, forced in self.constraints
            ],
            "satisfying_count": self.satisfying_count,
            "total_count": self.total_count,
            "conclusion": self.conclusion,
            "dropped": self.dropped,
        }


def _forced_value(words: tuple[str, ...]) -> int:
    """Sign of the operator product, which any value assignment must match."""
    parsed = [PauliString.from_text("+" + w) for w in words]
    for a, b in itertools.combinations(parsed, 2):
        if not commutes(a, b):
            raise VerificationError(f"constraint words {words} do not all commute")
    acc = parsed[0]
    for word in parsed[1:]:
        acc = pauli_mul(acc, word)
    if not acc.is_identity_word or acc.sign_exp not in (0, 2):
        raise VerificationError(f"product of {words} is not +/-identity: {acc.to_text()}")
    return {0: 1, 2: -1}[acc.sign_exp]


def _certificate(
    scenario: str,
    constraint_words: tuple[tuple[str, ...], ...],
    free_words: tuple[str, ...],
    drop: int | None,
) -> ContradictionCertificate:
    constraints = tuple((words, _forced_value(words)) for words in constraint_words)
    if drop is not None and not 0 <= drop < len(constraints):
        raise ValueError(f"drop index {drop} out of range")
    active = [c for i, c in enumerate(constraints) if i != drop]

    n_sites = len(constraint_words[0][0])
    count = 0
    for site_values in itertools.product((1, -1), repeat=2 * n_sites):
        x = site_values[:n_sites]
        y = site_values[n_sites:]
        for free_values in itertools.product((1, -1), repeat=len(free_words)):
            free = dict(zip(free_words, free_values))

            def value(word: str) -> int:
                if word in free:
                    return free[word]
                return math.prod(
                    x[j] if c == "X" else y[j] for j, c in enumerate(word)
                )

            if all(
                math.prod(value(w) for w in words) == forced
                for words, forced in active
            ):
                count += 1
    total = 1 << (2 * n_sites + len(free_words))

    if drop is None:
        conclusion = (
            f"no assignment satisfies all forced products ({count} of {total}); "
            "the site values admit no noncontextual completion"
        )
    else:
        conclusion = (
            f"{count} of {total} assignments satisfy the remaining constraints; "
            "every constraint is needed for the contradiction"
        )
    return ContradictionCertificate(
        scenario=scenario,
        constraints=constraints,
        satisfying_count=count,
        total_count=total,
        conclusion=conclusion,
        dropped=drop,
    )


def peres_mermin_certificate(drop: int | None = None) -> ContradictionCertificate:
    """Two-site square: the joint ZZ value is a free sign, the four
    transverse words factorize into site values."""
    return _certificate(
        scenario="peres-mermin",
        constraint_words=(("XX", "YY", "ZZ"), ("XY", "YX", "ZZ")),
        free_words=("ZZ",),
        drop=drop,
    )


def ghz_certificate(drop: int | None = None) -> ContradictionCertificate:
    """Three-site scenario: all four words factorize, and their factorized
    product telescopes to +1 for every one of the 64 assignments."""
    return _certificate(
        scenario="ghz",
        constraint_words=(("XYY", "YXY", "YYX", "XXX"),),
        free_words=(),
        drop=drop,
    )
