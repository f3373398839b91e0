"""Inequality evaluation: left-hand sides, classical bounds, scan tables.

Two inequalities are covered.  The two-partite form bounds
1 + <xx> + <yy> - <zz> by 2 (equivalently, Bell-state fidelity by 1/2);
the multipartite form bounds the half-group sum F^psi by 2^{n/2} for even
n and 2^{(n-1)/2} for odd n.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Iterator

from .pauli import SITE_LIMIT
from .states import (
    GhzSuperposition,
    ProductState,
    StateModel,
    bell_fidelity,
    f_value,
)

# Counts as a violation only beyond this band when no uncertainty is given.
GUARD_BAND = 1e-9

_SQRT_HALF = 2**-0.5


@dataclass
class InequalityReport:
    """Outcome of one inequality evaluation."""

    kind: str
    n: int
    lhs: float
    bound: float
    ratio: float
    violated: bool
    uncertainty: float | None = None
    fidelity: float | None = None

    def to_dict(self) -> dict:
        """The serialized form; ``uncertainty`` travels under the key ``sigma``."""
        return {
            "kind": self.kind,
            "n": self.n,
            "lhs": self.lhs,
            "bound": self.bound,
            "ratio": self.ratio,
            "violated": self.violated,
            "sigma": self.uncertainty,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "InequalityReport":
        return cls(
            kind=data["kind"],
            n=int(data["n"]),
            lhs=float(data["lhs"]),
            bound=float(data["bound"]),
            ratio=float(data["ratio"]),
            violated=bool(data["violated"]),
            uncertainty=None if data.get("sigma") is None else float(data["sigma"]),
        )


def decide_violation(
    lhs: float, bound: float, uncertainty: float | None = None, k: float = 3.0
) -> bool:
    """Strict exceedance test: k standard errors with uncertainty, a fixed
    guard band without."""
    if uncertainty is not None and uncertainty > 0:
        return lhs - bound > k * uncertainty
    return lhs - bound > GUARD_BAND


def two_partite_report(state: StateModel) -> InequalityReport:
    """Evaluate 1 + <xx> + <yy> - <zz> = 4 x Bell fidelity against the
    classical bound 2."""
    if state.n != 2:
        raise ValueError("two-partite inequality needs n = 2")
    fidelity = bell_fidelity(state)
    lhs = 4 * fidelity
    return InequalityReport(
        kind="two-partite",
        n=2,
        lhs=lhs,
        bound=2.0,
        ratio=lhs / 2.0,
        violated=decide_violation(lhs, 2.0),
        fidelity=fidelity,
    )


def multipartite_bound(n: int) -> float:
    """Classical maximum of the half-group sum: 2^{n/2} (even), 2^{(n-1)/2} (odd)."""
    if not 2 <= n <= SITE_LIMIT:
        raise ValueError(f"bound defined for 2 <= n <= {SITE_LIMIT}")
    return float(2 ** (n // 2))


def multipartite_report(state: StateModel) -> InequalityReport:
    lhs = f_value(state)
    bound = multipartite_bound(state.n)
    return InequalityReport(
        kind="multipartite",
        n=state.n,
        lhs=lhs,
        bound=bound,
        ratio=lhs / bound,
        violated=decide_violation(lhs, bound),
    )


def scan(n_min: int, n_max: int) -> list[tuple[str, InequalityReport]]:
    """Multipartite reports for the even GHZ state and the all-up product
    state, one labeled row each per n."""
    if not 2 <= n_min <= n_max:
        raise ValueError("need 2 <= n_min <= n_max")
    rows: list[tuple[str, InequalityReport]] = []
    for n in range(n_min, n_max + 1):
        ghz = GhzSuperposition(n, _SQRT_HALF, _SQRT_HALF)
        rows.append(("ghz", multipartite_report(ghz)))
        rows.append(("product", multipartite_report(ProductState.from_pattern("+" * n))))
    return rows


_CSV_COLUMNS = ["state", "kind", "n", "lhs", "bound", "ratio", "violated", "sigma"]


def scan_to_csv(rows: list[tuple[str, InequalityReport]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for label, report in rows:
        data = report.to_dict()
        writer.writerow(
            [
                label,
                data["kind"],
                data["n"],
                repr(data["lhs"]),
                repr(data["bound"]),
                repr(data["ratio"]),
                "true" if data["violated"] else "false",
                "" if data["sigma"] is None else repr(data["sigma"]),
            ]
        )
    return buf.getvalue()


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


def scan_from_csv(text: str) -> list[tuple[str, InequalityReport]]:
    records = csv_records(io.StringIO(text))
    try:
        _, header = next(records)
    except StopIteration:
        raise ValueError("empty scan CSV") from None
    if header != _CSV_COLUMNS:
        raise ValueError(f"unexpected scan header {header!r}")
    rows = []
    for lineno, row in records:
        if not row:
            continue
        if len(row) != len(_CSV_COLUMNS):
            raise ValueError(f"line {lineno}: expected {len(_CSV_COLUMNS)} columns")
        label, kind, n, lhs, bound, ratio, violated, sigma = row
        if violated not in ("true", "false"):
            raise ValueError(f"line {lineno}: bad boolean {violated!r}")
        rows.append(
            (
                label,
                InequalityReport(
                    kind=kind,
                    n=int(n),
                    lhs=float(lhs),
                    bound=float(bound),
                    ratio=float(ratio),
                    violated=violated == "true",
                    uncertainty=float(sigma) if sigma else None,
                ),
            )
        )
    return rows


def scan_to_json(rows: list[tuple[str, InequalityReport]]) -> str:
    return json.dumps(
        [{"state": label, **report.to_dict()} for label, report in rows],
        indent=2,
        allow_nan=False,
    )
