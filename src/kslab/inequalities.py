"""Inequality evaluation: left-hand sides, classical bounds, scan tables.

Two inequalities are covered.  The two-partite form bounds
1 + <xx> + <yy> - <zz> by 2 (equivalently, Bell-state fidelity by 1/2);
the multipartite form bounds the half-group sum F^psi by 2^{n/2} for even
n and 2^{(n-1)/2} for odd n.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .pauli import SITE_LIMIT

if TYPE_CHECKING:
    from .states import StateModel

# ``states`` is imported by the functions that evaluate a state, so that
# the bound, the sweep and the correlator check do not load it.

# Counts as a violation only beyond this band when no uncertainty is given.
# The band is absolute, while the rounding error of f_value grows with F
# (a few ulp of F, above the band once F reaches about 2^23).  A probe at
# n = 100 (2,000 product states within one ulp of the bound) found no
# verdict that differed from exact Fraction arithmetic.
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


def decide_violation(
    lhs: float, bound: float, uncertainty: float | None = None, k: float = 3.0
) -> bool:
    """Strict exceedance test: k standard errors with uncertainty, a fixed
    guard band without.  k must be finite and non-negative."""
    if not (math.isfinite(k) and k >= 0):
        raise ValueError(f"k must be finite and >= 0, got {k}")
    if uncertainty is not None and uncertainty > 0:
        return lhs - bound > k * uncertainty
    return lhs - bound > GUARD_BAND


def two_partite_report(state: StateModel) -> InequalityReport:
    """Evaluate 1 + <xx> + <yy> - <zz> = 4 x Bell fidelity against the
    classical bound 2."""
    from .states import bell_fidelity

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
    from .states import f_value

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
    from .states import GhzSuperposition, ProductState

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


def scan_to_json(rows: list[tuple[str, InequalityReport]]) -> str:
    return json.dumps(
        [{"state": label, **report.to_dict()} for label, report in rows],
        indent=2,
        allow_nan=False,
    )
