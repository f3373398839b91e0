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
# (about 2n ulp of F for a product state, above the band once F reaches
# about 2^23).  So a float verdict near the bound can differ from exact
# Fraction arithmetic on the same inputs: the product states of n = 64
# sites at (0, 0, 0.42961333839196997) and of n = 100 sites at
# (0, 0, 0.42405019559707174) get the wrong verdict in both directions.
GUARD_BAND = 1e-9
# Standard errors by which an lhs with an uncertainty must exceed its
# bound, unless the caller sets k.
SIGNIFICANCE_K = 3.0

_SQRT_HALF = 2**-0.5


@dataclass
class InequalityReport:
    """Outcome of one inequality evaluation; ``scored`` builds one."""

    kind: str
    n: int
    lhs: float
    bound: float
    ratio: float
    violated: bool
    uncertainty: float | None = None
    fidelity: float | None = None

    @classmethod
    def scored(
        cls,
        kind: str,
        n: int,
        lhs: float,
        uncertainty: float | None = None,
        k: float = SIGNIFICANCE_K,
        fidelity: float | None = None,
    ) -> InequalityReport:
        """The report of ``lhs`` against the classical bound of its kind:
        2 for ``"two-partite"``, ``multipartite_bound(n)`` otherwise."""
        bound = 2.0 if kind == "two-partite" else multipartite_bound(n)
        violated = decide_violation(lhs, bound, uncertainty, k)
        return cls(kind, n, lhs, bound, lhs / bound, violated, uncertainty, fidelity)

    def to_dict(self) -> dict:
        """The serialized form; ``uncertainty`` travels under the key
        ``sigma``, and ``fidelity`` comes last, only when it is set."""
        data = {
            "kind": self.kind,
            "n": self.n,
            "lhs": self.lhs,
            "bound": self.bound,
            "ratio": self.ratio,
            "violated": self.violated,
            "sigma": self.uncertainty,
        }
        if self.fidelity is not None:
            data["fidelity"] = self.fidelity
        return data


def decide_violation(
    lhs: float, bound: float, uncertainty: float | None = None, k: float = SIGNIFICANCE_K
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
    return InequalityReport.scored("two-partite", 2, 4 * fidelity, fidelity=fidelity)


def multipartite_bound(n: int) -> float:
    """Classical maximum of the half-group sum: 2^{n/2} (even), 2^{(n-1)/2} (odd)."""
    if not 2 <= n <= SITE_LIMIT:
        raise ValueError(f"bound defined for 2 <= n <= {SITE_LIMIT}")
    return float(2 ** (n // 2))


def multipartite_report(state: StateModel) -> InequalityReport:
    from .states import f_value

    return InequalityReport.scored("multipartite", state.n, f_value(state))


def scan(n_min: int, n_max: int) -> list[tuple[str, InequalityReport]]:
    """Multipartite reports for the even GHZ state and the all-up product
    state, one labeled row each per n."""
    from .states import GhzSuperposition, ProductState

    if not 2 <= n_min <= n_max <= SITE_LIMIT:
        raise ValueError(f"scan needs 2 <= n_min <= n_max <= {SITE_LIMIT}")
    rows: list[tuple[str, InequalityReport]] = []
    for n in range(n_min, n_max + 1):
        ghz = GhzSuperposition(n, _SQRT_HALF, _SQRT_HALF)
        rows.append(("ghz", multipartite_report(ghz)))
        rows.append(("product", multipartite_report(ProductState.from_pattern("+" * n))))
    return rows


_CSV_COLUMNS = ["state", "kind", "n", "lhs", "bound", "ratio", "violated", "sigma"]


def scan_to_csv(rows: list[tuple[str, InequalityReport]]) -> str:
    """One row per report, each cell read from its ``to_dict`` by column:
    a bool as ``true`` or ``false``, None as an empty cell, a float as its
    repr."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for label, report in rows:
        data = {"state": label, **report.to_dict()}
        cells = (data[column] for column in _CSV_COLUMNS)
        writer.writerow(str(cell).lower() if isinstance(cell, bool) else cell for cell in cells)
    return buf.getvalue()


def scan_to_json(rows: list[tuple[str, InequalityReport]]) -> str:
    return json.dumps(
        [{"state": label, **report.to_dict()} for label, report in rows],
        indent=2,
        allow_nan=False,
    )
