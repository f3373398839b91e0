"""Jobs and their answer checks.

Each job carries a check that compares its report with a reference the
benchmark computed from the generated input (``inputs.py``), never by
calling kslab.  Fields that may legitimately change under an
optimisation (``elapsed``, ``workers``, ``cross_check``, which witness is
returned) are not compared; the witness is instead re-evaluated against
the closed-form bound.  This module uses the standard library only: the
client that imports it spawns every job, and a job's max-RSS starts from
the client's own high-water mark.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Callable

# Relative and absolute tolerance for floating-point answers.  Every
# reference is a closed form of the exact input values, so agreement is
# limited only by the program's summation order.
REL_TOL = 1e-9
ABS_TOL = 1e-9
# Violations are decided by a guard band without uncertainty (kslab's
# GUARD_BAND) and by k standard errors with one.
GUARD_BAND = 1e-9
CHECK_K = 3.0

WORKLOADS = ("sweep", "evaluate", "ingest")


class CheckError(Exception):
    """A job's report disagrees with the benchmark's reference."""


@dataclass(frozen=True)
class Job:
    """One process the client runs: ``cli`` jobs are ``python -m
    kslab.cli <args>``, ``hvkn`` jobs run ``verify_hvkn`` through the
    benchmark driver."""

    name: str
    kind: str
    args: tuple[str, ...]
    check: Callable[[Any], None]

    @classmethod
    def from_spec(cls, spec: dict) -> "Job":
        """A job from its JSON form ``{name, kind, args, check, params}``."""
        check = CHECKS[spec["check"]](**spec["params"])
        return cls(spec["name"], spec["kind"], tuple(spec["args"]), check)


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def expect_close(got: Any, want: float, what: str) -> None:
    expect(
        isinstance(got, (int, float))
        and not isinstance(got, bool)
        and math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL),
        f"{what} = {got!r}, expected {want!r}",
    )


def _reject_constant(name: str) -> None:
    raise ValueError(f"{name} is not JSON")


def judge(job: Job, returncode: int | None, stdout: str) -> str | None:
    """Why the job failed, or None when its answer is right."""
    if returncode is None:
        return "timed out"
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        payload = json.loads(stdout, parse_constant=_reject_constant)
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"
    try:
        job.check(payload)
    except CheckError as exc:
        return str(exc)
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
    return None


def multipartite_bound(n: int) -> int:
    return 2 ** (n // 2)


def g_of(vx: list[int], vy: list[int]) -> int:
    """Re(prod_j (vx_j + i vy_j)) * prod_j vx_j in exact integers."""
    re, im = 1, 0
    for x, y in zip(vx, vy):
        re, im = re * x - im * y, re * y + im * x
    return re * math.prod(vx)


def _check_report(p: dict, kind: str, n: int, lhs: float, bound: float,
                  sigma: float | None = None) -> None:
    """lhs, bound, ratio and the violation verdict of an InequalityReport."""
    expect(p["kind"] == kind, f"kind {p['kind']!r}, expected {kind!r}")
    expect(p["n"] == n, f"n = {p['n']!r}, expected {n}")
    expect_close(p["lhs"], lhs, "lhs")
    expect(p["bound"] == bound, f"bound = {p['bound']!r}, expected {bound}")
    expect_close(p["ratio"], lhs / bound, "ratio")
    if sigma:
        expect_close(p["sigma"], sigma, "sigma")
        margin = lhs - bound - CHECK_K * sigma
    else:
        margin = lhs - bound - GUARD_BAND
    # A verdict within rounding of the threshold may go either way.
    if abs(margin) > REL_TOL * max(1.0, abs(lhs)):
        expect(p["violated"] is bool(margin > 0), f"violated = {p['violated']!r} for lhs {lhs!r}")


# --- per-job checks ---------------------------------------------------------

def check_bound(n: int) -> Callable[[Any], None]:
    bound = multipartite_bound(n)

    def check(p: dict) -> None:
        expect(p["n"] == n, f"n = {p['n']!r}")
        for key in ("bound", "bound_formula", "bound_bruteforce"):
            expect(p[key] == bound, f"{key} = {p[key]!r}, expected {bound}")
        expect(p["g_min"] == -bound, f"g_min = {p['g_min']!r}, expected {-bound}")
        expect(p["agree"] is True, "agree is not true")
        w = p["witness_assignment"]
        vx, vy = list(w["vx"]), list(w["vy"])
        expect(len(vx) == n == len(vy), "witness has the wrong length")
        expect(all(v in (-1, 1) for v in vx + vy), "witness entries are not signs")
        g = g_of(vx, vy)
        expect(g == bound, f"witness attains g = {g}, expected {bound}")

    return check


def check_hvkn(n: int) -> Callable[[Any], None]:
    def check(p: dict) -> None:
        expect(p["n"] == n, f"n = {p['n']!r}")
        expect(p["checked"] > 0, "no assignment checked")
        expect(p["failures"] == 0 and p["ok"] is True, f"{p['failures']} identity failures")

    return check


def check_scan(n_min: int, n_max: int) -> Callable[[Any], None]:
    def check(rows: list) -> None:
        expect(len(rows) == 2 * (n_max - n_min + 1), f"{len(rows)} scan rows")
        for i, row in enumerate(rows):
            n = n_min + i // 2
            expect(row["state"] == ("ghz", "product")[i % 2], f"row {i} state {row['state']!r}")
            # Even GHZ and all-up product states both give F = 2^(n-1).
            _check_report(row, "multipartite", n, 2.0 ** (n - 1), multipartite_bound(n))

    return check


def check_multi_state(n: int, lhs: float) -> Callable[[Any], None]:
    return lambda p: _check_report(p, "multipartite", n, lhs, multipartite_bound(n))


def check_werner(lam: float) -> Callable[[Any], None]:
    def check(p: dict) -> None:
        lhs = 1 + 3 * lam
        _check_report(p, "two-partite", 2, lhs, 2.0)
        expect_close(p["fidelity"], lhs / 4, "fidelity")

    return check


def check_group(n: int) -> Callable[[Any], None]:
    def check(p: dict) -> None:
        order = 1 << n
        expect(p["n"] == n and p["order"] == order, f"order {p['order']!r}")
        expect(p["closure"] is True, "closure is not true")
        elements = p["elements"]
        expect([e["p"] for e in elements] == list(range(order)), "element indices")
        expect(len({e["word"] for e in elements}) == order, "element words repeat")

    return check


def check_suite(suite: str) -> Callable[[Any], None]:
    def check(p: dict) -> None:
        expect(p["suite"] == suite, f"suite {p['suite']!r}")
        expect(p["ok"] is True, f"suite {suite} is not ok")
        if suite == "fine":
            expect(p["failures"] == 0 and p["checks"] > 0, "fine suite failures")
            return
        for r in p["reports"]:
            if suite == "identities":
                expect(r["ok"] is True, f"identity report {r['n']} not ok")
            elif suite == "hvkn":
                expect(r["failures"] == 0, f"hvkn report {r['n']} has failures")
            else:
                expect(r["satisfying_count"] == 0, f"{r['scenario']} has satisfying assignments")

    return check


def check_correlators(family: str, n: int, lhs: float, sigma: float,
                      bound: float) -> Callable[[Any], None]:
    def check(p: dict) -> None:
        expect(p["k"] == CHECK_K, f"k = {p['k']!r}")
        _check_report(p, family, n, lhs, bound, sigma)

    return check


CHECKS: dict[str, Callable[..., Callable[[Any], None]]] = {
    "bound": check_bound,
    "hvkn": check_hvkn,
    "scan": check_scan,
    "multi_state": check_multi_state,
    "werner": check_werner,
    "group": check_group,
    "suite": check_suite,
    "correlators": check_correlators,
}
