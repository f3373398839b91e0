"""Self-test of the benchmark's failure counting.

Feeds ``workloads.judge`` correct reports and doctored ones: a bound off
by 2, an lhs off by 1e-6, exit code 2 and truncated JSON.  Each correct
report must pass and each doctored one must count as a failed job.
``run.py`` runs this before every measurement; it also runs alone:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys

import workloads


def _bound_report(n: int) -> dict:
    bound = workloads.multipartite_bound(n)
    # (1+i)^9 (1-i) = 2 (2i)^4 = 32: this witness attains the n = 10 bound.
    vx, vy = [1] * n, [1] * (n - 1) + [-1]
    return {"n": n, "bound": float(bound), "bound_formula": float(bound),
            "bound_bruteforce": bound, "g_min": -bound, "agree": True, "elapsed": 0.25,
            "workers": 1, "cross_check": "exhaustive",
            "witness_assignment": {"vx": vx, "vy": vy}}


def _werner_report(lam: float) -> dict:
    lhs = 1 + 3 * lam
    return {"state": f"werner:lambda={lam!r}", "kind": "two-partite", "n": 2, "lhs": lhs,
            "bound": 2.0, "ratio": lhs / 2, "violated": lhs > 2, "sigma": None,
            "fidelity": lhs / 4}


def problems() -> list[str]:
    """Descriptions of every case the checkers judged wrongly."""
    bound_job = workloads.Job("bound10", "cli", (), workloads.check_bound(10))
    lam = 0.5
    werner_job = workloads.Job("werner", "cli", (), workloads.check_werner(lam))
    good_bound = _bound_report(10)
    good_werner = _werner_report(lam)
    text = json.dumps(good_werner)
    cases = [
        ("correct bound report", bound_job, 0, json.dumps(good_bound), False),
        ("correct Werner report", werner_job, 0, text, False),
        ("bound off by 2", bound_job, 0,
         json.dumps({**good_bound, "bound_bruteforce": good_bound["bound_bruteforce"] + 2}), True),
        ("lhs off by 1e-6", werner_job, 0,
         json.dumps({**good_werner, "lhs": good_werner["lhs"] + 1e-6}), True),
        ("exit code 2", werner_job, 2, text, True),
        ("truncated JSON", werner_job, 0, text[: len(text) // 2], True),
    ]
    wrong = []
    for label, job, code, stdout, should_fail in cases:
        failed = workloads.judge(job, code, stdout) is not None
        if failed != should_fail:
            wrong.append(f"{label}: counted as {'failed' if failed else 'passed'}")
    return wrong


if __name__ == "__main__":
    found = problems()
    for line in found:
        print(line, file=sys.stderr)
    print("checker self-test:", "FAIL" if found else "PASS")
    sys.exit(1 if found else 0)
