"""Command line front end.

Every subcommand prints a machine-readable report to stdout.  Exit codes
form a stable contract: 0 on success, 2 when a verification check fails,
1 on usage or input errors.

Building the parser loads no kslab module but ``errors``: each handler
imports what its route runs, and numpy loads only where arrays do the
work.  ``group``, ``scan``, ``check``, ``bound`` without
``--bruteforce``, ``violate`` on ``ghz:``, ``product:`` and ``werner:``
states and ``verify --suite certificates`` run without it.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Sequence

from .errors import VerificationError

EXIT_PASS = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2

_KIND_NAMES = {"two": "two-partite", "multi": "multipartite"}
# Site counts of the identities and hvkn verification suites.
_SUITE_RANGE = range(2, 9)

Payload = dict[str, Any] | None


class _Parser(argparse.ArgumentParser):
    """Parser whose usage failures exit 1 instead of argparse's default 2, and
    which reads every negative float literal (-1e3, -inf, -nan) as a value."""

    def __init__(self, *args, **kwargs):
        import re

        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d[\d_]*\.?[\d_]*|\.\d[\d_]*)(e[-+]?\d+)?$|^-(inf(inity)?|nan)$", re.I
        )

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _cmd_group(args: argparse.Namespace) -> tuple[Payload, bool]:
    from .pauli import GROUP_LIMIT, LambdaIndex, closure_break, lambda_element

    n = args.n
    if not 1 <= n <= GROUP_LIMIT:
        raise ValueError(f"group tables need 1 <= n <= {GROUP_LIMIT}, got {n}")
    order = 1 << n
    elements = [lambda_element(LambdaIndex(n, p)) for p in range(order)]
    first_break = closure_break(elements)
    closure = first_break is None
    payload: dict[str, Any] = {
        "n": n,
        "order": order,
        "closure": closure,
        "elements": [
            {"p": p, "word": e.to_text()} for p, e in enumerate(elements)
        ],
    }
    if first_break is not None:
        p, q = first_break
        payload["first_break"] = {"p": p, "q": q}
    return payload, closure


def _cmd_bound(args: argparse.Namespace) -> tuple[Payload, bool]:
    from .inequalities import multipartite_bound

    payload: dict[str, Any] = {"n": args.n, "bound": multipartite_bound(args.n)}
    if args.workers is not None and args.workers < 1:
        raise ValueError("workers must be >= 1")
    if args.bruteforce:
        from .hv_oracle import bruteforce_report

        report = bruteforce_report(args.n)
        payload.update(report.to_dict())
        payload["agree"] = report.bound_bruteforce == report.bound_formula
    return payload, True


def _cmd_violate(args: argparse.Namespace) -> tuple[Payload, bool]:
    from .inequalities import multipartite_report, two_partite_report
    from .states import parse_state_spec

    state = parse_state_spec(args.state)
    two = args.kind == "two" or (args.kind is None and state.n == 2)
    report = (two_partite_report if two else multipartite_report)(state)
    return {"state": args.state, **report.to_dict()}, True


def _cmd_scan(args: argparse.Namespace) -> tuple[Payload, bool]:
    from .inequalities import scan, scan_to_csv, scan_to_json

    rows = scan(args.n_min, args.n_max)
    text = scan_to_csv(rows) if args.format == "csv" else scan_to_json(rows)
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return None, True


def _cmd_check(args: argparse.Namespace) -> tuple[Payload, bool]:
    from .experiment import evaluate_experiment, ingest_correlators

    table = ingest_correlators(args.file)
    if not table:
        raise ValueError(f"no correlator rows in {args.file!r}")
    n = len(next(iter(table)))  # the first word's length sets n
    report = evaluate_experiment(table, _KIND_NAMES[args.kind], n, k=args.k)
    return {"file": args.file, "k": args.k, **report.to_dict()}, True


def _cmd_verify(args: argparse.Namespace) -> tuple[Payload, bool]:
    if args.suite == "identities":
        import dataclasses

        from .pauli import verify_sum_identities

        reports = [verify_sum_identities(n) for n in _SUITE_RANGE]
        ok = all(r.ok for r in reports)
        detail = [dataclasses.asdict(r) for r in reports]
    elif args.suite == "hvkn":
        from .hv_oracle import verify_hvkn

        reports = [verify_hvkn(n) for n in _SUITE_RANGE]
        ok = all(r.ok for r in reports)
        detail = [r.to_dict() for r in reports]
    elif args.suite == "fine":
        from .fine_model import run_fine_suite

        suite = run_fine_suite()
        return suite, bool(suite["ok"])
    else:
        from .certificates import ghz_certificate, peres_mermin_certificate

        certificates = [peres_mermin_certificate(), ghz_certificate()]
        ok = all(c.satisfying_count == 0 for c in certificates)
        detail = [c.to_dict() for c in certificates]
    return {"suite": args.suite, "ok": ok, "reports": detail}, ok


_HANDLERS = {
    "group": _cmd_group,
    "bound": _cmd_bound,
    "violate": _cmd_violate,
    "scan": _cmd_scan,
    "check": _cmd_check,
    "verify": _cmd_verify,
}


def build_parser() -> _Parser:
    parser = _Parser(
        prog="kslab",
        description="Kochen-Specker inequality laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    group = sub.add_parser("group", help="sign-group table with a closure check")
    group.add_argument("--n", type=int, required=True, help="number of sites")

    bound = sub.add_parser("bound", help="classical bound for n sites")
    bound.add_argument("--n", type=int, required=True, help="number of sites")
    bound.add_argument(
        "--bruteforce",
        action="store_true",
        help="also enumerate every assignment and compare",
    )
    bound.add_argument(
        "--workers",
        type=int,
        default=None,
        help="accepted for compatibility: must be >= 1, otherwise ignored",
    )

    violate = sub.add_parser("violate", help="evaluate an inequality on a state")
    violate.add_argument(
        "--state",
        required=True,
        help="ghz:n=5,alpha=0.6,beta=0.8 | product:+++++ | "
        "werner:lambda=0.5 | dense:@file",
    )
    violate.add_argument(
        "--kind",
        choices=sorted(_KIND_NAMES),
        default=None,
        help="inequality family (default: two when n = 2, multi otherwise)",
    )

    scan_cmd = sub.add_parser("scan", help="GHZ and product-state reports over a range")
    scan_cmd.add_argument("--from", dest="n_min", type=int, required=True)
    scan_cmd.add_argument("--to", dest="n_max", type=int, required=True)
    scan_cmd.add_argument("--format", choices=("csv", "json"), default="csv")

    check = sub.add_parser("check", help="evaluate measured correlators from a CSV")
    check.add_argument("--file", required=True, help="CSV with word,value,sigma rows")
    check.add_argument("--kind", choices=sorted(_KIND_NAMES), required=True)
    check.add_argument(
        "--k", type=float, default=3.0, help="significance threshold in sigmas"
    )

    verify = sub.add_parser("verify", help="run a built-in verification suite")
    verify.add_argument(
        "--suite",
        choices=("identities", "hvkn", "fine", "certificates"),
        required=True,
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, ok = _HANDLERS[args.command](args)
        if payload is not None:
            print(json.dumps(payload, indent=2, allow_nan=False))
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_PASS if ok else EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
