"""Command line interface.

    fanocert verify [--all | --case ID | --family NAME]
                    [--explain] [--strict] [--json PATH] [--table PATH]

Exit codes: 0 when every computed verdict matches the table, 1 when a
mismatch occurs under --strict, 2 on usage, table or output errors (the
report file or standard output; a row whose tags select no proof is a table
error), 3 on an internal error, reported on one line: a case raises any
other error, or the report holds a value it refuses (``ReportValueError``)
or an integer too long to print (``ValueError``); no report file is written
then.
"""
from __future__ import annotations

import argparse
import gc
import os
import sys

from .catalog import FAMILY_NAMES, CaseTableError, run_all
from .report import ReportValueError, write_report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanocert",
        description="Exact-arithmetic certificates for the E1-E1 link case table",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="verify table cases and emit certificates")
    selector = verify.add_mutually_exclusive_group()
    selector.add_argument("--all", action="store_true", help="verify every case (default)")
    selector.add_argument("--case", type=int, metavar="ID", help="verify a single case id")
    selector.add_argument("--family", choices=FAMILY_NAMES, help="verify one family")
    verify.add_argument("--explain", action="store_true",
                        help="print each check in the witness trail")
    verify.add_argument("--strict", action="store_true",
                        help="exit nonzero on any verdict mismatch")
    verify.add_argument("--json", metavar="PATH", help="write the JSON report here")
    verify.add_argument("--table", metavar="PATH", help="case table override file")
    return parser


def _print_certificate(cert, explain: bool) -> None:
    case = cert.case
    status = "ok" if cert.matches else "MISMATCH"
    print(f"{case.label():<44} expected {case.expected:<14} "
          f"computed {cert.computed:<14} {status}")
    if explain:
        for check in cert.checks:
            mark = "pass" if check.passed else "FAIL"
            print(f"    [{check.kind:<17}] {check.name:<46} {mark}")
        for note in cert.discrepancies:
            print(f"    flagged: {note}")


def _internal_error(exc: Exception) -> int:
    print(f"fanocert: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 3


def main(argv: list[str] | None = None) -> int:
    """Run the command line on ``argv`` and return the exit code.

    The first statement freezes the collector, and the freeze stays in
    effect for an in-process caller: cyclic garbage alive at the call is
    never collected in that process.
    """
    gc.freeze()  # all alive now lives until exit; shutdown's collections then skip it
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        report = run_all(case_id=args.case, family=args.family, table=args.table)
    except (CaseTableError, OSError) as exc:
        print(f"fanocert: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        return _internal_error(exc)

    if args.case is not None and not report.certificates:
        print(f"warning: no case with id {args.case} in the table", file=sys.stderr)

    status = 1 if args.strict and not report.all_match else 0
    try:
        for cert in report.certificates:
            _print_certificate(cert, args.explain)
        summary = report.summary
        print(f"summary: cases={summary['cases']} pass={summary['pass']} "
              f"mismatch={summary['mismatch']} open={summary['open']} "
              f"flagged={summary['flagged']}")
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # Later writes, the interpreter's final flush included, go nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"fanocert: cannot write to standard output: {exc}", file=sys.stderr)
        status = 2

    if args.json is not None:
        try:
            write_report(report, args.json)
        except OSError as exc:
            print(f"fanocert: cannot write report: {exc}", file=sys.stderr)
            return 2
        except (ReportValueError, ValueError) as exc:
            return _internal_error(exc)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
