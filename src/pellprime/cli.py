"""Command-line interface: single tests, range scans, and grid experiments.

Output is machine readable (JSONL records with a versioned schema, or CSV).
For ``test`` the exit code carries the verdict: 0 probable prime,
1 composite, 2 invalid parameters or usage error.  A command interrupted
with Ctrl-C exits with 130, and one stopped with SIGTERM with 143, after
one line on stderr, with no traceback; for a scan with ``--checkpoint``
the line names the file to resume from.  Either way a scan's worker
processes are killed first.  The workers ignore Ctrl-C and die of
SIGTERM, so a signal to the whole process group ends the scan the same
way.  A worker that dies mid-scan ends it with exit 2 and one line that
names the worker.
"""

from __future__ import annotations

import argparse
import csv
import json
import signal
import sys
from itertools import islice

from .primality import Outcome
from .search import GRID_METHODS, METHODS, VARIANTS
from .search import build_test, grid_scan, scan_range

SCHEMA = "v1"

_EXIT_CODE = {
    Outcome.PROBABLE_PRIME: 0,
    Outcome.COMPOSITE: 1,
    Outcome.PARAMS_INVALID: 2,
}


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", required=True, choices=tuple(METHODS))
    p.add_argument("-P", type=int, help="sequence parameter P")
    p.add_argument("-Q", type=int, help="sequence parameter Q")
    p.add_argument("-R", type=int, help="matrix parameter R")
    p.add_argument("-D", type=int, help="conic coefficient D")
    p.add_argument("-x", type=int, help="conic base point x")
    p.add_argument("-y", type=int, help="conic base point y")
    p.add_argument("-a", type=int, help="base (fermat/strong-base) or conic parameter a")
    p.add_argument("--selfridge", action="store_true",
                   help="select parameters per n (Selfridge-style); "
                        "mutually exclusive with explicit parameter flags")
    p.add_argument("--variant", choices=VARIANTS,
                   help="matrix-test companion-congruence variant")


def _params_from_args(args: argparse.Namespace) -> dict:
    explicit = {k: getattr(args, k) for k in ("P", "Q", "R", "D", "x", "y", "a")}
    if args.selfridge and any(v is not None for v in explicit.values()):
        raise ValueError("--selfridge is mutually exclusive with explicit "
                         "parameter flags")
    return {**explicit, "selfridge": args.selfridge, "variant": args.variant}


def _parse_axis(text: str) -> list[int]:
    """Parse 'lo:hi' (inclusive) or a comma list of ints."""
    if ":" in text:
        lo_s, _, hi_s = text.partition(":")
        lo, hi = int(lo_s), int(hi_s)
        if lo > hi:
            raise ValueError(f"bad axis range {text!r}")
        return list(range(lo, hi + 1))
    return [int(tok) for tok in text.split(",") if tok]


def _emit(record: dict) -> None:
    print(json.dumps(record, sort_keys=True))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pellprime",
        description="Degree-two recurrence and Pell-conic probable-prime "
                    "tests, with pseudoprime range scanning.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run one test on one n")
    p_test.add_argument("n", type=int)
    _add_param_flags(p_test)
    p_test.set_defaults(func=cmd_test)

    p_scan = sub.add_parser("scan", help="scan a range for pseudoprimes")
    _add_param_flags(p_scan)
    p_scan.add_argument("--from", dest="lo", type=int, default=3)
    p_scan.add_argument("--to", dest="hi", type=int, required=True)
    p_scan.add_argument("--jobs", type=int, default=1)
    p_scan.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p_scan.add_argument("--checkpoint", metavar="FILE",
                        help="persist/resume a cursor for long scans")
    p_scan.set_defaults(func=cmd_scan)

    p_grid = sub.add_parser("grid", help="pseudoprime counts over a parameter grid")
    p_grid.add_argument("--method", required=True, choices=GRID_METHODS)
    p_grid.add_argument("--p-range", required=True, metavar="LO:HI|LIST")
    p_grid.add_argument("--q-range", required=True, metavar="LO:HI|LIST")
    p_grid.add_argument("--r-set", metavar="LIST", help="R values (matrix only)")
    p_grid.add_argument("--limit", type=int, required=True)
    p_grid.add_argument("--jobs", type=int, default=1)
    p_grid.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p_grid.add_argument("--variant", choices=VARIANTS)
    p_grid.set_defaults(func=cmd_grid)
    return parser


def cmd_test(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    test, canonical = build_test(args.method, params)
    verdict = test(args.n)
    _emit({
        "schema": SCHEMA,
        "type": "verdict",
        "command": {"method": args.method, "params": canonical, "n": args.n},
        "outcome": verdict.outcome.value,
        "evidence": verdict.evidence,
        "factor": verdict.factor,
        "jacobi_branch": verdict.jacobi_branch,
    })
    return _EXIT_CODE[verdict.outcome]


def cmd_scan(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    _, canonical = build_test(args.method, params)

    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        # Written with the first row, so that a scan rejected before it
        # starts (bad range, jobs or checkpoint) prints nothing to stdout.
        header = [["record", "n", "method", "params", "lo", "hi", "count",
                   "tested", "short_circuited", "params_invalid", "elapsed_s"]]

        def write_row(fields: list) -> None:
            if header:
                writer.writerow(header.pop())
            writer.writerow(fields)

        def on_find(n: int) -> None:
            write_row(["pseudoprime", n, args.method, canonical,
                       "", "", "", "", "", "", ""])
    else:
        def on_find(n: int) -> None:
            _emit({"schema": SCHEMA, "type": "pseudoprime", "n": n,
                   "method": args.method, "params": canonical})

    report = scan_range(args.method, params, args.lo, args.hi,
                        jobs=args.jobs, checkpoint=args.checkpoint,
                        on_pseudoprime=on_find)
    if args.format == "csv":
        write_row(["summary", "", report.method, report.params,
                   report.lo, report.hi, report.count,
                   report.stats["tested"], report.stats["short_circuited"],
                   report.stats["params_invalid"], round(report.elapsed, 3)])
    else:
        record = report.to_dict()
        record.pop("pseudoprimes")  # already streamed one per line
        _emit({"schema": SCHEMA, "type": "scan_summary", **record})
    return 0


def cmd_grid(args: argparse.Namespace) -> int:
    p_values = _parse_axis(args.p_range)
    q_values = _parse_axis(args.q_range)
    r_values = _parse_axis(args.r_set) if args.r_set else None
    report = grid_scan(args.method, p_values, q_values, args.limit,
                       r_values=r_values, jobs=args.jobs, variant=args.variant)

    if args.format == "jsonl":
        meta = report.to_dict()
        meta.pop("cells")  # streamed one record per cell below
        _emit({"schema": SCHEMA, "type": "grid_meta", **meta})
        for cell in report.cells:
            _emit({"schema": SCHEMA, "type": "grid_cell", **cell})
        return 0

    # The cells come in product(R, P, Q) order: each row is the next
    # len(q_values) of them.
    writer = csv.writer(sys.stdout)
    cells = iter(report.cells)
    for r in r_values or [None]:
        if r is not None:
            writer.writerow([f"R={r}"])
        writer.writerow(["P\\Q"] + [str(q) for q in q_values])
        for p in p_values:
            writer.writerow([str(p)] + [
                "skip" if cell["skipped"] else str(cell["count"])
                for cell in islice(cells, len(q_values))])
    return 0


class _Terminated(BaseException):
    """SIGTERM, raised in the main thread as Ctrl-C raises KeyboardInterrupt,
    so that a scan unwinds the same way: its workers are killed first."""


def _terminate(signum, frame) -> None:
    raise _Terminated


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"pellprime: error: {exc}", file=sys.stderr)
        return 2
    except (KeyboardInterrupt, _Terminated) as exc:
        checkpoint = getattr(args, "checkpoint", None)
        resume = f"; resume from checkpoint {checkpoint}" if checkpoint else ""
        print(f"pellprime: interrupted{resume}", file=sys.stderr)
        return 143 if isinstance(exc, _Terminated) else 130
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
