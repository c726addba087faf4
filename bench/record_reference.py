#!/usr/bin/env python3
"""Record bench/reference.json from the results of the current source tree.

    python3 bench/record_reference.py

Scans the whole band of each scan workload (every window of every seed lies
in it, so the reference holds for any seed and run length) and records the
outcome of every verdict method on the n-lists of run.RECORDED_SEEDS.  Each
result passes the reference-free checks before it is written.  About three
minutes with two worker processes.
"""

from __future__ import annotations

import json
import sys

import run  # first: puts the checkout's src/ on sys.path

import checks
from pellprime import search

JOBS = 2


def main() -> int:
    gate = checks.Gate()
    reference = {"recorded_from": run.git_sha()}
    for workload, spec in run.SCANS.items():
        lo, hi = run.band(workload)
        report = gate.run(f"{workload} band", lambda: search.scan_range(
            spec["method"], run.SELFRIDGE, lo, hi, jobs=JOBS),
            lambda r: checks.check_scan(r, lo, hi, None))
        reference[workload] = {"lo": lo, "hi": hi,
                               "pseudoprimes": list(report.pseudoprimes)}
        print(workload, reference[workload], file=sys.stderr)
    tests = run.build_tests()
    verdicts = {}
    for seed in run.RECORDED_SEEDS:
        ns = run.verdict_inputs(seed)
        primes = [checks.is_prime(n) for n in ns]
        verdicts[str(seed)] = run.verdict_pass(gate, None, tests, ns,
                                                primes, None)
    reference["verdicts-62bit"] = verdicts
    if gate.failed:
        print("\n".join(gate.messages), file=sys.stderr)
        return 1
    with open(checks.REFERENCE_FILE, "w", encoding="ascii") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
