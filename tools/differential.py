"""Run the scan's differential matrix and print one line per scan, then
one line per verdict.

The matrix is every config of ``SIEVED_CONFIGS`` and ``UNHINTED_CONFIGS``
in tests/test_sieve.py, over its ``RANGES``, with chunk_odds in
{1, 64, 2**11, 2**16} and jobs in {1, 2, 3}: 27 configs, 5 ranges, 4
chunk sizes and 3 job counts, 1620 scans in one process (so the workers
a scan starts are kept and reused by the next scan with as many).  The
job counts cut a range into stripes three ways wherever its chunks are
smaller than the kernel's stripe.  Each line is

    method params [lo, hi] chunk_odds=C jobs=J canonical_json

A scan's canonical JSON holds counts and finds but no evidence, so the
per-n test of each of the 27 configs, of the 4 of
:data:`PRECONDITION_CONFIGS` and of the 2 of :data:`BASE_CONFIGS` then
runs on the n of :data:`VERDICT_NS`, one line each (239 n, 6453 + 956 +
478 lines, 9507 lines in all, the base configs' last):

    method params n=N [outcome, evidence, factor, jacobi_branch, stage]

(JSON writes the non-ASCII characters of an evidence string as \\u escapes.)

Two source trees scan and test alike when they print the same lines,
byte for byte.  The configs and ranges come from the tests/test_sieve.py
next to this script, and the Selfridge-Lucas pseudoprimes from
tests/test_acceptance.py, read without importing them; the package comes from
PYTHONPATH, so this one copy of the script can run against either tree:

    PYTHONPATH=src python3 tools/differential.py > new.txt

Given two directories that each hold a ``pellprime`` package, such as
``src`` of two checkouts, it runs the matrix once per tree, one after
the other, each in a child process with that tree alone on PYTHONPATH.
It prints the number of lines each printed, and exits 0 when the two
outputs are equal, or prints the first line that differs and exits 1:

    python3 tools/differential.py OLD_SRC NEW_SRC
"""

from __future__ import annotations

import ast
import json
import os
import random
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1] / "tests"
CHUNK_ODDS = (1, 64, 1 << 11, 1 << 16)
JOBS = (1, 2, 3)


def _constants(path: Path, names: set[str]) -> dict:
    """The values of the module-level assignments to names in path; each
    must be an expression of literals and arithmetic."""
    found = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) in names):
            code = compile(ast.Expression(node.value), str(path), "eval")
            found[node.targets[0].id] = eval(code, {"__builtins__": {}})
    return found


# n outside the odd ints in [3, 2**63), the odd n to 99, squares beyond
# them, the Carmichael numbers to 10**4, 64 seeded odd n near 2**62 and 64
# near 2**34, the Selfridge-Lucas pseudoprimes to 15000 (small factors whose
# ranks divide n + 1), and 16 n = 3q and 16 n = 5q near 2**62 for odd q.
# The n with a prime factor below the per-n tests' probe bound cover both
# of its outcomes: ruled out, and left to the ladder.
_SEEDED = random.Random(2063)
VERDICT_NS = ((1, 2, 4, -3, 2**63 + 1, 9.0, True)
              + tuple(range(3, 100, 2)) + (121, 10201)
              + (561, 1105, 1729, 2465, 2821, 6601, 8911)
              + tuple(_SEEDED.randrange(2**61, 2**63) | 1 for _ in range(64))
              + tuple(_SEEDED.randrange(2**34, 2**34 + 2**24) | 1
                      for _ in range(64))
              + _constants(TESTS / "test_acceptance.py",
                           {"SELFRIDGE_LUCAS_15000"})["SELFRIDGE_LUCAS_15000"]
              + tuple(p * (_SEEDED.randrange(2**62 // p, 2**63 // p) | 1)
                      for p in (3,) * 16 + (5,) * 16))


# Configs for verdict lines only, whose Q, QR or base point norm fails a
# test's precondition for some n of VERDICT_NS: gcd(Q, n) > 1 at 3 | n,
# gcd(QR, n) > 1 at 3 | n or 5 | n, and a norm 16, ≢ 1 unless n | 15.
PRECONDITION_CONFIGS = [
    ("lucas", {"P": 1, "Q": 3}),
    ("matrix", {"P": 1, "Q": 5, "R": 3, "variant": "u-companion"}),
    ("matrix", {"P": 1, "Q": 5, "R": 3, "variant": "v-companion"}),
    ("pell", {"D": 65, "x": 9, "y": 1}),
]
# Base-a configs for verdict lines only, printed last, whose a - 1 has the
# odd prime 3, a prime below the probe bound: the per-n tests' probe reads
# base a as Lucas(a + 1, a) with scale a - 1, which skips that prime.
BASE_CONFIGS = [
    ("fermat", {"a": 7}),
    ("strong-base", {"a": 10}),
]


def _matrix() -> int:
    """Print the matrix for the package on PYTHONPATH."""
    from pellprime.search import build_test, scan_range

    consts = _constants(TESTS / "test_sieve.py",
                        {"SIEVED_CONFIGS", "UNHINTED_CONFIGS", "RANGES"})
    configs = consts["SIEVED_CONFIGS"] + consts["UNHINTED_CONFIGS"]
    for method, params in configs:
        for lo, hi in consts["RANGES"]:
            for chunk_odds in CHUNK_ODDS:
                for jobs in JOBS:
                    report = scan_range(method, params, lo, hi, jobs=jobs,
                                        chunk_odds=chunk_odds)
                    print(f"{method} {json.dumps(params, sort_keys=True)} "
                          f"[{lo}, {hi}] chunk_odds={chunk_odds} jobs={jobs} "
                          f"{report.canonical_json()}", flush=True)
    for method, params in configs + PRECONDITION_CONFIGS + BASE_CONFIGS:
        test, _ = build_test(method, params)
        for n in VERDICT_NS:
            v = test(n)
            print(f"{method} {json.dumps(params, sort_keys=True)} n={n!r} "
                  + json.dumps([v.outcome.value, v.evidence, v.factor,
                                v.jacobi_branch, v.stage]))
    return 0


def _lines(src: str) -> list[str]:
    """The matrix's lines for the package in src, from a child process."""
    if not (Path(src) / "pellprime" / "__init__.py").is_file():
        sys.exit(f"{src}: holds no pellprime package")
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve())}
    return subprocess.run([sys.executable, __file__], env=env, check=True,
                          stdout=subprocess.PIPE, text=True).stdout.splitlines()


def main(argv: list[str]) -> int:
    if len(argv) == 1:
        return _matrix()
    if len(argv) != 3:
        sys.exit("usage: differential.py [OLD_SRC NEW_SRC]")
    old, new = _lines(argv[1]), _lines(argv[2])
    print(f"{argv[1]}: {len(old)} lines\n{argv[2]}: {len(new)} lines")
    for i, (a, b) in enumerate(zip(old + [None], new + [None]), 1):
        if a != b:
            print(f"first difference, line {i}:\n< {a}\n> {b}")
            return 1
    print("identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
