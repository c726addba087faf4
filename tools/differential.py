"""Run the scan's differential matrix and print one line per scan.

The matrix is every config of ``SIEVED_CONFIGS`` and ``UNHINTED_CONFIGS``
in tests/test_sieve.py, over its ``RANGES``, with chunk_odds in
{1, 64, 2**11, 2**16} and jobs in {1, 2, 3}: 21 configs, 5 ranges, 4
chunk sizes and 3 job counts, 1260 scans in one process (so a kept worker
pool is reused from scan to scan).  The job counts cut a range into
stripes three ways wherever its chunks are smaller than the kernel's
stripe.  Each line is

    method params [lo, hi] chunk_odds=C jobs=J canonical_json

Two source trees scan alike when they print the same lines, byte for
byte.  The configs and ranges come from the tests/test_sieve.py next to
this script, read without importing it; the package comes from
PYTHONPATH, so this one copy of the script can run against either tree:

    PYTHONPATH=src python3 tools/differential.py > new.txt
    PYTHONPATH=/path/to/other/src python3 tools/differential.py > old.txt
    cmp old.txt new.txt
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

from pellprime.search import scan_range

TESTS = Path(__file__).resolve().parents[1] / "tests" / "test_sieve.py"
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


def main() -> int:
    consts = _constants(TESTS, {"SIEVED_CONFIGS", "UNHINTED_CONFIGS",
                                "RANGES"})
    for method, params in consts["SIEVED_CONFIGS"] + consts["UNHINTED_CONFIGS"]:
        for lo, hi in consts["RANGES"]:
            for chunk_odds in CHUNK_ODDS:
                for jobs in JOBS:
                    report = scan_range(method, params, lo, hi, jobs=jobs,
                                        chunk_odds=chunk_odds)
                    print(f"{method} {json.dumps(params, sort_keys=True)} "
                          f"[{lo}, {hi}] chunk_odds={chunk_odds} jobs={jobs} "
                          f"{report.canonical_json()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
