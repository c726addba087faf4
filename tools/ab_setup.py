"""A/B of the package's set-up time in two source trees.

Set-up is what the benchmark's ``setup_s`` times (``bench/run.py``,
``SETUP_CODE``): importing ``pellprime.search`` and building the nine
tests of the ``verdicts-62bit`` workload with ``build_test``, in a fresh
interpreter.  This runs that code for both trees in fresh interpreters,
the tree that goes first alternating between rounds, in two modes:

* ``nocache``: ``PYTHONDONTWRITEBYTECODE=1`` and no ``__pycache__`` in the
  package, so every start compiles it, as in the benchmark's fresh
  checkouts;
* ``cached``: one untimed start writes the package's bytecode, and every
  timed start reads it.

Each tree's ``pellprime`` package is copied, without its ``__pycache__``,
to a temporary directory for each mode, so nothing is written to the
trees given.  One untimed start of each copy runs before the rounds.  It
prints first, per tree, the ``pellprime`` modules its set-up left loaded,
so that a module that came back to start-up shows by name; then, per
mode, each side's median and quartiles in ms, the change of the median,
and in how many rounds NEW started faster:

    python3 tools/ab_setup.py OLD_SRC NEW_SRC [--rounds R]  (R = 21)

OLD_SRC and NEW_SRC are directories holding a ``pellprime`` package, such
as ``src`` of two checkouts.

Noise floor: on a shared 2-vCPU virtual machine (Python 3.11.7), six A/A
runs of one tree against a copy of itself (two of 15 rounds, four of 21)
read median differences from -0.7% to +12.2% with no cache and from
-1.1% to +2.0% with it, and round wins from 6/15 to 12/21.  So run each
comparison twice, with the trees swapped, and read a difference as an
effect only when it keeps its sign both ways, is larger than that spread
and holds in nearly every round.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# bench/run.py's SETUP_CODE, with the source directory passed in, and
# then, untimed, the package's modules it left loaded.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from pellprime.search import build_test
import json
for method, params in json.loads(sys.argv[2]):
    build_test(method, params)
print(time.perf_counter() - t0)
print(*sorted(name for name in sys.modules if name.startswith("pellprime")))
"""
# The verdicts-62bit workload's methods, as bench/run.py builds them.
VERDICT_METHODS = [
    ("fermat", {"a": 2}), ("strong-base", {"a": 2}),
    ("lucas", {"selfridge": True}), ("double-lucas", {"selfridge": True}),
    ("matrix", {"selfridge": True}), ("pell", {"D": 3, "x": 2, "y": 1}),
    ("strong-pell", {"D": 3, "x": 2, "y": 1}),
    ("gen-pell", {"selfridge": True}), ("pell-variant", {})]
MODES = {"nocache": {"PYTHONDONTWRITEBYTECODE": "1"}, "cached": {}}


def _start(src: Path, env: dict) -> tuple[float, str]:
    """One fresh interpreter's set-up time, in seconds, and the package's
    modules it left loaded."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(src),
         json.dumps(VERDICT_METHODS)],
        cwd=src, env=env, check=True, capture_output=True, text=True,
        timeout=120)
    elapsed, loaded = done.stdout.splitlines()
    return float(elapsed), loaded


def _summary(times: list[float]) -> str:
    q1, med, q3 = statistics.quantiles(times, n=4)
    return f"{med * 1e3:6.2f} ms [{q1 * 1e3:.2f}, {q3 * 1e3:.2f}]"


def compare(old: Path, new: Path, rounds: int, tmp: Path) -> None:
    """Print one line per mode for the packages under old and new."""
    base = {k: v for k, v in os.environ.items()
            if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    for mode, extra in MODES.items():
        env = base | extra
        copies = []
        for side, src in (("old", old), ("new", new)):
            copy = tmp / mode / side
            shutil.copytree(src / "pellprime", copy / "pellprime",
                            ignore=shutil.ignore_patterns("__pycache__"))
            _, loaded = _start(copy, env)
            if mode == "nocache":
                print(f"{side} loads {loaded}", flush=True)
            copies.append(copy)
        times: tuple[list[float], list[float]] = ([], [])
        for r in range(rounds):
            for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                times[side].append(_start(copies[side], env)[0])
        wins = sum(b < a for a, b in zip(*times))
        change = statistics.median(times[1]) / statistics.median(times[0]) - 1
        print(f"{mode:8} old {_summary(times[0])}  new {_summary(times[1])}"
              f"  {change:+.1%}  new faster in {wins}/{rounds} rounds",
              flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="source dir of the old tree")
    parser.add_argument("new", type=Path, help="source dir of the new tree")
    parser.add_argument("--rounds", type=int, default=21)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        compare(args.old.resolve(), args.new.resolve(), args.rounds, Path(tmp))
    return 0


if __name__ == "__main__":
    sys.exit(main())
