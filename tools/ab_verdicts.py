"""In-process A/B of the per-n verdicts of two source trees.

Loads the package of each tree under its own name, side by side in one
process, so that both sides share the interpreter, the machine's speed
of the moment and the n, which separate benchmark processes do not.
Each form is one per-n test (a method and its parameters, as
``build_test`` takes them) on consecutive odd n from a seeded point just
above 2**bits.  A warm-up pass runs every form on every n on both sides,
fills their caches and asserts that the two trees give equal verdicts.
Then each round times every verdict of every form on both sides, the
first side of a round alternating between rounds.  It prints, per form,
the p50, p99 and mean verdict time of each side over all rounds, and in
how many rounds each side had the lower p50 (a tie counts for neither):

    python3 tools/ab_verdicts.py OLD_SRC NEW_SRC [--rounds R] [--odds N]
        [--seed S] [--forms NAME ...]

OLD_SRC and NEW_SRC are directories holding a ``pellprime`` package, such
as ``src`` of two checkouts.  The exit status is 1 when a verdict
differs.

Noise floor: on a shared 2-vCPU virtual machine, A/A runs of one tree
against a copy of itself (10 rounds of 4096 odd n, on gen-pell@34,
matrix@23, lucas@62 and gen-pell@62) read p50 differences from -8.9% to
+6.5%, and round wins from 2/8 to 8/2.  So run each comparison twice,
with the trees swapped, and read a difference as an effect only when it
keeps its sign both ways and is larger than that spread.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import random
import statistics
import sys
import time
from pathlib import Path

SELFRIDGE = {"selfridge": True}
# name: (method, params, bits).  The first two are the per-n tests of the
# scan workloads; the rest are the 62-bit mix of methods, one
# configuration per method.
FORMS = {
    "gen-pell@34": ("gen-pell", SELFRIDGE, 34),
    "matrix@23": ("matrix", SELFRIDGE, 23),
    "fermat@62": ("fermat", {"a": 2}, 62),
    "strong-base@62": ("strong-base", {"a": 2}, 62),
    "lucas@62": ("lucas", SELFRIDGE, 62),
    "double-lucas@62": ("double-lucas", SELFRIDGE, 62),
    "matrix@62": ("matrix", SELFRIDGE, 62),
    "pell@62": ("pell", {"D": 3, "x": 2, "y": 1}, 62),
    "strong-pell@62": ("strong-pell", {"D": 3, "x": 2, "y": 1}, 62),
    "gen-pell@62": ("gen-pell", SELFRIDGE, 62),
    "pell-variant@62": ("pell-variant", {}, 62),
}


def load(src: Path, alias: str):
    """The ``search`` module of the package in src, imported as alias."""
    init = src / "pellprime" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        alias, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[alias] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{alias}.search")


def odds(bits: int, count: int, seed: int) -> list[int]:
    """count consecutive odd n from a seeded point just above 2**bits."""
    start = 2**bits + 2 * random.Random(f"{seed}/{bits}").randrange(2**20) + 1
    return list(range(start, start + 2 * count, 2))


def verdicts(test, ns: list[int]) -> list[tuple]:
    """Each verdict as a plain tuple, its outcome by value, so that the
    two packages' records compare."""
    return [(v.outcome.value, *v[1:]) for v in map(test, ns)]


def timed(test, ns: list[int]) -> list[int]:
    """Nanoseconds of each verdict."""
    clock, out = time.perf_counter_ns, []
    for n in ns:
        t = clock()
        test(n)
        out.append(clock() - t)
    return out


def quantile(values: list[int], q: float) -> float:
    """The q-quantile of nanosecond times, in microseconds."""
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))] / 1e3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--odds", type=int, default=2**12)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--forms", nargs="+", choices=FORMS, default=FORMS)
    args = parser.parse_args(argv)

    sides = [load(args.old, "ab_old"), load(args.new, "ab_new")]
    forms = {}
    for name in args.forms:
        method, params, bits = FORMS[name]
        ns = odds(bits, args.odds, args.seed)
        tests = [search.build_test(method, params)[0] for search in sides]
        old, new = (verdicts(test, ns) for test in tests)
        if old != new:
            i = next(i for i, (a, b) in enumerate(zip(old, new)) if a != b)
            print(f"{name}: n = {ns[i]}: {old[i]} != {new[i]}")
            return 1
        forms[name] = ns, tests

    times = {name: ([], []) for name in forms}
    wins = {name: [0, 0] for name in forms}
    for r in range(args.rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        for name, (ns, tests) in forms.items():
            p50 = [0.0, 0.0]
            for side in order:
                gc.collect()
                t = timed(tests[side], ns)
                times[name][side].extend(t)
                p50[side] = quantile(t, 0.5)
            if p50[0] != p50[1]:
                wins[name][p50[1] < p50[0]] += 1

    print(f"{args.rounds} rounds of {args.odds} odd n per form, seed "
          f"{args.seed}; times in us, old -> new; rounds won old / new")
    print(f"{'form':16} {'p50':>18} {'':7} {'p99':>18} {'mean':>18} "
          f"{'':7} {'won':>7}")
    for name, (old, new) in times.items():
        a, b = quantile(old, 0.5), quantile(new, 0.5)
        ma, mb = statistics.fmean(old) / 1e3, statistics.fmean(new) / 1e3
        print(f"{name:16} {a:7.2f} -> {b:7.2f} {100 * (b / a - 1):+6.1f}% "
              f"{quantile(old, 0.99):7.2f} -> {quantile(new, 0.99):7.2f} "
              f"{ma:7.2f} -> {mb:7.2f} {100 * (mb / ma - 1):+6.1f}% "
              f"{wins[name][0]:3} / {wins[name][1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
