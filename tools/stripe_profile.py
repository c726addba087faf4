"""Time warm scan stripes phase by phase and print one JSON line per shape.

A stripe is what one process scans with one :class:`Segment` and one
call each of the kernel's ``walk`` and ``settle``
(``search._scan_stripe``).  Its CPU time splits into four phases:
building the ``Segment``, the ``walk`` call, the ``settle`` call, and the
rest (the per-n test on what the kernel leaves, and each chunk's counts).
Each phase is timed by swapping the name ``search`` calls for a timing
wrapper.  The shapes are

* ``genpell-2^34``: gen-pell+Selfridge, stripes of 2**14 odd n from 2**34,
  in chunks of 2**11 (the ``scan-genpell`` benchmark's windows);
* ``matrix-2^23``: matrix+Selfridge (v-companion), stripes of 2**14 odd n
  from 2**23, in chunks of 2**11;
* ``genpell-1e10``: gen-pell+Selfridge, stripes of one CLI chunk of 2**16
  odd n from 10**10.

Each shape scans WINDOWS consecutive stripes once to warm the rank tables,
then PASSES more times, timing each stripe's phases with
``time.process_time``; a line holds each phase's median over those
stripes, in ms.  The sieve limit is that of a scan ending at the stripe.
The package comes from PYTHONPATH, so this one copy of the script can
profile either tree:

    PYTHONPATH=src python3 tools/stripe_profile.py [PASSES]
"""

from __future__ import annotations

import json
import sys
from statistics import median
from time import process_time

from pellprime import search
from pellprime.sieve import sieve_limit

SELFRIDGE = {"selfridge": True}
# (name, method, first n, odd n per stripe, chunk_odds)
SHAPES = (("genpell-2^34", "gen-pell", 2**34 + 1, 2**14, 2**11),
          ("matrix-2^23", "matrix", 2**23 + 1, 2**14, 2**11),
          ("genpell-1e10", "gen-pell", 10**10 + 1, 2**16, 2**16))
WINDOWS = 8
PASSES = 5


def _timed(fn, sink: list[float]):
    """fn, appending the CPU time of each call to sink."""
    def call(*args):
        start = process_time()
        result = fn(*args)
        sink.append(process_time() - start)
        return result
    return call


def profile(method: str, lo: int, odds: int, chunk_odds: int,
            passes: int) -> dict[str, float]:
    """Median CPU ms per stripe of each phase, over passes warm passes."""
    phases = {name: getattr(search, name)
              for name in ("Segment", "walk", "settle")}
    windows = [(a, a + 2 * odds - 2, sieve_limit(a + 2 * odds - 2))
               for a in range(lo, lo + WINDOWS * 2 * odds, 2 * odds)]
    times: dict[str, list[float]] = {name: [] for name in phases}
    totals: list[float] = []
    for name, fn in phases.items():
        setattr(search, name, _timed(fn, times[name]))
    try:
        for _ in range(passes + 1):
            for a, b, limit in windows:
                start = process_time()
                for _ in search._scan_stripe(method, SELFRIDGE, a, b, limit,
                                             chunk_odds):
                    pass
                totals.append(process_time() - start)
    finally:
        for name, fn in phases.items():
            setattr(search, name, fn)
    # The first pass only warms the rank tables.
    warm = slice(WINDOWS, None)
    times = {name: spent[warm] for name, spent in times.items()}
    totals = totals[warm]
    rest = [t - sum(parts) for t, *parts in zip(totals, *times.values())]
    return {**{f"{name.lower()}_ms": median(spent) * 1e3
               for name, spent in times.items()},
            "rest_ms": median(rest) * 1e3,
            "stripe_ms": median(totals) * 1e3}


def main() -> int:
    passes = int(sys.argv[1]) if len(sys.argv) > 1 else PASSES
    for name, method, lo, odds, chunk_odds in SHAPES:
        times = profile(method, lo, odds, chunk_odds, passes)
        print(json.dumps({"shape": name, "odds": odds, "stripes":
                          WINDOWS * passes,
                          **{k: round(v, 3) for k, v in times.items()}}),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
