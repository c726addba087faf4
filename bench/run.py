#!/usr/bin/env python3
"""pellprime benchmark: scan throughput and verdict latency, layer by layer.

    python3 bench/run.py --workload scan-genpell --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run it from the root of a checkout; it measures the package under ``src/``
with the stdlib timers only.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones; metric names, units and directions come
from BENCHMARK.json and are explained in bench/README.md, which also says
why timings are corrected to a nominal machine speed.  Every metric is
printed by name with its unit and sample count, then the run's context, and
the last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when an
operation raised or an output failed its check.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "pellprime" / "__init__.py").is_file():
    sys.exit(f"no package source under {SRC}: run from the root of a checkout")
sys.path.insert(0, str(SRC))

from pellprime import conic, recurrence, search, selectors  # noqa: E402
from pellprime.primality import Verdict  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

SELFRIDGE = {"selfridge": True}
# Each timed scan call covers one window of 2**14 odd n at jobs=1, or 2**15
# at jobs=2, so that a run holds some thirty timed calls.  The windows are
# cut into chunks of 2**11 odd n (the package default is 2**16; chunking
# does not change any result), so that the jobs=2 call hands 16 chunks to
# its pool and pool start-up and the last chunk's imbalance stay small, as
# in a long scan.
CHUNK_ODDS = 2**11
# Every window of a scan workload lies in a band of 2**23 integers above its
# base; windows wrap inside the band, so one recorded reference for the band
# covers every seed and any run length.
BAND_ODDS = 2**22
SCANS = {
    "scan-genpell": {"method": "gen-pell", "base": 2**34, "jobs": 1,
                     "window_odds": 2**14},
    "scan-matrix-j2": {"method": "matrix", "base": 2**23, "jobs": 2,
                       "window_odds": 2**15},
}
# verdicts-62bit seeds whose outcomes reference.json records.
RECORDED_SEEDS = range(32)
# One configuration per method of the paper's table: Selfridge selection
# where the package offers it, fixed parameters otherwise.
VERDICT_METHODS = (
    ("fermat", {"a": 2}),
    ("strong-base", {"a": 2}),
    ("lucas", SELFRIDGE),
    ("double-lucas", SELFRIDGE),
    ("matrix", SELFRIDGE),
    ("pell", {"D": 3, "x": 2, "y": 1}),
    ("strong-pell", {"D": 3, "x": 2, "y": 1}),
    ("gen-pell", SELFRIDGE),
    ("pell-variant", {}),
)
# Primes, semiprimes and uniform odd n per seed.  A pass cycles through the
# same n, so p99 is set by the slowest (method, n) pairs of the seed's list;
# 600 n keep it from hanging on a handful of them.
VERDICT_N_PER_CLASS = 200
POOL_PROBE_CHUNKS = 8        # pool probe on verdicts-62bit: chunks per scan
LATENCY_BLOCK = 5000         # verdicts per block: 50 samples lie beyond p99
MIN_BLOCK = 1000
# The box changes speed within a block's 0.1 to 0.7 s, so it is sampled often.
SPEED_EVERY = 500
MIN_LATENCY_BLOCKS = 5
WARMUP_S = 1.0
# Machine-speed correction: CAL_NOMINAL_S is the time of machine_speed()'s
# loop at the usual speed of the box the bounds were set on (a 2-vCPU Xeon
# virtual machine on a shared host, Python 3.11).
CAL_ITERS = 10_000
CAL_NOMINAL_S = 3.4e-3
# Set-up time correction: SETUP_CAL_NOMINAL_S is SETUP_CAL_CODE's import
# time on that box at the same usual speed.
SETUP_CAL_NOMINAL_S = 0.060
SETUP_REPEATS = 15
PROBE_CALLS = 1000
WORKLOADS = (*SCANS, "verdicts-62bit")

# Timed in a fresh interpreter: import of the package plus build_test.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, "src")
from pellprime.search import build_test
import json
for method, params in json.loads(sys.argv[1]):
    build_test(method, params)
print(time.perf_counter() - t0)
"""
# Timed in a fresh interpreter before and after each of those: a fixed set
# of standard-library imports, the set-up time's machine-speed yardstick.
SETUP_CAL_CODE = """\
import time
t0 = time.perf_counter()
import argparse, dataclasses, decimal, fractions, hashlib, json, logging
import concurrent.futures.process
print(time.perf_counter() - t0)
"""


def rng_for(workload: str, seed: int, purpose: str = "") -> random.Random:
    return random.Random(f"pellprime-bench/{workload}/{seed}/{purpose}")


def timed(fn, *args, **kwargs):
    t = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - t, result


def machine_speed(jobs: int = 1) -> float:
    """How fast the machine runs Python right now, relative to nominal.

    Times a fixed loop of modular squarings, the same kind of work as the
    package's ladders; CAL_NOMINAL_S over its time is the speed.  It is
    measured next to every timed scan call and latency block.  The CPUs of
    a shared host change speed independently, so for work spread over
    ``jobs`` > 1 processes it is the mean of the loop's speed pinned to each
    CPU this process may use (the affinity is restored afterwards).
    """
    def loop() -> float:
        t = time.perf_counter()
        x, m = 3, (1 << 61) - 1
        for _ in range(CAL_ITERS):
            x = x * x % m + 1
        return CAL_NOMINAL_S / (time.perf_counter() - t)

    if jobs == 1:
        return loop()
    cpus = os.sched_getaffinity(0)
    speeds = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            speeds.append(loop())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(speeds)


class Series:
    """Per-call (or per-block) measurements with the machine speed of each.

    ``at_nominal`` is the median of the values corrected to nominal machine
    speed, the figure the end-to-end metrics report; ``raw`` is the median
    of the values as timed.
    """

    def __init__(self, time_like: bool) -> None:
        self.time_like = time_like
        self.values: list[float] = []
        self.speeds: list[float] = []

    def add(self, value: float, speed: float) -> None:
        self.values.append(value)
        self.speeds.append(speed)

    def at_nominal(self) -> float:
        return statistics.median(v * s if self.time_like else v / s
                                 for v, s in zip(self.values, self.speeds))

    def raw(self) -> float:
        return statistics.median(self.values)


class Phase:
    """Wall time of one phase of a traced run, raw and at nominal speed."""

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = jobs
        self.raw = 0.0
        self.nominal = 0.0

    def run(self, fn, *args, **kwargs):
        before = machine_speed(self.jobs)
        seconds, result = timed(fn, *args, **kwargs)
        self.raw += seconds
        self.nominal += seconds * (before + machine_speed(self.jobs)) / 2
        return result

    @property
    def speed(self) -> float:
        return self.nominal / self.raw


class Latency:
    """Per-verdict latencies, summarised per block of at most LATENCY_BLOCK.

    Each block gives its p50, its p99 and its verdicts per second of
    verdict time, with the mean machine speed over the block (measured at
    its start, every SPEED_EVERY verdicts and at its end).
    Memory does not grow with the sample count, so a faster program does
    not raise the benchmark's own peak RSS.
    """

    def __init__(self) -> None:
        self.count = 0
        self._block: list[int] = []
        self._speeds: list[float] = []
        self.p50_us = Series(time_like=True)
        self.p99_us = Series(time_like=True)
        self.rate = Series(time_like=False)

    def add(self, ns: int) -> None:
        self.count += 1
        self._block.append(ns)
        if len(self._block) % SPEED_EVERY == 1:
            self._speeds.append(machine_speed())
        if len(self._block) == LATENCY_BLOCK:
            self.close_block()

    def close_block(self) -> None:
        """End the current block if it has at least MIN_BLOCK samples, so
        that at least 10 of them lie beyond its p99."""
        size = len(self._block)
        if size < MIN_BLOCK:
            return
        self._speeds.append(machine_speed())
        speed = statistics.fmean(self._speeds)
        block = sorted(self._block)
        self._block, self._speeds = [], []
        self.p50_us.add(block[(size - 1) // 2] / 1e3, speed)
        self.p99_us.add(block[round(0.99 * (size - 1))] / 1e3, speed)
        self.rate.add(size * 1e9 / sum(block), speed)

    @property
    def blocks(self) -> int:
        return len(self.p50_us.values)


def time_verdict(gate, latency, what, test, n, prime, expected):
    """One timed verdict, checked outside the timed region."""
    clock = time.perf_counter_ns
    try:
        t = clock()
        verdict = test(n)
        ns = clock() - t
    except Exception as exc:  # counted as a failed operation
        gate.record(what, f"n={n}: raised {type(exc).__name__}: {exc}")
        return None
    if latency is not None:
        latency.add(ns)
    gate.record(what, checks.check_verdict(verdict, n, prime, expected))
    return verdict


def timing_metrics(rate: Series, latency: Latency, detail: dict) -> dict:
    """The three timing metrics at nominal speed; raw medians go to detail."""
    series = {"scan_odds_per_s": rate, "verdict_us_p50": latency.p50_us,
              "verdict_us_p99": latency.p99_us}
    detail["raw_medians"] = {name: s.raw() for name, s in series.items()}
    detail["machine_speed"] = statistics.quantiles(rate.speeds + latency.p50_us.speeds, n=4)
    detail.update(latency_samples=latency.count, latency_blocks=latency.blocks)
    return {name: s.at_nominal() for name, s in series.items()}


# ---------------------------------------------------------------------------
# scan workloads


def band(workload: str) -> tuple[int, int]:
    base = SCANS[workload]["base"]
    return base + 1, base + 2 * BAND_ODDS - 1


def scan_window(workload: str, offset: int, j: int) -> tuple[int, int]:
    """Odd-n window of the j-th timed call after ``offset``, wrapping in the
    band."""
    span = 2 * SCANS[workload]["window_odds"]
    lo = band(workload)[0] + (offset + j) % (2 * BAND_ODDS // span) * span
    return lo, lo + span - 2


def window_odds(lo: int, hi: int) -> range:
    return range(lo, hi + 1, 2)


def scan_unit(gate, workload, reference, lo, hi, jobs):
    """Scan [lo, hi]; returns (seconds, odd candidates) or None if it raised."""
    method = SCANS[workload]["method"]
    out = gate.run(f"{workload} scan [{lo}, {hi}] jobs={jobs}",
                   lambda: timed(search.scan_range, method, SELFRIDGE, lo, hi,
                                 jobs=jobs, chunk_odds=CHUNK_ODDS),
                   lambda r: checks.check_scan(r[1], lo, hi, reference))
    return None if out is None else (out[0], (hi - lo) // 2 + 1)


class ScanVerdicts:
    """Per-verdict latency of the scanned test over the window's odd n.

    ``sample`` continues where the previous call stopped, so the samples
    can be spread over the whole run between the timed scan calls.  A
    probable-prime verdict is right exactly when n is prime or n is one of
    the band's recorded pseudoprimes.
    """

    def __init__(self, gate, workload, reference, offset) -> None:
        self.gate, self.what = gate, f"{workload} verdict"
        self.test, _ = search.build_test(SCANS[workload]["method"], SELFRIDGE)
        self.finds = set(reference["pseudoprimes"])
        self.latency = Latency()
        self._odds = (n for j in itertools.count(1)
                      for n in window_odds(*scan_window(workload, offset, j)))

    def sample(self, seconds: float) -> None:
        """Time verdicts for ``seconds``; the slice ends its latency block,
        so each block's machine speed is measured next to its verdicts."""
        end = time.perf_counter() + seconds
        while time.perf_counter() < end or self.latency.blocks < MIN_LATENCY_BLOCKS:
            n = next(self._odds)
            prime = checks.is_prime(n)
            time_verdict(self.gate, self.latency, self.what, self.test, n,
                         prime, "P" if prime or n in self.finds else "C")
        self.latency.close_block()


def run_scan(workload, seed, seconds, trace, gate, reference):
    jobs, window = SCANS[workload]["jobs"], SCANS[workload]["window_odds"]
    offset = rng_for(workload, seed).randrange(BAND_ODDS // window)
    detail = {"window_offset": offset, "window_odds": window,
              "chunk_odds": CHUNK_ODDS}
    start, j = time.perf_counter(), 0  # warm-up on the windows before the first
    while time.perf_counter() - start < WARMUP_S:
        j -= 1
        scan_unit(gate, workload, reference, *scan_window(workload, offset, j),
                  1 if trace else jobs)

    if not trace:
        # Each timed scan call is followed by verdict sampling for a quarter
        # of its time, so both metrics see the whole run.
        verdicts = ScanVerdicts(gate, workload, reference, offset)
        rates, start, j = Series(time_like=False), time.perf_counter(), 1
        while j == 1 or time.perf_counter() - start < seconds:
            before = machine_speed(jobs)
            out = scan_unit(gate, workload, reference,
                            *scan_window(workload, offset, j), jobs)
            if out is not None:
                rates.add(out[1] / out[0], (before + machine_speed(jobs)) / 2)
                verdicts.sample(out[0] / 4)
            j += 1
        detail.update(calls=len(rates.values), jobs=jobs)
        return timing_metrics(rates, verdicts.latency, detail), detail

    # Traced: the same windows untraced at jobs=1, traced at jobs=1, then
    # untraced at jobs=2 for the pool's efficiency.
    windows, j1, traced, j2 = [], Phase(), Phase(), Phase(jobs=2)
    start = time.perf_counter()
    while not windows or time.perf_counter() - start < 0.3 * seconds:
        windows.append(scan_window(workload, offset, len(windows) + 1))
        j1.run(scan_unit, gate, workload, reference, *windows[-1], 1)
    with tracing.Tracer() as tr:
        for w in windows:
            traced.run(scan_unit, gate, workload, reference, *w, 1)
    for w in windows:
        j2.run(scan_unit, gate, workload, reference, *w, 2)
    odds = len(windows) * window
    metrics = layer_metrics(tr, traced, odds)
    metrics["search.pool_efficiency"] = j1.nominal / (2 * j2.nominal)
    metrics["trace_overhead_frac"] = traced.nominal / j1.nominal - 1
    first = window_odds(*scan_window(workload, offset, 1))
    detail["probed"] = probe_missing(metrics, list(first[:PROBE_CALLS]))
    detail.update(windows=len(windows), odds=odds, walls_s={
        "j1": j1.raw, "traced": traced.raw, "j2": j2.raw})
    return metrics, detail


# ---------------------------------------------------------------------------
# verdict workload


def verdict_inputs(seed: int) -> list[int]:
    """Odd n in [2**61, 2**63): primes, products of two primes near 2**31,
    and uniform odd n, interleaved."""
    rng = rng_for("verdicts-62bit", seed)

    def random_prime(lo, hi):
        while True:
            n = rng.randrange(lo, hi) | 1
            if checks.is_prime(n):
                return n

    k = VERDICT_N_PER_CLASS
    primes = [random_prime(2**61, 2**63) for _ in range(k)]
    semiprimes = []
    while len(semiprimes) < k:
        p, q = (random_prime(2**31 - 2**24, 2**31 + 2**24) for _ in range(2))
        if p != q:
            semiprimes.append(p * q)
    uniform = [rng.randrange(2**61, 2**63) | 1 for _ in range(k)]
    return [n for triple in zip(primes, semiprimes, uniform) for n in triple]


def verdict_pass(gate, latency, tests, ns, primes, expected) -> dict[str, str]:
    """One verdict per (n, method); returns each method's outcome codes."""
    codes = {name: [] for name, _ in tests}
    for i, n in enumerate(ns):
        for name, test in tests:
            exp = expected[name][i] if expected else None
            v = time_verdict(gate, latency, f"verdicts-62bit {name}", test, n,
                             primes[i], exp)
            codes[name].append("?" if v is None else checks.OUTCOME_CODE[v.outcome])
    return {name: "".join(c) for name, c in codes.items()}


def build_tests():
    return [(m, search.build_test(m, p)[0]) for m, p in VERDICT_METHODS]


def run_verdicts(seed, seconds, trace, gate, reference):
    ns = verdict_inputs(seed)
    primes = [checks.is_prime(n) for n in ns]
    tests = build_tests()
    recorded = reference[str(seed)] if seed in RECORDED_SEEDS else None
    # Warm-up pass, not timed; with no recorded reference for this seed its
    # outcomes are what every later pass must reproduce.
    start = time.perf_counter()
    first = verdict_pass(gate, None, tests, ns, primes, recorded)
    expected = recorded or first
    while time.perf_counter() - start < WARMUP_S:
        verdict_pass(gate, None, tests, ns, primes, expected)
    detail = {"n_count": len(ns), "methods": [m for m, _ in VERDICT_METHODS],
              "reference_recorded": recorded is not None}
    latency, passes, start = Latency(), 0, time.perf_counter()
    if not trace:
        while (latency.blocks < MIN_LATENCY_BLOCKS
               or time.perf_counter() - start < seconds):
            verdict_pass(gate, latency, tests, ns, primes, expected)
            passes += 1
        detail["passes"] = passes
        return timing_metrics(latency.rate, latency, detail), detail

    # Traced: untraced passes for 0.4 * seconds, then as many traced ones.
    untraced, traced = Phase(), Phase()
    while passes == 0 or time.perf_counter() - start < 0.4 * seconds:
        untraced.run(verdict_pass, gate, None, tests, ns, primes, expected)
        passes += 1
    with tracing.Tracer() as tr:
        traced_tests = build_tests()  # resolve the wrapped names
        for _ in range(passes):
            traced.run(verdict_pass, gate, None, traced_tests, ns, primes,
                       expected)
    verdicts = passes * len(ns) * len(tests)
    metrics = layer_metrics(tr, traced, verdicts)
    metrics["trace_overhead_frac"] = traced.nominal / untraced.nominal - 1
    detail["probed"] = probe_missing(metrics, ns)
    metrics["search.pool_efficiency"] = pool_probe(gate, seed)
    detail["probed"].append("search.pool_efficiency")
    detail.update(passes=passes, verdicts=verdicts)
    return metrics, detail


def pool_probe(gate, seed) -> float:
    """Pool efficiency of a 62-bit matrix+Selfridge scan of a few chunks."""
    span = POOL_PROBE_CHUNKS * 2 * CHUNK_ODDS
    lo = 2**62 + 1 + rng_for("verdicts-62bit", seed, "pool").randrange(2**20) * span
    hi = lo + span - 2
    phases = []
    for jobs in (1, 2):
        phases.append(Phase(jobs))
        phases[-1].run(gate.run, f"verdicts-62bit pool probe jobs={jobs}",
                       lambda: search.scan_range(
                           "matrix", SELFRIDGE, lo, hi, jobs=jobs,
                           chunk_odds=CHUNK_ODDS),
                       lambda r: checks.check_scan(r, lo, hi, None))
    return phases[0].nominal / (2 * phases[1].nominal)


# ---------------------------------------------------------------------------
# per-layer metrics


LADDER_METRICS = (("lucas_pair", "recurrence"), ("tilde_pair", "recurrence"),
                  ("conic_pow", "conic"))


def layer_metrics(tr: tracing.Tracer, traced: Phase, candidates: int) -> dict:
    """Per-layer metrics of a traced phase, times at nominal speed."""
    c = tr.calls
    ns = {span: t * traced.speed for span, t in tr.ns.items()}
    walks = c["walk"]
    ladder_calls = sum(c[name] for name in tracing.LADDERS)
    ladder_ns = sum(ns[name] for name in tracing.LADDERS)
    jacobi_calls = c["jacobi_walk"] + c["jacobi_test"]
    m = {
        "selectors.walk_us": ns["walk"] / walks / 1e3,
        "selectors.jacobi_calls_per_candidate": c["jacobi_walk"] / walks,
        "selectors.short_circuit_share": tr.short / walks,
        "modarith.jacobi_us": (ns["jacobi_walk"] + ns["jacobi_test"]) / jacobi_calls / 1e3,
        "primality.test_self_us": (ns["test"] - ladder_ns) / c["test"] / 1e3,
        "primality.full_test_share": ladder_calls / candidates,
        "search.oracle_calls_per_candidate": c["oracle"] / candidates,
        "search.loop_self_us_per_candidate":
            (traced.nominal * 1e9 - ns["walk"] - ns["test"] - ns["oracle"])
            / candidates / 1e3,
    }
    for name, module in LADDER_METRICS:
        if c[name]:
            m[f"{module}.{name}_us"] = ns[name] / c[name] / 1e3
            m[f"{module}.{name}_ns_per_bit"] = ns[name] / tr.bits[name]
    if c["oracle"]:
        m["search.oracle_us"] = ns["oracle"] / c["oracle"] / 1e3
    return m


def _probe_calls(name: str, ns: list[int]):
    """(function, args) of one ladder at exponent n + 1 with the Selfridge
    parameters of each n, skipping n the selector settles itself."""
    walk, make = {
        "lucas_pair": (selectors.selfridge_classic,
                       lambda p, n: (recurrence.lucas_pair, (p, n + 1, n))),
        "tilde_pair": (selectors.selfridge_matrix,
                       lambda p, n: (recurrence.tilde_pair, (p, n + 1, n))),
        "conic_pow": (selectors.selfridge_gen_pell,
                      lambda p, n: (conic.conic_pow, (p.point(n), n + 1, p.D, n))),
    }[name]
    calls = []
    for n in ns:
        params = walk(n)
        if not isinstance(params, Verdict):
            calls.append(make(params, n))
    return calls


def _time_calls(calls) -> tuple[int, float, int]:
    """(calls, ns at nominal speed, exponent bits) over PROBE_CALLS calls,
    cycling ``calls``."""
    clock = time.perf_counter_ns
    total = bits = 0
    before = machine_speed()
    for i in range(PROBE_CALLS):
        fn, args = calls[i % len(calls)]
        t = clock()
        fn(*args)
        total += clock() - t
        bits += args[1].bit_length() if len(args) > 1 else 0
    return PROBE_CALLS, total * (before + machine_speed()) / 2, bits


def probe_missing(metrics: dict, ns: list[int]) -> list[str]:
    """Time the layers this workload's path does not call, directly on its n.

    BENCHMARK.json asks every traced run for every per-layer metric; the
    names of those filled in here are returned, and the run prints them as
    ``probed`` so they are not read as the workload's own.
    """
    probed = []
    for name, module in LADDER_METRICS:
        if f"{module}.{name}_us" not in metrics:
            calls, total, bits = _time_calls(_probe_calls(name, ns))
            metrics[f"{module}.{name}_us"] = total / calls / 1e3
            metrics[f"{module}.{name}_ns_per_bit"] = total / bits
            probed += [f"{module}.{name}_us", f"{module}.{name}_ns_per_bit"]
    if "search.oracle_us" not in metrics:
        calls, total, _ = _time_calls([(search.is_prime, (n,)) for n in ns])
        metrics["search.oracle_us"] = total / calls / 1e3
        probed.append("search.oracle_us")
    return probed


# ---------------------------------------------------------------------------
# set-up, memory, context


def measure_setup(configs) -> tuple[list[float], list[float]]:
    """Import plus build_test in fresh interpreters: (at nominal speed, raw).

    One untimed interpreter of each kind runs first so bytecode caches
    exist; the timed ones then pay the cold-process cost a user pays on
    every start.  Imports slow down more than machine_speed()'s loop when
    the machine does, so each set-up time is corrected by the mean of the
    two SETUP_CAL_CODE interpreters timed just before and just after it.
    """
    setup = [sys.executable, "-c", SETUP_CODE, json.dumps(configs)]
    cal = [sys.executable, "-c", SETUP_CAL_CODE]

    def once(cmd) -> float:
        done = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                              text=True, timeout=120)
        return float(done.stdout)

    once(setup)
    once(cal)
    raw, cals = [], [once(cal)]
    for _ in range(SETUP_REPEATS):
        raw.append(once(setup))
        cals.append(once(cal))
    nominal = [t * SETUP_CAL_NOMINAL_S / ((a + b) / 2)
               for t, a, b in zip(raw, cals, cals[1:])]
    return nominal, raw


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, in MiB.

    Both are peaks over the whole life of the process, so a process runs
    one workload only (``--workload all`` starts one per workload).
    """
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kib + child_kib) / 1024


def git_sha() -> str:
    """HEAD of the checkout's .git, if there is one; no git process runs."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def context_start() -> dict:
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "sched_affinity": sorted(os.sched_getaffinity(0)),
            "loadavg_start": os.getloadavg()}


def context_end(ctx: dict) -> dict:
    ctx["loadavg_end"] = os.getloadavg()
    busiest = max(ctx["loadavg_start"][0], ctx["loadavg_end"][0])
    # Kept, not dropped: a loaded box is part of the record.
    ctx["overloaded"] = busiest > (os.cpu_count() or 1)
    return ctx


# ---------------------------------------------------------------------------
# command line


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(workload, seed, seconds, trace, spec):
    gate = checks.Gate()
    reference = checks.load_reference()
    ctx = context_start()
    if workload in SCANS:
        configs = [(SCANS[workload]["method"], SELFRIDGE)]
    else:
        configs = list(VERDICT_METHODS)
    setup = None if trace else measure_setup(configs)
    if workload in SCANS:
        lo, hi = band(workload)
        ref = reference[workload]
        if (ref["lo"], ref["hi"]) != (lo, hi):
            raise SystemExit(f"reference band of {workload} does not match")
        metrics, detail = run_scan(workload, seed, seconds, trace, gate, ref)
    else:
        metrics, detail = run_verdicts(seed, seconds, trace, gate,
                                       reference[workload])
    if setup is not None:
        metrics["setup_s"] = statistics.median(setup[0])
        detail["setup_raw_s"] = setup[1]
        metrics["peak_rss_mb"] = peak_rss_mb()
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(metrics) != sorted(wanted):
        raise SystemExit(f"metrics {sorted(metrics)} != BENCHMARK.json {sorted(wanted)}")
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "metrics": metrics, "detail": detail,
            "context": context_end(ctx), "attempted": gate.attempted,
            "failed": gate.failed, "failures": gate.messages}


def print_record(record: dict, units: dict) -> None:
    w = record["workload"]
    for name, value in record["metrics"].items():
        print(f"{w}  {name} = {value:.6g} {units[name]}")
    frac = record["failed"] / max(record["attempted"], 1)
    print(f"{w}  failed_frac = {frac:.6g} ({record['failed']} of "
          f"{record['attempted']} operations)")
    for message in record["failures"]:
        print(f"{w}  FAILED {message}")
    print(f"{w}  detail {json.dumps(record['detail'])}")
    print(f"{w}  context {json.dumps(record['context'])}")


def run_all(args) -> int:
    """Each workload in its own interpreter, so none sees another's peak
    RSS; their output is passed through and their results merged."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            raise SystemExit(f"{w}: no result (exit code {done.returncode})")
        merged["correct"] &= result["correct"] and done.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{w}/{name}": m
                                  for name, m in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.workload == "all":
        return run_all(args)

    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    record = run_workload(args.workload, args.seed, args.seconds, args.trace, spec)
    print_record(record, units)
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in record["metrics"].items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
