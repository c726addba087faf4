"""Pseudoprime range scanning, grid experiments, and a primality oracle.

A scan runs one configured test over every odd n in [lo, hi] and reports the
composites that pass, in ascending order.  Work is split into fixed-size
chunks of odd candidates, and consecutive chunks into stripes, so results
are identical no matter how many worker processes execute them; reports
serialize canonically with wall-clock time excluded.

A stripe is the unit of work, for ``jobs=1`` and for the pool alike, and
a chunk the unit of reporting.  One process builds one
:class:`~pellprime.sieve.Segment` for a stripe, settles what it can of the
whole stripe with one kernel call, and then reports the stripe chunk by
chunk (:func:`_scan_stripe`): each chunk counts its window of the kernel's
masks and runs the per-n test on its share of what the kernel leaves.  So
results arrive chunk by chunk: finds are reported, counts added and the
checkpoint written after each chunk, in ascending order.

A stripe holds ceil(limit / span) chunks or more, where span =
2 * chunk_odds is a chunk's width in integers, so every sieving prime has
about one multiple in a stripe or more and finds its first one once per
stripe.  It also holds at least :data:`KERNEL_ODDS` odd n where the range
still gives each of ``jobs`` workers a stripe, because a kernel call has a
fixed cost besides its cost per n: the Segment's set-up, and one Jacobi
mask and one sharing mask per discriminant class.  On matrix+Selfridge
near 2**23 in one process, a stripe of w odd n cost about F + c*w, with F
= 0.35-0.85 ms and c = 0.49-0.84 us over three fits (F/c = 0.6k-1.3k odd
n), so a stripe of 2**14 odd n keeps the fixed cost to 4-7% of the call.
Where a chunk holds KERNEL_ODDS odd n or more, as in the CLI's chunks of
2**16, a stripe is ceil(limit / span) chunks.

A process keeps one pool of workers between scans, started by the first
scan that needs one (:func:`_pool`); only then are ``multiprocessing``
and ``signal`` imported, so a process that runs single tests, or scans in
one process, never loads them.  A worker is a process of its own with one pipe to this
one, and nothing else: no thread in this process feeds or watches it.  A
pooled scan keeps two stripes out per worker, hands the next stripe to
whichever worker answers, and passes each stripe's chunk results on in
order (:func:`_pooled`).  A later scan reuses the workers when it needs
as many and all are alive, and otherwise kills and replaces them.  A
scan that fails kills its workers, so the next scan starts new ones; a
worker that dies mid-scan fails the scan with one RuntimeError that
names it, and the interpreter ends the workers at exit.  What each
worker keeps of the sieve's tables is said at :func:`_pool`; nothing but
each stripe's results comes back.

The sieve uses the odd primes up to min(isqrt(hi), SIEVE_CAP), where hi is
the scan's upper end, not the stripe's or the chunk's, so every count is
the same for any ``jobs`` and chunk size.  It records each n's prime
factors up to that limit (the cofactor left after dividing them out is
computed only for the n that need it, as the kernel's check walks their
factors).  It decides whether a passing n is composite: for hi up to
2**40 the limit is isqrt(hi), and an n with no recorded factor is prime,
so no primality oracle runs; above, :func:`is_prime` decides the n the
sieve cannot.

For the tests whose first congruence is U_k ≡ 0 for a Lucas sequence
(lucas, double-lucas, matrix, pell, strong-pell, gen-pell), the scan does
not call the test n by n: the stripe kernel (:mod:`pellprime.kernel`)
settles nearly every n of a stripe in bulk.  :func:`~pellprime.kernel.walk`
classes the stripe's n by discriminant, and
:func:`~pellprime.kernel.settle` gives each n one settle path, from
periodic patterns and the sieve's record; the per-n test runs only on the
n it leaves.  Each form of :data:`METHODS` builds its per-n test and its
:class:`~pellprime.kernel.Bulk` together.  A Selfridge form's Bulk holds
the selector's own :data:`~pellprime.selectors.Selection`, the candidate
sequence and the map from a discriminant to the test's parameters, so the
parameters the kernel settles n with are the ones the per-n walk would
pick.

Long scans can persist a resume cursor to a checkpoint file, once before
the first chunk and then after every chunk.  The checkpoint stores only
the cursor and the scan identity (method and parameters), so a resumed
scan covers [cursor, hi] only, in its finds and its counts, and cuts its
stripes from the cursor.  The CLI streams
pseudoprimes as they are found, before the chunk's cursor is written: a
run stopped after streaming a chunk's finds but before writing its cursor
streams those finds again when it resumes, so the streams of all its
runs, with repeats dropped, hold every find.
"""

from __future__ import annotations

import json
import os
import time
from bisect import bisect_right
from collections import Counter, namedtuple
from collections.abc import Callable, Iterator
from functools import partial
from itertools import islice, product, starmap

from .conic import ConicParams
from .kernel import Bulk, count_masks, members, settle, walk
from .modarith import MAX_MODULUS
from .primality import (
    VARIANTS,
    Outcome,
    Verdict,
    double_lucas_test,
    fermat_test,
    first_congruence,
    generalized_pell_test,
    is_prime,
    lucas_test,
    matrix_test,
    pell_test,
    pell_variant_test,
    strong_base_test,
    strong_pell_test,
    strong_pell_test_param,
)
from .recurrence import LucasParams, MatrixParams
from .selectors import (
    CLASSIC,
    GEN_PELL,
    MATRIX,
    double_lucas_selfridge,
    gen_pell_selfridge,
    lucas_selfridge,
    matrix_selfridge,
)
from .sieve import Segment, sieve_limit

__all__ = [
    "GRID_METHODS",
    "METHODS",
    "VARIANTS",
    "ScanReport",
    "build_test",
    "grid_scan",
    "is_prime",
    "read_checkpoint",
    "scan_range",
    "write_checkpoint",
]

DEFAULT_CHUNK_ODDS = 1 << 16  # odd candidates per work unit
# Odd n a stripe holds at least, where the range and jobs allow, so that a
# kernel call's fixed cost stays small beside its cost per n (see above).
KERNEL_ODDS = 1 << 14

# ---------------------------------------------------------------------------
# method table


# One way to give a method's parameters: the names it requires, in canonical
# order; a fixed canonical string, or None for "name=value,..."; make, which
# build_test and each stripe call once with the names' values (selfridge's
# aside) to get (test(n), the form's kernel.Bulk, or None when the scan runs
# the test on every n), and which looks its test up when called, so that it
# sees the names a tracer swapped in; and the values of names that may go
# unsaid.
_Form = namedtuple("_Form", "names canonical make defaults", defaults=({},))


def _fixed(test: Callable, params: LucasParams | MatrixParams | ConicParams,
           **contract) -> tuple[Callable[[int], Verdict], Bulk | None]:
    """test with fixed parameters, and its Bulk, with the contract's fields
    where they differ from Bulk's defaults; None for the Bulk when D, Q' or
    the scale is 0, parameters for which the test rejects n by n."""
    D, _, Q, scale = first_congruence(params)
    return partial(test, params=params), (
        Bulk(D, lambda d: params, **contract) if D and Q and scale else None)


def _norm_one(test: Callable, D: int, x: int,
              y: int) -> tuple[Callable[[int], Verdict], Bulk | None]:
    """pell and strong-pell reject every n beyond |norm - 1| unless the
    base point has norm 1, and then no n shares a prime with the norm."""
    params = ConicParams(D, x, y)
    test, bulk = _fixed(test, params)
    return test, bulk if first_congruence(params)[2] == 1 else None


# build_test takes a method's first form whose names are all given.  The
# keys, in this order, are the CLI's --method choices.
METHODS: dict[str, tuple[_Form, ...]] = {
    "fermat": (_Form(("a",), None,
                     lambda a: (partial(fermat_test, a=a), None)),),
    "strong-base": (_Form(("a",), None,
                          lambda a: (partial(strong_base_test, a=a), None)),),
    "lucas": (
        _Form(("selfridge",), "selfridge",
              lambda: (lucas_selfridge, Bulk(*CLASSIC))),
        _Form(("P", "Q"), None,
              lambda P, Q: _fixed(lucas_test, LucasParams(P, Q)))),
    "double-lucas": (
        _Form(("selfridge",), "selfridge",
              lambda: (double_lucas_selfridge, Bulk(*CLASSIC))),
        _Form(("P", "Q"), None,
              lambda P, Q: _fixed(double_lucas_test, LucasParams(P, Q)))),
    "matrix": (
        _Form(("selfridge", "variant"), None, lambda variant: (
            partial(matrix_selfridge, variant=variant),
            Bulk(*MATRIX, primes_pass=variant == "v-companion")),
            {"variant": "v-companion"}),
        _Form(("P", "Q", "R", "variant"), None, lambda P, Q, R, variant: _fixed(
            partial(matrix_test, variant=variant), MatrixParams(P, Q, R),
            primes_pass=variant == "v-companion"),
            {"variant": "u-companion"})),
    "pell": (_Form(("D", "x", "y"), None,
                   lambda D, x, y: _norm_one(pell_test, D, x, y)),),
    "strong-pell": (
        _Form(("D", "a"), None, lambda D, a: (
            partial(strong_pell_test_param, D=D, a=a), None)),
        _Form(("D", "x", "y"), None,
              lambda D, x, y: _norm_one(strong_pell_test, D, x, y))),
    "gen-pell": (
        _Form(("selfridge",), "selfridge", lambda: (
            gen_pell_selfridge, Bulk(*GEN_PELL, shared=Outcome.COMPOSITE))),
        _Form(("D", "x", "y"), None, lambda D, x, y: _fixed(
            generalized_pell_test, ConicParams(D, x, y),
            shared=Outcome.COMPOSITE))),
    "pell-variant": (_Form((), "none", lambda: (pell_variant_test, None)),),
}


def _resolve(method: str, params: dict) -> tuple[_Form, list, str]:
    """The form build_test takes, its arguments and the canonical string."""
    forms = METHODS.get(method)
    if forms is None:
        raise ValueError(f"unknown method: {method!r}")
    given = {k: v for k, v in params.items() if v is not None}
    if given.pop("selfridge", False):
        given["selfridge"] = "true"
    if "variant" in given and given["variant"] not in VARIANTS:
        raise ValueError(f"unknown variant: {given['variant']!r}")
    for form in forms:
        names = form.names
        values = form.defaults | given
        if not values.keys() >= set(names):
            continue
        if values.keys() - set(names):
            raise ValueError(f"method {method!r} with {list(names)} does not "
                             f"use {sorted(values.keys() - set(names))}")
        args = [values[k] for k in names if k != "selfridge"]
        return form, args, form.canonical or ",".join(
            f"{k}={values[k]}" for k in names)
    raise ValueError(f"method {method!r} needs parameters "
                     + " or ".join(str(list(f.names)) for f in forms))


def build_test(method: str,
               params: dict) -> tuple[Callable[[int], Verdict], str]:
    """Resolve (method, params) to a per-n callable and a canonical string.

    ``params`` uses the CLI vocabulary: P, Q, R, D, x, y, a, selfridge,
    variant; None, or a false selfridge, counts as not given.  The
    callable is ``test(n)``.  ``variant`` defaults to v-companion with
    selfridge and to u-companion without.  Raises ValueError for an
    unknown method or variant, missing parameters, or one the matching
    form does not use.
    """
    form, args, canonical = _resolve(method, params)
    return form.make(*args)[0], canonical


# ---------------------------------------------------------------------------
# reports


class ScanReport(namedtuple("ScanReport", "method params lo hi pseudoprimes "
                                         "stats elapsed", defaults=(0.0,))):
    """Result of one range scan.

    ``pseudoprimes`` are the odd composites in [lo, hi] passing the test,
    strictly increasing.  ``stats`` counts candidates by outcome:
    ``tested`` (all odd candidates), ``probable_prime``, ``composite``,
    ``params_invalid``, ``short_circuited`` (verdicts produced during
    parameter selection), ``sieved`` (the verdicts the kernel took
    from the factor sieve's record without calling the test: composites a
    recorded factor rules out, and primes the sieve proves) and
    ``pseudoprimes``.  Every other count is what the test gives n by n,
    whether the kernel settled n in bulk or the test ran on it.  The
    counts, like the list, are the same for any ``jobs`` and chunk size.
    ``elapsed`` is the wall time in seconds, 0.0 by default.  A frozen
    record (a named tuple), whose ``count`` is the number of pseudoprimes.
    """

    __slots__ = ()

    @property
    def count(self) -> int:
        return len(self.pseudoprimes)

    def to_dict(self, include_elapsed: bool = True) -> dict:
        d = {
            "method": self.method,
            "params": self.params,
            "lo": self.lo,
            "hi": self.hi,
            "count": self.count,
            "pseudoprimes": list(self.pseudoprimes),
            "stats": dict(sorted(self.stats.items())),
        }
        if include_elapsed:
            d["elapsed_s"] = round(self.elapsed, 3)
        return d

    def canonical_json(self) -> str:
        """Deterministic serialization (excludes wall-clock time)."""
        return json.dumps(self.to_dict(include_elapsed=False), sort_keys=True)


class GridReport(namedtuple("GridReport", "method axes limit cells elapsed "
                                         "variant", defaults=(0.0, None))):
    """Counts of pseudoprimes per parameter cell, with degenerate cells skipped.

    ``axes`` is ((name, values), ...) and ``cells`` one dict per cell.
    ``variant`` is the matrix variant every cell ran, None for the other
    methods.  A frozen record (a named tuple).
    """

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "axes": [{"name": name, "values": list(vals)} for name, vals in self.axes],
            "limit": self.limit,
            "variant": self.variant,
            "cells": list(self.cells),
            "elapsed_s": round(self.elapsed, 3),
        }


# ---------------------------------------------------------------------------
# scanning


_STAT_KEYS = ("tested", "probable_prime", "composite", "params_invalid",
              "short_circuited", "sieved", "pseudoprimes")


def _per_n(test: Callable[[int], Verdict], sieve: Segment,
           odds) -> tuple[list[int], dict[str, int]]:
    """Run the test on each n of ``odds`` (ascending) and tally.

    The scan's path for the n the kernel leaves, and for methods it does
    not cover.  ``sieve`` only decides whether a passing n is composite.
    """
    found: list[int] = []
    passed = failed = selector = 0
    PASS, FAIL = Outcome.PROBABLE_PRIME, Outcome.COMPOSITE
    for n in odds:
        verdict = test(n)
        if verdict.stage == "selector":
            selector += 1
        if verdict.outcome is FAIL:
            failed += 1
        elif verdict.outcome is PASS:
            passed += 1
            composite = sieve.is_composite(n)
            if composite is None:
                composite = not is_prime(n)
            if composite:
                found.append(n)
    return found, {
        "tested": len(odds), "probable_prime": passed, "composite": failed,
        "params_invalid": len(odds) - passed - failed,
        "short_circuited": selector, "sieved": 0,
        "pseudoprimes": len(found)}


def _scan_stripe(method: str, params: dict, lo: int, hi: int, limit: int,
                 chunk_odds: int) -> Iterator[tuple[int, list[int],
                                                     dict[str, int]]]:
    """Scan the odd n in [lo, hi] (single process) as one stripe of chunks
    of ``chunk_odds`` odd n, sieving to limit: (the chunk's hi, its finds,
    its counts) for each chunk, in order.

    The chunks are [a, min(a + 2*chunk_odds - 1, hi)] for a = lo | 1, lo |
    1 + 2*chunk_odds, ...; none is empty.  One Segment sieves the whole
    stripe, and one :func:`~pellprime.kernel.walk` and one
    :func:`~pellprime.kernel.settle` call settle what they can of the whole
    stripe in bulk; methods without a Bulk settle nothing in bulk.  Each
    chunk then takes its window of the count masks, counted at C level,
    and its share of what the kernel leaves, on which the per-n test runs.
    """
    form, args, _ = _resolve(method, params)
    test, bulk = form.make(*args)
    lo |= 1
    sieve = Segment(lo, hi, limit)
    masks, rest = {}, range(lo, hi + 1, 2)
    if bulk is not None:
        settled = settle(bulk, sieve, lo, len(rest),
                         *walk(bulk, lo, len(rest)))
        masks, rest = (count_masks(bulk, settled),
                       list(members(settled.left, lo)))
    # Each mask's bits, lowest first: a chunk's count is a str.count.
    bits = [(k, bin(mask)[:1:-1]) for k, mask in masks.items()]
    end = 0
    for a in range(lo, hi + 1, 2 * chunk_odds):
        b = min(a + 2 * chunk_odds - 1, hi)
        i, j = (a - lo) >> 1, ((b - lo) >> 1) + 1
        start, end = end, bisect_right(rest, b, end)
        found, stats = _per_n(test, sieve, rest[start:end])
        for k, digits in bits:
            stats[k] += digits.count("1", i, j)
        yield b, found, stats


# This process's workers, kept between scans: (process, pipe) pairs.  A
# forked child starts without them, and dropping its copies closes its
# copies of their pipes.
_farm: list[tuple] = []
os.register_at_fork(after_in_child=_farm.clear)


def _serve(conn, parent_end) -> None:
    """A worker: scan each stripe the parent sends on conn and send back
    {its hi: its chunks' results}, until the parent kills it or is gone
    (the parent never sends None: the loop ends when the pipe fails).

    ``parent_end`` is the parent's end of the pipe, which a forked worker
    inherits: it is closed first, so that the pipe fails once the parent
    has died, and the worker then exits quietly.  Ctrl-C is left to the
    parent, which kills the workers; SIGTERM ends a worker at once.  The
    worker starts with both signals blocked (see :func:`_pool`) and
    unblocks them once its own handlers are set, so a Ctrl-C sent to it
    before then is dropped, and a SIGTERM ends it then."""
    import signal

    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK,
                           (signal.SIGINT, signal.SIGTERM))
    try:
        for args in iter(conn.recv, None):
            conn.send({args[3]: list(_scan_stripe(*args))})
    except (EOFError, OSError):
        return


def _close_pool() -> None:
    """Kill (SIGKILL) and reap this process's workers, and forget them,
    which closes their pipes.  No other child of this process is
    touched."""
    while _farm:
        worker, _ = _farm.pop()
        worker.kill()
        worker.join()


def _pool(workers: int) -> list[tuple]:
    """This process's ``workers`` workers, as (process, pipe) pairs: the
    live ones if there are that many and all are alive, else new ones,
    after the old ones are killed.

    ``multiprocessing`` and ``signal`` are imported here, when a scan first
    fans out, so that importing the package for one test does not load
    them.  The workers are daemons, so the interpreter ends them at exit.
    SIGINT and SIGTERM are blocked in this thread while the workers start,
    and the caller's mask is put back after, so that each worker starts
    with both held until :func:`_serve` has set its own handlers; with this
    process's handlers, a Ctrl-C or SIGTERM sent in that window would end
    it with a traceback, or be caught and leave it running.

    Each worker keeps the ranks of apparition it computes for as long as it
    lives, and a forked one starts from this process's tables as they were
    when it forked; no rank is handed back."""
    if len(_farm) != workers or not all(w.is_alive() for w, _ in _farm):
        import multiprocessing
        import signal

        _close_pool()
        mask = signal.pthread_sigmask(signal.SIG_BLOCK,
                                      (signal.SIGINT, signal.SIGTERM))
        try:
            for _ in range(workers):
                ours, theirs = multiprocessing.Pipe()
                worker = multiprocessing.Process(
                    target=_serve, args=(theirs, ours), daemon=True)
                worker.start()
                theirs.close()
                _farm.append((worker, ours))
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    return _farm


def _pooled(stripes: list[tuple], workers: int) -> Iterator[list[tuple]]:
    """Each stripe's chunk results, in order, from this process's pool of
    ``workers`` workers.

    Each worker holds up to two stripes.  Whichever hands a stripe's
    results back gets the next stripe, so a slow worker holds up no other;
    results that come back early wait here, by the stripe's hi (args[3]),
    for their turn.  A worker whose pipe fails has died: the pool is
    killed, and RuntimeError names the worker."""
    from multiprocessing.connection import wait

    owner, todo, done = {c: w for w, c in _pool(workers)}, iter(stripes), {}
    try:
        for conn, args in zip([*owner] * 2, todo):
            conn.send(args)
        for args in stripes:
            while args[3] not in done:
                for conn in wait(owner):
                    done.update(conn.recv())
                    for more in islice(todo, 1):
                        conn.send(more)
            yield done.pop(args[3])
    except (EOFError, OSError):
        _close_pool()
        raise RuntimeError(f"scan worker {owner[conn].pid} died (exit code "
                           f"{owner[conn].exitcode})") from None


def _check_scan(lo: int, hi: int, jobs: int, chunk_odds: int) -> None:
    """Raise ValueError unless scan_range can scan [lo, hi] with these."""
    if not all(isinstance(v, int) for v in (lo, hi, jobs, chunk_odds)):
        raise ValueError("lo, hi, jobs and chunk_odds must be ints")
    if not 3 <= lo <= hi:
        raise ValueError(f"need 3 <= lo <= hi, got [{lo}, {hi}]")
    if hi > MAX_MODULUS:
        raise ValueError("scanning beyond 2**63 is unsupported")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if chunk_odds < 1:
        raise ValueError(f"chunk_odds must be >= 1, got {chunk_odds}")


def scan_range(method: str, params: dict, lo: int, hi: int, *,
               jobs: int = 1, chunk_odds: int = DEFAULT_CHUNK_ODDS,
               checkpoint: str | None = None,
               on_pseudoprime: Callable[[int], None] | None = None) -> ScanReport:
    """Scan every odd n in [lo, hi] with the configured test.

    An odd composite passing the test is a pseudoprime (the sieve, or
    beyond 2**40 the primality oracle, confirms compositeness; both only
    look at passers).  Work goes in chunks of ``chunk_odds`` odd n, grouped
    into stripes of consecutive chunks from lo | 1.  A stripe is
    max(ceil(limit / span), min(ceil(KERNEL_ODDS / chunk_odds), ceil(chunks
    / jobs))) chunks, for the sieve limit, span = 2 * chunk_odds integers
    and the scan's number of chunks: every sieving prime has a multiple in
    it or nearly, and it holds up to :data:`KERNEL_ODDS` odd n while each
    of ``jobs`` workers still gets a stripe.  One process sieves a whole
    stripe as one record, settles it with one kernel call and reports it
    chunk by chunk.  The stripes go to min(``jobs``, stripes, CPUs)
    worker processes (CPUs is ``os.cpu_count()``), and when that is 1 this
    process scans them itself and starts none; the stripes are cut by
    ``jobs`` all the same.  The workers are this process's one pool, kept
    between calls: a call that needs as many workers reuses them if all
    are alive, and otherwise kills and replaces them, a call that raises
    kills them, a worker that dies mid-scan fails the call with
    RuntimeError, and the interpreter ends them at exit.  What a worker
    keeps is said at :func:`_pool`; only the stripes' results come back
    here.  ``jobs`` and ``chunk_odds`` must be ints of at least
    1, and neither changes the result.  With ``checkpoint`` the scan
    resumes from the file's cursor, which may not lie beyond hi + 1,
    reports only [cursor, hi], and records its starting cursor before the
    first chunk (so a path that cannot be written raises OSError before any
    find is reported) and the cursor after every chunk.  ``on_pseudoprime``
    is invoked for each find, in ascending order, chunk by chunk, before
    that chunk's cursor is recorded.
    """
    _check_scan(lo, hi, jobs, chunk_odds)
    _, canonical = build_test(method, params)  # validates early

    if checkpoint is not None:
        cursor = read_checkpoint(checkpoint, method, canonical)
        if cursor is not None:
            if cursor > hi + 1:
                raise ValueError(
                    f"checkpoint {checkpoint} is past the end of this scan "
                    f"(cursor {cursor} > hi + 1 = {hi + 1})")
            lo = max(lo, cursor)
        write_checkpoint(checkpoint, lo, method, canonical)

    limit = sieve_limit(hi)
    start = time.monotonic()
    stats, found = Counter(dict.fromkeys(_STAT_KEYS, 0)), []
    # A stripe is ceil(limit / span) chunks of span = 2*chunk_odds integers,
    # so that every prime <= limit has about one multiple in it or more, and
    # at least KERNEL_ODDS odd n where that still leaves jobs stripes.
    chunks = -(-((hi - (lo | 1)) // 2 + 1) // chunk_odds)
    width = max(-(-limit // (2 * chunk_odds)),
                min(-(-KERNEL_ODDS // chunk_odds), -(-chunks // jobs)))
    width *= 2 * chunk_odds
    stripes = [(method, params, a, min(a + width - 1, hi), limit, chunk_odds)
               for a in range(lo | 1, hi + 1, width)]

    workers = min(jobs, len(stripes), os.cpu_count() or 1)
    try:
        for results in (_pooled(stripes, workers) if workers > 1
                        else starmap(_scan_stripe, stripes)):
            for chunk_hi, chunk_found, chunk_stats in results:
                if on_pseudoprime is not None:
                    for n in chunk_found:
                        on_pseudoprime(n)
                found += chunk_found
                stats.update(chunk_stats)
                if checkpoint is not None:
                    write_checkpoint(checkpoint, chunk_hi + 1, method,
                                     canonical)
    except BaseException:
        _close_pool()
        raise

    return ScanReport(method=method, params=canonical, lo=lo, hi=hi,
                      pseudoprimes=tuple(found), stats=dict(stats),
                      elapsed=time.monotonic() - start)


# ---------------------------------------------------------------------------
# grids


# Methods with a form that takes P, Q[, R] and at most a variant besides:
# a grid spans those parameters.
GRID_METHODS = tuple(m for m, forms in METHODS.items() if any(
    {"P", "Q"} <= set(f.names) <= {"R", "P", "Q", "variant"} for f in forms))


def grid_scan(method: str, p_values: list[int], q_values: list[int],
              limit: int, *, r_values: list[int] | None = None,
              jobs: int = 1, variant: str | None = None) -> GridReport:
    """One scan_range per (P, Q[, R]) cell up to limit; counts per cell.

    Degenerate cells (zero discriminant, Q or R zero) are skipped and
    marked rather than scanned.  ``limit`` and ``jobs`` are checked as
    :func:`scan_range` checks hi and ``jobs``, before any cell, even when
    every cell is skipped; ``r_values`` are for the matrix grid only.
    """
    if method not in GRID_METHODS:
        raise ValueError(f"grid_scan does not support method {method!r}")
    names = [a for a in "RPQ" if any(a in f.names for f in METHODS[method])]
    if not p_values or not q_values:
        raise ValueError("axes must be non-empty")
    _check_scan(3, limit, jobs, DEFAULT_CHUNK_ODDS)
    if "R" in names and not r_values:
        raise ValueError(f"{method} grid needs R values (--r-set)")
    if "R" not in names and r_values:
        raise ValueError(f"{method} grid does not use R values")
    values = {"R": r_values, "P": p_values, "Q": q_values}
    axes = tuple((a, tuple(values[a])) for a in names)
    extra = {} if variant is None else {"variant": variant}
    # validates early, and resolves the variant the cells run
    form, args, _ = _resolve(method, dict.fromkeys(names, 1) | extra)
    variant = dict(zip(form.names, args)).get("variant")

    start = time.monotonic()
    cells = []
    for combo in product(*(values[a] for a in names)):
        record = dict(zip(names, combo))
        p, q, r = record["P"], record["Q"], record.get("R", 1)
        if q == 0 or r == 0 or p * p - 4 * q * r == 0:
            record.update(skipped=True, count=None)
        else:
            report = scan_range(method, record | extra, 3, limit, jobs=jobs)
            record.update(skipped=False, count=report.count)
        cells.append(record)
    return GridReport(method=method, axes=axes, limit=limit,
                      cells=tuple(cells), elapsed=time.monotonic() - start,
                      variant=variant)


# ---------------------------------------------------------------------------
# checkpointing


def write_checkpoint(path: str, cursor: int, method: str, canonical: str) -> None:
    """Atomically persist the resume cursor for a scan."""
    line = f"cursor={cursor} method={method} params={canonical}\n"
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write(line)
    os.replace(tmp, path)


def read_checkpoint(path: str, method: str, canonical: str) -> int | None:
    """Read a resume cursor; None if the file does not exist.

    Raises ValueError when the file belongs to a different scan (method
    or params mismatch) or is malformed.  Any other field, such as the
    ``hash=`` that older files carry, is ignored.
    """
    try:
        with open(path, encoding="ascii") as fh:
            line = fh.readline().strip()
    except FileNotFoundError:
        return None
    fields = {}
    for token in line.split(" "):
        key, _, value = token.partition("=")
        fields[key] = value
    try:
        cursor = int(fields["cursor"])
    except (KeyError, ValueError):
        raise ValueError(f"malformed checkpoint: {path}") from None
    if fields.get("method") != method or fields.get("params") != canonical:
        raise ValueError(
            f"checkpoint {path} belongs to a different scan "
            f"(found method={fields.get('method')!r} params={fields.get('params')!r})")
    return cursor
