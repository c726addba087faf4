"""Pseudoprime range scanning, grid experiments, and a primality oracle.

A scan runs one configured test over every odd n in [lo, hi] and reports the
composites that pass, in ascending order.  Work is split into fixed-size
chunks of odd candidates so results are identical no matter how many worker
processes execute them; reports serialize canonically with wall-clock time
excluded.

Each chunk first runs a segmented sieve (:class:`~pellprime.sieve.Segment`)
over its odd n with the odd primes up to min(isqrt(hi), SIEVE_CAP), where
hi is the scan's upper end, not the chunk's, so every count is the same for
any ``jobs`` and chunk size.  The sieve records each n's prime factors up
to that limit (the cofactor left after dividing them out is computed only
for the n that need it).  It decides whether a passing n is composite: for
hi up to 2**40 the limit is isqrt(hi), and an n with no recorded factor is
prime, so no primality oracle runs; above, :func:`is_prime` decides the n
the sieve cannot.

For the tests whose first congruence is U_k ≡ 0 for a Lucas sequence
(lucas, double-lucas, matrix, pell, strong-pell, gen-pell), a chunk kernel
(:func:`_kernel`) reaches the test's verdicts for a whole chunk at once, on
big-int bitmasks over the chunk's odd n, because calling the test n by n
costs more than everything it decides.  Nearly every verdict follows from
facts that are periodic in n or already held by the sieve.  (d/n) repeats
every 4|d| integers, so a Selfridge walk over a chunk is a few periodic
patterns; perfect squares and the zero symbols it meets are its
short-circuited composites.  In each class of one discriminant, the n
sharing a prime with the class's gcd value (Q, QR or the base point's
norm) are settled as the test's preconditions settle them.  The kernel is
the only code whose verdicts come from the sieve's record, and it counts
them as ``sieved``:

* an n below (limit + 1)**2 with no recorded factor is prime, and passes
  when every prime that meets the preconditions passes the test (all but
  the u-companion matrix test; each test's docstring names the theorem);
* an n with a recorded factor takes one :meth:`Segment.rules_out` call,
  and fails the first congruence when the rank of apparition of a factor
  does not divide the congruence's index (see :mod:`pellprime.sieve`).

Each form's description sits in :data:`METHODS`.  The per-n test runs only
on what is left:

* the n at or below a discriminant's bound (its |d|, |Q'| or |scale|),
  where a shared factor may be n itself;
* the n with no recorded factor at or above (limit + 1)**2, and the primes
  of the u-companion matrix test;
* the composites whose recorded factors do not rule them out, about one n
  in 10**5 to 10**6 near 2**34;
* every n of fermat, strong-base, pell-variant, strong-pell with (D, a),
  and of parameters with a zero discriminant, Q' or scale, or a pell base
  point of norm other than 1.

Long scans can persist a resume cursor to a checkpoint file after every
chunk.  The checkpoint stores only the cursor and the scan identity (method,
parameters, and a hash of both), so a resumed scan covers [cursor, hi]; the
CLI streams pseudoprimes as they are found, which keeps interrupted runs
lossless end to end.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import compress, islice, product, repeat
from math import isqrt
from operator import not_
from typing import Callable, Iterator

from .conic import ConicParams
from .modarith import MAX_MODULUS, jacobi_masks, sharing_mask
from .primality import (
    Outcome,
    Verdict,
    double_lucas_test,
    fermat_test,
    generalized_pell_test,
    lucas_test,
    matrix_test,
    pell_test,
    pell_variant_test,
    strong_base_test,
    strong_pell_test,
    strong_pell_test_param,
    strong_probable_prime,
)
from .recurrence import LucasParams, MatrixParams
from .selectors import (
    CANDIDATE_CAP,
    classic_candidates,
    double_lucas_selfridge,
    gen_pell_selfridge,
    lucas_selfridge,
    matrix_candidates,
    matrix_selfridge,
)
from .sieve import Segment, primes_up_to, sieve_limit

__all__ = [
    "GRID_METHODS",
    "METHODS",
    "VARIANTS",
    "ScanReport",
    "build_test",
    "grid_scan",
    "is_prime",
    "primes_up_to",
    "read_checkpoint",
    "scan_range",
    "write_checkpoint",
]

DEFAULT_CHUNK_ODDS = 1 << 16  # odd candidates per work unit

# Deterministic Miller-Rabin witnesses for all n < 2**64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# (psi_k, k): the first k prime bases are exact below psi_k, the least
# strong pseudoprime to all of them (Jaeschke 1993).
_MR_BOUNDS = ((1_373_653, 2), (25_326_001, 3), (3_215_031_751, 4),
              (2_152_302_898_747, 5), (3_474_749_660_383, 6),
              (341_550_071_728_321, 7), (3_825_123_056_546_413_051, 9))

_TRIAL_LIMIT = 10**4


def is_prime(n: int) -> bool:
    """Exact primality for 0 <= n < 2**64.

    Trial division below 10**4, deterministic strong-base testing above,
    with as many of the first twelve prime bases as n's size needs.
    """
    if n < 2:
        return False
    if n < _TRIAL_LIMIT:
        if n % 2 == 0:
            return n == 2
        d = 3
        while d * d <= n:
            if n % d == 0:
                return False
            d += 2
        return True
    if n % 2 == 0:
        return False
    bases = _MR_BASES
    for bound, k in _MR_BOUNDS:
        if n < bound:
            bases = _MR_BASES[:k]
            break
    return all(strong_probable_prime(n, a) for a in bases)


# ---------------------------------------------------------------------------
# method table


# One way to give a method's parameters: the names it requires, in canonical
# order; a fixed canonical string, or None for "name=value,..."; make, which
# build_test calls with the names' values (selfridge's aside) to get
# test(n), so that it sees the names a tracer swapped in; and bulk, which
# the scan calls with the same values to get the form's _Bulk, or None when
# the scan runs the test on every n.
_Form = namedtuple("_Form", "names canonical make bulk", defaults=(None,))

# How the scan's chunk kernel settles the n of a Lucas-family form.  ``D``
# is the fixed discriminant, or for a Selfridge form the function that
# returns its candidate sequence.  ``lucas(d)`` is the (P', Q', scale) for
# discriminant d of the test's first congruence, scale*U_k(P', Q') ≡ 0
# (mod n) with k = n - (d/n) for every such form;
# the test's preconditions also settle, with outcome ``shared``, the n that
# share a prime with Q' (Q for Lucas, QR for matrix, the base point's norm
# for the conics).  ``primes_pass`` is whether every prime that meets the
# preconditions passes the test.
_Bulk = namedtuple("_Bulk", "D lucas shared primes_pass")
_INVALID, _COMPOSITE = Outcome.PARAMS_INVALID, Outcome.COMPOSITE


def _fixed(D: int, P: int, Q: int, scale: int, shared: Outcome = _INVALID,
           primes_pass: bool = True) -> _Bulk | None:
    """The _Bulk of a form with one discriminant D; None when D, Q' or the
    scale is 0, parameters for which the test rejects n by n."""
    if not (D and Q and scale):
        return None
    return _Bulk(D, lambda d: (P, Q, scale), shared, primes_pass)


def _conic(D: int, x: int, y: int, shared: Outcome) -> _Bulk | None:
    """The _Bulk of a conic test: y*U_k of Lucas(2x, x^2 - D*y^2)."""
    return _fixed(D, 2 * x, x * x - D * y * y, y, shared)


def _norm_one(D: int, x: int, y: int) -> _Bulk | None:
    """pell and strong-pell reject every n beyond |norm - 1| unless the
    base point has norm 1, and then no n shares a prime with the norm."""
    return _conic(D, x, y, _INVALID) if x * x - D * y * y == 1 else None


def _classic(d: int) -> tuple[int, int, int]:
    return 1, (1 - d) // 4, 1  # P = 1, Q = (1 - D)/4


def _selfridge_matrix(d: int) -> tuple[int, int, int]:
    return 1, (1 - d) // 4, 2  # P = 1, QR = 2(1 - D)/8, R = 2


def _selfridge_conic(d: int) -> tuple[int, int, int]:
    return 6, 9 - 4 * d, 2  # base point (3, 2) of norm 9 - 4D


# build_test takes a method's first form whose names are all given.  The
# keys, in this order, are the CLI's --method choices.
METHODS: dict[str, tuple[_Form, ...]] = {
    "fermat": (_Form(("a",), None, lambda a: partial(fermat_test, a=a)),),
    "strong-base": (_Form(("a",), None,
                          lambda a: partial(strong_base_test, a=a)),),
    "lucas": (
        _Form(("selfridge",), "selfridge", lambda: lucas_selfridge,
              lambda: _Bulk(classic_candidates, _classic, _INVALID, True)),
        _Form(("P", "Q"), None,
              lambda P, Q: partial(lucas_test, params=LucasParams(P, Q)),
              lambda P, Q: _fixed(P * P - 4 * Q, P, Q, 1))),
    "double-lucas": (
        _Form(("selfridge",), "selfridge", lambda: double_lucas_selfridge,
              lambda: _Bulk(classic_candidates, _classic, _INVALID, True)),
        _Form(("P", "Q"), None, lambda P, Q: partial(
            double_lucas_test, params=LucasParams(P, Q)),
            lambda P, Q: _fixed(P * P - 4 * Q, P, Q, 1))),
    "matrix": (
        _Form(("selfridge", "variant"), None,
              lambda variant: partial(matrix_selfridge, variant=variant),
              lambda variant: _Bulk(matrix_candidates, _selfridge_matrix,
                                    _INVALID, variant == "v-companion")),
        _Form(("P", "Q", "R", "variant"), None, lambda P, Q, R, variant: (
            partial(matrix_test, params=MatrixParams(P, Q, R),
                    variant=variant)),
            lambda P, Q, R, variant: _fixed(
                P * P - 4 * Q * R, P, Q * R, R,
                primes_pass=variant == "v-companion"))),
    "pell": (_Form(("D", "x", "y"), None, lambda D, x, y: partial(
        pell_test, params=ConicParams(D, x, y)), _norm_one),),
    "strong-pell": (
        _Form(("D", "a"), None,
              lambda D, a: partial(strong_pell_test_param, D=D, a=a)),
        _Form(("D", "x", "y"), None, lambda D, x, y: partial(
            strong_pell_test, params=ConicParams(D, x, y)), _norm_one)),
    "gen-pell": (
        _Form(("selfridge",), "selfridge", lambda: gen_pell_selfridge,
              lambda: _Bulk(classic_candidates, _selfridge_conic, _COMPOSITE,
                            True)),
        _Form(("D", "x", "y"), None, lambda D, x, y: partial(
            generalized_pell_test, params=ConicParams(D, x, y)),
            lambda D, x, y: _conic(D, x, y, _COMPOSITE))),
    "pell-variant": (_Form((), "none", lambda: pell_variant_test),),
}

VARIANTS = ("u-companion", "v-companion")  # of the matrix test


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
        values = dict(given)
        if "variant" in names:
            values.setdefault("variant", "v-companion" if "selfridge" in names
                              else "u-companion")
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
    return form.make(*args), canonical


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class ScanReport:
    """Result of one range scan.

    ``pseudoprimes`` are the odd composites in [lo, hi] passing the test,
    strictly increasing.  ``stats`` counts candidates by outcome:
    ``tested`` (all odd candidates), ``probable_prime``, ``composite``,
    ``params_invalid``, ``short_circuited`` (verdicts produced during
    parameter selection), ``sieved`` (the verdicts the chunk kernel took
    from the factor sieve's record without calling the test: composites a
    recorded factor rules out, and primes the sieve proves) and
    ``pseudoprimes``.  Every other count is what the test gives n by n,
    whether the kernel settled n in bulk or the test ran on it.  The
    counts, like the list, are the same for any ``jobs`` and chunk size.
    """

    method: str
    params: str
    lo: int
    hi: int
    pseudoprimes: tuple[int, ...]
    stats: dict[str, int]
    elapsed: float = 0.0

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


@dataclass(frozen=True)
class GridReport:
    """Counts of pseudoprimes per parameter cell, with degenerate cells skipped.

    ``variant`` is the matrix variant every cell ran, None for the other
    methods.
    """

    method: str
    axes: tuple[tuple[str, tuple[int, ...]], ...]
    limit: int
    cells: tuple[dict, ...]
    elapsed: float = 0.0
    variant: str | None = None

    def to_dict(self, include_elapsed: bool = True) -> dict:
        d = {
            "method": self.method,
            "axes": [{"name": name, "values": list(vals)} for name, vals in self.axes],
            "limit": self.limit,
            "variant": self.variant,
            "cells": list(self.cells),
        }
        if include_elapsed:
            d["elapsed_s"] = round(self.elapsed, 3)
        return d


# ---------------------------------------------------------------------------
# scanning


_STAT_KEYS = ("tested", "probable_prime", "composite", "params_invalid",
              "short_circuited", "sieved", "pseudoprimes")


def _new_stats() -> dict[str, int]:
    return dict.fromkeys(_STAT_KEYS, 0)


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


_UNSET = bytes.maketrans(b"0", b"\x00")


def _members(mask: int, lo: int) -> Iterator[int]:
    """The odd n = lo + 2i for the set bits i of mask, ascending."""
    bits = bin(mask)[:1:-1].encode().translate(_UNSET)
    return compress(range(lo, lo + 2 * len(bits), 2), bits)


def _kernel(bulk: _Bulk, sieve: Segment, lo: int,
            size: int) -> tuple[dict[str, int], list[int]]:
    """Settle the odd n = lo + 2i, i < size, on bitmasks over i.

    Returns the counts of what it settled and the n it leaves to the
    per-n test, ascending: those at or below the bound of a discriminant
    they reach (its |d|, |Q'| or |scale|), where a shared factor may be n
    itself; those with no recorded factor that the sieve does not prove
    prime, or that are prime when primes need not pass; and those with a
    recorded factor that ``rules_out`` does not rule out.
    """
    stats = _new_stats()
    full = (1 << size) - 1

    def upto(bound: int) -> int:  # the n <= bound
        return (1 << max(0, min(size, (bound - lo) // 2 + 1))) - 1

    def bound(d: int) -> int:
        return max(abs(d), *map(abs, bulk.lucas(d)[1:]))

    classes = []  # (d, (d/n), the n of this class)
    if isinstance(bulk.D, int):
        d = bulk.D
        rest = upto(bound(d))
        minus, zero = jacobi_masks(d, lo, size)
        left = full ^ rest
        classes = [(d, 1, left & ~(minus | zero)), (d, -1, left & minus),
                   (d, 0, left & zero)]
    else:
        # Perfect squares, then each n at the first candidate d with
        # (d/n) = -1; (d/n) = 0 with n > |d| is a proper factor.
        short = rest = 0
        r = isqrt(lo - 1) + 1 | 1
        while r * r < lo + 2 * size:
            short |= 1 << (r * r - lo >> 1)
            r += 2
        left = full ^ short
        for d in islice(bulk.D(), CANDIDATE_CAP):
            if not left:
                break
            small = left & upto(bound(d))
            rest |= small
            left ^= small
            minus, zero = jacobi_masks(d, lo, size)
            classes.append((d, -1, left & minus))
            short |= left & zero
            left &= ~(minus | zero)
        rest |= left  # beyond the cap: the per-n walk raises
        stats["short_circuited"] = short.bit_count()
        stats["composite"] = short.bit_count()

    unfactored = sieve.unfactored()
    proved = unfactored & upto(sieve.prime_below - 1)
    shared = "params_invalid" if bulk.shared is _INVALID else "composite"
    survivors: list[int] = []
    for d, j, mask in classes:
        if not mask:
            continue
        P, Q, scale = bulk.lucas(d)
        sharing = mask & sharing_mask(Q, lo, size)
        stats[shared] += sharing.bit_count()
        mask ^= sharing
        if not j:  # (d/n) = 0 for a fixed d: a proper factor of n
            stats["composite"] += mask.bit_count()
            continue
        if bulk.primes_pass:
            primes = mask & proved
            stats["probable_prime"] += primes.bit_count()
            stats["sieved"] += primes.bit_count()
            mask ^= primes
        rest |= mask & unfactored
        ns = list(_members(mask & ~unfactored, lo))
        ruled = list(map(sieve.rules_out, ns, repeat(P), repeat(Q),
                         map(j.__rsub__, ns), repeat(scale)))
        count = sum(ruled)
        stats["composite"] += count
        stats["sieved"] += count
        survivors += compress(ns, map(not_, ruled))
    rest_n = sorted([*_members(rest, lo), *survivors])
    stats["tested"] = size - len(rest_n)
    return stats, rest_n


def _scan_chunk(method: str, params: dict, lo: int, hi: int,
                limit: int) -> tuple[list[int], dict[str, int]]:
    """Scan odd candidates in [lo, hi] (single process), sieving to limit.

    The chunk kernel settles what it can in bulk and the per-n test runs
    on the rest; methods without a _Bulk run it on every n.
    """
    form, args, _ = _resolve(method, params)
    test = form.make(*args)
    sieve = Segment(lo, hi, limit)
    lo |= 1
    bulk = form.bulk and form.bulk(*args)
    if bulk is None or lo > hi:
        return _per_n(test, sieve, range(lo, hi + 1, 2))
    stats, rest = _kernel(bulk, sieve, lo, (hi - lo) // 2 + 1)
    found, rest_stats = _per_n(test, sieve, rest)
    for k, v in rest_stats.items():
        stats[k] += v
    return found, stats


def _chunks(lo: int, hi: int, chunk_odds: int) -> Iterator[tuple[int, int]]:
    span = 2 * chunk_odds
    a = lo
    while a <= hi:
        yield a, min(a + span - 1, hi)
        a += span


def _scan_chunk_star(args):
    return _scan_chunk(*args)


def scan_range(method: str, params: dict, lo: int, hi: int, *,
               jobs: int = 1, chunk_odds: int = DEFAULT_CHUNK_ODDS,
               checkpoint: str | None = None,
               on_pseudoprime: Callable[[int], None] | None = None) -> ScanReport:
    """Scan every odd n in [lo, hi] with the configured test.

    An odd composite passing the test is a pseudoprime (the chunk's sieve,
    or beyond 2**40 the primality oracle, confirms compositeness; both only
    look at passers).  Work goes in chunks of ``chunk_odds`` odd n, and
    ``jobs`` > 1 fans them out to worker processes; both must be at least
    1, and neither changes the result.  With ``checkpoint`` the scan
    resumes from the file's cursor, which may not lie beyond hi + 1, and
    records it after every chunk.  ``on_pseudoprime`` is invoked for each
    find, in ascending order.
    """
    if not (isinstance(lo, int) and isinstance(hi, int)):
        raise ValueError("lo and hi must be ints")
    if not 3 <= lo <= hi:
        raise ValueError(f"need 3 <= lo <= hi, got [{lo}, {hi}]")
    if hi > MAX_MODULUS:
        raise ValueError("scanning beyond 2**63 is unsupported")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if chunk_odds < 1:
        raise ValueError(f"chunk_odds must be >= 1, got {chunk_odds}")
    _, canonical = build_test(method, params)  # validates early

    if checkpoint is not None:
        cursor = read_checkpoint(checkpoint, method, canonical)
        if cursor is not None:
            if cursor > hi + 1:
                raise ValueError(
                    f"checkpoint {checkpoint} is past the end of this scan "
                    f"(cursor {cursor} > hi + 1 = {hi + 1})")
            lo = max(lo, cursor)

    limit = sieve_limit(hi)
    start = time.monotonic()
    stats = _new_stats()
    found: list[int] = []
    chunk_list = list(_chunks(lo, hi, chunk_odds))

    def _absorb(chunk_hi: int, result: tuple[list[int], dict[str, int]]) -> None:
        chunk_found, chunk_stats = result
        for n in chunk_found:
            if on_pseudoprime is not None:
                on_pseudoprime(n)
            found.append(n)
        for k, v in chunk_stats.items():
            stats[k] += v
        if checkpoint is not None:
            write_checkpoint(checkpoint, chunk_hi + 1, method, canonical)

    if jobs > 1 and len(chunk_list) > 1:
        args = [(method, params, a, b, limit) for a, b in chunk_list]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for (a, b), result in zip(chunk_list, pool.map(_scan_chunk_star, args)):
                _absorb(b, result)
    else:
        for a, b in chunk_list:
            _absorb(b, _scan_chunk(method, params, a, b, limit))

    return ScanReport(method=method, params=canonical, lo=lo, hi=hi,
                      pseudoprimes=tuple(found), stats=stats,
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
    marked rather than scanned.  ``jobs`` must be at least 1, and
    ``r_values`` are for the matrix grid only.
    """
    if method not in GRID_METHODS:
        raise ValueError(f"grid_scan does not support method {method!r}")
    names = [a for a in "RPQ" if any(a in f.names for f in METHODS[method])]
    if not p_values or not q_values:
        raise ValueError("axes must be non-empty")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if "R" in names and not r_values:
        raise ValueError(f"{method} grid needs an R axis")
    if "R" not in names and r_values:
        raise ValueError(f"{method} grid does not use R values")
    values = {"R": r_values, "P": p_values, "Q": q_values}
    axes = tuple((a, tuple(values[a])) for a in names)
    extra = {} if variant is None else {"variant": variant}
    # validates early, and resolves the variant the cells run
    form, args, _ = _resolve(method, dict.fromkeys(names, 1) | extra)
    variant = dict(zip([k for k in form.names if k != "selfridge"],
                       args)).get("variant")

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


def _scan_hash(method: str, canonical: str) -> str:
    return hashlib.sha256(f"{method}|{canonical}".encode()).hexdigest()[:16]


def write_checkpoint(path: str, cursor: int, method: str, canonical: str) -> None:
    """Atomically persist the resume cursor for a scan."""
    line = (f"cursor={cursor} method={method} params={canonical} "
            f"hash={_scan_hash(method, canonical)}\n")
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write(line)
    os.replace(tmp, path)


def read_checkpoint(path: str, method: str, canonical: str) -> int | None:
    """Read a resume cursor; None if the file does not exist.

    Raises ValueError when the file belongs to a different scan (method,
    params, or hash mismatch) or is malformed.
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
    if (fields.get("method") != method or fields.get("params") != canonical
            or fields.get("hash") != _scan_hash(method, canonical)):
        raise ValueError(
            f"checkpoint {path} belongs to a different scan "
            f"(found method={fields.get('method')!r} params={fields.get('params')!r})")
    return cursor
