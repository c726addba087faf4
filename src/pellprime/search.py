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
for the n that need it).  It serves twice:

* it decides whether a passing n is composite.  For hi up to 2**40 the
  limit is isqrt(hi), and an n with no recorded factor is prime, so no
  primality oracle runs; above, :func:`is_prime` decides the n the sieve
  cannot.
* the Lucas-family tests take it as a hint.  They run every precondition,
  then settle n with ``stage="sieve"`` without running their ladder in two
  cases.  They return COMPOSITE when the rank of apparition of a factor of
  n does not divide the index of their first congruence (see
  :mod:`pellprime.sieve`).  They return PROBABLE_PRIME when the sieve
  proves n prime, because every prime coprime to 2QD passes them; only the
  u-companion matrix test, which primes can fail, runs its ladder on them.
  Both kinds are counted as ``sieved``.  Above 2**40 the sieve proves no
  prime, and primes run the full test.

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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator

from .conic import ConicParams
from .modarith import MAX_MODULUS
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
)
from .recurrence import LucasParams, MatrixParams
from .selectors import (
    double_lucas_selfridge,
    gen_pell_selfridge,
    lucas_selfridge,
    matrix_selfridge,
)
from .sieve import Segment, primes_up_to, sieve_limit

__all__ = [
    "DEFAULT_CHUNK_ODDS",
    "GridReport",
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
    s = n - 1
    r = 0
    while s % 2 == 0:
        s //= 2
        r += 1
    bases = _MR_BASES
    for bound, k in _MR_BOUNDS:
        if n < bound:
            bases = _MR_BASES[:k]
            break
    for a in bases:
        x = pow(a, s, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# method registry


def _canon(pairs: list[tuple[str, object]]) -> str:
    return ",".join(f"{k}={v}" for k, v in pairs)


def _require(params: dict, keys: tuple[str, ...], method: str) -> list:
    missing = [k for k in keys if params.get(k) is None]
    if missing:
        raise ValueError(f"method {method!r} needs parameters {missing}")
    return [params[k] for k in keys]


def build_test(method: str, params: dict) -> tuple[Callable[..., Verdict], str]:
    """Resolve (method, params) to a per-n callable and a canonical string.

    ``params`` uses the CLI vocabulary: P, Q, R, D, x, y, a, selfridge,
    variant.  The callable is ``test(n, *, sieve=None)``; methods that
    cannot use a sieve hint ignore it.  Raises ValueError for unknown
    methods or incomplete parameters.
    """
    selfridge = bool(params.get("selfridge"))
    variant = params.get("variant") or "u-companion"

    if method == "fermat":
        (a,) = _require(params, ("a",), method)
        return lambda n, *, sieve=None: fermat_test(n, a), _canon([("a", a)])
    if method == "strong-base":
        (a,) = _require(params, ("a",), method)
        return (lambda n, *, sieve=None: strong_base_test(n, a),
                _canon([("a", a)]))
    if method == "lucas":
        if selfridge:
            return lucas_selfridge, "selfridge"
        P, Q = _require(params, ("P", "Q"), method)
        lp = LucasParams(P, Q)
        return (lambda n, *, sieve=None: lucas_test(n, lp, sieve=sieve),
                _canon([("P", P), ("Q", Q)]))
    if method == "double-lucas":
        if selfridge:
            return double_lucas_selfridge, "selfridge"
        P, Q = _require(params, ("P", "Q"), method)
        lp = LucasParams(P, Q)
        return (lambda n, *, sieve=None: double_lucas_test(n, lp, sieve=sieve),
                _canon([("P", P), ("Q", Q)]))
    if method == "matrix":
        if selfridge:
            mv = params.get("variant") or "v-companion"
            return (lambda n, *, sieve=None: matrix_selfridge(
                        n, variant=mv, sieve=sieve),
                    _canon([("selfridge", "true"), ("variant", mv)]))
        P, Q, R = _require(params, ("P", "Q", "R"), method)
        mp = MatrixParams(P, Q, R)
        return (lambda n, *, sieve=None: matrix_test(
                    n, mp, variant=variant, sieve=sieve),
                _canon([("P", P), ("Q", Q), ("R", R), ("variant", variant)]))
    if method == "pell":
        D, x, y = _require(params, ("D", "x", "y"), method)
        cp = ConicParams(D, x, y)
        return (lambda n, *, sieve=None: pell_test(n, cp, sieve=sieve),
                _canon([("D", D), ("x", x), ("y", y)]))
    if method == "strong-pell":
        if params.get("a") is not None:
            D, a = _require(params, ("D", "a"), method)
            return (lambda n, *, sieve=None: strong_pell_test_param(n, D, a),
                    _canon([("D", D), ("a", a)]))
        D, x, y = _require(params, ("D", "x", "y"), method)
        cp = ConicParams(D, x, y)
        return (lambda n, *, sieve=None: strong_pell_test(n, cp, sieve=sieve),
                _canon([("D", D), ("x", x), ("y", y)]))
    if method == "gen-pell":
        if selfridge:
            return gen_pell_selfridge, "selfridge"
        D, x, y = _require(params, ("D", "x", "y"), method)
        cp = ConicParams(D, x, y)
        return (lambda n, *, sieve=None: generalized_pell_test(
                    n, cp, sieve=sieve),
                _canon([("D", D), ("x", x), ("y", y)]))
    if method == "pell-variant":
        return lambda n, *, sieve=None: pell_variant_test(n), "none"
    raise ValueError(f"unknown method: {method!r}")


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class ScanReport:
    """Result of one range scan.

    ``pseudoprimes`` are the odd composites in [lo, hi] passing the test,
    strictly increasing.  ``stats`` counts candidates by outcome:
    ``tested`` (all odd candidates), ``probable_prime``, ``composite``,
    ``params_invalid``, ``short_circuited`` (verdicts produced during
    parameter selection), ``sieved`` (verdicts the factor sieve settled
    without the ladder: composites a factor rules out, and primes it
    proves) and ``pseudoprimes``.
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
    """Counts of pseudoprimes per parameter cell, with degenerate cells skipped."""

    method: str
    axes: tuple[tuple[str, tuple[int, ...]], ...]
    limit: int
    cells: tuple[dict, ...]
    elapsed: float = 0.0

    def cell(self, **coords) -> dict:
        for c in self.cells:
            if all(c.get(k) == v for k, v in coords.items()):
                return c
        raise KeyError(f"no grid cell {coords}")

    def to_dict(self, include_elapsed: bool = True) -> dict:
        d = {
            "method": self.method,
            "axes": [{"name": name, "values": list(vals)} for name, vals in self.axes],
            "limit": self.limit,
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


def _scan_chunk(method: str, params: dict, lo: int, hi: int,
                limit: int) -> tuple[list[int], dict[str, int]]:
    """Scan odd candidates in [lo, hi] (single process), sieving to limit."""
    test, _ = build_test(method, params)
    sieve = Segment(lo, hi, limit)
    odds = range(lo | 1, hi + 1, 2)
    found: list[int] = []
    passed = failed = selector = sieved = 0
    PASS, FAIL = Outcome.PROBABLE_PRIME, Outcome.COMPOSITE
    for n in odds:
        verdict = test(n, sieve=sieve)
        stage = verdict.stage
        if stage == "sieve":
            sieved += 1
        elif stage == "selector":
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
        "short_circuited": selector, "sieved": sieved,
        "pseudoprimes": len(found)}


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
    look at passers).  ``jobs`` > 1
    fans chunks out to worker processes; the result is independent of
    ``jobs``, which must be at least 1.  ``on_pseudoprime`` is invoked for
    each find, in ascending order.
    """
    if not (isinstance(lo, int) and isinstance(hi, int)):
        raise ValueError("lo and hi must be ints")
    if not 3 <= lo <= hi:
        raise ValueError(f"need 3 <= lo <= hi, got [{lo}, {hi}]")
    if hi > MAX_MODULUS:
        raise ValueError("scanning beyond 2**63 is unsupported")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    _, canonical = build_test(method, params)  # validates early

    if checkpoint is not None:
        cursor = read_checkpoint(checkpoint, method, canonical)
        if cursor is not None:
            lo = max(lo, cursor)

    limit = sieve_limit(hi)
    start = time.monotonic()
    stats = _new_stats()
    found: list[int] = []
    chunk_list = list(_chunks(lo, hi, chunk_odds)) if lo <= hi else []

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


def _degenerate_cell(method: str, cell: dict) -> bool:
    p, q, r = cell.get("P", 0), cell.get("Q", 0), cell.get("R", 1)
    if method == "matrix":
        return r == 0 or q == 0 or p * p - 4 * q * r == 0
    return q == 0 or p * p - 4 * q == 0


def grid_scan(method: str, p_values: list[int], q_values: list[int],
              limit: int, *, r_values: list[int] | None = None,
              jobs: int = 1, variant: str | None = None) -> GridReport:
    """One scan_range per (P, Q[, R]) cell up to limit; counts per cell.

    Degenerate cells (zero discriminant, Q or R zero) are skipped and
    marked rather than scanned.  ``jobs`` must be at least 1.
    """
    if not p_values or not q_values:
        raise ValueError("axes must be non-empty")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if method == "matrix":
        if not r_values:
            raise ValueError("matrix grid needs an R axis")
        axes = (("R", tuple(r_values)), ("P", tuple(p_values)), ("Q", tuple(q_values)))
        coords = [{"R": r, "P": p, "Q": q}
                  for r in r_values for p in p_values for q in q_values]
    elif method in ("lucas", "double-lucas"):
        axes = (("P", tuple(p_values)), ("Q", tuple(q_values)))
        coords = [{"P": p, "Q": q} for p in p_values for q in q_values]
    else:
        raise ValueError(f"grid_scan does not support method {method!r}")

    start = time.monotonic()
    cells = []
    for cell in coords:
        record = dict(cell)
        if _degenerate_cell(method, cell):
            record.update(skipped=True, count=None)
        else:
            params = dict(cell)
            if variant is not None:
                params["variant"] = variant
            report = scan_range(method, params, 3, limit, jobs=jobs)
            record.update(skipped=False, count=report.count)
        cells.append(record)
    return GridReport(method=method, axes=axes, limit=limit,
                      cells=tuple(cells), elapsed=time.monotonic() - start)


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
