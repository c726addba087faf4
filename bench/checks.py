"""Correctness gate for the benchmark, independent of ``search.is_prime``.

Every operation the benchmark times is checked here: a scan call's
pseudoprime list and count, and a verdict's outcome and factor.  Checks that
need no reference hold for any seed; the recorded reference (see
``record_reference.py``) adds exact comparisons against the results of the
commit that recorded it.
"""

from __future__ import annotations

import json
from pathlib import Path

from pellprime.primality import Outcome

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

OUTCOME_CODE = {Outcome.PROBABLE_PRIME: "P", Outcome.COMPOSITE: "C",
                Outcome.PARAMS_INVALID: "I"}

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
# Sinclair's seven strong-probable-prime witnesses: exact for n < 2**64.  A
# different witness set from the package's oracle, so the two share no table.
_WITNESSES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


def is_prime(n: int) -> bool:
    """Exact primality for 0 <= n < 2**64 (strong tests to fixed witnesses)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _WITNESSES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="ascii") as fh:
        return json.load(fh)


class Gate:
    """Counts checked operations and failures; keeps the first few messages."""

    MAX_MESSAGES = 20

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, what: str, problem: str | None) -> None:
        """Count one operation; ``problem`` is None when its output was right."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.messages) < self.MAX_MESSAGES:
                self.messages.append(f"{what}: {problem}")

    def run(self, what: str, op, check):
        """Run ``op()``; a raise or a failed ``check(result)`` is one failure.

        ``check`` returns None when the result is correct, else a message.
        Returns the result, or None when ``op`` raised.
        """
        try:
            result = op()
        except Exception as exc:  # the benchmark keeps going and reports it
            self.record(what, f"raised {type(exc).__name__}: {exc}")
            return None
        self.record(what, check(result))
        return result


def check_scan(report, lo: int, hi: int, band: dict | None) -> str | None:
    """A scan's finds: ascending odd composites in [lo, hi], as in the band.

    ``band`` is the recorded reference {"lo", "hi", "pseudoprimes"} of the
    band the window lies in (every window of a scan workload lies in its
    band), or None where no reference is recorded.
    """
    found = list(report.pseudoprimes)
    if report.count != len(found):
        return f"count {report.count} != {len(found)} listed"
    if any(b <= a for a, b in zip(found, found[1:])):
        return "pseudoprimes not strictly ascending"
    for n in found:
        if not (lo <= n <= hi and n % 2 == 1):
            return f"find {n} outside the odd n of [{lo}, {hi}]"
        if is_prime(n):
            return f"find {n} is prime"
    if band is not None and band["lo"] <= lo and hi <= band["hi"]:
        expected = [n for n in band["pseudoprimes"] if lo <= n <= hi]
        if found != expected:
            return f"finds {found} != reference {expected}"
    return None


def check_verdict(verdict, n: int, prime: bool,
                  expected_code: str | None = None) -> str | None:
    """Outcome, factor and (if recorded) the reference outcome of one verdict.

    Every method the benchmark runs is sound, so a prime must pass.
    """
    code = OUTCOME_CODE.get(verdict.outcome)
    if code is None:
        return f"n={n}: unknown outcome {verdict.outcome!r}"
    if prime and code != "P":
        return f"prime n={n} got {verdict.outcome.value} ({verdict.evidence})"
    f = verdict.factor
    if f is not None and not (1 < f < n and n % f == 0):
        return f"n={n}: factor {f} is not a nontrivial divisor"
    if expected_code is not None and code != expected_code:
        return f"n={n}: outcome {code} != reference {expected_code}"
    return None
