"""The scan's factor sieve against the brute-force reference.

The reference scan runs the test on every odd n without a sieve hint and
asks the primality oracle about every passer; the sieved scan must report
the same pseudoprimes and the same counts (apart from ``sieved``, which
only the sieve produces).
"""

import random
from dataclasses import replace
from math import isqrt

import pytest

from pellprime.primality import Outcome
from pellprime.recurrence import LucasParams, lucas_pair, rank_of_apparition
from pellprime.search import build_test, is_prime, primes_up_to, scan_range
from pellprime.sieve import SIEVE_CAP, Segment, sieve_limit

STAT_KEYS = ("tested", "probable_prime", "composite", "params_invalid",
             "short_circuited", "pseudoprimes")

# Every method whose tests take the sieve hint, with Selfridge and with
# fixed parameters.
SIEVED_CONFIGS = [
    ("lucas", {"selfridge": True}),
    ("lucas", {"P": 4, "Q": 1}),
    ("lucas", {"P": -3, "Q": -2}),
    ("double-lucas", {"selfridge": True}),
    ("double-lucas", {"P": -3, "Q": 2}),
    ("matrix", {"selfridge": True}),
    ("matrix", {"selfridge": True, "variant": "u-companion"}),
    ("matrix", {"P": 1, "Q": 2, "R": -1}),
    ("matrix", {"P": 3, "Q": -2, "R": 2, "variant": "v-companion"}),
    ("pell", {"D": 3, "x": 2, "y": 1}),
    ("pell", {"D": 2, "x": 17, "y": 12}),  # 3 | y: no constraint at 3
    ("strong-pell", {"D": 3, "x": 2, "y": 1}),
    ("strong-pell", {"D": 5, "x": 9, "y": 4}),
    ("gen-pell", {"selfridge": True}),
    ("gen-pell", {"D": 5, "x": 3, "y": 2}),
    ("gen-pell", {"D": 7, "x": 3, "y": 6}),
    ("gen-pell", {"D": 2, "x": 5, "y": 3}),  # 3 | y, norm 7
]

# Ranges from 3, ranges straddling a square (and the square's
# neighbours), and a window above 2**40, where the sieve stops at
# SIEVE_CAP and the oracle decides the n it cannot.
RANGES = [
    (3, 6000),
    (120**2 - 301, 120**2 + 301),
    (1009**2 - 2001, 1009**2 + 2001),
    (2**40 + 2**22 + 1, 2**40 + 2**22 + 1501),
]


def reference_scan(method, params, lo, hi):
    """Brute force: every odd n through the unhinted test, then the oracle."""
    test, _ = build_test(method, params)
    stats = dict.fromkeys(STAT_KEYS, 0)
    found = []
    for n in range(lo | 1, hi + 1, 2):
        verdict = test(n)
        stats["tested"] += 1
        stats[{Outcome.PROBABLE_PRIME: "probable_prime",
               Outcome.COMPOSITE: "composite",
               Outcome.PARAMS_INVALID: "params_invalid"}[verdict.outcome]] += 1
        stats["short_circuited"] += verdict.stage == "selector"
        if verdict.is_probable_prime and not is_prime(n):
            found.append(n)
            stats["pseudoprimes"] += 1
    return found, stats


def assert_matches_reference(method, params, lo, hi, **kwargs):
    report = scan_range(method, params, lo, hi, **kwargs)
    found, stats = reference_scan(method, params, lo, hi)
    assert list(report.pseudoprimes) == found
    sieved = report.stats.pop("sieved")
    assert report.stats == stats
    return sieved


def test_the_last_range_is_beyond_the_cap():
    lo, hi = RANGES[-1]
    assert sieve_limit(hi) == SIEVE_CAP < isqrt(lo)


@pytest.mark.parametrize("lo, hi", RANGES)
@pytest.mark.parametrize("method, params", SIEVED_CONFIGS)
def test_sieved_scan_matches_reference(method, params, lo, hi):
    sieved = assert_matches_reference(method, params, lo, hi, chunk_odds=512)
    if lo == 3:
        assert sieved > 0


@pytest.mark.parametrize("method, params", [
    ("fermat", {"a": 2}), ("strong-base", {"a": 3}),
    ("strong-pell", {"D": 3, "a": 3}), ("pell-variant", {})])
def test_unhinted_methods_match_reference(method, params):
    # These tests ignore the hint; the sieve only replaces the oracle.
    for lo, hi in (RANGES[0], RANGES[-1]):
        assert assert_matches_reference(method, params, lo, hi) == 0


@pytest.mark.parametrize("lo, hi", [(3, 3001), (2**34 + 1, 2**34 + 3001),
                                    RANGES[-1]])
@pytest.mark.parametrize("method, params", SIEVED_CONFIGS)
def test_hinted_verdicts_equal_unhinted(method, params, lo, hi):
    test, _ = build_test(method, params)
    segment = Segment(lo, hi, sieve_limit(hi))
    for n in range(lo, hi + 1, 2):
        plain, hinted = test(n), test(n, sieve=segment)
        assert replace(hinted, stage=plain.stage) == plain, n
        assert hinted.stage == plain.stage or (
            hinted.stage == "sieve" and plain.outcome is Outcome.COMPOSITE)


@pytest.mark.parametrize("lo, hi, limit", [
    (3, 2501, 50), (1001, 3001, 7), (99**2 - 40, 99**2 + 40, 99),
    (2**40 + 1, 2**40 + 301, 1000)])
def test_segment_factors_and_cofactor(lo, hi, limit):
    segment = Segment(lo, hi, limit)
    primes = [p for p in primes_up_to(limit) if p > 2]
    for n in range(lo, hi + 1, 2):
        i = (n - lo) // 2
        factors, j = [], segment.head[i]
        while j >= 0:
            factors.append(primes[segment.factor[j]])
            j = segment.next[j]
        assert sorted(factors) == [p for p in primes if n % p == 0 and p < n]
        c = n
        for p in factors:
            while c % p == 0:
                c //= p
        assert segment.cofactor[i] == c
        known = segment.is_composite(n)
        assert known is None or known == (not is_prime(n))
        assert known is not None or n >= (limit + 1) ** 2


# (1, -10) has D = 41, a prime above the segment's limit, so 41 | n puts it
# in the cofactor with 41 | D.  Scale 3 or 6 takes 3 out of the check, and
# Q = 41 or scale 43 takes a cofactor out.
@pytest.mark.parametrize("P, Q, scale", [(1, -10, 1), (1, -1, 1), (3, 5, 3),
                                         (6, -11, 6), (-4, 7, 1), (1, 41, 1),
                                         (2, -1, 43)])
def test_rules_out_decides_each_prime_factor(P, Q, scale):
    lo, hi, limit = 3, 1501, 38  # (limit + 1)**2 > hi: n fully factored
    segment = Segment(lo, hi, limit)
    primes = [p for p in primes_up_to(hi) if p > 2]
    for n in range(lo, hi + 1, 2):
        if not segment.is_composite(n):
            continue
        checked = [q for q in primes if n % q == 0 and (Q * scale) % q]
        for k in range(1, 80):
            u = lucas_pair(LucasParams(P, Q), k, n)[0]
            proved = any(u % q for q in checked)
            assert segment.rules_out(n, P, Q, k, scale) == proved, (n, k)


def _rank_brute(P, Q, p):
    u, v, k = 0, 1, 0
    while True:
        u, v, k = v, (P * v - Q * u) % p, k + 1
        if u == 0:
            return k


# (1, -1) is Fibonacci; D = 80 and 12 put 5 and 3 into D, and (6, -11)
# is a gen-pell Selfridge pair; large and negative values wrap modulo p.
@pytest.mark.parametrize("P, Q", [(1, -1), (6, -11), (4, 1), (2, -1),
                                  (-3, -2), (5, 7), (10**12 + 3, -(10**15))])
def test_rank_of_apparition_matches_brute_force(P, Q):
    D = P * P - 4 * Q
    primes = [p for p in primes_up_to(2999) if p > 2 and Q % p]
    divides_d = 0
    for p in primes:
        assert rank_of_apparition(P, Q, p) == _rank_brute(P, Q, p), p
        divides_d += D % p == 0
    if (P, Q) in ((6, -11), (4, 1)):
        assert divides_d


def test_rank_of_apparition_rejects_bad_moduli():
    for P, Q, p in ((1, -1, 2), (1, -1, 0), (1, 3, 3), (1, -1, -5)):
        with pytest.raises(ValueError):
            rank_of_apparition(P, Q, p)


@pytest.mark.slow
def test_random_grid_cells_match_reference_to_1e5():
    rng = random.Random(31415)
    cells = 0
    while cells < 12:
        method = rng.choice(("lucas", "double-lucas", "matrix"))
        P, Q, R = (rng.randint(-12, 12) for _ in range(3))
        params = {"P": P, "Q": Q}
        if method == "matrix":
            params.update(R=R or 1, variant=rng.choice(
                ("u-companion", "v-companion")))
        if Q == 0 or P * P - 4 * Q * params.get("R", 1) == 0:
            continue
        assert_matches_reference(method, params, 3, 10**5)
        cells += 1
