"""The scan's factor sieve and chunk kernel against the brute-force reference.

The reference scan (:func:`oracles.reference_scan`) runs the test on every
odd n and asks the primality oracle about every passer, and it counts as
``sieved`` the n whose verdict a recorded factor or a sieve-proved prime
settles.  A sieved scan, and the chunk kernel on any chunk, must report
the same pseudoprimes and the same counts.  Each n the kernel settles
from the sieve must get the verdict the per-n test gives it.
"""

import random
from math import isqrt

import pytest

from oracles import kernel_sieves, reference_scan
from pellprime.primality import Outcome
from pellprime.recurrence import LucasParams, lucas_pair, rank_of_apparition
from pellprime import search
from pellprime.search import build_test, is_prime, primes_up_to, scan_range
from pellprime.sieve import SIEVE_CAP, Segment, sieve_limit

# Every method the chunk kernel covers, with Selfridge and with fixed
# parameters.
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


def assert_matches_reference(method, params, lo, hi, **kwargs):
    report = scan_range(method, params, lo, hi, **kwargs)
    found, stats = reference_scan(method, params, lo, hi, sieve_limit(hi))
    assert list(report.pseudoprimes) == found
    assert report.stats == stats
    return stats["sieved"]


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
    # The kernel does not cover these methods; the sieve only replaces the
    # oracle.
    for lo, hi in (RANGES[0], RANGES[-1]):
        assert assert_matches_reference(method, params, lo, hi) == 0


def chunk_cases(rng):
    """(lo, hi, limit) of random chunks of 1 to 2**12 odd n (log-uniform,
    so that small chunks come up as often as large ones): one anywhere
    in [3, 2**41], one holding an odd square, one from just above 3 that
    holds the bounds of the small discriminants, and one holding
    (2**20 + 1)**2, where the sieve stops proving primes.  The limit is
    that of a scan ending at or beyond the chunk.  Two chunks sieved below
    isqrt(hi) come first, where the prime proof stops inside the chunk:
    97**2 has no factor <= 96."""
    yield 3, 3001, 40
    yield 97**2 - 800, 97**2 + 800, 96

    def size():
        return round(2 ** rng.uniform(0, 12))

    def chunk(lo, size, inside=None):
        if inside is not None:
            lo = inside - 2 * rng.randrange(size)
        hi = (lo | 1) + 2 * (size - 1)
        return lo, hi, sieve_limit(rng.randint(hi, 2 * hi))

    for _ in range(2):
        yield chunk(rng.randrange(3, 2**41), size())
        yield chunk(0, size(), inside=rng.randrange(3, 2**20, 2) ** 2)
        yield chunk(rng.randrange(3, 40), max(size(), 64))
        yield chunk(0, size(), inside=(2**20 + 1) ** 2)


@pytest.mark.parametrize("method, params", SIEVED_CONFIGS)
def test_chunk_kernel_matches_the_per_n_test(method, params):
    rng = random.Random(f"kernel/{method}/{sorted(params.items())}")
    form, args, _ = search._resolve(method, params)
    assert form.bulk(*args) is not None
    for lo, hi, limit in chunk_cases(rng):
        assert (search._scan_chunk(method, params, lo, hi, limit)
                == reference_scan(method, params, lo, hi, limit)), (
            lo, hi, limit)


@pytest.mark.parametrize("method, params", [
    ("gen-pell", {"selfridge": True}), ("matrix", {"selfridge": True}),
    ("lucas", {"P": -3, "Q": -2}), ("pell", {"D": 3, "x": 2, "y": 1})])
def test_chunk_kernel_leaves_almost_no_n_to_the_per_n_test(method, params):
    # A chunk of the benchmark's size near 2**34: every n is settled in
    # bulk but the few composites whose factors do not rule them out.
    lo, size = 2**34 + 1, 2**11
    hi = lo + 2 * (size - 1)
    segment = Segment(lo, hi, sieve_limit(hi))
    form, args, _ = search._resolve(method, params)
    stats, rest = search._kernel(form.bulk(*args), segment, lo, size)
    assert len(rest) <= 2 and stats["tested"] == size - len(rest)
    assert all(segment.is_composite(n) for n in rest)


def u_companion(method, params):
    """Whether build_test runs the u-companion matrix test for params."""
    default = "v-companion" if params.get("selfridge") else "u-companion"
    variant = params.get("variant") or default
    return method == "matrix" and variant == "u-companion"


def assert_hinted_equals_unhinted(method, params, lo, hi, limit):
    """Each n whose verdict the kernel takes from the sieve gets the verdict
    the per-n test gives, and the kernel does not leave it to that test."""
    test, _ = build_test(method, params)
    segment = Segment(lo, hi, limit)
    form, args, _ = search._resolve(method, params)
    lo |= 1
    stats, rest = search._kernel(form.bulk(*args), segment, lo,
                                 (hi - lo) // 2 + 1)
    rest = set(rest)
    primes_pass = not u_companion(method, params)
    settled = skipped = 0
    for n in range(lo, hi + 1, 2):
        plain = test(n)
        if not kernel_sieves(method, params, segment, n, plain):
            continue
        assert n not in rest, n
        settled += 1
        if is_prime(n):
            # A prime the sieve proves skips the ladder only when every
            # prime passes the test.
            assert primes_pass and plain.is_probable_prime, n
            skipped += 1
        else:
            assert plain.outcome is Outcome.COMPOSITE, n
    assert stats["sieved"] == settled
    assert (skipped > 0) == (primes_pass and lo < segment.prime_below)


@pytest.mark.parametrize("lo, hi", [(3, 3001), (2**34 + 1, 2**34 + 3001),
                                    RANGES[-1]])
@pytest.mark.parametrize("method, params", SIEVED_CONFIGS)
def test_hinted_verdicts_equal_unhinted(method, params, lo, hi):
    assert_hinted_equals_unhinted(method, params, lo, hi, sieve_limit(hi))


# These segments sieve below isqrt(hi): they hold primes <= limit, and n on
# both sides of (limit + 1)**2, where the prime proof stops.
@pytest.mark.parametrize("lo, hi, limit", [(3, 3001, 40),
                                           (97**2 - 800, 97**2 + 800, 96)])
@pytest.mark.parametrize("method, params", SIEVED_CONFIGS)
def test_hinted_verdicts_where_the_prime_proof_stops(method, params, lo, hi,
                                                      limit):
    assert_hinted_equals_unhinted(method, params, lo, hi, limit)


@pytest.mark.parametrize("lo, hi, limit", [
    (3, 2501, 50), (1001, 3001, 7), (99**2 - 40, 99**2 + 40, 99),
    (2**40 + 1, 2**40 + 301, 1000)])
def test_segment_factors_and_cofactor(lo, hi, limit):
    segment = Segment(lo, hi, limit)
    unfactored = segment.unfactored()
    primes = [p for p in primes_up_to(limit) if p > 2]
    for n in range(lo, hi + 1, 2):
        i = (n - lo) // 2
        factors, j = [], segment.head[i]
        while j >= 0:
            factors.append(primes[segment.factor[j]])
            j = segment.next[j]
        assert sorted(factors) == [p for p in primes if n % p == 0 and p < n]
        assert segment.factors(n) == factors
        assert unfactored >> i & 1 == (not factors)
        c = n
        for p in factors:
            while c % p == 0:
                c //= p
        assert segment.cofactor(n) == c
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
