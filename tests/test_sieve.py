"""The scan's factor sieve and chunk kernel against the brute-force reference.

The reference scan (:func:`oracles.reference_scan`) runs the test on every
odd n and asks the primality oracle about every passer, and it counts as
``sieved`` the n whose verdict a recorded factor or a sieve-proved prime
settles.  A sieved scan, and the chunk kernel on any chunk, must report
the same pseudoprimes and the same counts.  Each n the kernel settles
from the sieve must get the verdict the per-n test gives it.
"""

import random
from functools import lru_cache, partial
from itertools import islice
from math import gcd, isqrt, lcm

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from oracles import (
    first_congruence,
    kernel_counts,
    kernel_sieves,
    lucas_params,
    mat_pow,
    reference_scan,
    scan_chunk,
)
from pellprime import kernel, primality, selectors
from pellprime.modarith import JACOBI_TABLE_BOUND, jacobi
from pellprime.primality import VARIANTS, Outcome, Verdict
from pellprime.recurrence import LucasParams, lucas_pair, rank_of_apparition
from pellprime import recurrence, search, sieve
from pellprime.kernel import count_masks, members, settle, walk
from pellprime.search import build_test, grid_scan, is_prime, scan_range
from pellprime.sieve import SIEVE_CAP, Segment, primes_up_to, sieve_limit

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

# Configurations the chunk kernel does not cover: the per-n test runs on
# every n.  The last six are Lucas-family forms the kernel leaves alone:
# pell and strong-pell base points of norm -8, not 1, and a zero
# discriminant or scale.
UNHINTED_CONFIGS = [
    ("fermat", {"a": 2}),
    ("strong-base", {"a": 3}),
    ("strong-pell", {"D": 3, "a": 3}),
    ("pell-variant", {}),
    ("pell", {"D": 3, "x": 2, "y": 2}),
    ("strong-pell", {"D": 3, "x": 2, "y": 2}),
    ("lucas", {"P": 2, "Q": 1}),
    ("matrix", {"P": 2, "Q": 1, "R": 1}),
    ("gen-pell", {"D": 0, "x": 3, "y": 2}),
    ("gen-pell", {"D": 2, "x": 3, "y": 0}),
]

# Ranges from 3, ranges straddling a square (and the square's
# neighbours), a window at 10**10, where the generalized Pell claim ends,
# and a window above 2**40, where the sieve stops at SIEVE_CAP and the
# oracle decides the n it cannot.
RANGES = [
    (3, 6000),
    (120**2 - 301, 120**2 + 301),
    (1009**2 - 2001, 1009**2 + 2001),
    (10**10 + 1, 10**10 + 3001),
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


@pytest.mark.parametrize("method, params", UNHINTED_CONFIGS)
def test_unhinted_methods_match_reference(method, params):
    # The kernel does not cover these methods; the sieve only replaces the
    # oracle.
    for lo, hi in (RANGES[0], RANGES[-1]):
        assert assert_matches_reference(method, params, lo, hi) == 0


# Two primes above the kernel's trial-division bound: as a Q' or R, only
# sharing_mask's gcd per n finds the n they divide.
BIG = 1031 * 1033


def random_forms():
    """(method, params) for every form the scan settles in bulk, and the
    degenerate ones it leaves to the per-n test: the Selfridge forms; fixed
    lucas, double-lucas and matrix with small P and Q, Q = ±BIG, and R
    small or BIG; pell and strong-pell with norm-1 base points; and
    gen-pell with small D or |D| above the Jacobi table's bound."""
    small = st.integers(-6, 6)
    q = st.one_of(small, st.sampled_from([BIG, -BIG]))
    return st.one_of(
        st.sampled_from([(method, {"selfridge": True}) for method in (
            "lucas", "double-lucas", "matrix", "gen-pell")]
            + [("matrix", {"selfridge": True, "variant": "u-companion"})]),
        st.builds(lambda method, P, Q: (method, {"P": P, "Q": Q}),
                  st.sampled_from(["lucas", "double-lucas"]), small, q),
        st.builds(lambda P, Q, R, variant: (
            "matrix", {"P": P, "Q": Q, "R": R, "variant": variant}),
            small, q, st.sampled_from([1, -1, 2, -3, 5, BIG]),
            st.sampled_from(VARIANTS)),
        st.builds(lambda method, point: (method, dict(zip("Dxy", point))),
                  st.sampled_from(["pell", "strong-pell"]),
                  st.sampled_from([(3, 2, 1), (7, 8, 3), (13, 649, 180)])),
        st.builds(lambda D, x, y: ("gen-pell", {"D": D, "x": x, "y": y}),
                  st.one_of(small, st.sampled_from([263, -BIG])), small,
                  small))


@st.composite
def random_scans(draw):
    """A form, a window of 1 to 512 odd n from a start log-uniform in
    [3, 2**62], and a shape (chunk_odds and jobs)."""
    bits = draw(st.integers(2, 62))
    lo = draw(st.integers(max(3, 1 << bits - 1), 1 << bits))
    hi = (lo | 1) + 2 * (draw(st.integers(1, 512)) - 1)
    shape = {"chunk_odds": draw(st.sampled_from([1, 64, 2**11, 2**16])),
             "jobs": draw(st.sampled_from([1, 2]))}
    return *draw(random_forms()), lo, hi, shape


def assert_random_scan_matches_reference(case):
    method, params, lo, hi, shape = case
    assert_matches_reference(method, params, lo, hi, **shape)


@seed(32)
@settings(max_examples=60, deadline=None, database=None)
@given(random_scans())
def test_random_scans_match_reference(case):
    # The kernel's branches that fixed configurations miss: a Q' or R that
    # trial division cannot factor, |D| beyond the Jacobi table, windows
    # anywhere below 2**63, in any chunk and job shape.
    assert kernel._TRIAL_BOUND < 1031 and JACOBI_TABLE_BOUND < 263 < BIG
    assert_random_scan_matches_reference(case)


@pytest.mark.slow
@seed(33)
@settings(max_examples=2000, deadline=None, database=None)
@given(random_scans())
def test_many_random_scans_match_reference(case):
    assert_random_scan_matches_reference(case)


# The map from a discriminant to parameters behind each public selector.
SELFRIDGE_MAPS = {"lucas": selectors.classic_params,
                  "double-lucas": selectors.classic_params,
                  "matrix": selectors.matrix_params,
                  "gen-pell": selectors.gen_pell_params}


@pytest.mark.parametrize("method, params", SIEVED_CONFIGS)
def test_kernel_describes_each_discriminant_as_the_test_does(method, params):
    # The kernel's (D, P', Q', scale) at each discriminant it settles, for
    # the first 64 candidates of a Selfridge sequence (far beyond what a
    # scan reaches) or the one fixed D, against the oracle's reading of the
    # parameters the public selector or build_test gives the test.
    form, args, _ = search._resolve(method, params)
    bulk = form.make(*args)[1]
    if params.get("selfridge"):
        to_params = SELFRIDGE_MAPS[method]
        for n in range(3, 3001, 2):  # the selector maps its pick the same way
            chosen = lucas_params(method, params, n)
            if not isinstance(chosen, Verdict):
                assert chosen == to_params(first_congruence(chosen)[0]), n
        for d in islice(bulk.D(), 64):
            expected = first_congruence(to_params(d))
            assert expected[0] == d
            assert primality.first_congruence(bulk.params(d)) == expected, d
    else:
        expected = first_congruence(lucas_params(method, params, 3))
        assert bulk.D == expected[0]
        assert primality.first_congruence(bulk.params(bulk.D)) == expected


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
    assert form.make(*args)[1] is not None
    for lo, hi, limit in chunk_cases(rng):
        assert (scan_chunk(method, params, lo, hi, limit)
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
    stats, rest = kernel_counts(form.make(*args)[1], segment, lo, size)
    assert len(rest) <= 2 and stats["tested"] == size - len(rest)
    assert all(segment.is_composite(n) for n in rest)


@pytest.mark.parametrize("lo, hi", RANGES)
@pytest.mark.parametrize("method, params", SIEVED_CONFIGS)
def test_settle_paths_partition_the_stripe(method, params, lo, hi):
    # Each n of a stripe, the whole window here, takes exactly one settle
    # path: the named masks are pairwise disjoint and cover the stripe, and
    # the kernel counts as tested every n it does not leave to the per-n
    # test.
    form, args, _ = search._resolve(method, params)
    bulk = form.make(*args)[1]
    lo |= 1
    size = (hi - lo) // 2 + 1
    settled = settle(bulk, Segment(lo, hi, sieve_limit(hi)), lo, size,
                     *walk(bulk, lo, size))
    union = 0
    for path, mask in settled._asdict().items():
        assert not union & mask, path
        union |= mask
    assert union == (1 << size) - 1
    tested = count_masks(bulk, settled)["tested"].bit_count()
    assert tested + len(list(members(settled.left, lo))) == size


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
    stats, rest = kernel_counts(form.make(*args)[1], segment, lo,
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
    unfactored = segment.unfactored(lo, (hi - lo) // 2 + 1)
    primes = [p for p in primes_up_to(limit) if p > 2]
    for n in range(lo, hi + 1, 2):
        i = (n - lo) // 2
        factors = segment.factors(n)
        assert sorted(factors) == [p for p in primes if n % p == 0 and p < n]
        assert len(set(factors)) == len(factors)
        assert unfactored >> i & 1 == (not factors)
        known = segment.is_composite(n)
        assert known is None or known == (not is_prime(n))
        assert known is not None or n >= (limit + 1) ** 2


def recorded_factors(lo, hi, limit):
    """Brute force: the odd primes p <= limit with p | n and p < n, for each
    odd n in [lo, hi], found by stepping through the multiples of each."""
    found = {n: set() for n in range(lo | 1, hi + 1, 2)}
    for p in primes_up_to(limit)[1:]:
        for n in range(max(-(-lo // p), 2) * p, hi + 1, p):
            if n & 1:
                found[n].add(p)
    return found


def stripe_cases(rng):
    """(lo, hi, limit, chunk_odds) of stripes of several chunks: from 3 with
    a short last chunk; chunks of one odd n; limits below isqrt(hi), around
    97**2; spans (2*chunk_odds) below and above the limit; a window above
    2**40, where the limit is SIEVE_CAP; the benchmark's stripe; one from 3
    with sliced and linked primes inside it; and random ones."""
    yield 3, 2999, 54, 64  # span above the limit, 23 chunks and a short one
    yield 3, 1501, 38, 1
    yield 97**2 - 800, 97**2 + 800, 96, 50
    yield 10**6 - 3001, 10**6 + 3001, 1000, 64  # span below the limit
    yield 2**40 + 2**22 + 1, 2**40 + 2**22 + 1501, SIEVE_CAP, 100
    yield 2**40 + 2**22, 2**40 + 2**22 + 21, SIEVE_CAP, 1
    # The benchmark's stripe: 2**14 odd n near 2**34, at the scan's limit.
    yield 2**34 + 1, 2**34 + 2**15 - 1, sieve_limit(2**34 + 2**15 - 1), 2**11
    # From 3, with primes on both sides of a quarter of the stripe's length
    # (2500) and of its length (10**4) inside it: none is its own factor.
    yield 3, 20001, 15000, 5000
    for _ in range(4):  # 2 to 20 chunks
        lo, size = rng.randrange(3, 2**34), rng.randrange(2, 1500)
        hi = lo + 2 * size - 1
        yield (lo, hi, sieve_limit(rng.randint(hi, 2 * hi)),
               -(-size // rng.randint(2, 20)))


def test_stripe_equals_one_chunk_segments():
    # Each chunk's window of one stripe-wide Segment, as the scan reads it,
    # against a Segment of that chunk alone and against brute force.
    rng = random.Random("stripe")
    for lo, hi, limit, chunk_odds in stripe_cases(rng):
        truth = recorded_factors(lo, hi, limit)
        whole = Segment(lo, hi, limit)
        for a in range(lo | 1, hi + 1, 2 * chunk_odds):
            b = min(a + 2 * chunk_odds - 1, hi)
            size = (b - a) // 2 + 1
            fresh = Segment(a, b, limit)
            window = whole.unfactored(a, size)
            assert window == fresh.unfactored(a, size)
            for i, n in enumerate(range(a, b + 1, 2)):
                factors = truth[n]
                assert (set(whole.factors(n)) == set(fresh.factors(n))
                        == factors)
                assert window >> i & 1 == (not factors)
                known = whole.is_composite(n)
                assert known == fresh.is_composite(n)
                assert known is None or known == (not is_prime(n))
                assert known is not None or n >= (limit + 1) ** 2


def test_primes_around_the_split_record_each_multiple():
    # Primes below a quarter of the stripe's length are sieved by slices
    # and larger ones link each multiple; around the split each side has
    # primes with 4 and 5 multiples here, and the linked side 1 and 2, and
    # n with two linked factors, which one round may reach twice.  A linked
    # prime has 5 multiples only as size >> 2 itself, here 101 in a stripe
    # of 4*101 + 3 odd n from one of its multiples.
    rng = random.Random("split")
    seen = set()
    for size, lo in [(407, 101 * 9901)] + [
            (rng.randrange(400, 440), rng.randrange(10**6, 10**7) | 1)
            for _ in range(40)]:
        hi = lo + 2 * (size - 1)
        truth = recorded_factors(lo, hi, 1000)
        segment = Segment(lo, hi, 1000)
        unfactored = segment.unfactored(lo, size)
        for i, n in enumerate(range(lo, hi + 1, 2)):
            assert set(segment.factors(n)) == truth[n], n
            assert unfactored >> i & 1 == (not truth[n]), n
        counts = {}
        for ps in truth.values():
            for p in ps:
                counts[p] = counts.get(p, 0) + 1
            seen.add(("two linked", sum(p >= size >> 2 for p in ps) >= 2))
        seen |= {(p < size >> 2, c) for p, c in counts.items()
                 if size // 8 < p < 2 * size}
    assert seen >= {(True, 4), (True, 5), (False, 1), (False, 2),
                    (False, 4), (False, 5), ("two linked", True)}


def test_checker_keeps_in_one_call_what_it_keeps_n_by_n():
    # The batch form against one call per n, the form oracles.kernel_sieves
    # reads: the same n, ascending, for an empty class, one-member classes
    # either way round, and a class of a whole 2**14-odd-n stripe fed from
    # members as the kernel feeds it.
    lo, hi = 2**34 + 1, 2**34 + 2**15 - 1
    segment = Segment(lo, hi, sieve_limit(hi))
    size = (hi - lo) // 2 + 1
    P, Q, scale = 1, -1, 1  # (d/n) = -1 for d = 5, the first candidate
    survivors = partial(segment.checker, P, Q, scale, -1)
    assert survivors([]) == survivors(iter(())) == []
    ns = list(members((1 << size) - 1, lo))
    assert len(ns) == size
    kept = [n for n in ns if survivors([n]) == [n]]
    assert 0 < len(kept) < size
    ruled = next(n for n in ns if segment.factors(n) and n not in kept)
    assert survivors([ruled]) == [] and survivors([kept[0]]) == kept[:1]
    assert survivors(members((1 << size) - 1, lo)) == kept
    assert survivors(ns[::-1]) == kept[::-1]


# (1, -10) has D = 41, a prime above the segment's limit, so 41 | n puts it
# in the cofactor with 41 | D.  Scale 3 or 6 takes 3 out of the check, and
# Q = 41 or scale 43 takes a cofactor out.
@pytest.mark.parametrize("P, Q, scale", [(1, -10, 1), (1, -1, 1), (3, 5, 3),
                                         (6, -11, 6), (-4, 7, 1), (1, 41, 1),
                                         (2, -1, 43)])
def test_keeps_decides_each_prime_factor(P, Q, scale):
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
            kept = segment.checker(P, Q, scale, n - k, [n])
            assert kept == ([] if proved else [n]), (n, k)


def _rank_brute(P, Q, p):
    u, v, k = 0, 1, 0
    while True:
        u, v, k = v, (P * v - Q * u) % p, k + 1
        if u == 0:
            return k


# (limit + 1)**2 > hi, so each n's cofactor above the limit is 1 or prime.
# (1, -100) has D = 401, a prime above the limit, so the cofactor 401 of
# 23*401 has (D/q) = 0; U_2(0, 3) = 0 exactly; and large values wrap
# modulo q.  The k are multiples of the ranks of n's factors <= limit, so
# that the walk reaches the cofactor, and multiples of each divisor of
# q - (D/q), so that g = gcd(k, q - (D/q)) falls on both sides of the exact
# table's length and both ways round.
@pytest.mark.parametrize("P, Q, scale", [(1, -100, 1), (0, 3, 1), (1, 2, 3),
                                         (10**12 + 3, -(10**15), 1)])
def test_keeps_settles_prime_cofactors_by_their_residue(P, Q, scale):
    lo, hi, limit = 9301, 10199, 100
    segment = Segment(lo, hi, limit)
    qs, D = Q * scale, P * P - 4 * Q
    reached = set()
    for n in range(lo, hi + 1, 2):
        small = segment.factors(n)
        q = n
        for p in small:
            while q % p == 0:
                q //= p
        if not small or q == 1 or qs % q == 0:
            continue
        ranks = [_rank_brute(P, Q, p) for p in small if qs % p]
        base = lcm(*ranks)
        e = jacobi(D, q)
        ks = {*range(2, 40), *(base * t for t in range(1, 12)),
              *(base * d for d in range(1, q - e + 1) if (q - e) % d == 0)}
        for k in sorted(ks):
            residues = [mat_pow((P, -Q, 1, 0), k, p)[2]
                        for p in (*small, q) if qs % p]
            kept = segment.checker(P, Q, scale, n - k, [n])
            assert kept == ([] if any(residues) else [n]), (n, k)
            if k % base == 0:
                g = gcd(k, q - e) if e else 0
                reached.add((e == 0, g >= sieve._EXACT_U, not residues[-1]))
    # Every kind of cofactor decision, both ways round.
    kinds = {(False, big, zero) for big in (False, True)
             for zero in (False, True)}
    if D == 401:
        kinds |= {(True, False, False), (True, False, True)}
    assert reached >= kinds


def test_cofactor_ladders_are_rare_near_2_34(monkeypatch):
    # Near 2**34 a window of 2**14 odd n has about 900 prime cofactors to
    # decide (911 went to the ladder before the exact table); 23 still do.
    calls = []
    ladder = sieve._lucas_u

    def counted(P, Q, k, n):
        calls.append(k)
        return ladder(P, Q, k, n)

    monkeypatch.setattr(sieve, "_lucas_u", counted)
    report = scan_range("gen-pell", {"selfridge": True}, 2**34 + 1,
                        2**34 + 2**15 - 1)
    assert report.stats["sieved"] > 10**4
    assert 0 < len(calls) < 50
    assert min(calls) >= sieve._EXACT_U


def test_rank_tables_are_bounded_and_dropped_least_recent_first(monkeypatch):
    # The 65 scanned cells of this grid meet 65 pairs (P, Q), one more than
    # the cache holds, so each pass evicts; a second pass evicts on every
    # cell.  A fresh cache with the module's own bound is installed, and
    # the process's warm one comes back after the test.
    bound = recurrence._pair_tables.cache_info().maxsize
    monkeypatch.setattr(recurrence, "_pair_tables", lru_cache(
        maxsize=bound)(recurrence._pair_tables.__wrapped__))
    grid = ("lucas", range(1, 12), range(-3, 4), 2000)
    passes = [grid_scan(*grid), grid_scan(*grid)]
    info = recurrence._pair_tables.cache_info()
    assert info.misses > 64 and info.currsize <= 64
    recurrence._pair_tables.cache_clear()
    passes.append(grid_scan(*grid))
    counts = [[cell["count"] for cell in report.cells] for report in passes]
    assert counts[0] == counts[1] == counts[2]
    assert sum(count is not None for count in counts[0]) == 65


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
