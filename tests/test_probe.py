"""The per-n tests' small-factor probe against the congruences themselves.

Before its ladder, each test whose first congruence is
scale*U_k(P', Q') ≡ 0 (mod n), and the two base-a tests, looks for the odd
primes of n below ``primality._PROBE_BOUND`` and rules n out from one of
them when it can, by its rank of apparition in the rank table of
(P', Q').  Here every test's verdict is compared with that of a
reference (the ``ref_*`` functions), which evaluates the test's
preconditions and congruences directly, with the 2x2 matrix power of
tests/oracles.py and no probe.  The n drawn are p*m for a prime p below
the bound, with parameters whose scale or gcd value may share p.  The
probe's rule for one prime is checked on its own against the formula it
replaced, U_g mod p for g = gcd(k, p - (D/p)).
"""

from __future__ import annotations

import random
import time
from functools import lru_cache
from itertools import islice
from math import gcd, lcm, prod
from unittest import mock

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from oracles import mat_apply, mat_pow
from pellprime import primality, recurrence, sieve
from pellprime.conic import ConicParams
from pellprime.modarith import jacobi
from pellprime.primality import (
    Outcome,
    Verdict,
    double_lucas_test,
    fermat_test,
    first_congruence,
    generalized_pell_test,
    lucas_test,
    matrix_test,
    pell_test,
    strong_base_test,
    strong_pell_test,
    strong_pell_test_param,
)
from pellprime.recurrence import (LucasParams, MatrixParams,
                                  rank_of_apparition)
from pellprime.selectors import (
    classic_candidates,
    classic_params,
    double_lucas_selfridge,
    gen_pell_params,
    gen_pell_selfridge,
    lucas_selfridge,
    matrix_candidates,
    matrix_params,
    matrix_selfridge,
    selfridge_classic,
    selfridge_gen_pell,
    selfridge_matrix,
)
from pellprime.sieve import primes_up_to
from test_acceptance import SELFRIDGE_LUCAS_15000

PP, COMPOSITE, INVALID = (Outcome.PROBABLE_PRIME, Outcome.COMPOSITE,
                          Outcome.PARAMS_INVALID)
SMALL_PRIMES = [p for p in primes_up_to(primality._PROBE_BOUND - 1) if p > 2]
# Each property test draws at least MIN_DRAWS cases, then more until
# TIME_BOX seconds have passed or it has drawn MAX_DRAWS.
MIN_DRAWS, MAX_DRAWS, TIME_BOX = 300, 5000, 0.6


# ---------------------------------------------------------------------------
# the reference: preconditions, then each congruence by the matrix power


def _branch(D: int, n: int) -> tuple[int, Verdict | None]:
    j = jacobi(D, n)
    if j:
        return j, None
    g = gcd(D, n)
    if g == n:
        return 0, Verdict(INVALID, "discriminant ≡ 0 (mod n)")
    return 0, Verdict(COMPOSITE, f"gcd(discriminant, n) = {g}", g, 0)


def _lucas(P: int, Q: int, R: int, n: int, shared: str):
    """(j, (V~_k, U~_k), QR) of the matrix [[P, -Q], [R, 0]] at
    k = n - (D/n), or the early verdict."""
    if gcd(Q * R, n) != 1:
        return Verdict(INVALID, shared)
    j, early = _branch(P * P - 4 * Q * R, n)
    if early:
        return early
    v, u = mat_apply(mat_pow((P, -Q, R, 0), n - j, n), (1, 0), n)
    return j, (v, u), Q * R


def _verdict(j, first: bool, second: bool, failed: str) -> Verdict:
    if not first:
        return Verdict(COMPOSITE, failed, jacobi_branch=j)
    if not second:
        return Verdict(COMPOSITE, "companion congruence failed",
                       jacobi_branch=j)
    return Verdict(PP, jacobi_branch=j)


U_FAILED = "U_{n-(D/n)} ≢ 0 (mod n)"


def ref_lucas(n: int, params: LucasParams, double: bool) -> Verdict:
    out = _lucas(params.P, params.Q, 1, n, "gcd(Q, n) > 1")
    if isinstance(out, Verdict):
        return out
    j, (u_next, u), q = out  # V~_k = U_{k+1} for R = 1
    target = 1 if j == 1 else q % n
    return _verdict(j, u == 0, not double or u_next == target % n, U_FAILED)


def ref_matrix(n: int, params: MatrixParams, variant: str) -> Verdict:
    out = _lucas(*params, n, "gcd(QR, n) > 1")
    if isinstance(out, Verdict):
        return out
    j, (v, u), qr = out
    if variant == "u-companion":  # U~_{k+1} = R*V~_k
        v = params.R * v % n
    target = 1 if j == 1 else qr % n
    return _verdict(j, u == 0, v == target % n,
                    "U~_{n-(Δ/n)} ≢ 0 (mod n)")


def _conic_power(D: int, x: int, y: int, k: int, n: int) -> tuple[int, int]:
    """(x + y*sqrt(D))**k mod n: multiplication by x + y*sqrt(D) is the
    matrix [[x, D*y], [y, x]] on the coordinates."""
    return mat_apply(mat_pow((x, D * y, y, x), k, n), (1, 0), n)


def ref_pell(n: int, params: ConicParams, strong: bool) -> Verdict:
    D, x, y = params
    if (x * x - D * y * y) % n != 1 % n:
        return Verdict(INVALID, "base point norm ≢ 1 (mod n)")
    if y % n == 0:
        return Verdict(INVALID, "degenerate base point (x, 0)")
    j, early = _branch(D, n)
    if early:
        return early
    xk, yk = _conic_power(D, x, y, n - j, n)
    if strong:
        return _verdict(j, (xk, yk) == (1 % n, 0), True,
                        "(x, y)^{n-(D/n)} ≢ (1, 0) (mod n)")
    return _verdict(j, yk == 0, True, "y_{n-(D/n)} ≢ 0 (mod n)")


def ref_pell_param(n: int, D: int, a: int) -> Verdict:
    den = (a * a - D) % n
    g = gcd(den, n)
    if g == n:
        return Verdict(INVALID, "a^2 ≡ D (mod n): point undefined")
    if g != 1:
        return Verdict(COMPOSITE, f"gcd(a^2 - D, n) = {g}", g)
    inv = pow(den, -1, n)
    return ref_pell(n, ConicParams(D, (a * a + D) * inv % n,
                                   2 * a * inv % n), True)


def ref_gen_pell(n: int, params: ConicParams) -> Verdict:
    D, x, y = params
    q = x * x - D * y * y
    g = gcd(q, n)
    if g == n:
        return Verdict(INVALID, "base point norm ≡ 0 (mod n)")
    if g != 1:
        return Verdict(COMPOSITE, f"gcd(norm, n) = {g}", g)
    if y % n == 0 and x % n in (1 % n, n - 1):
        return Verdict(INVALID, "degenerate base point (±1, 0)")
    j, early = _branch(D, n)
    if early:
        return early
    target = (1 % n if j == 1 else q % n, 0)
    return _verdict(j, _conic_power(D, x, y, n - j, n) == target, True,
                    "conic power ≢ (norm branch target) (mod n)")


def _base_pre(n: int, a: int) -> Verdict | None:
    if not 1 < a < n:
        return Verdict(INVALID, "base must satisfy 1 < a < n")
    g = gcd(a, n)
    if g != 1:
        return Verdict(COMPOSITE, f"gcd(a, n) = {g}", g)
    return None


def _power(a: int, e: int, n: int) -> int:
    return mat_pow((a, 0, 0, 1), e, n)[0]


def ref_fermat(n: int, a: int) -> Verdict:
    early = _base_pre(n, a)
    if early:
        return early
    if _power(a, n - 1, n) != 1:
        return Verdict(COMPOSITE, "a^(n-1) ≢ 1 (mod n)")
    return Verdict(PP)


def ref_strong(n: int, a: int) -> Verdict:
    early = _base_pre(n, a)
    if early:
        return early
    r = 0
    while (n - 1) >> r & 1 == 0:
        r += 1
    x = _power(a, (n - 1) >> r, n)
    if x == 1 or any(_power(x, 2**i, n) == n - 1 for i in range(r)):
        return Verdict(PP)
    return Verdict(COMPOSITE, "a^s ≢ 1 and a^(2^k s) ≢ -1 for all k < r")


# form: (the package's test, the reference), each called as f(n, params)
FORMS = {
    "lucas": (lucas_test, lambda n, p: ref_lucas(n, p, False)),
    "double-lucas": (double_lucas_test, lambda n, p: ref_lucas(n, p, True)),
    "matrix-u": (lambda n, p: matrix_test(n, p, "u-companion"),
                 lambda n, p: ref_matrix(n, p, "u-companion")),
    "matrix-v": (lambda n, p: matrix_test(n, p, "v-companion"),
                 lambda n, p: ref_matrix(n, p, "v-companion")),
    "pell": (pell_test, lambda n, p: ref_pell(n, p, False)),
    "strong-pell": (strong_pell_test, lambda n, p: ref_pell(n, p, True)),
    "strong-pell-param": (lambda n, p: strong_pell_test_param(n, *p),
                          lambda n, p: ref_pell_param(n, *p)),
    "gen-pell": (generalized_pell_test, ref_gen_pell),
    "fermat": (fermat_test, ref_fermat),
    "strong-base": (strong_base_test, ref_strong),
}


# ---------------------------------------------------------------------------
# draws


def _n(rng: random.Random, p: int) -> int:
    """p*m for an odd m: 1 (n = p, prime), a small prime, any small odd m,
    or one that takes n near 2**62."""
    kind = rng.randrange(4)
    if kind == 0:
        return p
    if kind == 1:
        return p * rng.choice(SMALL_PRIMES)
    if kind == 2:
        return p * (rng.randrange(1, 2**20) | 1)
    return p * (rng.randrange(2**62 // p, 2**63 // p) | 1)


def _norm_one(rng: random.Random, p: int) -> ConicParams:
    """An integer point of norm 1: x = t*y^2 ± 1 and D = t*(t*y^2 ± 2);
    y is sometimes a multiple of p."""
    y = rng.choice((1, 2, 3, 6, 9, p, 3 * p, rng.randrange(1, 40)))
    t, s = rng.randrange(1, 6), rng.choice((1, -1))
    return ConicParams(t * (t * y * y + 2 * s), t * y * y + s, y)


def _params(form: str, rng: random.Random, p: int, n: int):
    small = lambda: rng.randrange(-40, 41)  # noqa: E731
    if form in ("lucas", "double-lucas"):
        chosen = selfridge_classic(n)
        if rng.randrange(2) and not isinstance(chosen, Verdict):
            return chosen
        return LucasParams(small(), small())
    if form.startswith("matrix"):
        chosen = selfridge_matrix(n)
        if rng.randrange(2) and not isinstance(chosen, Verdict):
            return chosen
        return MatrixParams(small(), small(),
                            rng.choice((1, -1, 2, 3, -3, 5, 7, p)))
    if form in ("pell", "strong-pell"):
        return _norm_one(rng, p)
    if form == "strong-pell-param":
        return small(), rng.choice((rng.randrange(1, 60), p, 2 * p))
    if form == "gen-pell":
        chosen = selfridge_gen_pell(n)
        if rng.randrange(2) and not isinstance(chosen, Verdict):
            return chosen
        return ConicParams(small(), small(),
                           rng.choice((small(), p, 2 * p, 3 * p)))
    return rng.randrange(2, 60)  # a base


@pytest.mark.parametrize("form", sorted(FORMS))
def test_probe_verdicts_equal_the_congruences(form):
    test, reference = FORMS[form]
    rng = random.Random(f"probe/{form}")
    end, draws = time.monotonic() + TIME_BOX, 0
    outcomes = set()
    while draws < MIN_DRAWS or (draws < MAX_DRAWS and time.monotonic() < end):
        p = rng.choice(SMALL_PRIMES)
        n = _n(rng, p)
        params = _params(form, rng, p, n)
        verdict = test(n, params)
        assert verdict == reference(n, params), (form, n, params)
        outcomes.add(verdict.outcome)
        draws += 1
    assert outcomes == {PP, COMPOSITE, INVALID}


# Fixed parameters, some of whose scale (pell's y) or gcd value (matrix's
# R) shares a prime below the bound, over every small odd n: n = p itself
# for each prime p up to 4000, and the passers with small factors.
FIXED = [
    ("lucas", LucasParams(1, -1)), ("lucas", LucasParams(4, 1)),
    ("double-lucas", LucasParams(3, -5)),
    ("matrix-u", MatrixParams(1, -1, 3)), ("matrix-v", MatrixParams(1, -1, 3)),
    ("matrix-v", MatrixParams(3, 2, 5)),
    ("pell", ConicParams(2, 3, 2)), ("pell", ConicParams(10, 19, 6)),
    ("pell", ConicParams(99, 10, 1)), ("strong-pell", ConicParams(10, 19, 6)),
    ("strong-pell", ConicParams(3, 2, 1)),
    ("strong-pell-param", (7, 3)), ("strong-pell-param", (-5, 15)),
    ("gen-pell", ConicParams(5, 3, 3)), ("gen-pell", ConicParams(-7, 2, 15)),
    ("gen-pell", ConicParams(13, 2, 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23)),
    ("fermat", 2), ("fermat", 3), ("strong-base", 2), ("strong-base", 7),
]


@pytest.mark.parametrize("form, params", FIXED)
def test_probe_verdicts_equal_the_congruences_for_every_small_n(form,
                                                                params):
    test, reference = FORMS[form]
    passers = 0
    for n in range(3, 4000, 2):
        verdict = test(n, params)
        assert verdict == reference(n, params), n
        passers += verdict.outcome is PP
    # Primes fail the u-companion congruences for R ≢ ±1.
    assert passers or form == "matrix-u"


def test_the_selfridge_lucas_pseudoprimes_with_small_factors_still_pass():
    # 323 = 17*19 heads the list: for D = 5 the ranks 9 and 18 divide 324.
    assert selfridge_classic(323) == LucasParams(1, -1)
    for n in SELFRIDGE_LUCAS_15000:
        assert lucas_selfridge(n).outcome is PP, n
    assert SELFRIDGE_LUCAS_15000[0] == 323


@pytest.mark.parametrize("n", [561, 1105, 1729, 2465, 2821, 6601, 8911])
def test_the_carmichael_numbers_pass_fermat_for_every_coprime_base(n):
    for a in range(2, n):
        if gcd(a, n) == 1:
            assert fermat_test(n, a).outcome is PP, a


# ---------------------------------------------------------------------------
# the probe's rule for one prime, against U_g mod p


def _ref_rules_out(p: int, k: int, D: int, P: int, Q: int,
                   scale: int) -> bool:
    """scale*U_k(P, Q) ≢ 0 (mod p) for an odd prime p ∤ Q: p ∤ scale and
    U_g ≢ 0 (mod p) for g = gcd(k, p - (D/p)), U_g by the matrix power."""
    g = gcd(k, p - jacobi(D, p))
    return bool(scale % p
                and mat_apply(mat_pow((P, -Q, 1, 0), g, p), (1, 0), p)[1])


def _pairs(p: int, rng: random.Random):
    """(D, P, Q, scale) of the three kinds of first congruence, for p: the
    Selfridge pairs, conic pairs whose y shares p, and the base tests'
    (a + 1, a) with scale a - 1, including a ≡ 1 (mod p)."""
    for d in islice(classic_candidates(), 6):
        yield first_congruence(classic_params(d))
        yield first_congruence(gen_pell_params(d))
    for d in islice(matrix_candidates(), 6):
        yield first_congruence(matrix_params(d))
    for y in (p, 3 * p, rng.randrange(1, 40)):
        yield first_congruence(ConicParams(rng.randrange(-40, 41), 2, y))
    for a in (2, 7, 10, p + 1, 2 * p + 1, rng.randrange(2, 2**62)):
        yield (a - 1) ** 2, a + 1, a, a - 1


def test_each_rank_lookup_rules_out_as_the_ladder_formula_did():
    rng = random.Random("probe/lookup")
    ruled = kept = skipped = 0
    for p in SMALL_PRIMES:
        for D, P, Q, scale in _pairs(p, rng):
            if Q % p == 0:  # a test's preconditions exclude these
                continue
            m = p - jacobi(D, p)
            ks = [m, 2 * m, m + 2, *(m // q for q in (2, 3, 5) if m % q == 0),
                  *(rng.randrange(2**60, 2**62) for _ in range(3))]
            for k in ks:
                expected = _ref_rules_out(p, k, D, P, Q, scale)
                # n = p: the probe finds p alone.
                assert primality._rules_out(p, k, P, Q, scale) is expected, (
                    p, k, D, P, Q, scale)
                ruled += expected
                kept += not expected and scale % p != 0
                skipped += scale % p == 0
    assert ruled and kept and skipped


def test_the_probe_and_the_checker_number_the_odd_primes_alike():
    # Entry i of a rank table is the i-th odd prime's rank to both readers.
    index = primality._probe_table()[1]
    sieve._primes_through(primality._PROBE_BOUND)
    assert list(index) == SMALL_PRIMES == list(sieve._odd_primes[:len(index)])
    assert list(index.values()) == list(range(len(index)))
    assert primality._PROBE_RANKS == len(index)
    P, Q, scale = 1, -1, 1  # Fibonacci: the rank of 7 is 8
    primality._rules_out(7 * 11, 3, P, Q, scale)
    ranks, _ = recurrence._rank_tables(P, Q, len(index))
    assert ranks[index[7]] == rank_of_apparition(P, Q, 7) == 8


# Odd n with no odd prime below the probe bound: a prime near 2**62, the
# product of two primes near 2**31, and 521*523.
NO_PROBE_PRIME = (2**62 + 135, 2147483659 * 2147483693, 521 * 523)
PER_N_TESTS = (
    lucas_selfridge, double_lucas_selfridge, matrix_selfridge,
    gen_pell_selfridge,
    lambda n: pell_test(n, ConicParams(3, 2, 1)),
    lambda n: strong_pell_test(n, ConicParams(3, 2, 1)),
    lambda n: strong_pell_test_param(n, 7, 3),
    lambda n: fermat_test(n, 2), lambda n: strong_base_test(n, 10),
)


def test_a_verdict_without_a_probe_prime_leaves_the_rank_cache_alone():
    assert all(gcd(n, prod(SMALL_PRIMES)) == 1 for n in NO_PROBE_PRIME)
    before = recurrence._pair_tables.cache_info()
    for n in NO_PROBE_PRIME:
        for test in PER_N_TESTS:
            test(n)
    assert recurrence._pair_tables.cache_info() == before
    # An n with one looks the table up, in each test.
    for test in PER_N_TESTS:
        test(509 * NO_PROBE_PRIME[2])
        after = recurrence._pair_tables.cache_info()
        assert after.hits + after.misses > before.hits + before.misses
        before = after


def test_strong_pell_param_verdicts_read_one_rank_table(monkeypatch):
    # The probe reads the pair (2(a^2 + D), (a^2 - D)^2), which does not
    # depend on n, and not that of the point mod n: the 178 verdicts with
    # (D, a) = (3, 4) on the odd multiples of 35 below 12460 add one entry
    # to a fresh rank cache, not one per n.
    fresh = lru_cache(maxsize=64)(recurrence._pair_tables.__wrapped__)
    monkeypatch.setattr(recurrence, "_pair_tables", fresh)
    monkeypatch.setattr(primality, "_pair_tables", fresh)
    ns = range(35, 12460, 70)
    assert len(ns) == 178
    for n in ns:
        assert strong_pell_test_param(n, 3, 4) == ref_pell_param(n, 3, 4), n
    info = fresh.cache_info()
    assert info.currsize == 1 and info.hits > 100


# ---------------------------------------------------------------------------
# the probe's two gcds against one


# Primes on both sides of 23, the last prime of the probe's first gcd, and
# of the probe bound, 509 being the last prime below it.
EDGE_PRIMES = (13, 17, 19, 23, 29, 31, 37, 499, 503, 509, 521, 523)
FIRST = [p for p in SMALL_PRIMES if p <= 23]


def _some_prime_rules_out(primes, n: int, k: int, P: int, Q: int,
                          scale: int) -> bool:
    """Whether a prime p of n among primes has p ∤ scale and a rank of
    apparition, computed afresh, that does not divide k."""
    return any(n % p == 0 and scale % p and k % rank_of_apparition(P, Q, p)
               for p in primes)


def _selfridge_pair(choice) -> tuple[int, int, int]:
    """(P, Q, scale) of the Selfridge map params at its i-th candidate."""
    params, i = choice
    candidates = (matrix_candidates if params is matrix_params
                  else classic_candidates)
    d = next(islice(candidates(), i, None))
    return first_congruence(params(d))[1:]


def _pairs_strategy():
    """(P, Q, scale) of a Selfridge pair, of a conic whose y may share a
    prime with n, and of a base test's (a + 1, a) with scale a - 1."""
    small = st.integers(-40, 40)
    selfridge = st.tuples(st.sampled_from((classic_params, matrix_params,
                                           gen_pell_params)),
                          st.integers(0, 11)).map(_selfridge_pair)
    conic = st.builds(ConicParams, small, small,
                      st.one_of(small, st.sampled_from(EDGE_PRIMES)))
    base = st.one_of(st.integers(2, 2**40),
                     st.sampled_from(EDGE_PRIMES).map(lambda p: p + 1))
    return st.one_of(selfridge, conic.map(lambda c: first_congruence(c)[1:]),
                     base.map(lambda a: (a + 1, a, a - 1)))


@seed(30)
@settings(max_examples=400, deadline=None)
@given(primes=st.lists(st.sampled_from(EDGE_PRIMES), min_size=1,
                       max_size=4, unique=True),
       cofactor=st.integers(0, 2**24), pair=_pairs_strategy(),
       bits=st.sampled_from((34, 62)), offset=st.integers(0, 2**20),
       rank_multiple=st.booleans())
def test_the_two_stage_probe_equals_one_gcd_over_every_probe_prime(
        primes, cofactor, pair, bits, offset, rank_multiple):
    P, Q, scale = pair
    n = prod(primes) * (2 * cofactor + 1)
    assume(gcd(Q, n) == 1)  # a test's preconditions exclude the others
    k = 2**bits + offset
    if rank_multiple:  # every rank of n's chosen primes divides k
        m = lcm(*(p * (p * p - 1) for p in primes))
        k = m * (k // m + 1)
    expected = _some_prime_rules_out(SMALL_PRIMES, n, k, P, Q, scale)
    # The first gcd takes the primes up to 23; the second, the rest, runs
    # only when those do not rule n out.
    first, rest = gcd(n, prod(FIRST)), gcd(n, prod(SMALL_PRIMES) // prod(FIRST))
    factored = [first] if first > 1 else []
    if rest > 1 and not _some_prime_rules_out(FIRST, n, k, P, Q, scale):
        factored.append(rest)
    with mock.patch.object(primality, "_probe_primes",
                           side_effect=primality._probe_primes) as spy:
        assert primality._rules_out(n, k, P, Q, scale) is expected
    seen = [call.args[0] for call in spy.call_args_list]
    assert seen == factored
