"""The per-n tests' small-factor probe against the congruences themselves.

Before its ladder, each test whose first congruence is
scale*U_k(P', Q') ≡ 0 (mod n), and the two base-a tests, looks for the odd
primes of n below ``primality._PROBE_BOUND`` and rules n out from one of
them when it can.  Here every test's verdict is compared with that of a
reference (the ``ref_*`` functions), which evaluates the test's
preconditions and congruences directly, with the 2x2 matrix power of
tests/oracles.py and no probe.  The n drawn are p*m for a prime p below the bound, with
parameters whose scale or gcd value may share p.
"""

from __future__ import annotations

import random
import time
from math import gcd

import pytest

from oracles import mat_apply, mat_pow
from pellprime import primality
from pellprime.conic import ConicParams
from pellprime.modarith import jacobi
from pellprime.primality import (
    Outcome,
    Verdict,
    double_lucas_test,
    fermat_test,
    generalized_pell_test,
    lucas_test,
    matrix_test,
    pell_test,
    strong_base_test,
    strong_pell_test,
    strong_pell_test_param,
)
from pellprime.recurrence import LucasParams, MatrixParams
from pellprime.selectors import (
    lucas_selfridge,
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
