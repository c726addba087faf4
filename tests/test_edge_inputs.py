"""Edge inputs at the test level, checked against matrix-power oracles.

Every method runs on n next to 2**63 (2**63 - 25 is the largest prime below
it, 2**63 - 1 = 7**2 * 73 * 127 * 337 * 92737 * 649657), on tiny n that
divide a Selfridge candidate, and with parameters of absolute value at
least 2**70.  Each must return a structured Verdict; each prime must pass
(tiny primes may make fixed parameters degenerate instead, and the
u-companion matrix test is no primality test); and every verdict that
reached its congruences must agree with an oracle built from ``mat_pow``
and ``brahmagupta`` alone.  On the windows around these n, a scan chunk
must give what the per-n test and the primality oracle give.
"""

import pytest

from oracles import brahmagupta, mat_apply, mat_pow, reference_scan
from pellprime import search
from pellprime.modarith import _jacobi
from pellprime.primality import Outcome, Verdict
from pellprime.search import build_test, is_prime
from pellprime.selectors import (
    selfridge_classic,
    selfridge_gen_pell,
    selfridge_matrix,
)
from pellprime.sieve import SIEVE_CAP, sieve_limit

TOP = 2**63
BIG_N = [TOP - 25, TOP - 23, TOP - 3, TOP - 1]
TINY_N = [3, 5, 7, 9, 11, 13, 15, 21]

M = 2**36 + 5  # (M, 1) has norm 1 on x^2 - (M^2 - 1) y^2, and M^2 - 1 > 2**70
S = {"selfridge": True}
CONFIGS = [
    ("fermat", {"a": 2}),
    ("strong-base", {"a": 3}),
    ("lucas", S),
    ("double-lucas", S),
    ("matrix", S),
    ("matrix", {**S, "variant": "u-companion"}),
    ("gen-pell", S),
    ("pell-variant", {}),
    ("lucas", {"P": 2**70 + 3, "Q": -(2**71 + 5)}),
    ("double-lucas", {"P": -(2**72 + 1), "Q": 2**70 + 9}),
    ("matrix", {"P": 2**70 + 1, "Q": -(2**70 + 3), "R": 2**71 + 7,
                "variant": "v-companion"}),
    ("matrix", {"P": -(2**70 + 1), "Q": 2**70 + 3, "R": -(2**71 + 7),
                "variant": "u-companion"}),
    ("pell", {"D": M * M - 1, "x": M, "y": 1}),
    ("pell", {"D": 3, "x": 2, "y": 1}),
    ("strong-pell", {"D": M * M - 1, "x": -M, "y": -1}),
    ("strong-pell", {"D": 3, "a": 2**70 + 1}),
    ("gen-pell", {"D": -(2**70 + 7), "x": 2**70 + 1, "y": 3}),
    ("gen-pell", {"D": 2**71 + 1, "x": -5, "y": 2**70 + 3}),
]


def _u(P, Q, k, n):
    """(U_k, U_{k+1}) of Lucas(P, Q) mod n by the 2x2 matrix power."""
    u_next, u = mat_apply(mat_pow((P, -Q, 1, 0), k, n), (1, 0), n)
    return u, u_next


def _point_pow(point, k, D, n):
    """point**k on x^2 - D y^2 by square-and-multiply Brahmagupta products."""
    result = (1 % n, 0)
    while k:
        if k & 1:
            result = brahmagupta(result, point, D, n)
        point = brahmagupta(point, point, D, n)
        k >>= 1
    return result


def _strong(a, n):
    s, r = n - 1, 0
    while s % 2 == 0:
        s, r = s // 2, r + 1
    x = pow(a, s, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _lucas_family(method, P, Q, R, variant, n):
    D = P * P - 4 * Q * R
    j = _jacobi(D, n)
    k = n - j
    v_tilde, u_tilde = mat_apply(mat_pow((P, -Q, R, 0), k, n), (1, 0), n)
    if u_tilde:
        return False
    if method == "lucas":
        return True
    target = 1 % n if j == 1 else Q * R % n
    companion = v_tilde if variant == "v-companion" else R * v_tilde % n
    return companion == target


def _conic(method, D, x, y, n):
    j = _jacobi(D, n)
    if method == "gen-pell":
        q = (x * x - D * y * y) % n
        k, target = (n - 1, (1 % n, 0)) if j == 1 else (n + 1, (q, 0))
        return _point_pow((x % n, y % n), k, D, n) == target
    power = _point_pow((x % n, y % n), n - j, D, n)
    return power[1] == 0 if method == "pell" else power == (1 % n, 0)


def oracle_passes(method, params, n):
    """Whether n satisfies the method's congruences, for the parameters the
    method uses at n (None when the Selfridge walk settles n itself)."""
    if method == "fermat":
        return pow(params["a"], n - 1, n) == 1
    if method == "strong-base":
        return _strong(params["a"], n)
    if method == "pell-variant":
        return _u(2, -1, n, n)[0] == _jacobi(2, n) % n
    if method in ("lucas", "double-lucas", "matrix"):
        variant = params.get("variant") or "v-companion"
        if params.get("selfridge"):
            chosen = (selfridge_matrix if method == "matrix"
                      else selfridge_classic)(n)
            if isinstance(chosen, Verdict):
                return None
            P, Q, R = chosen.P, chosen.Q, getattr(chosen, "R", 1)
        else:
            P, Q, R = params["P"], params["Q"], params.get("R", 1)
        return _lucas_family(method, P, Q, R, variant, n)
    if params.get("selfridge"):
        chosen = selfridge_gen_pell(n)
        if isinstance(chosen, Verdict):
            return None
        return _conic(method, chosen.D, chosen.x, chosen.y, n)
    D = params["D"]
    if "a" in params:  # the point ((a^2 + D)/(a^2 - D), 2a/(a^2 - D))
        a = params["a"]
        inv = pow(a * a - D, -1, n)
        return _conic(method, D, (a * a + D) * inv, 2 * a * inv, n)
    return _conic(method, D, params["x"], params["y"], n)


def check(method, params, n, verdict):
    assert isinstance(verdict, Verdict), verdict
    if verdict.outcome is Outcome.PARAMS_INVALID:
        # Every n here is odd and in [3, 2**63): only parameters may fail.
        assert not verdict.evidence.startswith("n must"), (n, verdict)
    if verdict.factor is not None:
        assert 1 < verdict.factor < n and n % verdict.factor == 0, verdict
    if is_prime(n) and params.get("variant") != "u-companion":
        if n in TINY_N and not params.get("selfridge"):
            assert verdict.outcome is not Outcome.COMPOSITE, (n, verdict)
        else:
            assert verdict.is_probable_prime, (n, verdict)
    if (verdict.outcome is Outcome.PARAMS_INVALID
            or verdict.factor is not None or verdict.stage == "selector"):
        return
    assert oracle_passes(method, params, n) == verdict.is_probable_prime, \
        (n, verdict)


@pytest.mark.parametrize("method, params", CONFIGS)
def test_edge_inputs_agree_with_the_oracles(method, params):
    test, _ = build_test(method, params)
    for n in BIG_N + TINY_N:
        check(method, params, n, test(n))


@pytest.mark.parametrize("method, params", CONFIGS)
def test_scan_chunk_on_the_edge_windows(method, params):
    # The kernel settles what it can of a form with a _Bulk; the other
    # methods run the per-n test on every n of the window.
    for lo, hi in ((TOP - 201, TOP - 1), (3, 21)):
        limit = sieve_limit(hi)
        assert limit == (SIEVE_CAP if hi > 2**40 else 4)
        assert (search._scan_chunk(method, params, lo, hi, limit)
                == reference_scan(method, params, lo, hi, limit)), (lo, hi)


def test_edge_moduli_are_what_they_claim():
    assert is_prime(TOP - 25)
    assert not any(is_prime(n) for n in range(TOP - 23, TOP, 2))
    assert TOP - 1 == 7**2 * 73 * 127 * 337 * 92737 * 649657
    # Each tiny n divides one of the first candidates of the classic walk
    # (5, -7, 9, -11, 13, -15, 17, -19, 21) or of the matrix walk (-7, 9,
    # -15, 17, -23, 25, -31, 33).
    walks = (5, -7, 9, -11, 13, -15, 17, -19, 21, -23, 25, -31, 33)
    for n in TINY_N:
        assert any(d % n == 0 for d in walks), n
