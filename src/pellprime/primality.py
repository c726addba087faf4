"""Probable-prime tests built on degree-two linear recurrences and conics.

Every test takes an odd integer n >= 3 plus parameters and returns a
:class:`Verdict`:

* ``PROBABLE_PRIME`` -- n satisfied the defining congruences;
* ``COMPOSITE`` -- a congruence failed, or a nontrivial factor surfaced
  (recorded in ``factor``);
* ``PARAMS_INVALID`` -- the parameters are degenerate for this n (even n,
  shared factors with Q, discriminant ≡ 0, identity points, ...).

A verdict never claims primality outright: composites passing a given test
with given parameters are exactly the pseudoprimes the scan module hunts.

Every test runs its ladder on every n that meets its preconditions.  The
tests whose first congruence is scale*U_k(P', Q') ≡ 0 for a Lucas sequence
(lucas, double-lucas, matrix, pell, strong-pell and gen-pell) read their
discriminant D and their gcd value Q' from :func:`first_congruence`, the
one statement of that map.  A scan settles most of their n without calling
them, from the same map and the factors its sieve records (see
:mod:`pellprime.kernel`).  It lets a sieve-proved prime pass only for a
test that every prime meeting its preconditions passes; each such test's
docstring names the theorem, and the u-companion matrix test is not one.

:func:`is_prime` is the scan's exact primality oracle, for the n its sieve
cannot decide.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from functools import lru_cache
from math import gcd

from .conic import ConicParams, conic_pow, rational_point
from .modarith import MAX_MODULUS, Factor, jacobi, pow_mod
from .recurrence import LucasParams, MatrixParams, lucas_pair, tilde_pair

__all__ = [
    "Outcome",
    "VARIANTS",
    "Verdict",
    "double_lucas_test",
    "fermat_test",
    "first_congruence",
    "generalized_pell_test",
    "is_prime",
    "lucas_test",
    "matrix_test",
    "pell_test",
    "pell_variant_test",
    "strong_base_test",
    "strong_pell_test",
    "strong_pell_test_param",
    "strong_probable_prime",
]


class Outcome(enum.Enum):
    PROBABLE_PRIME = "probable-prime"
    COMPOSITE = "composite"
    PARAMS_INVALID = "params-invalid"


class Verdict(namedtuple("Verdict",
                          "outcome evidence factor jacobi_branch stage",
                          defaults=(None, None, None, "test"))):
    """Outcome of one test run, with evidence where available.

    ``factor`` is a nontrivial divisor of n when one was found; ``evidence``
    names the failed congruence or violated precondition; ``jacobi_branch``
    records the (D/n) value that selected the exponent, when applicable;
    ``stage`` is "selector" for verdicts short-circuited during parameter
    selection and "test" otherwise.  All but ``outcome`` default to None,
    and ``stage`` to "test".  A frozen record (a named tuple).
    """

    __slots__ = ()

    @property
    def is_probable_prime(self) -> bool:
        return self.outcome is Outcome.PROBABLE_PRIME


# Verdicts without a factor are shared through this cache: building one
# costs about a tenth of a scanned candidate, and they are frozen.  Their
# evidence strings come from a fixed set, so the cache stays small; maxsize
# bounds it anyway, dropping the least recently used first.
@lru_cache(maxsize=1024)
def _verdict(outcome: Outcome, evidence: str | None = None,
             branch: int | None = None) -> Verdict:
    return Verdict(outcome, evidence=evidence, jacobi_branch=branch)


def _pp(branch: int | None = None) -> Verdict:
    return _verdict(Outcome.PROBABLE_PRIME, branch=branch)


def _composite(evidence: str, factor: int | None = None,
               branch: int | None = None) -> Verdict:
    if factor is None:
        return _verdict(Outcome.COMPOSITE, evidence, branch)
    return Verdict(Outcome.COMPOSITE, evidence=evidence, factor=factor,
                   jacobi_branch=branch)


def _invalid(evidence: str) -> Verdict:
    return _verdict(Outcome.PARAMS_INVALID, evidence)


def _check_n(n: int) -> Verdict | None:
    if not isinstance(n, int) or isinstance(n, bool):
        return _invalid("n must be an int")
    if n < 3:
        return _invalid("n must be >= 3")
    if n > MAX_MODULUS:
        return _invalid("n must be below 2**63")
    if n % 2 == 0:
        return _invalid("n must be odd")
    return None


def _branch(D: int, n: int) -> tuple[int, Verdict | None]:
    """Jacobi branch (D/n), or the early verdict forced by (D/n) = 0.

    gcd(D, n) strictly between 1 and n is a divisor of n, hence proof of
    compositeness; gcd(D, n) = n (including D = 0) makes the test
    degenerate.
    """
    j = jacobi(D, n)
    if j != 0:
        return j, None
    g = gcd(D, n)
    if g == n:
        return 0, _invalid("discriminant ≡ 0 (mod n)")
    return 0, _composite(f"gcd(discriminant, n) = {g}", factor=g, branch=0)


# ---------------------------------------------------------------------------
# base-a tests


def fermat_test(n: int, a: int) -> Verdict:
    """Fermat test: probable prime iff a**(n-1) ≡ 1 (mod n).

    Composites passing for a base are the Fermat pseudoprimes to that base
    (341 is the first one for a = 2).
    """
    bad = _check_n(n)
    if bad:
        return bad
    if not 1 < a < n:
        return _invalid("base must satisfy 1 < a < n")
    g = gcd(a, n)
    if g != 1:
        return _composite(f"gcd(a, n) = {g}", factor=g)
    if pow_mod(a, n - 1, n) != 1:
        return _composite("a^(n-1) ≢ 1 (mod n)")
    return _pp()


def strong_base_test(n: int, a: int) -> Verdict:
    """Strong (Miller-Rabin style) test to base a.

    Writing n - 1 = 2**r * s with s odd, n is a probable prime iff
    a**s ≡ 1 or a**(2**k * s) ≡ -1 (mod n) for some 0 <= k < r.
    """
    bad = _check_n(n)
    if bad:
        return bad
    if not 1 < a < n:
        return _invalid("base must satisfy 1 < a < n")
    g = gcd(a, n)
    if g != 1:
        return _composite(f"gcd(a, n) = {g}", factor=g)
    if strong_probable_prime(n, a):
        return _pp()
    return _composite("a^s ≢ 1 and a^(2^k s) ≢ -1 for all k < r")


def strong_probable_prime(n: int, a: int) -> bool:
    """The congruences of :func:`strong_base_test` alone, for odd n >= 3;
    :func:`is_prime` runs them for each of its bases."""
    r = ((n - 1) & (1 - n)).bit_length() - 1
    s = (n - 1) >> r
    x = pow_mod(a, s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


# Deterministic Miller-Rabin witnesses for all n < 2**64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# (psi_k, k): the first k prime bases are exact below psi_k, the least
# strong pseudoprime to all of them (Jaeschke 1993).
_MR_BOUNDS = ((1_373_653, 2), (25_326_001, 3), (3_215_031_751, 4),
              (2_152_302_898_747, 5), (3_474_749_660_383, 6),
              (341_550_071_728_321, 7), (3_825_123_056_546_413_051, 9))


def is_prime(n: int) -> bool:
    """Exact primality for 0 <= n < 2**64.

    Deterministic strong-base testing, with as many of the first twelve
    prime bases as n's size needs.  The primes below 38 are exactly those
    bases, and from 38 on every base is below n.
    """
    if n < 38:
        return n in _MR_BASES
    if n % 2 == 0:
        return False
    bases = _MR_BASES
    for bound, k in _MR_BOUNDS:
        if n < bound:
            bases = _MR_BASES[:k]
            break
    return all(strong_probable_prime(n, a) for a in bases)


# ---------------------------------------------------------------------------
# Lucas-sequence tests


def first_congruence(params: LucasParams | MatrixParams | ConicParams
                     ) -> tuple[int, int, int, int]:
    """(D, P', Q', scale) such that the test's first congruence is
    scale*U_k(P', Q') ≡ 0 (mod n), with k = n - (D/n).

    Q' is Q for Lucas, QR for matrix (U~_k = R*U_k of Lucas(P, QR)) and
    the base point's norm for the conics (y*U_k of Lucas(2x, x^2 - D*y^2)
    is the y of (x, y)^k).  Each test's preconditions read D and Q' here,
    and so does the scan's kernel.
    """
    if isinstance(params, ConicParams):
        D, x, y = params.D, params.x, params.y
        return D, 2 * x, x * x - D * y * y, y
    R = getattr(params, "R", 1)
    return params.discriminant, params.P, params.Q * R, R


def _lucas_pre(n: int, params: LucasParams | MatrixParams,
               evidence: str) -> tuple[int, int, Verdict | None]:
    """(D/n), Q' and the early verdict of a lucas, double-lucas or matrix
    test; ``evidence`` names the test's gcd(Q', n) > 1."""
    bad = _check_n(n)
    if bad:
        return 0, 0, bad
    D, _, q, _ = first_congruence(params)
    if gcd(q, n) != 1:
        return 0, 0, _invalid(evidence)
    j, early = _branch(D, n)
    return j, q, early


_U_NONZERO = "U_{n-(D/n)} ≢ 0 (mod n)"


def _companion(n: int, j: int, u: int, companion: int, q: int,
               evidence: str) -> Verdict:
    """The verdict of U_k ≡ 0 (failing with ``evidence``), then of the
    companion ≡ 1 when j = (D/n) = 1, or ≡ Q' when j = -1."""
    if u != 0:
        return _composite(evidence, branch=j)
    if companion != (1 % n if j == 1 else q % n):
        return _composite("companion congruence failed", branch=j)
    return _pp(j)


def lucas_test(n: int, params: LucasParams) -> Verdict:
    """Lucas test: probable prime iff U_{n-(D/n)} ≡ 0 (mod n).

    D = P^2 - 4Q; composites passing are the Lucas pseudoprimes for
    (P, Q).  With the Selfridge parameters this is OEIS A217120.  A prime
    p ∤ 2QD has U_{p-(D/p)} ≡ 0 (mod p), so every such prime passes.
    """
    j, _, early = _lucas_pre(n, params, "gcd(Q, n) > 1")
    if early:
        return early
    u_k, _ = lucas_pair(params, n - j, n)
    if u_k != 0:
        return _composite(_U_NONZERO, branch=j)
    return _pp(j)


def double_lucas_test(n: int, params: LucasParams) -> Verdict:
    """Lucas test strengthened with the companion congruence.

    Probable prime iff U_{n-1} ≡ 0 and U_n ≡ 1 when (D/n) = 1, or
    U_{n+1} ≡ 0 and U_{n+2} ≡ Q when (D/n) = -1.  Strictly stronger than
    :func:`lucas_test` for the same parameters.  A prime p ∤ 2QD has
    U_p ≡ (D/p) and, when (D/p) = -1, V_{p+1} ≡ 2Q, hence U_{p+2} ≡ Q; so
    every such prime passes.
    """
    j, q, early = _lucas_pre(n, params, "gcd(Q, n) > 1")
    if early:
        return early
    u, u_next = lucas_pair(params, n - j, n)  # (U_{n-j}, U_{n-j+1})
    return _companion(n, j, u, u_next, q, _U_NONZERO)


VARIANTS = ("u-companion", "v-companion")  # of the matrix test


def matrix_test(n: int, params: MatrixParams,
                variant: str = "u-companion") -> Verdict:
    """Test built on the sequences of the matrix [[P, -Q], [R, 0]].

    Both variants branch on the Jacobi symbol of Δ = P^2 - 4QR and require
    U~_{n-1} ≡ 0 (resp. U~_{n+1} ≡ 0).  The companion congruence differs:

    * ``"u-companion"``: U~_n ≡ 1, resp. U~_{n+2} ≡ QR.  For R ≢ ±1 these are
      not satisfied by primes (U~_p ≡ R and U~_{p+2} ≡ QR^2), so the
      variant is a pseudoprime family rather than a primality test.
    * ``"v-companion"``: V~_{n-1} ≡ 1, resp. V~_{n+1} ≡ QR.  Primes coprime to
      2QRΔ always pass (V~_k = U_{k+1} of Lucas(P, QR), and the
      :func:`double_lucas_test` argument applies); R = 1 recovers
      :func:`double_lucas_test`.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant: {variant!r}")
    j, qr, early = _lucas_pre(n, params, "gcd(QR, n) > 1")
    if early:
        return early
    v, u = tilde_pair(params, n - j, n)  # (V~_{n-j}, U~_{n-j})
    # U~_{k+1} = R * V~_k, so the u-companion conditions on U~_n / U~_{n+2}
    # are R*V~ against the same targets.
    if variant == "u-companion":
        v = params.R * v % n
    return _companion(n, j, u, v, qr, "U~_{n-(Δ/n)} ≢ 0 (mod n)")


# ---------------------------------------------------------------------------
# conic tests


def _norm_one_pre(n: int, params: ConicParams) -> tuple[int, Verdict | None]:
    bad = _check_n(n)
    if bad:
        return 0, bad
    D, _, q, _ = first_congruence(params)
    if q % n != 1 % n:
        return 0, _invalid("base point norm ≢ 1 (mod n)")
    if params.y % n == 0:
        # norm-1 points with y ≡ 0 satisfy x^2 ≡ 1, and their powers keep
        # y = 0: every n would pass vacuously.
        return 0, _invalid("degenerate base point (x, 0)")
    return _branch(D, n)


def _power(n: int, j: int, params: ConicParams, q: int,
           evidence: str) -> Verdict:
    """The verdict of (x, y)^(n-j) ≡ (1, 0) when j = (D/n) = 1, or
    ≡ (Q', 0) when j = -1, failing with ``evidence``."""
    target = (1 % n if j == 1 else q % n, 0)
    if conic_pow(params.point(n), n - j, params.D, n) != target:
        return _composite(evidence, branch=j)
    return _pp(j)


def pell_test(n: int, params: ConicParams) -> Verdict:
    """Pell test: y-coordinate of the point power (x, y)^(n-(D/n)) vanishes.

    Requires a norm-1 base point.  Equivalent to the Lucas test with
    P = 2x mod n and Q = 1; its discriminant 4Dy^2 is prime to a prime p
    that passes the preconditions, so every such prime passes.
    """
    j, early = _norm_one_pre(n, params)
    if early:
        return early
    _, y = conic_pow(params.point(n), n - j, params.D, n)
    if y != 0:
        return _composite("y_{n-(D/n)} ≢ 0 (mod n)", branch=j)
    return _pp(j)


def strong_pell_test(n: int, params: ConicParams) -> Verdict:
    """Strong Pell test: (x, y)^(n-(D/n)) ≡ (1, 0) (mod n).

    Requires a norm-1 base point; equivalent to :func:`double_lucas_test`
    with P = 2x mod n and Q = 1.  Modulo a prime p ∤ D the norm-1 points
    form a group of order p - (D/p), so every such prime passes.
    """
    j, early = _norm_one_pre(n, params)
    if early:
        return early
    return _power(n, j, params, 1, "(x, y)^{n-(D/n)} ≢ (1, 0) (mod n)")


def strong_pell_test_param(n: int, D: int, a: int) -> Verdict:
    """Strong Pell test with the base point parametrized by an integer a.

    The point is ((a^2+D)/(a^2-D), 2a/(a^2-D)) mod n, which has norm 1 by
    construction.  A nontrivial gcd(a^2 - D, n) is compositeness evidence;
    a^2 ≡ D (mod n) leaves the point undefined.
    """
    bad = _check_n(n)
    if bad:
        return bad
    pt = rational_point(a, D, n)
    if isinstance(pt, Factor):
        if pt.value == n:
            return _invalid("a^2 ≡ D (mod n): point undefined")
        return _composite(f"gcd(a^2 - D, n) = {pt.value}", factor=pt.value)
    return strong_pell_test(n, ConicParams(D, pt[0], pt[1]))


def generalized_pell_test(n: int, params: ConicParams) -> Verdict:
    """Conic test for a base point of arbitrary norm Q coprime to n.

    Probable prime iff (x, y)^(n+1) ≡ (Q, 0) when (D/n) = -1, or
    (x, y)^(n-1) ≡ (1, 0) when (D/n) = 1.  Modulo a prime p ∤ DQ, z = x +
    y√D is a unit of F_p[√D]: z^(p-1) = 1 when that ring splits, and
    z^(p+1) = z·z^p = N(z) = Q when it is the field F_{p^2}; so every
    such prime passes.
    """
    bad = _check_n(n)
    if bad:
        return bad
    D, _, q, _ = first_congruence(params)
    g = gcd(q, n)
    if g != 1:
        if g == n:
            return _invalid("base point norm ≡ 0 (mod n)")
        return _composite(f"gcd(norm, n) = {g}", factor=g)
    x0, y0 = params.point(n)
    if y0 == 0 and x0 in (1 % n, n - 1):
        return _invalid("degenerate base point (±1, 0)")
    j, early = _branch(D, n)
    if early:
        return early
    return _power(n, j, params, q,
                  "conic power ≢ (norm branch target) (mod n)")


def pell_variant_test(n: int) -> Verdict:
    """Parameterless variant on the Pell sequence (P=2, Q=-1): OEIS A099011.

    Probable prime iff U_n ≡ (2/n) (mod n); the first composite passing is
    169.
    """
    bad = _check_n(n)
    if bad:
        return bad
    u_n, _ = lucas_pair(LucasParams(2, -1), n, n)
    j = jacobi(2, n)
    if u_n != j % n:
        return _composite("U_n ≢ (2/n) (mod n)", branch=j)
    return _pp(j)
