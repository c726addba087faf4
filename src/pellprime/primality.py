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

The tests whose first congruence is U_k ≡ 0 for a Lucas sequence (lucas,
double-lucas, matrix, pell, strong-pell and gen-pell) take a keyword-only
``sieve``: a :class:`~pellprime.sieve.Segment` covering n.  After every
precondition, and before the ladder, such a test asks the segment whether
a prime factor of n already proves that congruence false; if so it returns
the COMPOSITE verdict the ladder would have given, with ``stage="sieve"``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import gcd
from typing import TYPE_CHECKING

from .conic import ConicParams, conic_pow, rational_point
from .modarith import MAX_MODULUS, Factor, jacobi, pow_mod
from .recurrence import LucasParams, MatrixParams, lucas_pair, tilde_pair

if TYPE_CHECKING:
    from .sieve import Segment

__all__ = [
    "Outcome",
    "Verdict",
    "double_lucas_test",
    "fermat_test",
    "generalized_pell_test",
    "lucas_test",
    "matrix_test",
    "pell_test",
    "pell_variant_test",
    "strong_base_test",
    "strong_pell_test",
    "strong_pell_test_param",
]


class Outcome(enum.Enum):
    PROBABLE_PRIME = "probable-prime"
    COMPOSITE = "composite"
    PARAMS_INVALID = "params-invalid"


@dataclass(frozen=True)
class Verdict:
    """Outcome of one test run, with evidence where available.

    ``factor`` is a nontrivial divisor of n when one was found; ``evidence``
    names the failed congruence or violated precondition; ``jacobi_branch``
    records the (D/n) value that selected the exponent, when applicable;
    ``stage`` is "selector" for verdicts short-circuited during parameter
    selection, "sieve" for composites a scan's factor sieve settled before
    the ladder ran, and "test" otherwise.
    """

    outcome: Outcome
    evidence: str | None = None
    factor: int | None = None
    jacobi_branch: int | None = None
    stage: str = "test"

    @property
    def is_probable_prime(self) -> bool:
        return self.outcome is Outcome.PROBABLE_PRIME


def _pp(branch: int | None = None) -> Verdict:
    return Verdict(Outcome.PROBABLE_PRIME, jacobi_branch=branch)


def _composite(evidence: str, factor: int | None = None,
               branch: int | None = None, stage: str = "test") -> Verdict:
    return Verdict(Outcome.COMPOSITE, evidence=evidence, factor=factor,
                   jacobi_branch=branch, stage=stage)


def _invalid(evidence: str) -> Verdict:
    return Verdict(Outcome.PARAMS_INVALID, evidence=evidence)


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
    s = n - 1
    r = 0
    while s % 2 == 0:
        s //= 2
        r += 1
    x = pow_mod(a, s, n)
    if x == 1 or x == n - 1:
        return _pp()
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return _pp()
    return _composite("a^s ≢ 1 and a^(2^k s) ≢ -1 for all k < r")


# ---------------------------------------------------------------------------
# Lucas-sequence tests


def _lucas_pre(n: int, params: LucasParams) -> tuple[int, Verdict | None]:
    bad = _check_n(n)
    if bad:
        return 0, bad
    if gcd(params.Q, n) != 1:
        return 0, _invalid("gcd(Q, n) > 1")
    return _branch(params.discriminant, n)


_U_NONZERO = "U_{n-(D/n)} ≢ 0 (mod n)"


def lucas_test(n: int, params: LucasParams, *,
               sieve: Segment | None = None) -> Verdict:
    """Lucas test: probable prime iff U_{n-(D/n)} ≡ 0 (mod n).

    D = P^2 - 4Q; composites passing are the Lucas pseudoprimes for
    (P, Q).  With the Selfridge parameters this is OEIS A217120.
    """
    j, early = _lucas_pre(n, params)
    if early:
        return early
    if sieve is not None and sieve.rules_out(n, params.P, params.Q, n - j):
        return _composite(_U_NONZERO, branch=j, stage="sieve")
    u_k, _ = lucas_pair(params, n - j, n)
    if u_k != 0:
        return _composite(_U_NONZERO, branch=j)
    return _pp(j)


def double_lucas_test(n: int, params: LucasParams, *,
                      sieve: Segment | None = None) -> Verdict:
    """Lucas test strengthened with the companion congruence.

    Probable prime iff U_{n-1} ≡ 0 and U_n ≡ 1 when (D/n) = 1, or
    U_{n+1} ≡ 0 and U_{n+2} ≡ Q when (D/n) = -1.  Strictly stronger than
    :func:`lucas_test` for the same parameters.
    """
    j, early = _lucas_pre(n, params)
    if early:
        return early
    if sieve is not None and sieve.rules_out(n, params.P, params.Q, n - j):
        return _composite(_U_NONZERO, branch=j, stage="sieve")
    if j == 1:
        u, u_next = lucas_pair(params, n - 1, n)  # (U_{n-1}, U_n)
        target = 1 % n
    else:
        u, u_next = lucas_pair(params, n + 1, n)  # (U_{n+1}, U_{n+2})
        target = params.Q % n
    if u != 0:
        return _composite(_U_NONZERO, branch=j)
    if u_next != target:
        return _composite("companion congruence failed", branch=j)
    return _pp(j)


def matrix_test(n: int, params: MatrixParams, variant: str = "u-companion", *,
                sieve: Segment | None = None) -> Verdict:
    """Test built on the sequences of the matrix [[P, -Q], [R, 0]].

    Both variants branch on the Jacobi symbol of Δ = P^2 - 4QR and require
    U~_{n-1} ≡ 0 (resp. U~_{n+1} ≡ 0).  The companion congruence differs:

    * ``"u-companion"``: U~_n ≡ 1, resp. U~_{n+2} ≡ QR.  For R ≢ ±1 these are
      not satisfied by primes (U~_p ≡ R and U~_{p+2} ≡ QR^2), so the
      variant is a pseudoprime family rather than a primality test.
    * ``"v-companion"``: V~_{n-1} ≡ 1, resp. V~_{n+1} ≡ QR.  Primes coprime to
      2QRΔ always pass; R = 1 recovers :func:`double_lucas_test`.
    """
    if variant not in ("u-companion", "v-companion"):
        raise ValueError(f"unknown variant: {variant!r}")
    bad = _check_n(n)
    if bad:
        return bad
    qr = params.Q * params.R
    if gcd(qr, n) != 1:
        return _invalid("gcd(QR, n) > 1")
    j, early = _branch(params.discriminant, n)
    if early:
        return early
    evidence = "U~_{n-(Δ/n)} ≢ 0 (mod n)"
    # U~_k = R * U_k of Lucas(P, QR)
    if sieve is not None and sieve.rules_out(n, params.P, qr, n - j, params.R):
        return _composite(evidence, branch=j, stage="sieve")
    if j == 1:
        v, u = tilde_pair(params, n - 1, n)  # (V~_{n-1}, U~_{n-1})
        target = 1 % n
    else:
        v, u = tilde_pair(params, n + 1, n)  # (V~_{n+1}, U~_{n+1})
        target = qr % n
    if u != 0:
        return _composite(evidence, branch=j)
    # U~_{k+1} = R * V~_k, so the u-companion conditions on U~_n / U~_{n+2}
    # are R*V~ against the same targets.
    companion = params.R * v % n if variant == "u-companion" else v
    if companion != target:
        return _composite("companion congruence failed", branch=j)
    return _pp(j)


# ---------------------------------------------------------------------------
# conic tests


def _norm_one_pre(n: int, params: ConicParams) -> tuple[int, Verdict | None]:
    bad = _check_n(n)
    if bad:
        return 0, bad
    if params.norm_mod(n) != 1 % n:
        return 0, _invalid("base point norm ≢ 1 (mod n)")
    if params.y % n == 0:
        # norm-1 points with y ≡ 0 satisfy x^2 ≡ 1, and their powers keep
        # y = 0: every n would pass vacuously.
        return 0, _invalid("degenerate base point (x, 0)")
    return _branch(params.D, n)


def _conic_ruled_out(sieve: Segment | None, n: int, params: ConicParams,
                     k: int) -> bool:
    """Whether the sieve proves the y-coordinate of (x, y)^k nonzero mod n.

    That coordinate is y*U_k of Lucas(2x, x^2 - D*y^2); the unreduced
    parameters agree with the reduced point modulo every factor of n.
    """
    if sieve is None:
        return False
    x, y = params.x, params.y
    return sieve.rules_out(n, 2 * x, x * x - params.D * y * y, k, y)


def pell_test(n: int, params: ConicParams, *,
              sieve: Segment | None = None) -> Verdict:
    """Pell test: y-coordinate of the point power (x, y)^(n-(D/n)) vanishes.

    Requires a norm-1 base point.  Equivalent to the Lucas test with
    P = 2x mod n and Q = 1.
    """
    j, early = _norm_one_pre(n, params)
    if early:
        return early
    evidence = "y_{n-(D/n)} ≢ 0 (mod n)"
    if _conic_ruled_out(sieve, n, params, n - j):
        return _composite(evidence, branch=j, stage="sieve")
    _, y = conic_pow(params.point(n), n - j, params.D, n)
    if y != 0:
        return _composite(evidence, branch=j)
    return _pp(j)


def strong_pell_test(n: int, params: ConicParams, *,
                     sieve: Segment | None = None) -> Verdict:
    """Strong Pell test: (x, y)^(n-(D/n)) ≡ (1, 0) (mod n).

    Requires a norm-1 base point; equivalent to :func:`double_lucas_test`
    with P = 2x mod n and Q = 1.
    """
    j, early = _norm_one_pre(n, params)
    if early:
        return early
    evidence = "(x, y)^{n-(D/n)} ≢ (1, 0) (mod n)"
    if _conic_ruled_out(sieve, n, params, n - j):
        return _composite(evidence, branch=j, stage="sieve")
    x, y = conic_pow(params.point(n), n - j, params.D, n)
    if (x, y) != (1 % n, 0):
        return _composite(evidence, branch=j)
    return _pp(j)


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


def generalized_pell_test(n: int, params: ConicParams, *,
                          sieve: Segment | None = None) -> Verdict:
    """Conic test for a base point of arbitrary norm Q coprime to n.

    Probable prime iff (x, y)^(n+1) ≡ (Q, 0) when (D/n) = -1, or
    (x, y)^(n-1) ≡ (1, 0) when (D/n) = 1.
    """
    bad = _check_n(n)
    if bad:
        return bad
    q = params.norm_mod(n)
    g = gcd(q, n)
    if g != 1:
        if g == n:
            return _invalid("base point norm ≡ 0 (mod n)")
        return _composite(f"gcd(norm, n) = {g}", factor=g)
    x0, y0 = params.point(n)
    if y0 == 0 and x0 in (1 % n, n - 1):
        return _invalid("degenerate base point (±1, 0)")
    j, early = _branch(params.D, n)
    if early:
        return early
    if j == 1:
        k, target = n - 1, (1 % n, 0)
    else:
        k, target = n + 1, (q, 0)
    evidence = "conic power ≢ (norm branch target) (mod n)"
    if _conic_ruled_out(sieve, n, params, k):
        return _composite(evidence, branch=j, stage="sieve")
    if conic_pow((x0, y0), k, params.D, n) != target:
        return _composite(evidence, branch=j)
    return _pp(j)


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
