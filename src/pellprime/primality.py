"""Probable-prime tests built on degree-two linear recurrences and conics.

Every test takes an odd int n in [3, 2**63) plus parameters and returns
a :class:`Verdict`:

* ``PROBABLE_PRIME`` -- n satisfied the defining congruences;
* ``COMPOSITE`` -- a congruence failed, or a nontrivial factor surfaced
  (recorded in ``factor``);
* ``PARAMS_INVALID`` -- the parameters are degenerate for this n (even n,
  shared factors with Q, discriminant ≡ 0, identity points, ...).

A verdict never claims primality outright: composites passing a given test
with given parameters are exactly the pseudoprimes the scan module hunts.

One guard sits on every public test (:func:`_guard`): any other n gets the
``PARAMS_INVALID`` verdict that names the failed condition, before any
other check.  Each guarded test keeps its unguarded body as
``__wrapped__``; the Selfridge forms of :mod:`pellprime.selectors` call
it, because their walk has run the same check, so the check runs once
per verdict.

The tests whose first congruence is scale*U_k(P', Q') ≡ 0 for a Lucas
sequence (lucas, double-lucas, matrix, pell, strong-pell and gen-pell)
read their discriminant D and their gcd value Q' from
:func:`first_congruence`, the one statement of that map, and each ends
its ladder in one check, :func:`_conclude`: the first congruence's value
≡ 0, then, for double-lucas, matrix, strong-pell and gen-pell, the
companion ≡ 1 when (D/n) = 1 and ≡ Q' when (D/n) = -1.  Before its
ladder, each applies the scan kernel's rank theorem to the primes of n
below a small bound (:func:`_rules_out`), and so do fermat and
strong-base, whose a^(n-1) ≡ 1 is that congruence for Lucas(a + 1, a)
with scale a - 1.  The probe takes the primes 3 to 23 first, with a short
gcd, and the rest only when those do not rule n out; it keeps the
factorisations it meets in a small cache, and reads each prime's rank of
apparition from the rank table of (P', Q') that the scan's checker reads
too, so it runs no ladder of its own.  Most n with such a prime are
settled there, by proof and not as a prefilter: a composite gets exactly
the verdict its ladder would give, and the Selfridge Lucas pseudoprime
323 = 17*19 still passes.  strong-pell-param probes with its point's pair
scaled by a^2 - D, which does not depend on n, so all its verdicts for
one (D, a) read one table.  Every other n that meets the preconditions runs the ladder, as
does every n of pell-variant.  A scan settles most n of the Lucas-family
tests without calling them, from the same map and the factors its sieve
records (see :mod:`pellprime.kernel`).  It lets a sieve-proved prime pass
only for a test that every prime meeting its preconditions passes; each
such test's docstring names the theorem, and the u-companion matrix test
is not one.

:func:`is_prime` is the scan's exact primality oracle, for the n its sieve
cannot decide.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from collections.abc import Callable
from functools import cache, lru_cache, wraps
from math import gcd, isqrt, prod

from .conic import ConicParams, conic_pow, rational_point
from .modarith import MAX_MODULUS, Factor, jacobi, pow_mod
from .recurrence import (LucasParams, MatrixParams, _pair_tables, _rank_tables,
                         lucas_pair, rank_of_apparition, tilde_pair)

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


def _guard(test: Callable[..., Verdict]) -> Callable[..., Verdict]:
    """The test behind one guard: an n that :func:`_check_n` rejects gets
    its params-invalid verdict, before any other check.  The guarded test
    keeps its name, docstring and signature, and its unguarded body as
    ``__wrapped__``, for a caller that has run the check itself."""
    @wraps(test)
    def guarded(n, *args, **kwargs):
        return _check_n(n) or test(n, *args, **kwargs)
    return guarded


# The per-n tests look for the odd primes of n below this bound (see
# _rules_out).  Each prime found costs a rank lookup, and the gcd with the
# primes from 29 to the bound is paid by every n that the primes up to 23
# do not rule out, so the trade-off is that gcd against the ladders saved.
# Over gen-pell+Selfridge verdicts on 4096 consecutive odd n near 2**34 and
# near 2**62 (tools/ab_verdicts.py, 16 rounds, a shared 2-vCPU x86 box,
# Python 3.11), the bounds 2**8, 2**9 and 2**10 ruled out 31%, 35% and 37%
# of n at both sizes.  Against 2**9, 2**8 gave a verdict median 7% (2**34)
# and 5% (2**62) lower but a mean 0.5% and 5.6% higher; 2**10 gave a median
# 7% higher at both sizes, and a mean 3.4% higher and 2.6% lower.  2**9
# keeps the mean near its lowest at both sizes.
_PROBE_BOUND = 1 << 9
# The odd primes up to 23, of which two odd n in three have one: the probe's
# first gcd, which is short, takes them alone.
_FIRST_PRIMES = 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23
# The number of odd primes below _PROBE_BOUND: the entries of a rank table
# that the probe reads.
_PROBE_RANKS = 96


@cache
def _probe_table() -> tuple[int, dict[int, int]]:
    """The product of the odd primes from 29 to below _PROBE_BOUND, and the
    index of each odd prime below the bound, ascending: they are the
    first odd primes, so each one's index is its index in the rank tables
    of :func:`~pellprime.recurrence._rank_tables`.  Built when a verdict
    first needs it, so importing costs nothing."""
    primes = [p for p in range(3, _PROBE_BOUND, 2)
              if all(p % q for q in range(3, isqrt(p) + 1, 2))]
    return prod(primes) // _FIRST_PRIMES, {p: i for i, p in enumerate(primes)}


# The products of primes below the bound that n has are mostly one prime
# alone, so the few the probe meets are factored once and kept.
@lru_cache(maxsize=512)
def _probe_primes(g: int) -> tuple[tuple[int, int], ...]:
    """(index, p) for each prime p of g, a product of distinct odd primes
    below _PROBE_BOUND, ascending."""
    return tuple((i, p) for p, i in _probe_table()[1].items() if not g % p)


def _rules_out(n: int, k: int, P: int, Q: int, scale: int) -> bool:
    """Whether an odd prime p < _PROBE_BOUND of n proves scale*U_k(P, Q)
    ≢ 0 (mod n), for the first congruence (P, Q, scale) of a test whose
    preconditions hold, so that n shares no prime with Q.

    scale*U_k ≡ 0 holds mod each such p, and gives U_k ≡ 0 (mod p) when
    p ∤ scale, which holds exactly when the rank of apparition of p
    divides k (Baillie and Wagstaff, *Lucas pseudoprimes*, 1980).  The
    primes come from two gcds: first with the product of the primes 3 to
    23, then, only when those do not rule n out, with that of the rest.
    It is a proof, not a prefilter: a pseudoprime with small factors,
    such as 323 = 17*19 for Selfridge's D = 5, whose ranks 9 and 18
    divide 324, is not ruled out.
    """
    g = gcd(n, _FIRST_PRIMES)
    if g > 1 and _ranks_rule_out(g, k, P, Q, scale):
        return True
    g = gcd(n, _probe_table()[0])
    return g > 1 and _ranks_rule_out(g, k, P, Q, scale)


def _ranks_rule_out(g: int, k: int, P: int, Q: int, scale: int) -> bool:
    """Whether a prime p ∤ scale of g > 1, a product of distinct odd primes
    below _PROBE_BOUND, has a rank of apparition in (P, Q) that does not
    divide k.

    The ranks are read from the rank table of (P, Q) that the scan's
    checker reads for its sieve's factors, straight from its cache once
    it has an entry for each prime below the bound, and a rank not there
    yet is computed and stored.  An n with no prime below the bound never
    gets here, so it does not look the table up.
    """
    ranks = _pair_tables(P, Q)[0]
    if len(ranks) < _PROBE_RANKS:
        ranks = _rank_tables(P, Q, _PROBE_RANKS)[0]
    for i, p in _probe_primes(g):
        if scale % p:
            rank = ranks[i]
            if not rank:
                rank = ranks[i] = rank_of_apparition(P, Q, p)
            if k % rank:
                return True
    return False


def _branch(n: int, congruence: tuple[int, int, int, int],
            failed: str) -> tuple[int, Verdict | None]:
    """Jacobi branch (D/n) of the first congruence (D, P', Q', scale), and
    the verdict that settles n before the ladder, if any.

    gcd(D, n) strictly between 1 and n is a divisor of n, hence proof of
    compositeness; gcd(D, n) = n (including D = 0) makes the test
    degenerate.  The test's other preconditions have held when this runs,
    so :func:`_rules_out` applies, and n it rules out fail with
    ``failed``, the evidence of the ladder's failure, as the ladder would.
    """
    D, P, Q, scale = congruence
    j = jacobi(D, n)
    if j == 0:
        g = gcd(D, n)
        if g == n:
            return 0, _invalid("discriminant ≡ 0 (mod n)")
        return 0, _composite(f"gcd(discriminant, n) = {g}", factor=g,
                             branch=0)
    if _rules_out(n, n - j, P, Q, scale):
        return j, _composite(failed, branch=j)
    return j, None


# ---------------------------------------------------------------------------
# base-a tests

# a^k - 1 = (a - 1)*U_k(a + 1, a), so a^(n-1) ≡ 1 (mod n) is the first
# congruence (a - 1)*U_{n-1} ≡ 0 of Lucas(a + 1, a) with scale a - 1, and
# _rules_out applies to it: the rank of a prime p ∤ a(a - 1) is the order of
# a mod p, and the scale skips the p | a - 1, where a ≡ 1.  A strong pass
# implies a Fermat pass, so what it rules out fails both tests, and the two
# share their preconditions and that probe (_base_pre) before their rounds.


def _base_pre(n: int, a: int, failed: str) -> Verdict | None:
    """The early verdict of a fermat or strong-base test to base a, or None:
    params-invalid unless 1 < a < n, composite with the factor gcd(a, n)
    when that is not 1, and composite with ``failed``, the evidence of the
    test's round failing, when the probe on (a + 1, a, a - 1) rules n out."""
    if not 1 < a < n:
        return _invalid("base must satisfy 1 < a < n")
    g = gcd(a, n)
    if g != 1:
        return _composite(f"gcd(a, n) = {g}", factor=g)
    if _rules_out(n, n - 1, a + 1, a, a - 1):
        return _composite(failed)
    return None


_FERMAT_FAILED = "a^(n-1) ≢ 1 (mod n)"


@_guard
def fermat_test(n: int, a: int) -> Verdict:
    """Fermat test: probable prime iff a**(n-1) ≡ 1 (mod n).

    Composites passing for a base are the Fermat pseudoprimes to that base
    (341 is the first one for a = 2).
    """
    return _base_pre(n, a, _FERMAT_FAILED) or (
        _pp() if pow_mod(a, n - 1, n) == 1 else _composite(_FERMAT_FAILED))


_STRONG_FAILED = "a^s ≢ 1 and a^(2^k s) ≢ -1 for all k < r"


@_guard
def strong_base_test(n: int, a: int) -> Verdict:
    """Strong (Miller-Rabin style) test to base a.

    Writing n - 1 = 2**r * s with s odd, n is a probable prime iff
    a**s ≡ 1 or a**(2**k * s) ≡ -1 (mod n) for some 0 <= k < r.
    """
    return _base_pre(n, a, _STRONG_FAILED) or (
        _pp() if strong_probable_prime(n, a) else _composite(_STRONG_FAILED))


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
    k = next((k for bound, k in _MR_BOUNDS if n < bound), len(_MR_BASES))
    return all(strong_probable_prime(n, a) for a in _MR_BASES[:k])


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


def _lucas_pre(n: int, params: LucasParams | MatrixParams, shared: str,
               failed: str) -> tuple[int, int, Verdict | None]:
    """(D/n), Q' and the early verdict of a lucas, double-lucas or matrix
    test; ``shared`` names the test's gcd(Q', n) > 1, and ``failed`` its
    first congruence's failure (see :func:`_branch`)."""
    congruence = first_congruence(params)
    q = congruence[2]
    if gcd(q, n) != 1:
        return 0, 0, _invalid(shared)
    j, early = _branch(n, congruence, failed)
    return j, q, early


_U_NONZERO = "U_{n-(D/n)} ≢ 0 (mod n)"


def _conclude(n: int, j: int, u: int, failed: str,
              companion: int | None = None, q: int = 1,
              unmet: str = "companion congruence failed") -> Verdict:
    """The verdict of a Lucas-family test from its ladder's output, on
    the branch j = (D/n): composite with ``failed`` unless u, the value of
    its first congruence, is ≡ 0; then, for a test with a companion,
    composite with ``unmet`` unless the companion is ≡ 1 when j = 1, or
    ≡ Q' (``q``) when j = -1.  The six tests of the family and
    :func:`pell_variant_test` all end here."""
    if u != 0:
        return _composite(failed, branch=j)
    if companion is not None and companion != (1 if j == 1 else q % n):
        return _composite(unmet, branch=j)
    return _pp(j)


@_guard
def lucas_test(n: int, params: LucasParams) -> Verdict:
    """Lucas test: probable prime iff U_{n-(D/n)} ≡ 0 (mod n).

    D = P^2 - 4Q; composites passing are the Lucas pseudoprimes for
    (P, Q).  With the Selfridge parameters this is OEIS A217120.  A prime
    p ∤ 2QD has U_{p-(D/p)} ≡ 0 (mod p), so every such prime passes.
    """
    j, _, early = _lucas_pre(n, params, "gcd(Q, n) > 1", _U_NONZERO)
    if early:
        return early
    return _conclude(n, j, lucas_pair(params, n - j, n)[0], _U_NONZERO)


@_guard
def double_lucas_test(n: int, params: LucasParams) -> Verdict:
    """Lucas test strengthened with the companion congruence.

    Probable prime iff U_{n-1} ≡ 0 and U_n ≡ 1 when (D/n) = 1, or
    U_{n+1} ≡ 0 and U_{n+2} ≡ Q when (D/n) = -1.  Strictly stronger than
    :func:`lucas_test` for the same parameters.  A prime p ∤ 2QD has
    U_p ≡ (D/p) and, when (D/p) = -1, V_{p+1} ≡ 2Q, hence U_{p+2} ≡ Q; so
    every such prime passes.
    """
    j, q, early = _lucas_pre(n, params, "gcd(Q, n) > 1", _U_NONZERO)
    if early:
        return early
    u, u_next = lucas_pair(params, n - j, n)  # (U_{n-j}, U_{n-j+1})
    return _conclude(n, j, u, _U_NONZERO, u_next, q)


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

    An unknown variant raises ValueError whatever n is, so the variant is
    checked before the guard runs.  Its ``__wrapped__`` is the body behind
    both checks, for a caller that has made them.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant: {variant!r}")
    return _matrix_test(n, params, variant)


@_guard
def _matrix_test(n: int, params: MatrixParams,
                 variant: str = "u-companion") -> Verdict:
    """:func:`matrix_test` for a known variant."""
    failed = "U~_{n-(Δ/n)} ≢ 0 (mod n)"
    j, qr, early = _lucas_pre(n, params, "gcd(QR, n) > 1", failed)
    if early:
        return early
    v, u = tilde_pair(params, n - j, n)  # (V~_{n-j}, U~_{n-j})
    # U~_{k+1} = R * V~_k, so the u-companion conditions on U~_n / U~_{n+2}
    # are R*V~ against the same targets.
    if variant == "u-companion":
        v = params.R * v % n
    return _conclude(n, j, u, failed, v, qr)


matrix_test.__wrapped__ = _matrix_test.__wrapped__


# ---------------------------------------------------------------------------
# conic tests


def _norm_one_pre(n: int, params: ConicParams,
                  failed: str) -> tuple[int, Verdict | None]:
    """(D/n) and the early verdict of a pell or strong-pell test; ``failed``
    names its first congruence's failure (see :func:`_branch`)."""
    congruence = first_congruence(params)
    if congruence[2] % n != 1 % n:
        return 0, _invalid("base point norm ≢ 1 (mod n)")
    if params.y % n == 0:
        # norm-1 points with y ≡ 0 satisfy x^2 ≡ 1, and their powers keep
        # y = 0: every n would pass vacuously.
        return 0, _invalid("degenerate base point (x, 0)")
    return _branch(n, congruence, failed)


@_guard
def pell_test(n: int, params: ConicParams) -> Verdict:
    """Pell test: y-coordinate of the point power (x, y)^(n-(D/n)) vanishes.

    Requires a norm-1 base point.  Equivalent to the Lucas test with
    P = 2x mod n and Q = 1; its discriminant 4Dy^2 is prime to a prime p
    that passes the preconditions, so every such prime passes.
    """
    failed = "y_{n-(D/n)} ≢ 0 (mod n)"
    j, early = _norm_one_pre(n, params, failed)
    if early:
        return early
    return _conclude(n, j, conic_pow(params.point(n), n - j, params.D, n)[1],
                     failed)


_STRONG_PELL_FAILED = "(x, y)^{n-(D/n)} ≢ (1, 0) (mod n)"


@_guard
def strong_pell_test(n: int, params: ConicParams) -> Verdict:
    """Strong Pell test: (x, y)^(n-(D/n)) ≡ (1, 0) (mod n).

    Requires a norm-1 base point; equivalent to :func:`double_lucas_test`
    with P = 2x mod n and Q = 1.  Modulo a prime p ∤ D the norm-1 points
    form a group of order p - (D/p), so every such prime passes.
    """
    j, early = _norm_one_pre(n, params, _STRONG_PELL_FAILED)
    return early or _conic_conclude(n, j, params.point(n), params.D,
                                    _STRONG_PELL_FAILED)


def _conic_conclude(n: int, j: int, point: tuple[int, int], D: int,
                    failed: str, q: int = 1) -> Verdict:
    """The ladder and the check of a strong-pell or gen-pell test on the
    branch j: the point's power must be ≡ (1, 0) when j = 1, and ≡ (q, 0)
    for the point's norm q when j = -1, or n fails with ``failed``."""
    # y is the first congruence's value and x the companion.
    x, y = conic_pow(point, n - j, D, n)
    return _conclude(n, j, y, failed, x, q, failed)


@_guard
def strong_pell_test_param(n: int, D: int, a: int) -> Verdict:
    """Strong Pell test with the base point parametrized by an integer a.

    The point is ((a^2+D)/(a^2-D), 2a/(a^2-D)) mod n, which has norm 1 by
    construction.  A nontrivial gcd(a^2 - D, n) is compositeness evidence;
    a^2 ≡ D (mod n) leaves the point undefined.  The other preconditions
    are those of :func:`strong_pell_test`, in its order.
    """
    pt = rational_point(a, D, n)
    if isinstance(pt, Factor):
        if pt.value == n:
            return _invalid("a^2 ≡ D (mod n): point undefined")
        return _composite(f"gcd(a^2 - D, n) = {pt.value}", factor=pt.value)
    if pt[1] == 0:
        return _invalid("degenerate base point (x, 0)")
    # The point's first congruence y*U_k(2x, 1) ≡ 0, times c^k for
    # c = a^2 - D, which is prime to n, is 2a*U_k(2(a^2 + D), c^2) ≡ 0,
    # since U_k(cP, c^2 Q) = c^(k-1) U_k(P, Q).  So the primes of n have
    # the same ranks in both pairs, and the probe reads the table of the
    # second, which does not depend on n.
    j, early = _branch(n, (D, 2 * (a * a + D), (a * a - D) ** 2, 2 * a),
                       _STRONG_PELL_FAILED)
    return early or _conic_conclude(n, j, pt, D, _STRONG_PELL_FAILED)


@_guard
def generalized_pell_test(n: int, params: ConicParams) -> Verdict:
    """Conic test for a base point of arbitrary norm Q coprime to n.

    Probable prime iff (x, y)^(n+1) ≡ (Q, 0) when (D/n) = -1, or
    (x, y)^(n-1) ≡ (1, 0) when (D/n) = 1.  Modulo a prime p ∤ DQ, z = x +
    y√D is a unit of F_p[√D]: z^(p-1) = 1 when that ring splits, and
    z^(p+1) = z·z^p = N(z) = Q when it is the field F_{p^2}; so every
    such prime passes.
    """
    congruence = first_congruence(params)
    q = congruence[2]
    g = gcd(q, n)
    if g != 1:
        if g == n:
            return _invalid("base point norm ≡ 0 (mod n)")
        return _composite(f"gcd(norm, n) = {g}", factor=g)
    point = params.point(n)
    if point[1] == 0 and point[0] in (1 % n, n - 1):
        return _invalid("degenerate base point (±1, 0)")
    failed = "conic power ≢ (norm branch target) (mod n)"
    j, early = _branch(n, congruence, failed)
    return early or _conic_conclude(n, j, point, params.D, failed, q)


@_guard
def pell_variant_test(n: int) -> Verdict:
    """Parameterless variant on the Pell sequence (P=2, Q=-1): OEIS A099011.

    Probable prime iff U_n ≡ (2/n) (mod n); the first composite passing is
    169.  It runs the ladder on every n: U_n ≡ (2/n) is not of the form
    U_k ≡ 0, so a prime of n whose rank does not divide some k proves
    nothing here, and the small-factor probe of the other tests does not
    apply.  Its first congruence's value is U_n - (2/n).
    """
    u_n, _ = lucas_pair(LucasParams(2, -1), n, n)
    j = jacobi(2, n)
    return _conclude(n, j, (u_n - j) % n, "U_n ≢ (2/n) (mod n)")
