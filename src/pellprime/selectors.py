"""Per-n parameter selection in the style of Selfridge's method A.

A selection is a :data:`Selection`: the candidate sequence the walk tries
and the map from the chosen D to the test's parameters.  There are three:
:data:`CLASSIC` (5, -7, 9, ... to Lucas (1, (1 - D)/4)) for the lucas and
double-lucas tests, :data:`MATRIX` (-7, 9, -15, ... to (P, Q, R) =
(1, (1 - D)/8, 2)) for the matrix test, and :data:`GEN_PELL` (the classic
sequence to the conic D with base point (3, 2)) for the generalized Pell
test.  Each is stated here only: the per-n selectors walk it until
(D/n) = -1, and the scan's kernel walks the same pair over a whole
stripe.  Perfect squares are rejected up front (no D with (D/n) = -1
exists for them, so the walk would never terminate); a candidate sharing
a nontrivial factor with n short-circuits to a Composite verdict.

Deliberately NO trial-division prefilter: pseudoprimes for these selected
parameters routinely have small factors (323 = 17*19 heads the Lucas list),
so any divisibility shortcut would change the reported lists.  The scan's
rank-of-apparition sieve (:mod:`pellprime.sieve`) is not such a shortcut:
the scan's kernel rejects a composite n only when a prime p | n
proves the test's own congruence U_k ≡ 0 (mod n) false, for the
parameters this walk selects, because the rank of apparition of p does
not divide k.  For 323 with D = 5, P = 1, Q = -1 the ranks are 9 and 18,
both dividing k = 324, so 323 survives and is reported.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterator
from itertools import islice
from math import gcd, isqrt

from .conic import ConicParams
from .modarith import MAX_MODULUS, jacobi
from .primality import (
    Outcome,
    Verdict,
    double_lucas_test,
    generalized_pell_test,
    lucas_test,
    matrix_test,
)
from .recurrence import LucasParams, MatrixParams

__all__ = [
    "CANDIDATE_CAP",
    "CLASSIC",
    "GEN_PELL",
    "MATRIX",
    "Selection",
    "classic_candidates",
    "classic_params",
    "double_lucas_selfridge",
    "gen_pell_params",
    "gen_pell_selfridge",
    "lucas_selfridge",
    "matrix_candidates",
    "matrix_params",
    "matrix_selfridge",
    "selfridge_classic",
    "selfridge_gen_pell",
    "selfridge_matrix",
]

CANDIDATE_CAP = 10**6

Params = LucasParams | MatrixParams | ConicParams


def classic_candidates() -> Iterator[int]:
    """5, -7, 9, -11, 13, ...: |D| ascending by 2, alternating sign.

    Every candidate is ≡ 1 (mod 4), so (1 - D)/4 is an exact integer.
    """
    d = 5
    while True:
        yield d
        d = -(d + 2) if d > 0 else -(d - 2)


def matrix_candidates() -> Iterator[int]:
    """-7, 9, -15, 17, -23, 25, ...: the pairs (-(8k-1), 8k+1) for k >= 1.

    Every candidate is ≡ 1 (mod 8), so (1 - D)/8 is an exact integer.
    """
    k = 1
    while True:
        yield -(8 * k - 1)
        yield 8 * k + 1
        k += 1


def _pre(n: int) -> Verdict | None:
    if (not isinstance(n, int) or isinstance(n, bool) or n < 3
            or n > MAX_MODULUS or n % 2 == 0):
        return Verdict(Outcome.PARAMS_INVALID,
                       evidence="n must be odd, >= 3 and below 2**63",
                       stage="selector")
    r = isqrt(n)
    if r * r == n:
        # (D/n) is never -1 for a square; r is a nontrivial divisor.
        return Verdict(Outcome.COMPOSITE, evidence="perfect square",
                       factor=r, stage="selector")
    return None


def _find_d(n: int, candidates: Iterator[int]) -> int | Verdict:
    for d in islice(candidates, CANDIDATE_CAP):
        j = jacobi(d, n)
        if j == -1:
            return d
        if j == 0:
            g = gcd(d, n)
            if 1 < g < n:
                return Verdict(Outcome.COMPOSITE,
                               evidence=f"gcd(D candidate, n) = {g}",
                               factor=g, jacobi_branch=0, stage="selector")
            # g == n: n divides the candidate (n is tiny); skip it.
    raise RuntimeError(
        f"no discriminant with (D/n) = -1 within {CANDIDATE_CAP} "
        f"candidates for n = {n}")


def classic_params(d: int) -> LucasParams:
    """P = 1, Q = (1 - D)/4, so that P^2 - 4Q = D."""
    return LucasParams(1, (1 - d) // 4)


def matrix_params(d: int) -> MatrixParams:
    """P = 1, Q = (1 - D)/8, R = 2, so that P^2 - 4QR = D."""
    return MatrixParams(1, (1 - d) // 8, 2)


def gen_pell_params(d: int) -> ConicParams:
    """Conic D with base point (3, 2), of norm 9 - 4D."""
    return ConicParams(d, 3, 2)


# One Selfridge selection: ``candidates()`` is the discriminant sequence
# the walk tries, and ``params(d)`` the test's parameters at the chosen d.
Selection = namedtuple("Selection", "candidates params")
CLASSIC = Selection(classic_candidates, classic_params)
MATRIX = Selection(matrix_candidates, matrix_params)
GEN_PELL = Selection(classic_candidates, gen_pell_params)


def _select(n: int, selection: Selection) -> Params | Verdict:
    """selection.params(D) for the first candidate D with (D/n) = -1, or
    the Verdict that settles n during the walk."""
    early = _pre(n)
    if early:
        return early
    d = _find_d(n, selection.candidates())
    if isinstance(d, Verdict):
        return d
    return selection.params(d)


def selfridge_classic(n: int) -> LucasParams | Verdict:
    """Classic Selfridge parameters: P = 1, Q = (1 - D)/4.

    D is the first of 5, -7, 9, -11, ... with (D/n) = -1; the returned
    params satisfy P^2 - 4Q = D.
    """
    return _select(n, CLASSIC)


def selfridge_matrix(n: int) -> MatrixParams | Verdict:
    """Selfridge-style parameters for the matrix test: P = 1, R = 2.

    D runs over -7, 9, -15, 17, ... (≡ 1 mod 8) so Q = (1 - D)/8 is exact;
    the returned params satisfy P^2 - 4QR = D, hence the test always takes
    the (Δ/n) = -1 branch.
    """
    return _select(n, MATRIX)


def selfridge_gen_pell(n: int) -> ConicParams | Verdict:
    """Selfridge-style conic parameters: base point (3, 2), classic D walk.

    The base point norm is 9 - 4D mod n; a shared factor with n surfaces
    when the test runs.
    """
    return _select(n, GEN_PELL)


def _tested(n: int, chosen: Params | Verdict, test: Callable[..., Verdict],
            **kw) -> Verdict:
    """test(n, chosen, **kw), or the Verdict the walk settled n with.

    The composed tests below pass their selector's result and their test
    as they find them at call time, so a caller that swaps a module
    global (as a tracer does) sees every call."""
    if isinstance(chosen, Verdict):
        return chosen
    return test(n, chosen, **kw)


def lucas_selfridge(n: int) -> Verdict:
    """Lucas test with classic Selfridge parameters (pseudoprimes: A217120)."""
    return _tested(n, selfridge_classic(n), lucas_test)


def double_lucas_selfridge(n: int) -> Verdict:
    """Double Lucas test with classic Selfridge parameters (A212423)."""
    return _tested(n, selfridge_classic(n), double_lucas_test)


def matrix_selfridge(n: int, variant: str = "v-companion") -> Verdict:
    """Matrix test with the adapted Selfridge parameters (P=1, R=2).

    Defaults to the "v-companion" variant: with R = 2 the u-companion
    congruences are failed by every prime, so only the v-companion variant
    is a primality test on this path.
    """
    return _tested(n, selfridge_matrix(n), matrix_test, variant=variant)


def gen_pell_selfridge(n: int) -> Verdict:
    """Generalized Pell test with Selfridge-selected D and base point (3, 2)."""
    return _tested(n, selfridge_gen_pell(n), generalized_pell_test)
