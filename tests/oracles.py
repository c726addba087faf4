"""Reference oracles the tests check the package against.

No verdict or scan calls these: the 2x2 matrix power and the repeated
Brahmagupta product are the direct definitions that the Lucas ladder in
:mod:`pellprime.recurrence` and :func:`pellprime.conic.conic_pow` must
reproduce, :func:`reference_scan` is the brute-force scan the sieved scan
and its chunk kernel must reproduce, and the other helpers build inputs
and check results.  Matrices are row-major 4-tuples (a, b, c, d) of
residues; points are (x, y) tuples.
"""

from __future__ import annotations

from math import gcd

from pellprime import kernel
from pellprime.conic import ConicParams
from pellprime.modarith import Factor
from pellprime.primality import Outcome, Verdict
from pellprime.recurrence import LucasParams, MatrixParams
from pellprime import scan
from pellprime.search import build_test, is_prime
from pellprime.selectors import (
    selfridge_classic,
    selfridge_gen_pell,
    selfridge_matrix,
)
from pellprime.sieve import Segment

Mat2 = tuple[int, int, int, int]
Point = tuple[int, int]

IDENTITY: Mat2 = (1, 0, 0, 1)


def mat_mul(A: Mat2, B: Mat2, n: int) -> Mat2:
    """Product of two 2x2 matrices mod n."""
    a, b, c, d = A
    e, f, g, h = B
    return (
        (a * e + b * g) % n,
        (a * f + b * h) % n,
        (c * e + d * g) % n,
        (c * f + d * h) % n,
    )


def mat_pow(M: Mat2, k: int, n: int) -> Mat2:
    """M**k mod n by binary exponentiation; k must be >= 0."""
    if k < 0:
        raise ValueError("matrix exponent must be non-negative")
    a, b, c, d = (x % n for x in M)
    ra, rb, rc, rd = 1 % n, 0, 0, 1 % n
    while k:
        if k & 1:
            ra, rb, rc, rd = (
                (ra * a + rb * c) % n,
                (ra * b + rb * d) % n,
                (rc * a + rd * c) % n,
                (rc * b + rd * d) % n,
            )
        k >>= 1
        if k:
            a, b, c, d = (
                (a * a + b * c) % n,
                (a * b + b * d) % n,
                (c * a + d * c) % n,
                (c * b + d * d) % n,
            )
    return (ra, rb, rc, rd)


def mat_apply(M: Mat2, v: tuple[int, int], n: int) -> tuple[int, int]:
    """M applied to a column vector mod n."""
    a, b, c, d = M
    x, y = v
    return ((a * x + b * y) % n, (c * x + d * y) % n)


def brahmagupta(p1: Point, p2: Point, D: int, n: int) -> Point:
    """Brahmagupta product of two points, reduced mod n."""
    x1, y1 = p1
    x2, y2 = p2
    return ((x1 * x2 + D * y1 * y2) % n, (x1 * y2 + x2 * y1) % n)


def conic_norm(p: Point, D: int, n: int) -> int:
    """x^2 - D*y^2 mod n."""
    x, y = p
    return (x * x - D * y * y) % n


def lucas_to_conic(P: int, n: int) -> ConicParams:
    """Conic parameters equivalent to Lucas parameters (P, Q=1) mod n.

    D = P^2 - 4 with base point (P/2, 1/2); its norm is 1 mod any odd n
    since (P/2)^2 - (P^2-4)/4 = 1.
    """
    inv2 = (n + 1) // 2  # inverse of 2 for odd n
    return ConicParams(P * P - 4, P * inv2 % n, inv2)


def inv_mod(a: int, n: int) -> int | Factor:
    """Inverse of a mod n, or Factor(gcd(a, n)) when none exists."""
    a %= n
    g = gcd(a, n)
    if g != 1:
        return Factor(g if g else n)  # a == 0 -> gcd(0, n) == n
    return pow(a, -1, n)


STAT_KEYS = ("tested", "probable_prime", "composite", "params_invalid",
             "short_circuited", "sieved", "pseudoprimes")
_OUTCOME_KEYS = {Outcome.PROBABLE_PRIME: "probable_prime",
                 Outcome.COMPOSITE: "composite",
                 Outcome.PARAMS_INVALID: "params_invalid"}
_SELECTORS = {"lucas": selfridge_classic, "double-lucas": selfridge_classic,
              "matrix": selfridge_matrix, "gen-pell": selfridge_gen_pell}


def lucas_params(method: str, params: dict, n: int):
    """The parameters a Lucas-family test uses at n: the public selector's
    pick (a Verdict when the walk settles n itself), or the fixed ones;
    None for the other methods and for strong-pell with (D, a)."""
    if params.get("selfridge"):
        return _SELECTORS[method](n)
    if method in ("lucas", "double-lucas"):
        return LucasParams(params["P"], params["Q"])
    if method == "matrix":
        return MatrixParams(params["P"], params["Q"], params["R"])
    if method in ("pell", "strong-pell", "gen-pell") and "x" in params:
        return ConicParams(params["D"], params["x"], params["y"])
    return None


def first_congruence(chosen) -> tuple[int, int, int, int]:
    """(D, P', Q', scale) such that the first congruence of a Lucas-family
    test is scale*U_k(P', Q') ≡ 0 (mod n), with k = n - (D/n)."""
    if isinstance(chosen, ConicParams):  # the y of (x, y)^k
        x, y, D = chosen.x, chosen.y, chosen.D
        return D, 2 * x, x * x - D * y * y, y
    R = getattr(chosen, "R", 1)  # U~_k = R*U_k of Lucas(P, QR)
    return chosen.discriminant, chosen.P, chosen.Q * R, R


def kernel_sieves(method: str, params: dict, segment: Segment, n: int,
                  verdict: Verdict) -> bool:
    """Whether the scan counts n as ``sieved``, given the test's verdict.

    That is, the test took a (D/n) = ±1 branch, n is above the bound
    max(|D|, |Q'|, |scale|) below which a shared factor may be n itself,
    and either every prime passes the test and the segment proves n prime,
    or a recorded factor of n rules the first congruence out.  The scan
    covers no parameters with a zero D, Q' or scale, nor pell base points
    of norm other than 1.  (A Selfridge walk also leaves to the test the n
    at or below the bound of a candidate it passes over; no n at which that
    bound exceeds the chosen D's exists below 2*10**6, and beyond, the walk
    would have to pass over more than 10**5 candidates.)
    """
    j = verdict.jacobi_branch
    if verdict.stage != "test" or j not in (1, -1):
        return False
    chosen = lucas_params(method, params, n)
    if chosen is None:
        return False
    D, P, Q, scale = first_congruence(chosen)
    if not (D and Q and scale) or n <= max(abs(D), abs(Q), abs(scale)):
        return False
    if method in ("pell", "strong-pell") and Q != 1:
        return False
    variant = params.get("variant") or (
        "v-companion" if params.get("selfridge") else "u-companion")
    primes_pass = not (method == "matrix" and variant == "u-companion")
    if primes_pass and segment.is_composite(n) is False:
        return True
    return not segment.checker(P, Q, scale, j, [n])


def reference_scan(method: str, params: dict, lo: int, hi: int,
                   limit: int) -> tuple[list[int], dict[str, int]]:
    """Brute force: every odd n in [lo, hi] through the per-n test, each
    passer through the primality oracle, and ``sieved`` counted by
    :func:`kernel_sieves` on one segment sieved to limit."""
    test, _ = build_test(method, params)
    segment = Segment(lo, hi, limit)
    stats = dict.fromkeys(STAT_KEYS, 0)
    found = []
    for n in range(lo | 1, hi + 1, 2):
        verdict = test(n)
        stats["tested"] += 1
        stats[_OUTCOME_KEYS[verdict.outcome]] += 1
        stats["short_circuited"] += verdict.stage == "selector"
        stats["sieved"] += kernel_sieves(method, params, segment, n, verdict)
        if verdict.is_probable_prime and not is_prime(n):
            found.append(n)
            stats["pseudoprimes"] += 1
    return found, stats


def kernel_counts(bulk, segment: Segment, lo: int,
                  size: int) -> tuple[dict[str, int], list[int]]:
    """The counts of one :func:`kernel.walk` and :func:`kernel.settle` call
    over the odd n = lo + 2i, i < size, from the bitmask of the n each
    count covers, and the n they leave to the per-n test, ascending."""
    settled = kernel.settle(bulk, segment, lo, size,
                            *kernel.walk(bulk, lo, size))
    masks = kernel.count_masks(bulk, settled)
    return ({k: mask.bit_count() for k, mask in masks.items()},
            list(kernel.members(settled.left, lo)))


def scan_chunk(method: str, params: dict, lo: int, hi: int,
               limit: int) -> tuple[list[int], dict[str, int]]:
    """The finds and counts the scan gives [lo, hi] as a one-chunk stripe
    sieved to limit (one Segment, whose whole record is the chunk's
    window), for comparison with :func:`reference_scan`."""
    ((chunk_hi, found, stats),) = scan._scan_stripe(
        method, params, lo, hi, limit, (hi - lo) // 2 + 1)
    assert chunk_hi == hi
    return found, stats
