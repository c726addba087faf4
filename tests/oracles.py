"""Reference oracles the tests check the package against.

No verdict or scan calls these: the 2x2 matrix power and the repeated
Brahmagupta product are the direct definitions that the Lucas ladder in
:mod:`pellprime.recurrence` and :func:`pellprime.conic.conic_pow` must
reproduce, and the other helpers build inputs and check results.  Matrices
are row-major 4-tuples (a, b, c, d) of residues; points are (x, y) tuples.
"""

from __future__ import annotations

from math import gcd

from pellprime.conic import ConicParams
from pellprime.modarith import Factor

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
