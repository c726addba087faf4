"""Brahmagupta-product algebra on the conic x^2 - D*y^2 = Q over Z_n.

Points are (x, y) tuples of ints.  The Brahmagupta product

    (x1, y1) * (x2, y2) = (x1*x2 + D*y1*y2, x1*y2 + x2*y1)

multiplies norms (norm = x^2 - D*y^2), so norm-1 points form a group with
identity (1, 0) and inverse (x, -y).  General-norm points are allowed
everywhere; tests that need norm 1 enforce it themselves.

:func:`conic_pow` reads powers off the Lucas ladder rather than repeating
the product; the tests check it against the repeated product, which lives
with the other reference oracles in the test suite.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .modarith import Factor
from .recurrence import _lucas_u

__all__ = ["ConicParams", "conic_pow", "rational_point"]

Point = tuple[int, int]


class ConicParams(namedtuple("ConicParams", "D x y")):
    """A conic coefficient D together with a base point (x, y).

    D and the coordinates are stored as given (they may be negative or
    unreduced); everything is reduced per modulus when used.  A frozen
    record (a named tuple).
    """

    __slots__ = ()

    def point(self, n: int) -> Point:
        return (self.x % n, self.y % n)


def conic_pow(p: Point, k: int, D: int, n: int) -> Point:
    """k-fold Brahmagupta power of p mod n; k = 0 gives the identity (1, 0).

    (x + y*sqrt(D))**k = (U_{k+1} - x*U_k) + y*U_k*sqrt(D) for the Lucas
    sequence U of (2x, x^2 - D*y^2), the characteristic polynomial of
    x + y*sqrt(D); it is evaluated by the ladder in :mod:`recurrence`.
    """
    x, y = p
    u, u_next = _lucas_u(2 * x, x * x - D * y * y, k, n)
    return ((u_next - x * u) % n, y * u % n)


def rational_point(a: int, D: int, n: int) -> Point | Factor:
    """The norm-1 point ((a^2+D)/(a^2-D), 2a/(a^2-D)) mod n.

    Requires a^2 - D invertible mod n.  Returns Factor(g) with the
    nontrivial g = gcd(a^2 - D, n) otherwise; Factor(n) means the
    denominator vanishes mod n (the parametrization's point at infinity),
    which has no residue representative.
    """
    den = (a * a - D) % n
    g = gcd(den, n)
    if g != 1:
        return Factor(g if g else n)
    inv = pow(den, -1, n)
    return ((a * a + D) * inv % n, 2 * a * inv % n)
