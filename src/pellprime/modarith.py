"""Exact modular arithmetic for odd moduli up to 2**63 - 1.

Moduli and residues are plain Python ints.  Python integers are arbitrary
precision, so products never overflow; this module pins down the conventions
the rest of the package relies on: signed inputs are canonicalized into
[0, n), the Jacobi symbol follows the binary reciprocity algorithm, and a
missing inverse is reported as a :class:`Factor` (compositeness evidence)
instead of an exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

__all__ = [
    "MAX_MODULUS",
    "Factor",
    "gcd",
    "inv_mod",
    "is_perfect_square",
    "jacobi",
    "mul_mod",
    "pow_mod",
    "validate_modulus",
]

MAX_MODULUS = 2**63 - 1


@dataclass(frozen=True)
class Factor:
    """A gcd returned where an inverse was requested.

    ``value`` is ``gcd(a, n)``; it is a nontrivial divisor of n when
    ``1 < value < n``.  ``value == n`` means a ≡ 0 (mod n): no inverse and
    no factor either.
    """

    value: int


def validate_modulus(n: int) -> None:
    """Raise ValueError unless n is an odd integer with 3 <= n < 2**63."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"modulus must be an int, got {type(n).__name__}")
    if n < 3 or n > MAX_MODULUS:
        raise ValueError(f"modulus out of range [3, 2**63): {n}")
    if n % 2 == 0:
        raise ValueError(f"modulus must be odd: {n}")


def mul_mod(a: int, b: int, n: int) -> int:
    """a*b mod n, exact for any ints (negative inputs are canonicalized)."""
    return a * b % n


def pow_mod(a: int, e: int, n: int) -> int:
    """a**e mod n (builtin three-argument pow); e must be >= 0."""
    if e < 0:
        raise ValueError("exponent must be non-negative")
    return pow(a, e, n)


def inv_mod(a: int, n: int) -> int | Factor:
    """Inverse of a mod n, or Factor(gcd(a, n)) when none exists."""
    a %= n
    g = gcd(a, n)
    if g != 1:
        return Factor(g if g else n)  # a == 0 -> gcd(0, n) == n
    return pow(a, -1, n)


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 3; 0 iff gcd(a, n) > 1.

    Binary algorithm using quadratic reciprocity; negative a is handled by
    reduction mod n (the symbol only depends on a mod n).
    """
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def is_perfect_square(m: int) -> bool:
    """True iff m is the square of an integer (False for negative m)."""
    if m < 0:
        return False
    r = isqrt(m)
    return r * r == m
