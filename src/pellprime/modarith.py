"""Exact modular arithmetic for odd moduli up to 2**63 - 1.

Moduli and residues are plain Python ints.  Python integers are arbitrary
precision, so products never overflow; this module pins down the conventions
the rest of the package relies on: signed inputs are canonicalized into
[0, n), the Jacobi symbol follows the binary reciprocity algorithm (small a
read it from a periodic table), and a missing inverse is reported as a
:class:`Factor` (compositeness evidence) instead of an exception.

A scan classifies a whole stripe of odd n at once on bitmasks: bit i of a
mask stands for the odd n = lo + 2i.  :func:`jacobi_masks` gives the n with
(a/n) = -1 and with (a/n) = 0 as such masks, read off the same periodic
tables, and :func:`sharing_mask` the n that share a prime with a given
integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from math import gcd

__all__ = [
    "JACOBI_TABLE_BOUND",
    "MAX_MODULUS",
    "Factor",
    "jacobi",
    "jacobi_masks",
    "mul_mod",
    "pow_mod",
    "sharing_mask",
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


# Per tabulated a: masks of (a/n) = -1 and (a/n) = 0 over n = 1, 3, ...,
# 4|a| - 1, one period.
_jacobi_patterns: dict[int, tuple[int, int]] = {}
_MINUS_DIGITS = bytes.maketrans(b"\x00\x01\x03", b"001")
_ZERO_DIGITS = bytes.maketrans(b"\x00\x01\x03", b"100")
_FLAG_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
# sharing_mask finds the primes of its argument by trial division below this.
_TRIAL_BOUND = 1 << 10


def _symbol_masks(a: int, lo: int, count: int) -> tuple[int, int]:
    codes = bytes(jacobi(a, n) & 3 for n in range(lo, lo + 2 * count, 2))
    return (int(codes.translate(_MINUS_DIGITS)[::-1], 2),
            int(codes.translate(_ZERO_DIGITS)[::-1], 2))


def _repeat(pattern: int, period: int, size: int) -> int:
    """The ``period`` low bits of pattern repeated over ``size`` bits."""
    while period < size:
        pattern |= pattern << period
        period <<= 1
    return pattern & ((1 << size) - 1)


def jacobi_masks(a: int, lo: int, size: int) -> tuple[int, int]:
    """Bitmasks of (a/n) = -1 and of (a/n) = 0 over the odd n = lo + 2i,
    0 <= i < size, for odd lo > 0 and size >= 1.

    (a/n) repeats every 2|a| odd n.  For a on the table one period is kept
    and rotated to lo; any other a has its symbols computed for one period
    from lo, or for the whole range if that is shorter.
    """
    period = 2 * abs(a)
    pattern = _jacobi_patterns.get(a)
    if pattern is None and 0 < abs(a) <= JACOBI_TABLE_BOUND:
        pattern = _jacobi_patterns[a] = _symbol_masks(a, 1, period)
    if pattern is None:
        count = min(period, size) or size
        masks = _symbol_masks(a, lo, count)
    else:
        count, t, top = period, (lo >> 1) % period, (1 << period) - 1
        masks = [(m >> t) | (m << (period - t) & top) for m in pattern]
    return tuple(_repeat(m, count, size) for m in masks)


def _multiples(p: int, lo: int, size: int) -> int:
    # lo + 2i ≡ 0 (mod p) for i ≡ -lo/2, and 1/2 ≡ (p + 1)/2
    return _repeat(1 << (-lo * ((p + 1) >> 1) % p), p, size)


def sharing_mask(g: int, lo: int, size: int) -> int:
    """Bitmask of gcd(g, n) > 1 over the odd n = lo + 2i, 0 <= i < size,
    for g != 0, odd lo > 0 and size >= 1.

    Each odd prime of g that trial division finds marks its multiples,
    which repeat with that period; a part of g whose primes are all beyond
    the trial bound and that is not itself prime is checked by gcd with
    each n.
    """
    g = abs(g)
    g >>= (g & -g).bit_length() - 1  # odd n share no factor 2
    mask, p = 0, 3
    while p * p <= g and p < _TRIAL_BOUND:
        if not g % p:
            mask |= _multiples(p, lo, size)
            while not g % p:
                g //= p
        p += 2
    if g == 1:
        return mask
    if p * p > g:  # what is left of g is prime
        return mask | _multiples(g, lo, size)
    flags = bytes(map((1).__lt__, map(gcd, repeat(g),
                                      range(lo, lo + 2 * size, 2))))
    return mask | int(flags.translate(_FLAG_DIGITS)[::-1], 2)
