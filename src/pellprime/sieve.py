"""Segmented factor sieve for scans, and the rank-of-apparition check on it.

A :class:`Segment` sieves the odd n of one scan chunk by the odd primes up to
a limit.  It records, in flat arrays, which n have a prime factor <= limit
and those factors; the cofactor left when they are divided out is computed
on demand.  An n below (limit + 1)**2 without such a factor is prime: the
scan's chunk kernel passes it on a test that every prime passes, and when
the limit reaches isqrt(hi) the scan needs no primality oracle.

:meth:`Segment.rules_out` is the check the scan's chunk kernel makes in
place of a Lucas-family test's ladder.  If U_k(P, Q) ≡ 0 (mod n), then
U_k ≡ 0 (mod p) for every prime p | n, and for p ∤ Q that holds exactly
when the rank of apparition of p divides k (Baillie and Wagstaff, *Lucas
pseudoprimes*, 1980).  A composite n with any prime factor p ∤ Q whose
rank does not divide k therefore fails the test's first congruence, and
the kernel can say so without running the ladder.  The condition is a
theorem about n, not a heuristic: composites whose factors all pass it
(323 = 17*19 for the Selfridge Lucas test) go on to the full test.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_right
from itertools import compress
from math import gcd, isqrt

from .modarith import jacobi
from .recurrence import _lucas_u, rank_of_apparition

__all__ = ["SIEVE_CAP", "Segment", "primes_up_to", "sieve_limit"]

# Largest sieving prime: scans above 2**40 sieve only part of the way and
# fall back on the primality oracle for n with no factor <= SIEVE_CAP.
SIEVE_CAP = 1 << 20

# Memo tables of pure functions, shared by every segment in the process so
# that they stay warm from chunk to chunk: the odd primes found so far (a
# prefix of all odd primes, so an index into it never changes meaning),
# and per Lucas parameter pair (P, Q) the rank of apparition of the prime
# at each index (0 = not computed yet).
_odd_primes = array("I")
_odd_primes_limit = 2
_ranks: dict[tuple[int, int], array] = {}
_MAX_RANK_TABLES = 64
# Maps the sign byte of each entry of Segment.head to a binary digit: 1 for
# a negative entry (no recorded factor).
_SIGN_DIGITS = bytes(0x31 if b >= 0x80 else 0x30 for b in range(256))


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit by a byte sieve."""
    if limit < 2:
        return []
    mark = bytearray([1]) * (limit + 1)
    mark[0] = mark[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if mark[p]:
            mark[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return list(compress(range(limit + 1), mark))


def _primes_through(limit: int) -> int:
    """How many odd primes are <= limit, extending the shared table."""
    global _odd_primes, _odd_primes_limit
    if limit > _odd_primes_limit:
        _odd_primes = array("I", primes_up_to(limit)[1:])
        _odd_primes_limit = limit
    return bisect_right(_odd_primes, limit)


def _rank_table(P: int, Q: int) -> array:
    table = _ranks.get((P, Q))
    if table is None:
        if len(_ranks) >= _MAX_RANK_TABLES:
            _ranks.clear()
        table = _ranks[P, Q] = array("I", bytes(4 * len(_odd_primes)))
    elif len(table) < len(_odd_primes):
        table.extend(bytes(4 * (len(_odd_primes) - len(table))))
    return table


def sieve_limit(hi: int) -> int:
    """Sieving limit of a scan whose largest n is hi."""
    return min(isqrt(hi), SIEVE_CAP)


class Segment:
    """Factor sieve of the odd n in [lo, hi] by the odd primes <= limit.

    Per odd n (index (n - lo) // 2) it keeps ``head``, the start of a chain
    of its prime factors <= limit through ``factor`` (an index into the
    shared prime table) and ``next`` (-1 ends a chain and marks n without
    such a factor).  n itself is never recorded as its own factor.
    """

    __slots__ = ("lo", "prime_below", "head", "factor", "next")

    def __init__(self, lo: int, hi: int, limit: int) -> None:
        lo |= 1
        size = max((hi - lo) // 2 + 1, 0)
        count = _primes_through(limit)  # may replace _odd_primes
        primes = _odd_primes[:count]
        self.lo = lo
        # An n, or a cofactor, below this with no prime factor <= limit is
        # 1 or prime.
        self.prime_below = (limit + 1) ** 2
        self.head = head = array("i", [-1]) * size
        self.factor = factor = array("I")
        self.next = nxt = array("i")
        # Offset from lo of the first multiple of each prime, for all primes
        # at once; only the primes with a multiple below lo + 2*size enter
        # the Python loop.
        offsets = list(map((-lo).__mod__, primes))
        append_factor, append_next = factor.append, nxt.append
        for idx in compress(range(count), map((2 * size).__gt__, offsets)):
            p = primes[idx]
            first = offsets[idx]
            if first & 1:  # lo is odd: step to the odd multiple
                first += p
            if lo + first == p:  # p is not its own factor
                first += 2 * p
            for i in range(first >> 1, size, p):
                append_next(head[i])
                head[i] = len(factor)
                append_factor(idx)

    def unfactored(self) -> int:
        """Bitmask over the index of the n with no recorded factor."""
        width = self.head.itemsize
        sign = width - 1 if sys.byteorder == "little" else 0
        signs = memoryview(self.head).cast("B")[sign::width].tobytes()
        return int(signs.translate(_SIGN_DIGITS)[::-1], 2)

    def factors(self, n: int) -> list[int]:
        """The prime factors of n that are <= limit, largest first."""
        primes, factor, nxt = _odd_primes, self.factor, self.next
        found = []
        j = self.head[(n - self.lo) >> 1]
        while j >= 0:
            found.append(primes[factor[j]])
            j = nxt[j]
        return found

    def cofactor(self, n: int) -> int:
        """n with its prime factors <= limit divided out."""
        for p in self.factors(n):
            n //= p
            while not n % p:
                n //= p
        return n

    def is_composite(self, n: int) -> bool | None:
        """True or False when the sieve decides n, None when it cannot."""
        i = (n - self.lo) >> 1
        if self.head[i] >= 0:
            return True
        return None if n >= self.prime_below else False

    def rules_out(self, n: int, P: int, Q: int, k: int, scale: int = 1) -> bool:
        """True when scale*U_k(P, Q) ≢ 0 (mod n) is proved by a factor of n.

        That is, some prime q | n with q ∤ Q*scale has U_k ≢ 0 (mod q): a
        factor q <= limit whose rank does not divide k, or a cofactor q
        known to be prime.  False means nothing is proved.
        """
        j = self.head[(n - self.lo) >> 1]
        if j < 0:
            return False  # prime, or no factor <= limit to look at
        qs = Q * scale
        ranks = _rank_table(P, Q)
        primes, factor, nxt = _odd_primes, self.factor, self.next
        while j >= 0:
            idx = factor[j]
            p = primes[idx]
            if qs % p:
                rank = ranks[idx]
                if not rank:
                    rank = ranks[idx] = rank_of_apparition(P, Q, p)
                if k % rank:
                    return True
            j = nxt[j]
        c = self.cofactor(n)
        if c == 1 or c >= self.prime_below or not qs % c:
            return False
        # c is prime; its rank divides c - (D/c), and is c when c | D.
        e = jacobi(P * P - 4 * Q, c)
        if not e:
            return k % c != 0
        return _lucas_u(P, Q, gcd(k, c - e), c)[0] != 0
