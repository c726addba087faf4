"""Segmented factor sieve for scans, in stripes of chunks, and the
rank-of-apparition check on it.

A scan sieves its odd n with the odd primes up to a limit.  It cuts its
range into stripes of consecutive chunks; one process sieves a whole
stripe at once, as one :class:`Segment`, and the scan's kernel reads the
whole record in one call.  A segment records which n have a prime factor
<= limit and those factors; the cofactor left when they are divided out
is computed by the check below, for the n that reach it.  An n below
(limit + 1)**2 without such a factor is prime: the scan's kernel passes it
on a test that every prime passes, and when the limit reaches isqrt(hi)
the scan needs no primality oracle.

Each prime costs a few Python steps per stripe, never one per multiple:

* the first odd multiple of every prime ((-lo) % p, in effect) is computed
  for all the primes at once, with C-level ``map``;
* a prime below the stripe's length pushes itself onto the factor chains
  of all its multiples with a few slice operations;
* a prime at or above that length has at most one multiple in the stripe.
  The primes with none are filtered out without a Python step each, and
  each of the rest records its one multiple.

This is the bucket sieve of Oliveira e Silva, Herzog and Pardi (Math.
Comp. 83, 2014) cut to what pays in Python.  There a large prime waits in
a bucket for the chunk that holds its next multiple, so that each chunk's
record stays in cache.  Here the cost is interpreter steps, not cache
misses, and a stripe, ceil(limit / span) chunks (span = 2 * chunk_odds)
or up to about 2**14 odd n where that is fewer, is short enough to sieve
as one record: no prime is carried from stripe to stripe, and none finds
its first multiple more than once per stripe.  The record's layout is
private to this module.

:meth:`Segment.checker` is the check the scan's kernel makes in
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
from bisect import bisect_left, bisect_right
from itertools import compress, islice, repeat
from math import gcd, isqrt
from operator import mod, rshift, sub
from typing import Callable

from .modarith import jacobi
from .recurrence import _lucas_u, rank_of_apparition

__all__ = ["SIEVE_CAP", "Segment", "primes_up_to", "sieve_limit"]

# Largest sieving prime: scans above 2**40 sieve only part of the way and
# fall back on the primality oracle for n with no factor <= SIEVE_CAP.
SIEVE_CAP = 1 << 20

# Memo tables of pure functions, shared by every segment in the process so
# that they stay warm from stripe to stripe: the odd primes found so far (a
# prefix of all odd primes, so an index into it never changes meaning), and
# per Lucas parameter pair (P, Q) the rank of apparition of the prime at
# each index (0 = not computed yet).  Each process fills only its own
# tables: a pool worker keeps the ranks it computes for as long as it
# lives, and a forked one starts from a copy of its parent's tables as they
# were when it forked.
_odd_primes = array("I")
_odd_primes_limit = 2
_ranks: dict[tuple[int, int], array] = {}
_MAX_RANK_TABLES = 64
# 0, 1, 2, ...: the entry numbers a prime's multiples take, sliced out
# rather than built for every segment.
_iota = array("i")
# Maps the sign byte of each entry of Segment._head to a binary digit: 1 for
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
    """The rank table of (P, Q), with an entry for every prime of the prime
    table."""
    table = _ranks.get((P, Q))
    if table is None:
        if len(_ranks) >= _MAX_RANK_TABLES:
            _ranks.clear()
        table = _ranks[P, Q] = array("I")
    if len(table) < len(_odd_primes):
        table.frombytes(bytes(4 * (len(_odd_primes) - len(table))))
    return table


def sieve_limit(hi: int) -> int:
    """Sieving limit of a scan whose largest n is hi."""
    return min(isqrt(hi), SIEVE_CAP)


class Segment:
    """Factor sieve of the odd n in [lo, hi] by the odd primes <= limit.

    n itself is never recorded as its own factor.  ``lo`` is the first odd
    n.  A scan builds one per stripe, and its kernel reads the record with
    :meth:`unfactored` and :meth:`checker`.
    """

    __slots__ = ("lo", "prime_below", "_head", "_factor", "_next")

    def __init__(self, lo: int, hi: int, limit: int) -> None:
        global _iota
        lo |= 1
        size = max((hi - lo) // 2 + 1, 0)
        count = _primes_through(limit)  # may replace _odd_primes
        primes = _odd_primes[:count]
        self.lo = lo
        # An n, or a cofactor, below this with no prime factor <= limit is
        # 1 or prime.
        self.prime_below = (limit + 1) ** 2
        # Per odd n (index (n - lo) // 2) the start of a chain of its prime
        # factors <= limit through _factor (an index into the shared prime
        # table) and _next; -1 ends a chain, and in _head marks n without
        # such a factor.
        self._head = head = array("i", [-1]) * size
        self._factor = factor = array("I")
        self._next = nxt = array("i")
        # The index i of each prime's first odd multiple lo + 2i >= lo:
        # i ≡ (p - lo)/2 (mod p).
        starts = list(map(mod, map(rshift, map(sub, primes, repeat(lo)),
                                   repeat(1)), primes))
        for j in range(bisect_left(primes, lo), count):
            starts[j] += primes[j]  # p is not its own factor
        # A prime below size pushes itself onto the chains of all its
        # multiples with a few slice operations.  A larger one has at most
        # one multiple here, and only the primes that do are looked at.
        short = bisect_left(primes, size)
        entries = sum(map(len, map(range, starts[:short], repeat(size),
                                   primes[:short])))
        if len(_iota) < entries:
            _iota = array("i", range(entries))
        end = 0
        for j in compress(range(short), map(size.__gt__, starts)):
            i, p = starts[j], primes[j]
            chained = head[i::p]
            new = end + len(chained)
            nxt += chained
            head[i::p] = _iota[end:new]
            factor += array("I", (j,)) * (new - end)
            end = new
        for j in compress(range(short, count),
                          map(size.__gt__, islice(starts, short, None))):
            i = starts[j]
            nxt.append(head[i])
            head[i] = end
            factor.append(j)
            end += 1

    def unfactored(self, lo: int, size: int) -> int:
        """Bitmask over i < size, size >= 1: bit i is set when the odd
        n = lo + 2i of this record has no recorded factor."""
        width = self._head.itemsize
        first = ((lo - self.lo) >> 1) * width
        first += width - 1 if sys.byteorder == "little" else 0
        signs = memoryview(self._head).cast("B")[
            first:first + size * width:width].tobytes()
        return int(signs.translate(_SIGN_DIGITS)[::-1], 2)

    def factors(self, n: int) -> list[int]:
        """The distinct prime factors of n that are <= limit."""
        primes, factor, nxt = _odd_primes, self._factor, self._next
        found = []
        j = self._head[(n - self.lo) >> 1]
        while j >= 0:
            found.append(primes[factor[j]])
            j = nxt[j]
        return found

    def is_composite(self, n: int) -> bool | None:
        """True or False when the sieve decides n, None when it cannot."""
        if self._head[(n - self.lo) >> 1] >= 0:
            return True
        return None if n >= self.prime_below else False

    def checker(self, P: int, Q: int,
                scale: int) -> Callable[[int, int], bool]:
        """rules_out(n, k) for the n of this segment and Lucas (P, Q).

        rules_out(n, k) is True when scale*U_k(P, Q) ≢ 0 (mod n) is proved
        by a factor of n: some prime q | n with q ∤ Q*scale has U_k ≢ 0
        (mod q), that is a factor q <= limit whose rank does not divide k,
        or a cofactor q known to be prime.  False means nothing is proved.
        The rank table of (P, Q) is looked up once, here.

        Each call walks n's factor chain once.  Most calls end at the first
        factor, whose rank rules n out; each factor that does not is
        divided out of n before the walk goes on, so what is left at the
        end of the chain is the cofactor.
        """
        qs = Q * scale
        ranks = _rank_table(P, Q)
        primes, head, factor, nxt = (_odd_primes, self._head, self._factor,
                                     self._next)
        origin, prime_below = self.lo, self.prime_below

        def rules_out(n: int, k: int) -> bool:
            j = head[(n - origin) >> 1]
            if j < 0:
                return False  # prime, or no factor <= limit to look at
            while j >= 0:
                idx = factor[j]
                p = primes[idx]
                if qs % p:
                    rank = ranks[idx]
                    if not rank:
                        rank = ranks[idx] = rank_of_apparition(P, Q, p)
                    if k % rank:
                        return True
                n //= p
                while not n % p:
                    n //= p
                j = nxt[j]
            # n now holds the cofactor, which below prime_below is 1 or prime.
            if n == 1 or n >= prime_below or not qs % n:
                return False
            # A prime cofactor n: its rank divides n - (D/n), and is n when
            # n | D.
            e = jacobi(P * P - 4 * Q, n)
            if not e:
                return k % n != 0
            return _lucas_u(P, Q, gcd(k, n - e), n)[0] != 0

        return rules_out
