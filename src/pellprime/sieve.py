"""Segmented factor sieve for scans, in stripes of chunks, and the
rank-of-apparition check on it.

A scan sieves its odd n with the odd primes up to a limit.  It cuts its
range into stripes of consecutive chunks; one process sieves a whole
stripe at once, as one :class:`Segment`, and the scan's stripe kernel
(:func:`pellprime.kernel.settle`) reads the whole record in one call,
through the segment's public methods.  A segment records which n have a
prime factor <= limit and those factors; the cofactor left when they are
divided out is computed by the check below, for the n that reach it.  An
n below (limit + 1)**2 without such a factor is prime: the scan's kernel
passes it on a test that every prime passes, and when the limit reaches
isqrt(hi) the scan needs no primality oracle.

A prime costs a few Python steps per stripe, or one per multiple where it
has few:

* the first odd multiple of every prime ((-lo) % p, in effect) is computed
  for all the primes at once, with C-level ``map``;
* a prime below a quarter of the stripe's length pushes itself onto the
  factor chains of all its multiples, four or more, with a few slice
  operations;
* a larger prime has five multiples in the stripe at most, and most have
  none or one.  Each multiple is linked onto its chain one at a time, in
  rounds: the first round takes every prime's first multiple, and each
  round steps the primes that had one on by p.  The primes with no
  multiple left are filtered out at C level, without a Python step each.

The split follows from what each step costs.  On stripes of 2**14 odd n
near 2**34, the slice operations cost about four times as much per prime
as linking one multiple does (2.1 against 0.53 us on a loaded 2-vCPU box),
so a prime with fewer than about four multiples is cheaper to link.

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
the kernel can say so without running the ladder: the checker leaves n
out of the members it returns.  The condition is a theorem about n, not a
heuristic: composites whose factors all pass it (323 = 17*19 for the
Selfridge Lucas test) are kept for the full test.  The kernel calls the
checker once per discriminant class, with all the class's members, and
one loop walks their factor chains and returns the members it keeps.

A factor <= limit is decided by its rank, kept in a table.  A prime
cofactor q above the limit has a rank that divides q - (D/q) (q itself
when q | D), so it divides k exactly when U_g ≡ 0 (mod q) for
g = gcd(k, q - (D/q)).  g is small: on gen-pell+Selfridge windows near
2**34, a window of 2**14 odd n decides about 900 prime cofactors, with
g < 16 for 85% of them and g < 64 for 97% (and g > 1 when q ∤ D, since k
and q - (D/q) are both even).  So the exact integers U_0 ... U_63 of
(P, Q) are kept next to its rank table, and U_g mod q is one remainder;
only a larger g runs the ladder.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterable
from functools import lru_cache
from itertools import compress, islice, repeat
from math import gcd, isqrt
from operator import add, lt, mod, rshift, sub

from .modarith import jacobi
from .recurrence import _lucas_u, rank_of_apparition

__all__ = ["SIEVE_CAP", "Segment", "primes_up_to", "sieve_limit"]

# Largest sieving prime: scans above 2**40 sieve only part of the way and
# fall back on the primality oracle for n with no factor <= SIEVE_CAP.
SIEVE_CAP = 1 << 20

# Memo tables of pure functions, shared by every segment in the process so
# that they stay warm from stripe to stripe: the odd primes found so far (a
# prefix of all odd primes, so an index into it never changes meaning), and,
# in _pair_tables' cache, per Lucas parameter pair (P, Q) the rank of
# apparition of the prime at each index (0 = not computed yet), next to the
# exact integers U_g of (P, Q) for g < _EXACT_U.  The cache holds the tables
# of 64 pairs and drops the least recently used first.  Each process fills
# only its own tables: a pool worker keeps the ranks it computes for as long
# as it lives, and a forked one starts from a copy of its parent's tables as
# they were when it forked.
_odd_primes = array("I")
_odd_primes_limit = 2
# How many exact U_g a table keeps: g < 64 for 97% of the prime cofactors
# decided near 2**34 (see the module docstring).
_EXACT_U = 64
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


@lru_cache(maxsize=64)
def _pair_tables(P: int, Q: int) -> tuple[array, list[int]]:
    """A new empty rank table of (P, Q), which :meth:`Segment.checker`
    grows to the length of the prime table, and the exact U_g of (P, Q)
    for g < _EXACT_U."""
    exact = [0, 1]
    for _ in range(_EXACT_U - 2):
        exact.append(P * exact[-1] - Q * exact[-2])
    return array("I"), exact


def sieve_limit(hi: int) -> int:
    """Sieving limit of a scan whose largest n is hi."""
    return min(isqrt(hi), SIEVE_CAP)


class Segment:
    """Factor sieve of the odd n in [lo, hi] by the odd primes <= limit.

    n itself is never recorded as its own factor.  ``lo`` is the first odd
    n.  A scan builds one per stripe, and :func:`pellprime.kernel.settle`
    reads the record with :meth:`unfactored` and :meth:`checker`, one call
    per class.  The build sieves the primes below a quarter of the
    stripe's length by slices and links each multiple of the larger ones
    on its own (see the module docstring).
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
        # A prime below size/4 has four multiples here or more, and pushes
        # itself onto the chains of all of them with a few slice operations.
        # A larger one has five at most, and links each one at a time, in
        # rounds: a round links the next multiple of every prime that still
        # has one here, then steps those primes on by p.
        short = bisect_left(primes, size >> 2)
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
        # Past mid, a prime has one multiple here at most.
        mid = bisect_left(primes, size)
        js = list(compress(range(short, count),
                           map(lt, islice(starts, short, None), repeat(size))))
        at = list(map(starts.__getitem__, js))
        while js:
            factor.extend(js)
            for i in at:
                nxt.append(head[i])
                head[i] = end
                end += 1
            js = js[:bisect_left(js, mid)]
            at = list(map(add, at, map(primes.__getitem__, js)))
            live = list(map(lt, at, repeat(size)))
            js = list(compress(js, live))
            at = list(compress(at, live))

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

    def checker(self, P: int, Q: int, scale: int, j: int,
                ns: Iterable[int]) -> list[int]:
        """The n of ns, in their order, for which no factor proves
        scale*U_k(P, Q) ≢ 0 (mod n), for the n of this segment, Lucas (P, Q)
        and k = n - j.

        A proof is a prime q | n with q ∤ Q*scale and U_k ≢ 0 (mod q): a
        factor q <= limit whose rank does not divide k, or a cofactor q
        known to be prime.  The tables of (P, Q) are looked up once per
        call, and the rank table grown to the prime table's length; the
        kernel makes one call for all the members of a class.

        One loop walks each n's factor chain once.  Most walks end at the
        first factor, whose rank rules n out; each factor that does not is
        divided out of n before the walk goes on, so what is left at the
        end of the chain is the cofactor (n itself when none is recorded).
        A prime cofactor q's rank divides q - (D/q), so it divides k
        exactly when U_g ≡ 0 (mod q) for g = gcd(k, q - (D/q)).  For
        g < 64, 97% of the cofactors decided near 2**34, that is the exact
        U_g mod q; only a larger g runs the ladder.
        """
        qs = Q * scale
        D = P * P - 4 * Q
        ranks, exact = _pair_tables(P, Q)
        if len(ranks) < len(_odd_primes):
            ranks.frombytes(bytes(4 * (len(_odd_primes) - len(ranks))))
        primes, head, factor, nxt = (_odd_primes, self._head, self._factor,
                                     self._next)
        origin, prime_below = self.lo, self.prime_below
        kept: list[int] = []
        for n in ns:
            k = n - j
            c = n
            i = head[(n - origin) >> 1]
            while i >= 0:
                idx = factor[i]
                p = primes[idx]
                if qs % p:
                    rank = ranks[idx]
                    if not rank:
                        rank = ranks[idx] = rank_of_apparition(P, Q, p)
                    if k % rank:
                        break
                c //= p
                while not c % p:
                    c //= p
                i = nxt[i]
            else:
                # c, the cofactor, is 1 or prime below prime_below.  A prime
                # c's rank divides c - (D/c), and is c when c | D, so it
                # divides k exactly when U_g ≡ 0 (mod c).
                if c == 1 or c >= prime_below or not qs % c:
                    kept.append(n)
                    continue
                g = gcd(k, c - jacobi(D, c))
                if not (exact[g] if g < _EXACT_U
                        else _lucas_u(P, Q, g, c)[0]) % c:
                    kept.append(n)
        return kept
