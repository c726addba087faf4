"""The scan's stripe kernel: the verdicts of a whole stripe of odd n, on
big-int bitmasks over the stripe.

A mask's bit i stands for the odd n = lo + 2i of a stripe that starts at
lo.  This module builds every such mask but the sieve record's
(:meth:`~pellprime.sieve.Segment.unfactored`), and settles n from them;
the scan only counts each chunk's window of :func:`count_masks`.  It
reads the record only through :class:`~pellprime.sieve.Segment`'s public
methods.

For the tests whose first congruence is U_k ≡ 0 for a Lucas sequence
(lucas, double-lucas, matrix, pell, strong-pell, gen-pell), the kernel
reaches the test's verdicts for a whole stripe at once, because calling
the test n by n costs more than everything it decides.  Nearly every
verdict follows from facts that are periodic in n or already held by the
sieve.  A form's :class:`~pellprime.selectors.Bulk` describes it; the
scan calls :func:`walk` and then :func:`settle` once per stripe.

:func:`walk` is the Selfridge or fixed-D walk.  (d/n) repeats every 4|d|
integers, so a Selfridge walk over a stripe is a few periodic patterns
(:func:`jacobi_masks`); perfect squares and the zero symbols it meets are
its short-circuited composites.  Each discriminant the stripe reaches is
described once, by ``first_congruence(bulk.params(d))``, so the
parameters the kernel settles n with are the ones the per-n walk would
pick.  The walk hands on one class per discriminant and symbol.

:func:`settle` gives every n of the stripe exactly one settle path, as
one named mask each (:class:`Settled`).  In each class, the n sharing a
prime with the class's gcd value (Q, QR or the base point's norm) are
settled as the test's preconditions settle them (:func:`sharing_mask`).
A class costs a few big-int operations over the stripe's width, and
Python work only per member it hands on: :func:`members` lists a mask's n
from its set bits, not from every position.  The kernel is the only code
whose verdicts come from the sieve's record, and the scan counts them as
``sieved``:

* an n below (limit + 1)**2 with no recorded factor is prime, and passes
  when every prime that meets the preconditions passes the test (all but
  the u-companion matrix test; each test's docstring names the theorem);
* the n with a recorded factor in a class go to one call of
  :meth:`~pellprime.sieve.Segment.checker`, made with the class's (d/n),
  which walks each n's factor chain in one loop and computes the
  congruence's index there; n fails the first congruence when the rank of
  apparition of a factor does not divide that index, or when its cofactor
  is a prime whose U_g residue is not 0 (see :mod:`pellprime.sieve`).

The per-n test runs only on what the kernel leaves, and applies the same
rank theorem there, from the same rank tables, to the primes of n below
2**9 before its ladder (see :func:`~pellprime.primality._rules_out`), a
proof that leaves each verdict as the ladder gives it:

* the n at or below a discriminant's bound (its |d|, |Q'| or |scale|),
  where a shared factor may be n itself;
* the n with no recorded factor at or above (limit + 1)**2 that
  :func:`~pellprime.primality.is_prime` finds composite, or all of them
  where primes need not pass, and the primes of the u-companion matrix
  test;
* the composites whose recorded factors do not rule them out, about one n
  in 10**5 to 10**6 near 2**34.

The scan runs the per-n test on every n of fermat, strong-base,
pell-variant, strong-pell with (D, a), and of parameters with a zero
discriminant, Q' or scale, or a pell base point of norm other than 1.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import cache
from itertools import accumulate, islice, repeat
from math import gcd, isqrt

from . import selectors
from .modarith import JACOBI_TABLE_BOUND, jacobi
from .primality import Outcome, first_congruence, is_prime
from .selectors import Bulk

__all__ = ["Bulk", "Settled", "count_masks", "jacobi_masks", "members",
           "settle", "sharing_mask", "walk"]

# The settle paths of a stripe's n, one bitmask each; every n is in exactly
# one.  ``short``: composites the Selfridge walk settles; ``sharing``: n
# sharing a prime with the class's Q'; ``failed``: (d/n) = 0 for a fixed d;
# ``proved``: primes the sieve proves; ``oracle``: primes beyond the
# sieve's proof that is_prime finds; ``ruled``: composites a recorded
# factor or a prime cofactor rules out; ``left``: the n left to the per-n
# test.
Settled = namedtuple("Settled",
                     "short sharing failed proved oracle ruled left")


def members(mask: int, lo: int) -> Iterator[int]:
    """The odd n = lo + 2i for the set bits i of mask, ascending.

    The string work is C-level over the mask's width, and Python objects
    are made only per member: the mask's bits, lowest first, with each 1 a
    line break and encoded in UTF-16, which gives every position two
    bytes, are lines whose lengths are the steps from one member to the
    next.
    """
    steps = (bin(mask)[:1:-1].replace("1", "\n").encode("utf-16-le")
             .splitlines(True))
    # lo - 1 and the last line, the high byte of the last position, are not
    # members.
    return islice(accumulate(map(len, steps), initial=lo - 1), 1, len(steps))


def _mask(ns, lo: int, size: int) -> int:
    """The bitmask over i < size of the odd n = lo + 2i in ns."""
    digits = bytearray(b"0") * size
    for n in ns:
        digits[n - lo >> 1] = 0x31
    return int(digits[::-1], 2)


def _upto(bound: int, lo: int, size: int) -> int:
    """The bitmask over i < size of the odd n = lo + 2i <= bound."""
    return (1 << max(0, min(size, (bound - lo) // 2 + 1))) - 1


def walk(bulk: Bulk, lo: int, size: int) -> tuple[int, int, list]:
    """The Selfridge or fixed-D walk over the odd n = lo + 2i, i < size.

    Returns (short, rest, classes): the composites the walk settles itself
    (perfect squares, and (d/n) = 0 with n > |d| on a Selfridge walk); the
    n it leaves to the per-n test, those at or below the bound of a
    discriminant they reach (its |d|, |Q'| or |scale|), where a shared
    factor may be n itself, and those beyond the candidate cap; and one
    class ((P', Q', scale), (d/n), mask) per discriminant and symbol for
    every other n.
    """
    def at(d: int) -> tuple[int, tuple[int, int, int]]:
        """The n at or below d's bound, and (P', Q', scale) at d."""
        _, P, Q, scale = first_congruence(bulk.params(d))
        return _upto(max(abs(d), abs(Q), abs(scale)), lo, size), (P, Q, scale)

    full = (1 << size) - 1
    short = rest = 0
    classes = []  # ((P', Q', scale), (d/n), the n of this class)
    if isinstance(bulk.D, int):
        rest, lucas = at(bulk.D)
        minus, zero = jacobi_masks(bulk.D, lo, size)
        left = full ^ rest
        classes = [(lucas, 1, left & ~(minus | zero)),
                   (lucas, -1, left & minus), (lucas, 0, left & zero)]
    else:
        # Perfect squares, then each n at the first candidate d with
        # (d/n) = -1; (d/n) = 0 with n > |d| is a proper factor.
        r = isqrt(lo - 1) + 1 | 1
        while r * r < lo + 2 * size:
            short |= 1 << (r * r - lo >> 1)
            r += 2
        left = full ^ short
        # The per-n walk's cap, read when the walk runs, so that one value
        # stops both walks.
        for d in islice(bulk.D(), selectors.CANDIDATE_CAP):
            if not left:
                break
            small, lucas = at(d)
            small &= left
            rest |= small
            left ^= small
            minus, zero = jacobi_masks(d, lo, size)
            classes.append((lucas, -1, left & minus))
            short |= left & zero
            left &= ~(minus | zero)
        rest |= left  # beyond the cap: _select raises on these
    return short, rest, classes


def settle(bulk: Bulk, sieve, lo: int, size: int, short: int, rest: int,
           classes: list) -> Settled:
    """Settle the odd n = lo + 2i, i < size, that :func:`walk` classed.

    ``sieve`` is the stripe's :class:`~pellprime.sieve.Segment`, and
    (short, rest, classes) what the walk returned.  Each class costs a few
    big-int operations over the stripe, plus one call of the sieve's
    checker on its members with a recorded factor.  Where the sieve proves
    no n prime, at or above (limit + 1)**2 (in a scan, above 2**40), each
    member with no recorded factor is first given to ``is_prime`` when
    every prime passes the test.  The n the walk left, those with no
    recorded factor that are composite, or prime when primes need not
    pass, and those the checker keeps, are ``left``.
    """
    unfactored = sieve.unfactored(lo, size)
    proved = unfactored & _upto(sieve.prime_below - 1, lo, size)
    # primes: proved members; checked: the members with a recorded factor.
    sharing = failed = primes = checked = 0
    # The checked n not ruled out, and the primes beyond the sieve's proof.
    survivors, oracle = [], []
    for (P, Q, scale), j, mask in classes:
        if not mask:
            continue
        shared = mask & sharing_mask(Q, lo, size)
        sharing |= shared
        mask ^= shared
        if not j:
            failed |= mask
            continue
        if bulk.primes_pass:
            primes |= mask & proved
            mask &= ~proved
            oracle += filter(is_prime, members(mask & unfactored, lo))
        rest |= mask & unfactored
        mask &= ~unfactored
        checked |= mask
        survivors += sieve.checker(P, Q, scale, j, members(mask, lo))
    beyond = _mask(oracle, lo, size)
    kept = _mask(survivors, lo, size)
    return Settled(short, sharing, failed, primes, beyond, checked ^ kept,
                   rest ^ beyond | kept)


def count_masks(bulk: Bulk, s: Settled) -> dict[str, int]:
    """The bitmask of the n each scan count covers, over the n that
    :func:`settle` settled (all but ``s.left``, which the per-n test
    counts), for every count but ``pseudoprimes``.  This is where the
    counts are formed from the settle paths."""
    invalid = s.sharing if bulk.shared is Outcome.PARAMS_INVALID else 0
    return {"tested": s.short | s.sharing | s.failed | s.proved | s.oracle
            | s.ruled, "short_circuited": s.short,
            "composite": s.short | s.failed | s.ruled | s.sharing ^ invalid,
            "params_invalid": invalid, "probable_prime": s.proved | s.oracle,
            "sieved": s.proved | s.ruled}


_MINUS_DIGITS = bytes.maketrans(b"\x00\x01\x03", b"001")
_ZERO_DIGITS = bytes.maketrans(b"\x00\x01\x03", b"100")
_FLAG_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
# sharing_mask finds the primes of its argument by trial division below this.
_TRIAL_BOUND = 1 << 10


def _symbol_masks(a: int, lo: int, count: int) -> tuple[int, int]:
    codes = bytes(jacobi(a, n) & 3 for n in range(lo, lo + 2 * count, 2))
    return (int(codes.translate(_MINUS_DIGITS)[::-1], 2),
            int(codes.translate(_ZERO_DIGITS)[::-1], 2))


@cache
def _pattern(a: int) -> tuple[int, int]:
    """Masks of (a/n) = -1 and (a/n) = 0 over n = 1, 3, ..., 4|a| - 1, one
    period, for a on the table."""
    return _symbol_masks(a, 1, 2 * abs(a))


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
    if 0 < abs(a) <= JACOBI_TABLE_BOUND:
        count, t, top = period, (lo >> 1) % period, (1 << period) - 1
        masks = [(m >> t) | (m << (period - t) & top) for m in _pattern(a)]
    else:
        count = min(period, size) or size
        masks = _symbol_masks(a, lo, count)
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
