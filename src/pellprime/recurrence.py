"""Degree-two linear recurrences mod n, evaluated by one Lucas ladder.

Every sequence in this package is a Lucas sequence U of some (P, Q): the
pair V~, U~ attached to the matrix [[P, -Q], [R, 0]] is (U_{k+1}, R*U_k)
of Lucas(P, QR) by Cayley-Hamilton, and the conic powers in :mod:`conic`
are Lucas(2x, x^2 - D*y^2).  :func:`_lucas_u` walks the bits of k once,
with three residue products per bit; :func:`lucas_pair` and
:func:`tilde_pair` are thin adapters over it, and
:func:`rank_of_apparition` walks it down the divisors of p - (D/p).  The
tests check the ladder against the 2x2 matrix power, which lives with the
other reference oracles in the test suite.

Ranks of apparition, once computed, are kept in one table per pair (P, Q)
(:func:`_rank_tables`), which the two users of the rank theorem read and
fill alike: the scan's checker (:meth:`pellprime.sieve.Segment.checker`)
for the factors its sieve records, and the per-n tests' probe
(:func:`pellprime.primality._rules_out`) for the primes of n below its
bound.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from functools import lru_cache

from .modarith import jacobi

__all__ = [
    "LucasParams",
    "MatrixParams",
    "lucas_pair",
    "rank_of_apparition",
    "tilde_pair",
]


class LucasParams(namedtuple("LucasParams", "P Q")):
    """Lucas sequence parameters: U_0=0, U_1=1, U_k = P*U_{k-1} - Q*U_{k-2}.

    A frozen record (a named tuple).
    """

    __slots__ = ()

    @property
    def discriminant(self) -> int:
        return self.P * self.P - 4 * self.Q


class MatrixParams(namedtuple("MatrixParams", "P Q R")):
    """Parameters of the matrix [[P, -Q], [R, 0]]; R must be nonzero.

    The attached sequences recur with t^2 - P*t + Q*R and start from
    U~_0 = 0, U~_1 = R and V~_0 = 1, V~_1 = P.  R = 1 recovers the plain
    Lucas sequence (with V~_k = U_{k+1}).  A frozen record (a named
    tuple), whose constructor raises ValueError for R = 0.
    """

    __slots__ = ()

    def __new__(cls, P: int, Q: int, R: int) -> MatrixParams:
        if R == 0:
            raise ValueError("R must be nonzero")
        return super().__new__(cls, P, Q, R)

    @property
    def discriminant(self) -> int:
        return self.P * self.P - 4 * self.Q * self.R


def _lucas_u(P: int, Q: int, k: int, n: int) -> tuple[int, int]:
    """(U_k, U_{k+1}) mod n for Lucas(P, Q); k must be >= 0.

    Walks the bits of k from the top with the doubling formulas

        U_2m   = 2*U_m*U_{m+1} - P*U_m^2
        U_2m+1 = U_{m+1}^2 - Q*U_m^2
        U_2m+2 = P*U_{m+1}^2 - 2Q*U_m*U_{m+1}

    which divide by neither 2, D nor Q, so the result is exact for every
    n >= 1 (even n included) and for signed, unreduced P and Q.
    """
    if k < 0:
        raise ValueError("recurrence index must be non-negative")
    # Signed representatives of least absolute value keep the products by
    # P and Q small for the small parameters the selectors pick.
    P %= n
    Q %= n
    if P > n >> 1:
        P -= n
    if Q > n >> 1:
        Q -= n
    q2 = 2 * Q
    u, v = 0, 1  # (U_0, U_1); the first pass of the loop reduces them
    for bit in bin(k)[2:]:
        a, b, c = u * u, v * v, u * v
        if bit == "1":
            u, v = (b - Q * a) % n, (P * b - q2 * c) % n
        else:
            u, v = (2 * c - P * a) % n, (b - Q * a) % n
    return u, v


def lucas_pair(params: LucasParams, k: int, n: int) -> tuple[int, int]:
    """(U_k, U_{k+1}) mod n for the Lucas sequence of params."""
    return _lucas_u(params.P, params.Q, k, n)


def tilde_pair(params: MatrixParams, k: int, n: int) -> tuple[int, int]:
    """(V~_k, U~_k) mod n, i.e. [[P, -Q], [R, 0]]**k applied to (1, 0).

    These are (U_{k+1}, R*U_k) of Lucas(P, QR).
    """
    u, u_next = _lucas_u(params.P, params.Q * params.R, k, n)
    return (u_next, params.R * u % n)


def rank_of_apparition(P: int, Q: int, p: int) -> int:
    """The least k >= 1 with U_k(P, Q) ≡ 0 (mod p), for an odd prime p ∤ Q.

    U_k ≡ 0 (mod p) exactly when the rank divides k, and the rank divides
    p - (D/p) with D = P^2 - 4Q (it is p itself when p | D).  So it is
    found by factoring m = p - (D/p) by trial division and, for each prime
    q | m, dividing q out of the candidate r (first m) for as long as
    U_{r/q} stays ≡ 0 (Baillie and Wagstaff, *Lucas pseudoprimes*, 1980).
    p is not checked for primality; p even or p | Q raises ValueError.
    """
    if p < 3 or p % 2 == 0 or Q % p == 0:
        raise ValueError("need an odd prime p that does not divide Q")
    rank = m = p - jacobi(P * P - 4 * Q, p)
    q = 2
    while m > 1:
        if q * q > m:
            q = m  # what is left of m is prime
        if m % q == 0:
            while m % q == 0:
                m //= q
            while rank % q == 0 and _lucas_u(P, Q, rank // q, p)[0] == 0:
                rank //= q
        q += 1 if q == 2 else 2
    return rank


# The cache holds the tables of 64 pairs and drops the least recently used
# first.  Each process fills only its own: a pool worker keeps the ranks it
# computes for as long as it lives, and a forked one starts from a copy of
# its parent's tables as they were when it forked.
@lru_cache(maxsize=64)
def _pair_tables(P: int, Q: int) -> tuple[array, list[int]]:
    """A new empty rank table of (P, Q), and an empty list for the exact
    integers U_g of (P, Q) that the scan's checker fills on its first call
    for the pair (the probe does not read them, and a pair that only the
    probe meets, such as a fermat base, does not pay for them)."""
    return array("I"), []


def _rank_tables(P: int, Q: int, count: int) -> tuple[array, list[int]]:
    """The tables of (P, Q): its rank table, grown to at least count
    entries, and its list of exact U_g.

    Entry i of the rank table is the rank of apparition of the i-th odd
    prime (3 at index 0), or 0 while it is not computed; the caller
    computes it with :func:`rank_of_apparition` and stores it.  Both
    callers number the odd primes from 3 up, so an entry means the same
    prime to each.
    """
    ranks, exact = _pair_tables(P, Q)
    if len(ranks) < count:
        ranks.frombytes(bytes(4 * (count - len(ranks))))
    return ranks, exact
