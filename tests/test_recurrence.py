import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import IDENTITY, brahmagupta, mat_apply, mat_mul, mat_pow
from pellprime.conic import conic_pow
from pellprime.modarith import jacobi
from pellprime.recurrence import (
    LucasParams,
    MatrixParams,
    _lucas_u,
    lucas_pair,
    tilde_pair,
)


def det(m, n):
    return (m[0] * m[3] - m[1] * m[2]) % n


def test_params_discriminants():
    assert LucasParams(4, 1).discriminant == 12
    assert LucasParams(1, -1).discriminant == 5
    assert MatrixParams(1, 2, -1).discriminant == 9
    assert MatrixParams(3, 2, 2).discriminant == -7
    with pytest.raises(ValueError):
        MatrixParams(1, 2, 0)


def test_mat_mul_identity_and_hand_expansion():
    n = 10**6
    b = (5, 4, 3, 2)
    assert mat_mul(IDENTITY, b, n) == b
    L = (1, 1, 1, 0)  # P=1, Q=-1
    assert mat_mul(L, L, n) == (2, 1, 1, 1)


def test_mat_mul_against_bigint_oracle():
    rng = random.Random(42)
    for _ in range(300):
        n = rng.randrange(3, 2**63) | 1
        A = tuple(rng.randrange(n) for _ in range(4))
        B = tuple(rng.randrange(n) for _ in range(4))
        a, b, c, d = A
        e, f, g, h = B
        expected = tuple(v % n for v in
                         (a * e + b * g, a * f + b * h,
                          c * e + d * g, c * f + d * h))
        assert mat_mul(A, B, n) == expected


def test_mat_pow_edges():
    n = 997
    M = (12, 5, 7, 3)
    assert mat_pow(M, 0, n) == (1, 0, 0, 1)
    assert mat_pow(M, 1, n) == M
    assert mat_pow((n + 1, -1, 7, 3), 1, n) == (1, n - 1, 7, 3)
    with pytest.raises(ValueError):
        mat_pow(M, -2, n)


def test_mat_pow_fibonacci():
    # L for P=1, Q=-1 generates the Fibonacci numbers
    L = (1, 1, 1, 0)
    m = mat_pow(L, 10, 10**9)
    assert mat_apply(m, (1, 0), 10**9) == (89, 55)


def test_mat_pow_is_a_homomorphism():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randrange(3, 10**9) | 1
        M = tuple(rng.randrange(n) for _ in range(4))
        j = rng.randrange(0, 500)
        k = rng.randrange(0, 500)
        assert mat_pow(M, j + k, n) == mat_mul(mat_pow(M, j, n), mat_pow(M, k, n), n)
        assert det(mat_pow(M, k, n), n) == pow(det(M, n), k, n)


def test_lucas_pair_examples():
    assert lucas_pair(LucasParams(3, 1), 0, 101) == (0, 1)
    assert lucas_pair(LucasParams(1, -1), 10, 10**6) == (55, 89)
    # 0, 1, 4, 15, 56, 209, 780 for P=4, Q=1
    assert lucas_pair(LucasParams(4, 1), 5, 10**6) == (209, 780)


def test_lucas_pair_matches_direct_recurrence():
    rng = random.Random(99)
    for _ in range(50):
        P = rng.randrange(-9, 10)
        Q = rng.randrange(-9, 10)
        n = rng.randrange(3, 10**6) | 1
        params = LucasParams(P, Q)
        u0, u1 = 0, 1 % n
        for k in range(1000):
            assert lucas_pair(params, k, n) == (u0, u1)
            u0, u1 = u1, (P * u1 - Q * u0) % n


def test_tilde_pair_examples():
    assert tilde_pair(MatrixParams(3, 2, 2), 0, 10**6) == (1, 0)
    assert tilde_pair(MatrixParams(3, 2, 2), 1, 10**6) == (3, 2)
    assert tilde_pair(MatrixParams(7, -2, -3), 1, 101) == (7, 98)
    # direct recurrence: V~ = 1,3,5,3,-11  U~ = 0,2,6,10,6 (t^2 - 3t + 4)
    assert tilde_pair(MatrixParams(3, 2, 2), 4, 10**6) == (999989, 6)


def test_tilde_pair_matches_direct_recurrence():
    rng = random.Random(5)
    for _ in range(40):
        P = rng.randrange(-9, 10)
        Q = rng.randrange(-9, 10)
        R = rng.choice([-3, -2, -1, 1, 2, 3])
        n = rng.randrange(3, 10**6) | 1
        params = MatrixParams(P, Q, R)
        qr = Q * R
        v0, v1 = 1 % n, P % n
        u0, u1 = 0, R % n
        for k in range(300):
            assert tilde_pair(params, k, n) == (v0, u0)
            v0, v1 = v1, (P * v1 - qr * v0) % n
            u0, u1 = u1, (P * u1 - qr * u0) % n


_GRID = [
    MatrixParams(1, 2, -1),
    MatrixParams(3, 2, 2),
    MatrixParams(1, -1, 1),
    MatrixParams(2, 3, -2),
    MatrixParams(5, -2, 3),
]


def test_prime_branch_congruences_up_to_1e5(primes_100k):
    # For prime p with gcd(QR, p) = 1: (Δ/p)=1 forces U~_{p-1} ≡ 0 and
    # V~_{p-1} ≡ 1, while (Δ/p)=-1 forces U~_{p+1} ≡ 0 and V~_{p+1} ≡ QR.
    for params in _GRID:
        qr = params.Q * params.R
        delta = params.discriminant
        for p in primes_100k:
            if qr % p == 0:
                continue
            j = jacobi(delta, p)
            if j == 1:
                v, u = tilde_pair(params, p - 1, p)
                assert u == 0 and v == 1 % p, (params, p)
            elif j == -1:
                v, u = tilde_pair(params, p + 1, p)
                assert u == 0 and v == qr % p, (params, p)


# The ladder against the two reference oracles, which share no code with it:
# the 2x2 matrix power and repeated Brahmagupta products.  Moduli include
# even n and n = 1; parameters are signed and unreduced.
_moduli = st.integers(1, 2**63 - 1)
_indices = st.integers(0, 2**64 - 1)
_params = st.integers(-10**20, 10**20)


def _oracle_pair(P, Q, R, k, n):
    """[[P, -Q], [R, 0]]**k applied to (1, 0) by the matrix power."""
    return mat_apply(mat_pow((P, -Q, R, 0), k, n), (1, 0), n)


@settings(max_examples=300, deadline=None)
@given(n=_moduli, k=_indices, P=_params, Q=_params, R=_params)
@example(n=1, k=0, P=3, Q=5, R=7)
@example(n=2, k=0, P=-3, Q=5, R=7)
def test_ladder_matches_matrix_power(n, k, P, Q, R):
    u_next, u = _oracle_pair(P, Q, 1, k, n)
    assert _lucas_u(P, Q, k, n) == (u, u_next)
    assert lucas_pair(LucasParams(P, Q), k, n) == (u, u_next)
    if R != 0:
        assert tilde_pair(MatrixParams(P, Q, R), k, n) == _oracle_pair(P, Q, R, k, n)


@settings(max_examples=300, deadline=None)
@given(n=_moduli, k=_indices, D=_params, x=_params, y=_params)
@example(n=1, k=0, D=3, x=2, y=1)
def test_conic_pow_ladder_matches_matrix_power(n, k, D, x, y):
    # C = [[x, D*y], [y, x]] applied to (1, 0) tracks the point powers.
    C = (x, D * y, y, x)
    assert conic_pow((x, y), k, D, n) == mat_apply(mat_pow(C, k, n), (1, 0), n)


@settings(max_examples=300, deadline=None)
@given(n=_moduli, k=st.integers(0, 40), D=_params, x=_params, y=_params)
@example(n=1, k=0, D=3, x=2, y=1)
def test_conic_pow_ladder_matches_repeated_brahmagupta(n, k, D, x, y):
    point = (1 % n, 0)
    for _ in range(k):
        point = brahmagupta(point, (x, y), D, n)
    assert conic_pow((x, y), k, D, n) == point


def test_ladders_reject_negative_index():
    with pytest.raises(ValueError):
        _lucas_u(1, -1, -1, 101)
    with pytest.raises(ValueError):
        lucas_pair(LucasParams(1, -1), -1, 101)
    with pytest.raises(ValueError):
        tilde_pair(MatrixParams(1, 2, -1), -5, 101)
