import random

import pytest

from oracles import (
    brahmagupta,
    conic_norm,
    inv_mod,
    lucas_to_conic,
    mat_apply,
    mat_mul,
    mat_pow,
)
from pellprime.conic import conic_pow, rational_point
from pellprime.modarith import Factor, jacobi


def test_brahmagupta_examples():
    n = 10**6
    p = (123, 456)
    assert brahmagupta((1, 0), p, 3, n) == p
    assert brahmagupta((2, 1), (2, 1), 3, n) == (7, 4)
    # conjugate pair collapses to (norm, 0)
    x, y, D = 38, 27, 5
    assert brahmagupta((x, y), (x, -y), D, n) == ((x * x - D * y * y) % n, 0)


def test_conic_pow_examples():
    n = 10**6
    assert conic_pow((2, 1), 0, 3, n) == (1, 0)
    assert conic_pow((2, 1), 2, 3, n) == brahmagupta((2, 1), (2, 1), 3, n)
    # six sequential Brahmagupta products give (1351, 780)
    assert conic_pow((2, 1), 6, 3, n) == (1351, 780)
    with pytest.raises(ValueError):
        conic_pow((2, 1), -1, 3, n)


def test_conic_norm_examples():
    n = 10**6
    assert conic_norm((1, 0), 7, n) == 1
    assert conic_norm((2, 1), 3, n) == 1
    assert conic_norm((3, 2), 5, n) == -11 % n


def test_norm_is_multiplicative():
    rng = random.Random(21)
    for _ in range(300):
        n = rng.randrange(3, 10**9) | 1
        D = rng.randrange(-50, 50)
        p = (rng.randrange(n), rng.randrange(n))
        q = (rng.randrange(n), rng.randrange(n))
        lhs = conic_norm(brahmagupta(p, q, D, n), D, n)
        assert lhs == conic_norm(p, D, n) * conic_norm(q, D, n) % n


def test_group_laws_on_norm_one_points():
    rng = random.Random(22)
    checked = 0
    while checked < 200:
        n = rng.randrange(3, 10**6) | 1
        D = rng.randrange(-30, 30)
        pts = []
        while len(pts) < 3:
            pt = rational_point(rng.randrange(n), D, n)
            if not isinstance(pt, Factor):
                pts.append(pt)
        p, q, r = pts
        # identity and inverse
        assert brahmagupta(p, (1, 0), D, n) == p
        assert brahmagupta(p, (p[0], -p[1] % n), D, n) == (1 % n, 0)
        # associativity
        lhs = brahmagupta(brahmagupta(p, q, D, n), r, D, n)
        rhs = brahmagupta(p, brahmagupta(q, r, D, n), D, n)
        assert lhs == rhs
        checked += 1


def test_conic_pow_matches_companion_matrix_power():
    # C = [[x, D*y], [y, x]] applied to (1, 0) tracks the point powers.
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randrange(3, 10**6) | 1
        D = rng.randrange(-30, 30)
        x, y = rng.randrange(n), rng.randrange(n)
        C = (x, D * y % n, y, x)
        for k in range(0, 201, 17):
            assert mat_apply(mat_pow(C, k, n), (1, 0), n) == conic_pow((x, y), k, D, n)


def test_rational_point_examples():
    assert rational_point(3, 3, 10**6 + 1) == (2, 1)
    # a = P + 2, D = P^2 - 4 gives (P/2, 1/2); for P=4, n=101: (2, 51)
    assert rational_point(6, 12, 101) == (2, 51)
    # denominator sharing a factor with n
    assert rational_point(1, 4, 15) == Factor(3)
    # a^2 ≡ D (mod n): point at infinity, no representative
    assert rational_point(5, 8, 17) == Factor(17)


def test_rational_point_has_norm_one():
    rng = random.Random(24)
    for _ in range(500):
        n = rng.randrange(3, 10**9) | 1
        D = rng.randrange(-100, 100)
        a = rng.randrange(n)
        pt = rational_point(a, D, n)
        if isinstance(pt, Factor):
            assert 1 < pt.value <= n and n % pt.value == 0
        else:
            assert conic_norm(pt, D, n) == 1


def test_lucas_to_conic():
    params = lucas_to_conic(4, 101)
    assert (params.D, params.x, params.y) == (12, 2, 51)
    assert conic_norm(params.point(101), params.D, 101) == 1
    degenerate = lucas_to_conic(2, 101)
    assert degenerate.D == 0 and degenerate.x == 1 and degenerate.y == 51
    for P in (3, 4, 5, 6, -7):
        for n in (101, 65, 9999999967):
            params = lucas_to_conic(P, n)
            assert conic_norm(params.point(n), params.D, n) == 1


def _mat_inv(m, n):
    d = (m[0] * m[3] - m[1] * m[2]) % n
    dinv = inv_mod(d, n)
    assert not isinstance(dinv, Factor)
    return tuple(v * dinv % n for v in (m[3], -m[1], -m[2], m[0]))


def test_similarity_between_lucas_and_conic_matrices():
    # R1 = [[1, P], [0, 2]] conjugates L(P, 1) into C(P/2, 1/2, P^2-4);
    # R2 = [[1, -x], [0, y]] conjugates C(x, y, D) into L(2x, x^2 - D y^2).
    rng = random.Random(25)
    for _ in range(50):
        n = rng.randrange(5, 10**6) | 1
        P = rng.randrange(-20, 21)
        L = (P % n, -1 % n, 1, 0)
        R1 = (1, P % n, 0, 2)
        cp = lucas_to_conic(P, n)
        C = (cp.x, cp.D * cp.y % n, cp.y, cp.x)
        assert mat_mul(_mat_inv(R1, n), mat_mul(L, R1, n), n) == C

        x, y = rng.randrange(n), rng.randrange(1, n)
        if isinstance(inv_mod(y, n), Factor):  # R2 needs det = y invertible
            continue
        D = rng.randrange(-30, 30)
        C2 = (x, D * y % n, y, x)
        R2 = (1, -x % n, 0, y)
        normq = (x * x - D * y * y) % n
        L2 = (2 * x % n, -normq % n, 1, 0)
        assert mat_mul(_mat_inv(R2, n), mat_mul(C2, R2, n), n) == L2


def test_conic_order_divides_p_minus_jacobi(primes_10k):
    # |C| = p - (D/p): any norm-1 point to that power is the identity.
    rng = random.Random(26)
    for D in (-7, -2, 2, 3, 5, 13):
        for p in primes_10k[::7]:
            if jacobi(D, p) == 0:
                continue
            pt = rational_point(rng.randrange(p), D, p)
            if isinstance(pt, Factor):
                continue
            assert conic_pow(pt, p - jacobi(D, p), D, p) == (1, 0)
