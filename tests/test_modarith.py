import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pellprime.modarith import (
    JACOBI_TABLE_BOUND,
    Factor,
    _jacobi,
    gcd,
    inv_mod,
    is_perfect_square,
    jacobi,
    mul_mod,
    pow_mod,
    validate_modulus,
)


def test_mul_mod_examples():
    assert mul_mod(2, 3, 5) == 1
    for x in (0, 1, 7, 10**9):
        assert mul_mod(0, x, 11) == 0
    # (n-1)^2 ≡ 1 (mod n); value computed with arbitrary-precision ints
    assert mul_mod(9999999966, 9999999966, 9999999967) == 1


def test_mul_mod_canonicalizes_signs():
    assert mul_mod(-1, 1, 7) == 6
    assert mul_mod(-3, -3, 7) == 2


def test_pow_mod_examples():
    assert pow_mod(5, 0, 7) == 1
    assert pow_mod(2, 10, 1000) == 24
    assert pow_mod(3, 100, 101) == 1  # Fermat: 101 prime


def test_pow_mod_rejects_negative_exponent():
    with pytest.raises(ValueError):
        pow_mod(2, -1, 7)


def test_mul_pow_against_bigint_oracle():
    rng = random.Random(0xC0FFEE)
    top = 2**63 - 1
    for _ in range(2000):
        n = rng.randrange(top - 2**32, top) | 1
        a = rng.randrange(n)
        b = rng.randrange(n)
        e = rng.randrange(2**40)
        assert mul_mod(a, b, n) == (a * b) % n
        assert pow_mod(a, e, n) == pow(a, e, n)


def test_inv_mod():
    for n in (5, 9, 101, 9999999967):
        assert inv_mod(1, n) == 1
    assert inv_mod(2, 9) == 5
    assert inv_mod(3, 9) == Factor(3)
    assert inv_mod(0, 15) == Factor(15)
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randrange(3, 10**6) | 1
        a = rng.randrange(1, n)
        r = inv_mod(a, n)
        if isinstance(r, Factor):
            assert 1 < r.value <= n and n % r.value == 0
        else:
            assert mul_mod(a, r, n) == 1


def test_jacobi_examples():
    assert jacobi(1, 9) == 1
    # 323 = 17*19; frozen from a Legendre-symbol enumeration oracle
    assert jacobi(5, 323) == -1
    assert jacobi(3, 9) == 0
    assert jacobi(-7, 5) == jacobi(-7 % 5, 5) == -1


def test_jacobi_negative_one_rule():
    for n in range(3, 500, 2):
        assert jacobi(-1, n) == (1 if n % 4 == 1 else -1)


def test_jacobi_multiplicative_in_a():
    rng = random.Random(11)
    for _ in range(500):
        n = rng.randrange(3, 10**6) | 1
        a = rng.randrange(-100, 10**6)
        b = rng.randrange(-100, 10**6)
        assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)


def test_jacobi_euler_criterion(primes_10k):
    # For odd prime p: (a/p) ≡ a^((p-1)/2) (mod p)
    for p in primes_10k:
        for a in range(1, 51):
            if a % p == 0:
                continue
            e = pow_mod(a, (p - 1) // 2, p)
            assert jacobi(a, p) == (1 if e == 1 else -1)
            assert e in (1, p - 1)


def test_table_jacobi_equals_reciprocity_algorithm_exhaustively():
    # Every a on both sides of the table bound, every odd n below four
    # periods of the largest table (n = 1 included).
    bound = JACOBI_TABLE_BOUND
    odds = range(1, 16 * bound, 2)
    for a in range(-bound - 2, bound + 3):
        assert [jacobi(a, n) for n in odds] == [_jacobi(a, n) for n in odds], a


@settings(max_examples=400, deadline=None)
@given(a=st.one_of(st.integers(-JACOBI_TABLE_BOUND - 2, JACOBI_TABLE_BOUND + 2),
                   st.integers(-(2**70), 2**70)),
       n=st.integers(0, 2**62 - 1).map(lambda m: 2 * m + 1))
@example(a=5, n=2**63 - 25)
@example(a=-JACOBI_TABLE_BOUND, n=2**63 - 1)
@example(a=2**70, n=1)
def test_table_jacobi_equals_reciprocity_algorithm(a, n):
    assert jacobi(a, n) == _jacobi(a, n)


def test_jacobi_off_the_table_for_even_or_non_positive_n():
    # The table only holds odd n > 0; every other n takes the algorithm.
    for n in (2, 4, 6, 8, 10, 64, 1000, -1, -3, -7, -9, -10):
        for a in (-JACOBI_TABLE_BOUND - 1, -7, -2, -1, 1, 2, 5, 9, 11,
                  JACOBI_TABLE_BOUND):
            assert jacobi(a, n) == _jacobi(a, n), (a, n)
    for a in (-5, 0, 3, 2**70):
        with pytest.raises(ZeroDivisionError):
            _jacobi(a, 0)
        with pytest.raises(ZeroDivisionError):
            jacobi(a, 0)


def test_gcd_examples():
    assert gcd(0, 5) == 5
    assert gcd(12, 18) == 6
    assert gcd(17, 19) == 1


def test_is_perfect_square():
    assert is_perfect_square(25)
    assert not is_perfect_square(26)
    assert is_perfect_square(0)
    assert not is_perfect_square(-4)
    big = (2**31 - 1) ** 2
    assert is_perfect_square(big)
    assert not is_perfect_square(big + 1)


def test_validate_modulus():
    validate_modulus(3)
    validate_modulus(2**63 - 1)
    for bad in (1, -5, 4, 2**63 + 1, 2.0, True):
        with pytest.raises(ValueError):
            validate_modulus(bad)
