import random
from functools import lru_cache

import pytest

from pellprime import primality, selectors
from oracles import lucas_to_conic
from pellprime.conic import ConicParams
from pellprime.primality import (
    Outcome,
    double_lucas_test,
    fermat_test,
    generalized_pell_test,
    lucas_test,
    matrix_test,
    pell_test,
    pell_variant_test,
    strong_base_test,
    strong_pell_test,
    strong_pell_test_param,
)
from pellprime.recurrence import LucasParams, MatrixParams
from pellprime.search import is_prime
from pellprime.selectors import (
    double_lucas_selfridge,
    gen_pell_selfridge,
    lucas_selfridge,
    matrix_selfridge,
    selfridge_classic,
    selfridge_gen_pell,
    selfridge_matrix,
)

PP = Outcome.PROBABLE_PRIME
COMPOSITE = Outcome.COMPOSITE
INVALID = Outcome.PARAMS_INVALID

# Example lists for P=4, Q=1 up to 5000, verified against a direct O(n)
# recurrence oracle before being frozen here.
LUCAS_4_1 = [65, 209, 629, 679, 901, 989, 1241, 1769, 1961, 1991, 2509,
             2701, 2911, 3007, 3439, 3869]
DOUBLE_4_1 = [209, 901, 989, 2701, 2911, 3007, 3439]


def test_fermat():
    assert fermat_test(341, 2).outcome is PP  # first base-2 Fermat pseudoprime
    assert fermat_test(7, 2).outcome is PP
    v = fermat_test(9, 3)
    assert v.outcome is COMPOSITE and v.factor == 3
    assert fermat_test(15, 4).outcome is PP  # 4^2 ≡ 1 (mod 15)
    assert fermat_test(15, 7).outcome is COMPOSITE
    assert fermat_test(11, 1).outcome is INVALID
    assert fermat_test(11, 11).outcome is INVALID
    assert fermat_test(10, 3).outcome is INVALID
    assert fermat_test(1, 1).outcome is INVALID


def test_strong_base():
    assert strong_base_test(2047, 2).outcome is PP  # smallest strong psp(2)
    assert strong_base_test(341, 2).outcome is COMPOSITE
    assert strong_base_test(17, 3).outcome is PP
    assert strong_base_test(9, 3).outcome is COMPOSITE


def test_strong_passers_are_fermat_passers():
    for n in range(3, 4000, 2):
        if strong_base_test(n, 2).outcome is PP:
            assert fermat_test(n, 2).outcome is PP


def test_lucas_examples():
    p = LucasParams(4, 1)
    assert lucas_test(65, p).outcome is PP
    v = lucas_test(63, p)
    assert v.outcome is COMPOSITE and v.factor == 3  # gcd(D=12, 63) = 3
    assert lucas_test(97, p).outcome is PP
    assert lucas_test(4, p).outcome is INVALID
    assert lucas_test(2**63 + 1, p).outcome is INVALID  # beyond the modulus cap
    assert lucas_test(9, LucasParams(5, 3)).outcome is INVALID  # gcd(Q, n) = 3


def test_lucas_list_up_to_5000():
    p = LucasParams(4, 1)
    found = [n for n in range(3, 5001, 2)
             if lucas_test(n, p).outcome is PP and not is_prime(n)]
    assert found == LUCAS_4_1


def test_double_lucas_examples():
    p = LucasParams(4, 1)
    assert double_lucas_test(209, p).outcome is PP
    assert double_lucas_test(65, p).outcome is COMPOSITE
    assert double_lucas_test(101, p).outcome is PP


def test_double_lucas_list_up_to_5000():
    p = LucasParams(4, 1)
    found = [n for n in range(3, 5001, 2)
             if double_lucas_test(n, p).outcome is PP and not is_prime(n)]
    assert found == DOUBLE_4_1


def test_double_lucas_passers_pass_lucas():
    rng = random.Random(1)
    for _ in range(20):
        p = LucasParams(rng.randrange(-9, 10), rng.randrange(-9, 10))
        if p.Q == 0 or p.discriminant == 0:
            continue
        for n in range(3, 3000, 2):
            if double_lucas_test(n, p).outcome is PP:
                assert lucas_test(n, p).outcome is PP, (p, n)


def test_matrix_examples():
    # 226801 = 337 * 673 passes for (P=1, Q=2, R=-1) under the
    # v-companion congruence.
    assert matrix_test(226801, MatrixParams(1, 2, -1), variant="v-companion").outcome is PP
    assert matrix_test(226801, MatrixParams(1, 2, -1)).outcome is COMPOSITE
    assert matrix_test(1009, MatrixParams(3, 2, 2), variant="v-companion").outcome is PP
    v = matrix_test(15, MatrixParams(1, 2, -1))
    assert v.outcome is COMPOSITE and v.factor == 3  # gcd(Δ=9, 15)
    assert matrix_test(15, MatrixParams(1, 3, 5)).outcome is INVALID  # gcd(QR, n)
    with pytest.raises(ValueError):
        matrix_test(15, MatrixParams(1, 2, -1), variant="nope")


def test_matrix_u_companion_variant_rejects_primes_when_r_is_not_one():
    # U~_p ≡ R and U~_{p+2} ≡ QR^2 for primes, so the u-companion conditions
    # (≡ 1, ≡ QR) fail for R = 2: that variant is not prime-sound.
    p = MatrixParams(3, 2, 2)
    for n in (11, 101, 1009, 10007):
        assert matrix_test(n, p, variant="u-companion").outcome is COMPOSITE
        assert matrix_test(n, p, variant="v-companion").outcome is PP


def test_matrix_r_equal_one_is_double_lucas():
    params_list = [(4, 1), (1, -1), (-3, -2), (5, 3)]
    for P, Q in params_list:
        lp, mp = LucasParams(P, Q), MatrixParams(P, Q, 1)
        for n in range(3, 2000, 2):
            expected = double_lucas_test(n, lp).outcome
            assert matrix_test(n, mp, variant="u-companion").outcome is expected
            assert matrix_test(n, mp, variant="v-companion").outcome is expected


def test_pell_examples():
    # 65 is a Lucas pseudoprime for (P=4, Q=1), so it is a Pell
    # pseudoprime for the matching conic parameters.
    assert pell_test(65, lucas_to_conic(4, 65)).outcome is PP
    assert pell_test(101, ConicParams(3, 2, 1)).outcome is PP
    assert pell_test(63, ConicParams(3, 2, 1)).outcome is COMPOSITE
    # degenerate base points are rejected, not vacuously accepted
    assert pell_test(15, ConicParams(3, 1, 0)).outcome is INVALID
    assert pell_test(15, ConicParams(3, 14, 0)).outcome is INVALID
    assert pell_test(15, ConicParams(3, 4, 0)).outcome is INVALID  # norm 16 ≡ 1
    assert pell_test(15, ConicParams(5, 3, 2)).outcome is INVALID  # norm -11


def test_strong_pell_examples():
    assert strong_pell_test(209, ConicParams(3, 2, 1)).outcome is PP
    assert strong_pell_test(65, ConicParams(3, 2, 1)).outcome is COMPOSITE
    assert strong_pell_test(103, ConicParams(3, 2, 1)).outcome is PP


def test_strong_pell_param_examples():
    assert strong_pell_test_param(209, 3, 3).outcome is PP
    assert strong_pell_test_param(65, 3, 3).outcome is COMPOSITE
    # a^2 ≡ D (mod n): 5^2 ≡ 8 (mod 17)
    assert strong_pell_test_param(17, 8, 5).outcome is INVALID
    # gcd(a^2 - D, n) = 3 is a factor of 15
    v = strong_pell_test_param(15, 4, 1)
    assert v.outcome is COMPOSITE and v.factor == 3


def test_strong_pell_param_equivalent_parameter_pairs():
    # (D=3, a=3) and (D=12, a=6) parametrize the same test.
    for n in range(3, 4000, 2):
        a = strong_pell_test_param(n, 3, 3).outcome
        b = strong_pell_test_param(n, 12, 6).outcome
        assert (a is PP) == (b is PP), n


def test_generalized_pell_examples():
    assert generalized_pell_test(1013, ConicParams(5, 3, 2)).outcome is PP
    # (3,2)^8 ≡ (7, 6) ≢ (1, 0) (mod 9), frozen from sequential products
    assert generalized_pell_test(9, ConicParams(5, 3, 2)).outcome is COMPOSITE
    # norm 9 - 20 = -11: shares a factor with 33, vanishes mod 11
    v = generalized_pell_test(33, ConicParams(5, 3, 2))
    assert v.outcome is COMPOSITE and v.factor == 11
    assert generalized_pell_test(11, ConicParams(5, 3, 2)).outcome is INVALID
    assert generalized_pell_test(15, ConicParams(7, 1, 0)).outcome is INVALID
    assert generalized_pell_test(15, ConicParams(7, 14, 0)).outcome is INVALID


def test_pell_variant_examples():
    assert pell_variant_test(7).outcome is PP
    # 169 = 13^2 heads OEIS A099011
    assert pell_variant_test(169).outcome is PP
    assert pell_variant_test(15).outcome is COMPOSITE
    assert pell_variant_test(4).outcome is INVALID


def test_pell_variant_matches_direct_recurrence():
    from pellprime.modarith import jacobi

    for n in range(3, 1302, 2):
        u0, u1 = 0, 1
        for _ in range(n):
            u0, u1 = u1, (2 * u1 + u0) % n  # P=2, Q=-1
        expected = u0 == jacobi(2, n) % n
        assert (pell_variant_test(n).outcome is PP) == expected, n


def test_theorem1_equivalence_sampled():
    # Lucas(P, 1) passes iff Pell(D=P^2-4, x=P/2, y=1/2) passes.
    for P in (3, 4, 5, 6):
        for n in range(3, 3000, 2):
            a = lucas_test(n, LucasParams(P, 1)).outcome is PP
            b = pell_test(n, lucas_to_conic(P, n)).outcome is PP
            assert a == b, (P, n)


def test_proposition_equivalence_sampled():
    # double Lucas(P, 1) passes iff strong Pell passes for the mapped point.
    for P in (3, 4, 5, 6):
        for n in range(3, 3000, 2):
            a = double_lucas_test(n, LucasParams(P, 1)).outcome is PP
            b = strong_pell_test(n, lucas_to_conic(P, n)).outcome is PP
            assert a == b, (P, n)


def test_composite_verdicts_carry_evidence():
    rng = random.Random(2)
    for _ in range(200):
        n = rng.randrange(3, 10**5) | 1
        for v in (lucas_test(n, LucasParams(4, 1)),
                  double_lucas_test(n, LucasParams(-3, -2)),
                  generalized_pell_test(n, ConicParams(5, 3, 2))):
            if v.outcome is COMPOSITE:
                assert v.evidence
            if v.outcome is INVALID:
                assert v.evidence


def test_factor_free_verdicts_are_shared_and_the_cache_is_bounded(monkeypatch):
    # A fresh cache with the module's own bound, filled below, then dropped
    # for the process's own.
    bound = primality._verdict.cache_info().maxsize
    monkeypatch.setattr(primality, "_verdict", lru_cache(maxsize=bound)(
        primality._verdict.__wrapped__))
    fib = LucasParams(1, -1)
    assert lucas_test(21, fib) is lucas_test(21, fib)  # fails its congruence
    assert lucas_test(101, fib) is lucas_test(109, fib)  # both pass, (5/n) = 1
    assert lucas_test(101, fib) is not lucas_test(107, fib)  # (5/107) = -1
    with_factor = fermat_test(15, 3)
    assert with_factor.factor == 3
    assert with_factor == fermat_test(15, 3)
    assert with_factor is not fermat_test(15, 3)
    for i in range(1024 + 10):
        verdict = primality._composite(f"evidence {i}")
        assert verdict.evidence == f"evidence {i}" and verdict.factor is None
    assert primality._verdict.cache_info().currsize == 1024


# The ten public tests, each with parameters valid for n = 9, and the
# seven Selfridge forms.
GUARDED = {
    "fermat": lambda n: fermat_test(n, 2),
    "strong-base": lambda n: strong_base_test(n, 2),
    "lucas": lambda n: lucas_test(n, LucasParams(1, -1)),
    "double-lucas": lambda n: double_lucas_test(n, LucasParams(1, -1)),
    "matrix": lambda n: matrix_test(n, MatrixParams(1, 2, 3), "v-companion"),
    "pell": lambda n: pell_test(n, ConicParams(2, 3, 2)),
    "strong-pell": lambda n: strong_pell_test(n, ConicParams(2, 3, 2)),
    "strong-pell-param": lambda n: strong_pell_test_param(n, 2, 1),
    "gen-pell": lambda n: generalized_pell_test(n, ConicParams(5, 3, 2)),
    "pell-variant": pell_variant_test,
}
SELFRIDGE = (lucas_selfridge, double_lucas_selfridge, matrix_selfridge,
             gen_pell_selfridge, selfridge_classic, selfridge_matrix,
             selfridge_gen_pell)


@pytest.mark.parametrize("n", [1, 2, 4, -3, 2**63 + 1, 9.0, True])
def test_an_n_outside_the_odd_ints_in_range_gets_one_verdict(n):
    expected = primality._check_n(n)
    assert expected.outcome is INVALID and expected.stage == "test"
    for name, test in GUARDED.items():
        assert test(n) == expected, name
    for select in SELFRIDGE:
        assert select(n) == primality.Verdict(
            INVALID, evidence="n must be odd, >= 3 and below 2**63",
            stage="selector"), select.__name__
    # an unknown variant is an error whatever n is
    for m in (n, 9):
        with pytest.raises(ValueError, match="unknown variant"):
            matrix_test(m, MatrixParams(1, 2, 3), "bogus")


@pytest.mark.parametrize("name", sorted(GUARDED))
def test_each_public_test_runs_the_guard_once_per_verdict(name, monkeypatch):
    calls = []
    check = primality._check_n
    monkeypatch.setattr(primality, "_check_n",
                        lambda n: calls.append(n) or check(n))
    for n in (9, 1009, 4):
        GUARDED[name](n)
    assert calls == [9, 1009, 4]


# Each composed Selfridge test, and the name of the test it calls through
# selectors' module globals.
COMPOSED = {
    "lucas": (lucas_selfridge, "lucas_test"),
    "double-lucas": (double_lucas_selfridge, "double_lucas_test"),
    "matrix": (matrix_selfridge, "matrix_test"),
    "gen-pell": (gen_pell_selfridge, "generalized_pell_test"),
}


@pytest.mark.parametrize("name", sorted(COMPOSED))
def test_each_composed_test_runs_the_guard_once_per_verdict(name,
                                                            monkeypatch):
    # The walk runs the guard, and the test after it its unguarded body:
    # 1009 is prime, so it reaches the test; 9 and 10201 are squares and 4
    # is even, so the walk settles them.
    calls = []
    check = primality._check_n

    def counted(n):
        calls.append(n)
        return check(n)
    monkeypatch.setattr(primality, "_check_n", counted)
    monkeypatch.setattr(selectors, "_check_n", counted)
    composed, _ = COMPOSED[name]
    for n in (9, 1009, 4, 10201):
        composed(n)
    assert calls == [9, 1009, 4, 10201]


@pytest.mark.parametrize("name", sorted(COMPOSED))
def test_a_stand_in_test_without_its_body_gives_the_same_verdicts(
        name, monkeypatch):
    # A tracer swaps the test for a wrapper with no __wrapped__; the
    # composed test calls the wrapper, which runs the guarded test.
    composed, test_name = COMPOSED[name]
    ns = [*range(-3, 2000, 2), 10201, 2**62 + 135, 3 * (2**62 + 135)]
    expected = [composed(n) for n in ns]
    original, called = getattr(selectors, test_name), []

    def stand_in(*args, **kwargs):
        called.append(args[0])
        return original(*args, **kwargs)
    monkeypatch.setattr(selectors, test_name, stand_in)
    assert [composed(n) for n in ns] == expected
    assert 1009 in called and 2**62 + 135 in called
