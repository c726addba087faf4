import itertools

import pytest

from oracles import conic_norm
from pellprime import kernel, selectors
from pellprime.conic import ConicParams
from pellprime.modarith import jacobi
from pellprime.primality import Outcome, Verdict, first_congruence, matrix_test
from pellprime.recurrence import LucasParams, MatrixParams
from pellprime.selectors import (
    CLASSIC,
    GEN_PELL,
    MATRIX,
    Selection,
    _select,
    classic_candidates,
    classic_params,
    double_lucas_selfridge,
    gen_pell_selfridge,
    lucas_selfridge,
    matrix_candidates,
    matrix_selfridge,
    selfridge_classic,
    selfridge_gen_pell,
    selfridge_matrix,
)

PP = Outcome.PROBABLE_PRIME
COMPOSITE = Outcome.COMPOSITE


def test_candidate_streams():
    assert list(itertools.islice(classic_candidates(), 8)) == [
        5, -7, 9, -11, 13, -15, 17, -19]
    assert list(itertools.islice(matrix_candidates(), 8)) == [
        -7, 9, -15, 17, -23, 25, -31, 33]


def test_q_formulas_are_exact_for_all_candidates():
    for d in itertools.islice(classic_candidates(), 10**4):
        assert d % 4 == 1 and (1 - d) % 4 == 0
    for d in itertools.islice(matrix_candidates(), 10**4):
        assert d % 8 == 1 and (1 - d) % 8 == 0


def test_selfridge_classic_examples():
    # jacobi(5, 323) = -1, so the walk stops at its first candidate
    assert selfridge_classic(323) == LucasParams(1, -1)
    assert selfridge_classic(323).discriminant == 5
    v = selfridge_classic(25)
    assert isinstance(v, Verdict) and v.outcome is COMPOSITE and v.factor == 5
    v = selfridge_classic(10201)  # 101^2: square not caught by any divisor walk
    assert v.outcome is COMPOSITE and v.factor == 101
    assert selfridge_classic(9).outcome is COMPOSITE
    assert selfridge_classic(4).outcome is Outcome.PARAMS_INVALID


def test_selfridge_matrix_examples():
    params = selfridge_matrix(11663)
    assert isinstance(params, MatrixParams)
    assert params.P == 1 and params.R == 2
    assert params.discriminant % 8 == 1
    assert jacobi(params.discriminant, 11663) == -1
    v = selfridge_matrix(49)
    assert v.outcome is COMPOSITE and v.factor == 7
    # first candidate accepted: jacobi(-7, n) = -1 gives Q = 1
    for n in range(3, 20000, 2):
        if jacobi(-7, n) == -1:
            assert selfridge_matrix(n) == MatrixParams(1, 1, 2)
            break


def test_selfridge_gen_pell_examples():
    params = selfridge_gen_pell(323)
    assert isinstance(params, ConicParams)
    assert (params.D, params.x, params.y) == (5, 3, 2)
    assert conic_norm(params.point(323), params.D, 323) == (9 - 20) % 323
    v = selfridge_gen_pell(121)
    assert v.outcome is COMPOSITE and v.factor == 11
    for n in range(3, 2000, 2):
        p = selfridge_gen_pell(n)
        if isinstance(p, ConicParams):
            assert conic_norm(p.point(n), p.D, n) == (9 - 4 * p.D) % n


def test_selector_d_has_jacobi_minus_one():
    for selector in (selfridge_classic, selfridge_matrix, selfridge_gen_pell):
        for n in range(3, 3000, 2):
            result = selector(n)
            if isinstance(result, Verdict):
                continue
            d = result.D if isinstance(result, ConicParams) else result.discriminant
            assert jacobi(d, n) == -1, (selector.__name__, n)


def test_selector_discriminant_identity():
    # P = 1, Q = (1-D)/4 gives P^2 - 4Q = D (and similarly mod 8 with R=2)
    for n in range(3, 2000, 2):
        p = selfridge_classic(n)
        if isinstance(p, LucasParams):
            assert p.P == 1 and p.discriminant == 1 - 4 * p.Q
        m = selfridge_matrix(n)
        if isinstance(m, MatrixParams):
            assert m.discriminant == 1 - 8 * m.Q


def test_candidate_cap_raises(monkeypatch):
    # a stream that never reaches jacobi -1 must hit the hard cap
    monkeypatch.setattr(selectors, "CANDIDATE_CAP", 1000)
    # jacobi(4, n) = 1 for odd n coprime to 2
    ones = Selection(lambda: itertools.repeat(4), classic_params)
    with pytest.raises(RuntimeError, match="within 1000 candidates"):
        _select(15, ones)


def assert_walks_agree(selection, lo, size):
    """The scan's walk over the odd n = lo + 2i, i < size, against the
    per-n walk n by n: each classed n gets the class's (P', Q', scale),
    and each n the scan's walk settles a Verdict.  Returns the rest mask,
    the n the scan's walk leaves to the per-n test."""
    short, rest, classes = kernel.walk(kernel.Bulk(*selection), lo, size)
    checked = 0
    for lucas, _, mask in classes:
        for n in kernel.members(mask, lo):
            assert first_congruence(_select(n, selection))[1:] == lucas, n
            checked += 1
    for n in kernel.members(short, lo):
        assert isinstance(_select(n, selection), Verdict), n
        checked += 1
    assert checked + rest.bit_count() == size
    return rest


@pytest.mark.parametrize("selection", [CLASSIC, MATRIX, GEN_PELL],
                         ids=["classic", "matrix", "gen-pell"])
def test_the_scan_walk_picks_what_the_per_n_walk_picks(selection):
    # From 3, where the n at or below a candidate's bound are left to the
    # per-n walk; near 2**23, 2**34 and 10**10; and around 121**2.
    windows = [(3, 2999), (2**23 + 1, 4096), (2**34 + 1, 4096),
               (10**10 + 1, 4096), (121**2 - 301 | 1, 400)]
    for lo, size in windows:
        assert_walks_agree(selection, lo, size)


def test_one_cap_stops_both_walks(monkeypatch):
    # (5/109) = (-7/109) = 1 and (-11/109) = -1: with a cap of 2 neither
    # walk reaches -11, so the scan's walk leaves 109 to the per-n walk,
    # which raises.
    monkeypatch.setattr(selectors, "CANDIDATE_CAP", 2)
    three = Selection(lambda: iter((5, -7, -11)), classic_params)
    assert [jacobi(d, 109) for d in (5, -7, -11)] == [1, 1, -1]
    rest = assert_walks_agree(three, 101, 10)
    assert 109 in kernel.members(rest, 101)
    with pytest.raises(RuntimeError, match="within 2 candidates"):
        _select(109, three)


@pytest.mark.parametrize("selection", [CLASSIC, MATRIX, GEN_PELL],
                         ids=["classic", "matrix", "gen-pell"])
def test_the_walk_settles_n_with_the_whole_verdict(selection):
    # 15: the classic walk stops at D = 5, the matrix walk at D = 9 (after
    # (-7/15) = 1); both share a proper factor with 15.
    g = 3 if selection is MATRIX else 5
    assert _select(4, selection) == Verdict(
        Outcome.PARAMS_INVALID, "n must be odd, >= 3 and below 2**63",
        stage="selector")
    assert _select(10201, selection) == Verdict(
        COMPOSITE, "perfect square", factor=101, stage="selector")
    assert _select(15, selection) == Verdict(
        COMPOSITE, f"gcd(D candidate, n) = {g}", factor=g, jacobi_branch=0,
        stage="selector")


def test_the_walk_skips_a_candidate_equal_to_n():
    # (5/5) = 0 with gcd 5 = n: skipped, then (-7/5) = -1.
    assert selfridge_classic(5) == LucasParams(1, 2)
    # (-7/7) = 0 skipped, (9/7) = 1, then (-15/7) = -1.
    assert selfridge_matrix(7) == MatrixParams(1, 2, 2)


@pytest.mark.parametrize("n", [4, 9, 15, 11])
def test_matrix_selfridge_rejects_an_unknown_variant_for_every_n(n):
    with pytest.raises(ValueError, match="unknown variant: 'bogus'"):
        matrix_selfridge(n, variant="bogus")


def test_small_primes_pass_composed_tests():
    composed = (lucas_selfridge, double_lucas_selfridge, matrix_selfridge,
                gen_pell_selfridge)
    from pellprime.sieve import primes_up_to

    for p in primes_up_to(2000):
        if p == 2:
            continue
        for fn in composed:
            assert fn(p).outcome is PP, (fn.__name__, p)


def test_lucas_selfridge_prefix():
    found = [n for n in range(3, 4000, 2)
             if lucas_selfridge(n).outcome is PP and not _is_prime(n)]
    assert found == [323, 377, 1159, 1829, 3827]


def test_double_selfridge_prefix():
    found = [n for n in range(3, 11000, 2)
             if double_lucas_selfridge(n).outcome is PP and not _is_prime(n)]
    assert found == [5777, 10877]


def test_matrix_selfridge_r1_with_classic_params_is_double_lucas():
    # With R = ±1, the classic D walk and Q = (1-D)/4 reproduce the double
    # Lucas (Frobenius) path exactly.
    for n in range(3, 15000, 2):
        classic = selfridge_classic(n)
        expected = double_lucas_selfridge(n).outcome
        for r in (1, -1):
            if isinstance(classic, Verdict):
                got = classic.outcome
            else:
                q = classic.Q * r  # keep QR = (1-D)/4
                got = matrix_test(n, MatrixParams(1, q, r), variant="v-companion").outcome
            assert got is expected, (n, r)


def _is_prime(n):
    from pellprime.search import is_prime

    return is_prime(n)
