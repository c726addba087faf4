"""Acceptance suite: every criterion runs at its stated exact tolerance.

Each test prints one PASS/FAIL line (visible with -rA or on failure).  Two
known-red items assert the published reference values and are documented
in the README:

* criterion 3's Lucas (-3,-2) count: the published figure text says 94, but
  the verified count is 95 (every passer double-checked against an
  independent O(n) recurrence oracle and an independent primality check);
* criterion 4: neither companion-congruence variant reproduces the published
  matrix-test data as parameterized; the data is reproduced exactly by the
  v-companion variant with Q negated (see
  test_matrix_data_reproduced_with_negated_q).
"""

import random
import time

import pytest

from oracles import brahmagupta, conic_norm, lucas_to_conic
from pellprime.conic import ConicParams, rational_point
from pellprime.modarith import Factor, jacobi, mul_mod, pow_mod
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
from pellprime.search import build_test, is_prime, scan_range
from pellprime.selectors import (
    double_lucas_selfridge,
    gen_pell_selfridge,
    lucas_selfridge,
    matrix_selfridge,
)

PP = Outcome.PROBABLE_PRIME
JOBS = 2

LUCAS_4_1 = (65, 209, 629, 679, 901, 989, 1241, 1769, 1961, 1991, 2509,
             2701, 2911, 3007, 3439, 3869)
DOUBLE_4_1 = (209, 901, 989, 2701, 2911, 3007, 3439)
SELFRIDGE_LUCAS_15000 = (323, 377, 1159, 1829, 3827, 5459, 5777, 9071, 9179,
                         10877, 11419, 11663, 13919, 14839)
SELFRIDGE_DOUBLE_240000 = (5777, 10877, 75077, 100127, 113573, 161027,
                           162133, 231703)

_elapsed_criterion3 = []


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_01_lucas_example_list():
    t0 = time.monotonic()
    r = scan_range("lucas", {"P": 4, "Q": 1}, 3, 5000)
    dt = time.monotonic() - t0
    ok = r.pseudoprimes == LUCAS_4_1 and dt < 5
    report(1, ok, f"Lucas (4,1) list to 5000, {r.count} values in {dt:.2f}s")
    assert r.pseudoprimes == LUCAS_4_1
    assert dt < 5


def test_criterion_02_double_lucas_example_list():
    t0 = time.monotonic()
    r = scan_range("double-lucas", {"P": 4, "Q": 1}, 3, 5000)
    dt = time.monotonic() - t0
    ok = r.pseudoprimes == DOUBLE_4_1 and dt < 5
    report(2, ok, f"double Lucas (4,1) list to 5000, {r.count} values in {dt:.2f}s")
    assert r.pseudoprimes == DOUBLE_4_1
    assert dt < 5


@pytest.mark.parametrize("method,P,Q,expected", [
    ("lucas", -3, -3, 45),
    ("lucas", -3, -2, 94),   # known red: the verified count is 95
    ("double-lucas", -3, -3, 2),
    ("double-lucas", -3, -2, 0),
    ("lucas", -3, 1, 91),
    ("double-lucas", -3, 1, 50),
])
def test_criterion_03_grid_counts_at_1e5(method, P, Q, expected):
    t0 = time.monotonic()
    r = scan_range(method, {"P": P, "Q": Q}, 3, 10**5, jobs=JOBS)
    dt = time.monotonic() - t0
    _elapsed_criterion3.append(dt)
    ok = r.count == expected
    report(3, ok, f"{method} ({P},{Q}) at 1e5: got {r.count}, expected {expected} [{dt:.1f}s]")
    assert r.count == expected


def test_criterion_03_double_extension_to_5e5():
    t0 = time.monotonic()
    r = scan_range("double-lucas", {"P": -3, "Q": -2}, 10**5 + 1, 5 * 10**5,
                   jobs=JOBS)
    dt = time.monotonic() - t0
    _elapsed_criterion3.append(dt)
    ok = r.pseudoprimes == (220729, 334153)
    report(3, ok, f"double (-3,-2) in (1e5, 5e5]: {list(r.pseudoprimes)} [{dt:.1f}s]")
    assert r.pseudoprimes == (220729, 334153)


def test_criterion_03_equal_counts_cell():
    t0 = time.monotonic()
    a = scan_range("lucas", {"P": -3, "Q": 2}, 3, 10**5, jobs=JOBS)
    b = scan_range("double-lucas", {"P": -3, "Q": 2}, 3, 10**5, jobs=JOBS)
    dt = time.monotonic() - t0
    _elapsed_criterion3.append(dt)
    ok = a.count == b.count
    report(3, ok, f"Lucas (-3,2) = {a.count} vs double = {b.count} [{dt:.1f}s]")
    assert a.count == b.count


def test_criterion_03_total_runtime():
    total = sum(_elapsed_criterion3)
    report(3, total < 120, f"total grid-count runtime {total:.1f}s (< 120s)")
    assert total < 120


def _matrix_cell_data(variant):
    a1 = scan_range("matrix", {"P": 1, "Q": 2, "R": -1, "variant": variant},
                    3, 10**5, jobs=JOBS)
    a2 = scan_range("matrix", {"P": 1, "Q": 2, "R": -1, "variant": variant},
                    10**5 + 1, 5 * 10**5, jobs=JOBS)
    b = scan_range("matrix", {"P": 3, "Q": 2, "R": 2, "variant": variant},
                   3, 10**5, jobs=JOBS)
    return a1.count, a2.pseudoprimes, b.count


def test_criterion_04_matrix_counts():
    """Exactly one variant must reproduce the published matrix-test data.

    Known red: the data ((1,2,-1): 0 then {226801}; (3,2,2): 123) matches
    neither variant at these parameters; it corresponds to Q negated (see
    the companion regression test below and the README).
    """
    results = {v: _matrix_cell_data(v) for v in ("u-companion", "v-companion")}
    target = (0, (226801,), 123)
    matching = [v for v, got in results.items() if got == target]
    ok = len(matching) == 1
    report(4, ok, f"target {target}; u-companion -> {results['u-companion']}, "
                  f"v-companion -> {results['v-companion']}; matching variants: {matching}")
    assert len(matching) == 1, (
        f"expected exactly one variant to reproduce {target}, got "
        f"u-companion={results['u-companion']}, v-companion={results['v-companion']}")


def test_matrix_data_reproduced_with_negated_q():
    # The published cell data is exact for the v-companion conditions on the
    # characteristic polynomial t^2 - P t - QR, i.e. Q negated.
    a1 = scan_range("matrix", {"P": 1, "Q": -2, "R": -1, "variant": "v-companion"},
                    3, 10**5, jobs=JOBS)
    a2 = scan_range("matrix", {"P": 1, "Q": -2, "R": -1, "variant": "v-companion"},
                    10**5 + 1, 5 * 10**5, jobs=JOBS)
    b = scan_range("matrix", {"P": 3, "Q": -2, "R": 2, "variant": "v-companion"},
                   3, 10**5, jobs=JOBS)
    got = (a1.count, a2.pseudoprimes, b.count)
    report("4-regression", got == (0, (226801,), 123),
           f"negated-Q v-companion variant -> {got}")
    assert got == (0, (226801,), 123)


def test_criterion_05_selfridge_lucas_prefix():
    t0 = time.monotonic()
    r = scan_range("lucas", {"selfridge": True}, 3, 14999, jobs=JOBS)
    dt = time.monotonic() - t0
    ok = r.pseudoprimes == SELFRIDGE_LUCAS_15000 and dt < 30
    report(5, ok, f"Selfridge Lucas < 15000: {r.count} values in {dt:.1f}s")
    assert r.pseudoprimes == SELFRIDGE_LUCAS_15000
    assert dt < 30


def test_criterion_06_selfridge_double_prefix():
    t0 = time.monotonic()
    r = scan_range("double-lucas", {"selfridge": True}, 3, 239999, jobs=JOBS)
    dt = time.monotonic() - t0
    ok = r.pseudoprimes == SELFRIDGE_DOUBLE_240000 and dt < 120
    report(6, ok, f"Selfridge double Lucas < 240000: {r.count} values in {dt:.1f}s")
    assert r.pseudoprimes == SELFRIDGE_DOUBLE_240000
    assert dt < 120


def test_criterion_07_matrix_selfridge_desk_gate():
    t0 = time.monotonic()
    r = scan_range("matrix", {"selfridge": True}, 3, 10**6, jobs=JOBS)
    dt = time.monotonic() - t0
    ok = r.count == 0 and dt < 300
    report(7, ok, f"matrix+Selfridge to 1e6: {r.count} pseudoprimes in {dt:.0f}s")
    assert r.count == 0
    assert dt < 300


@pytest.mark.slow
def test_criterion_07_matrix_selfridge_slow_to_1e7():
    r = scan_range("matrix", {"selfridge": True}, 3, 10**7, jobs=JOBS)
    report("7-slow", r.count == 0, f"matrix+Selfridge to 1e7: {r.count} pseudoprimes")
    assert r.count == 0


def test_criterion_08_gen_pell_selfridge_desk_gate():
    t0 = time.monotonic()
    r = scan_range("gen-pell", {"selfridge": True}, 3, 10**7, jobs=JOBS)
    dt = time.monotonic() - t0
    ok = r.count == 0 and dt < 600
    report(8, ok, f"generalized Pell+Selfridge to 1e7: {r.count} pseudoprimes in {dt:.0f}s")
    assert r.count == 0
    assert dt < 600


@pytest.mark.slow
def test_criterion_08_gen_pell_selfridge_slow_to_1e8(tmp_path):
    # extends toward the 1e10 claim; the full range is an offline run with
    # checkpointing (see README)
    ckpt = str(tmp_path / "genpell.ckpt")
    r = scan_range("gen-pell", {"selfridge": True}, 3, 10**8, jobs=JOBS,
                   checkpoint=ckpt)
    report("8-slow", r.count == 0, f"generalized Pell+Selfridge to 1e8: {r.count}")
    assert r.count == 0


# --- criterion 9: property suites (always run) ------------------------------


class _Skip:
    outcome = Outcome.PARAMS_INVALID


_SKIP = _Skip()

_LUCAS_GRID = [LucasParams(*pq) for pq in
               [(4, 1), (1, -1), (-3, -2), (3, 2), (5, -1), (-3, 1), (2, -1)]]
_MATRIX_GRID = [MatrixParams(*pqr) for pqr in
                [(1, 2, -1), (3, 2, 2), (2, 3, -2), (1, 1, 2), (5, -2, 3)]]
_CONIC_NORM1_GRID = [ConicParams(3, 2, 1), ConicParams(2, 3, 2), ConicParams(5, 9, 4)]
_GEN_PELL_GRID = [ConicParams(5, 3, 2), ConicParams(-7, 2, 3),
                  ConicParams(13, 4, 1), ConicParams(2, 5, 3)]
_PHI_GRID = [(3, 3), (12, 6), (5, 4), (-7, 2)]


def _assert_prime_sound(label, verdict_fn, primes, invalid_budget=0.05):
    invalid = 0
    for p in primes:
        v = verdict_fn(p)
        if v.outcome is Outcome.PARAMS_INVALID:
            invalid += 1
            continue
        assert v.outcome is PP, (label, p, v)
    assert invalid <= invalid_budget * len(primes), (label, invalid)


def test_criterion_09_prime_soundness_all_tests(primes_100k):
    cases = []
    for a in (2, 3, 5, 7):
        cases.append((f"fermat a={a}",
                      lambda p, a=a: fermat_test(p, a) if p > a else _SKIP))
        cases.append((f"strong a={a}",
                      lambda p, a=a: strong_base_test(p, a) if p > a else _SKIP))
    for lp in _LUCAS_GRID:
        cases.append((f"lucas {lp}", lambda p, lp=lp: lucas_test(p, lp)))
        cases.append((f"double {lp}", lambda p, lp=lp: double_lucas_test(p, lp)))
    for mp in _MATRIX_GRID:
        cases.append((f"matrix {mp}",
                      lambda p, mp=mp: matrix_test(p, mp, variant="v-companion")))
    for P in (3, 4, 5, 6):
        cases.append((f"pell P={P}",
                      lambda p, P=P: pell_test(p, lucas_to_conic(P, p))))
        cases.append((f"strong-pell P={P}",
                      lambda p, P=P: strong_pell_test(p, lucas_to_conic(P, p))))
    for cp in _CONIC_NORM1_GRID:
        cases.append((f"strong-pell {cp}",
                      lambda p, cp=cp: strong_pell_test(p, cp)))
    for D, a in _PHI_GRID:
        cases.append((f"strong-pell-param D={D},a={a}",
                      lambda p, D=D, a=a: strong_pell_test_param(p, D, a)))
    for cp in _GEN_PELL_GRID:
        cases.append((f"gen-pell {cp}",
                      lambda p, cp=cp: generalized_pell_test(p, cp)))
    cases.append(("pell-variant", pell_variant_test))
    cases.append(("lucas-selfridge", lucas_selfridge))
    cases.append(("double-selfridge", double_lucas_selfridge))
    cases.append(("matrix-selfridge", matrix_selfridge))
    cases.append(("gen-pell-selfridge", gen_pell_selfridge))

    for label, fn in cases:
        _assert_prime_sound(label, fn, primes_100k)
    report("9a", True, f"prime soundness over {len(primes_100k)} primes x "
                       f"{len(cases)} test configurations")


def test_criterion_09_theorem1_equivalence():
    mismatches = 0
    for P in (3, 4, 5, 6):
        lp = LucasParams(P, 1)
        for n in range(3, 10**5, 2):
            a = lucas_test(n, lp).outcome is PP
            b = pell_test(n, lucas_to_conic(P, n)).outcome is PP
            if a != b:
                mismatches += 1
    report("9b", mismatches == 0, f"Theorem-1 equivalence mismatches: {mismatches}")
    assert mismatches == 0


def test_criterion_09_double_lucas_strong_pell_equivalence():
    # double Lucas (P, 1) ⟺ strong Pell at the mapped point, and ⟺ the
    # parametrized strong Pell with D = P^2 - 4, a = P + 2.
    mismatches = 0
    for P in (3, 4, 5, 6):
        lp = LucasParams(P, 1)
        for n in range(3, 10**5, 2):
            a = double_lucas_test(n, lp).outcome is PP
            b = strong_pell_test(n, lucas_to_conic(P, n)).outcome is PP
            c = strong_pell_test_param(n, P * P - 4, P + 2).outcome is PP
            if not (a == b == c):
                mismatches += 1
    report("9c", mismatches == 0,
           f"double-Lucas/strong-Pell/parametrized equivalence mismatches: {mismatches}")
    assert mismatches == 0


def test_criterion_09_norm_multiplicativity_and_group_laws():
    rng = random.Random(0xACCE)
    for _ in range(10**4):
        n = rng.randrange(3, 2**40) | 1
        D = rng.randrange(-50, 50)
        p = (rng.randrange(n), rng.randrange(n))
        q = (rng.randrange(n), rng.randrange(n))
        prod = brahmagupta(p, q, D, n)
        assert conic_norm(prod, D, n) == conic_norm(p, D, n) * conic_norm(q, D, n) % n
        assert brahmagupta(p, (1, 0), D, n) == p
        pt = rational_point(rng.randrange(n), D, n)
        if not isinstance(pt, Factor):
            assert brahmagupta(pt, (pt[0], -pt[1] % n), D, n) == (1 % n, 0)
    report("9d", True, "norm multiplicativity + group laws on 1e4 samples")


def test_criterion_09_matrix_r1_is_double_lucas():
    mismatches = 0
    for P, Q in ((4, 1), (-3, -2)):
        lp, mp = LucasParams(P, Q), MatrixParams(P, Q, 1)
        for n in range(3, 10**5, 2):
            if matrix_test(n, mp).outcome is not double_lucas_test(n, lp).outcome:
                mismatches += 1
    report("9e", mismatches == 0, f"matrix(R=1) vs double Lucas mismatches: {mismatches}")
    assert mismatches == 0


def test_criterion_09_equivalent_phi_parameter_pairs():
    mismatches = 0
    for n in range(3, 10**5, 2):
        a = strong_pell_test_param(n, 3, 3).outcome is PP
        b = strong_pell_test_param(n, 12, 6).outcome is PP
        if a != b:
            mismatches += 1
    report("9f", mismatches == 0, f"(D=3,a=3) vs (D=12,a=6) mismatches: {mismatches}")
    assert mismatches == 0


def test_criterion_10_arithmetic_oracle():
    rng = random.Random(0x0B5E55)
    top = 2**63 - 1
    for _ in range(10**4):
        n = rng.randrange(top - 2**40, top) | 1
        a = rng.randrange(n)
        b = rng.randrange(n)
        e = rng.randrange(2**30)
        assert mul_mod(a, b, n) == a * b % n
        assert pow_mod(a, e, n) == pow(a, e, n)
    # jacobi against the Euler criterion on primes near 2**63
    checked = 0
    n = top - 2**32
    primes = []
    while len(primes) < 40:
        n += 2
        if is_prime(n):
            primes.append(n)
    for p in primes:
        for _ in range(250):
            a = rng.randrange(2, p)
            e = pow(a, (p - 1) // 2, p)
            assert jacobi(a, p) == (1 if e == 1 else -1)
            checked += 1
    report(10, True, f"1e4 mul/pow oracle cases + {checked} Euler-criterion "
                     f"jacobi cases near 2**63")


# The base-2 pseudoprimes below 10**k: Fermat (psp(2), OEIS A055550) and
# strong (spsp(2), A055551), as published (PSW 1980).
BASE2_COUNTS = {3: (3, 0), 4: (22, 5), 5: (78, 16)}


def _assert_base2_counts(k, expected, jobs=1):
    psp = scan_range("fermat", {"a": 2}, 3, 10**k, jobs=jobs)
    spsp = scan_range("strong-base", {"a": 2}, 3, 10**k, jobs=jobs)
    assert (psp.count, spsp.count) == expected
    assert set(spsp.pseudoprimes) <= set(psp.pseudoprimes)


@pytest.mark.parametrize("k", sorted(BASE2_COUNTS))
def test_published_base2_pseudoprime_counts(k):
    _assert_base2_counts(k, BASE2_COUNTS[k])


@pytest.mark.slow
def test_published_base2_pseudoprime_counts_to_1e6():
    _assert_base2_counts(6, (245, 46))


@pytest.mark.slow
def test_published_base2_pseudoprime_counts_to_1e8():
    # ROADMAP item 10: psp(2) and spsp(2) below 10**8 (PSW 1980; OEIS
    # A055550, A055551).  fermat and strong-base have no kernel, so each
    # scan runs its per-n test on all 5*10**7 odd n.
    _assert_base2_counts(8, (2057, 488), jobs=JOBS)


# The cross table below 10**5 (ROADMAP item 12): each column's list is the
# pseudoprimes of its test, and row r, column c counts the members of r's
# list that pass c's test.  No psp(2) or spsp(2) passes a Selfridge test,
# and the double-lucas-S pseudoprimes are lucas-S pseudoprimes: the
# classical Lucas test "can be easily improved", at small scale.
CROSS_COLUMNS = {
    "psp(2)": ("fermat", {"a": 2}),
    "spsp(2)": ("strong-base", {"a": 2}),
    "lucas-S": ("lucas", {"selfridge": True}),
    "double-lucas-S": ("double-lucas", {"selfridge": True}),
    "matrix-S": ("matrix", {"selfridge": True}),
    "gen-pell-S": ("gen-pell", {"selfridge": True}),
    "pell-variant": ("pell-variant", {}),
}
CROSS_1E5 = {
    "psp(2)": (78, 16, 0, 0, 0, 0, 4),
    "spsp(2)": (16, 16, 0, 0, 0, 0, 2),
    "lucas-S": (0, 0, 57, 3, 0, 0, 3),
    "double-lucas-S": (0, 0, 3, 3, 0, 0, 0),
    "matrix-S": (0, 0, 0, 0, 0, 0, 0),
    "gen-pell-S": (0, 0, 0, 0, 0, 0, 0),
    "pell-variant": (4, 2, 3, 0, 0, 0, 63),
}


def test_cross_table_to_1e5():
    lists = {name: scan_range(method, params, 3, 10**5).pseudoprimes
             for name, (method, params) in CROSS_COLUMNS.items()}
    tests = [build_test(method, params)[0]
             for method, params in CROSS_COLUMNS.values()]
    table = {name: tuple(sum(test(n).is_probable_prime for n in found)
                         for test in tests)
             for name, found in lists.items()}
    assert table == CROSS_1E5
    assert [table[name][i] for i, name in enumerate(CROSS_COLUMNS)] == [
        len(found) for found in lists.values()]
    assert set(lists["spsp(2)"]) <= set(lists["psp(2)"])
    assert set(lists["double-lucas-S"]) <= set(lists["lucas-S"])
