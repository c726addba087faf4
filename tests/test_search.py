import random

import pytest

from pellprime.primality import Outcome
from pellprime.search import (
    build_test,
    grid_scan,
    is_prime,
    primes_up_to,
    read_checkpoint,
    scan_range,
    write_checkpoint,
)

LUCAS_4_1 = (65, 209, 629, 679, 901, 989, 1241, 1769, 1961, 1991, 2509,
             2701, 2911, 3007, 3439, 3869)


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes_up_to(10**5)) == 9592


def test_is_prime_small_matches_sieve():
    marks = set(primes_up_to(10**4))
    for n in range(10**4):
        assert is_prime(n) == (n in marks), n


def test_is_prime_selected_values():
    assert is_prime(2) and is_prime(3)
    assert not is_prime(0) and not is_prime(1)
    assert not is_prime(341)  # 11 * 31
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime(2047)  # 23 * 89
    assert is_prime(9999999967)
    assert not is_prime(3215031751)  # strong psp to bases 2,3,5,7


# psi_k of Jaeschke (1993): the least strong pseudoprime to the first k
# prime bases, for the base counts is_prime switches between.
JAESCHKE_PSI = (1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747,
                3_474_749_660_383, 341_550_071_728_321,
                3_825_123_056_546_413_051)


@pytest.mark.parametrize("psi", JAESCHKE_PSI)
def test_is_prime_rejects_jaeschke_bounds(psi):
    assert not is_prime(psi)


def _is_prime_twelve_bases(n):
    s, r = n - 1, 0
    while s % 2 == 0:
        s //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, s, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_is_prime_agrees_with_twelve_bases():
    rng = random.Random(20201)
    ns = [rng.randrange(10**4, 2**rng.randrange(15, 64)) | 1
          for _ in range(3000)]
    ns += [psi + d for psi in JAESCHKE_PSI for d in range(-40, 41, 2)]
    for n in ns:
        assert is_prime(n) == _is_prime_twelve_bases(n), n


def test_build_test_canonical_strings():
    _, c = build_test("lucas", {"P": 4, "Q": 1})
    assert c == "P=4,Q=1"
    _, c = build_test("lucas", {"selfridge": True})
    assert c == "selfridge"
    _, c = build_test("matrix", {"P": 1, "Q": 2, "R": -1})
    assert c == "P=1,Q=2,R=-1,variant=u-companion"
    _, c = build_test("matrix", {"selfridge": True})
    assert c == "selfridge=true,variant=v-companion"
    _, c = build_test("strong-pell", {"D": 3, "a": 3})
    assert c == "D=3,a=3"
    _, c = build_test("pell-variant", {})
    assert c == "none"
    for method in ("fermat", "strong-base"):
        assert build_test(method, {"a": 2})[1] == "a=2"
    _, c = build_test("double-lucas", {"selfridge": True})
    assert c == "selfridge"
    _, c = build_test("double-lucas", {"P": 4, "Q": 1})
    assert c == "P=4,Q=1"
    _, c = build_test("matrix", {"selfridge": True, "variant": "u-companion"})
    assert c == "selfridge=true,variant=u-companion"
    _, c = build_test("matrix", {"P": 1, "Q": 2, "R": -1,
                                 "variant": "v-companion"})
    assert c == "P=1,Q=2,R=-1,variant=v-companion"
    for method in ("pell", "strong-pell"):
        assert build_test(method, {"D": 3, "x": 2, "y": 1})[1] == "D=3,x=2,y=1"
    _, c = build_test("gen-pell", {"selfridge": True})
    assert c == "selfridge"
    _, c = build_test("gen-pell", {"D": 5, "x": 3, "y": 2})
    assert c == "D=5,x=3,y=2"
    # None and a false selfridge count as not given, as the CLI passes them
    _, c = build_test("lucas", {"P": 4, "Q": 1, "R": None,
                                "selfridge": False, "variant": None})
    assert c == "P=4,Q=1"


def test_build_test_rejects_bad_input():
    with pytest.raises(ValueError):
        build_test("nope", {})
    with pytest.raises(ValueError):
        build_test("lucas", {"P": 4})  # Q missing
    with pytest.raises(ValueError):
        build_test("pell", {"D": 3})
    rejected = [
        # a name no form of the method uses
        ("fermat", {"a": 2, "P": 1}),
        ("lucas", {"P": 4, "Q": 1, "D": 12}),
        ("gen-pell", {"D": 5, "x": 3, "y": 2, "a": 1}),
        # a name the matching form does not use
        ("strong-pell", {"D": 3, "a": 3, "x": 2, "y": 1}),
        ("lucas", {"selfridge": True, "P": 4, "Q": 1}),
        # selfridge on a method without a Selfridge form
        ("pell-variant", {"selfridge": True}),
        ("fermat", {"a": 2, "selfridge": True}),
        ("strong-pell", {"D": 3, "x": 2, "y": 1, "selfridge": True}),
        # a variant on a method without one, or an unknown variant
        ("lucas", {"P": 4, "Q": 1, "variant": "v-companion"}),
        ("gen-pell", {"selfridge": True, "variant": "u-companion"}),
        ("matrix", {"P": 1, "Q": 2, "R": -1, "variant": "bogus"}),
        ("matrix", {"selfridge": True, "variant": "bogus"}),
    ]
    for method, params in rejected:
        with pytest.raises(ValueError):
            build_test(method, params)


def test_scan_range_lucas_example_list():
    report = scan_range("lucas", {"P": 4, "Q": 1}, 3, 5000)
    assert report.pseudoprimes == LUCAS_4_1
    assert report.count == 16
    assert report.stats["tested"] == len(range(3, 5001, 2))


def test_scan_range_validates_input():
    with pytest.raises(ValueError):
        scan_range("lucas", {"P": 4, "Q": 1}, 2, 100)
    with pytest.raises(ValueError):
        scan_range("lucas", {"P": 4, "Q": 1}, 100, 4)
    for jobs in (0, -3):
        with pytest.raises(ValueError):
            scan_range("lucas", {"P": 4, "Q": 1}, 3, 100, jobs=jobs)
    for chunk_odds in (0, -1):
        with pytest.raises(ValueError):
            scan_range("lucas", {"P": 4, "Q": 1}, 3, 100,
                       chunk_odds=chunk_odds)
    with pytest.raises(ValueError):
        scan_range("lucas", {"P": 4, "Q": 1}, 3, 2**63 + 1)


def test_scan_reports_only_verified_composites():
    report = scan_range("lucas", {"selfridge": True}, 3, 20000)
    test, _ = build_test("lucas", {"selfridge": True})
    for n in report.pseudoprimes:
        assert n % 2 == 1 and 3 <= n <= 20000
        assert not is_prime(n)
        assert test(n).outcome is Outcome.PROBABLE_PRIME
    assert list(report.pseudoprimes) == sorted(set(report.pseudoprimes))


def test_scan_is_deterministic_across_jobs():
    kwargs = dict(chunk_odds=512)  # force many chunks
    a = scan_range("lucas", {"selfridge": True}, 3, 20000, jobs=1, **kwargs)
    b = scan_range("lucas", {"selfridge": True}, 3, 20000, jobs=2, **kwargs)
    assert a.stats["sieved"] > 0
    assert a.canonical_json() == b.canonical_json()


def test_scan_chunk_size_does_not_change_output():
    a = scan_range("double-lucas", {"P": 4, "Q": 1}, 3, 6000, chunk_odds=100)
    b = scan_range("double-lucas", {"P": 4, "Q": 1}, 3, 6000)
    assert a.stats["sieved"] > 0
    assert a.canonical_json() == b.canonical_json()


def test_scan_counts_are_additive():
    lo, mid, hi = 3, 2501, 5000
    full = scan_range("lucas", {"P": 4, "Q": 1}, lo, hi)
    left = scan_range("lucas", {"P": 4, "Q": 1}, lo, mid)
    right = scan_range("lucas", {"P": 4, "Q": 1}, mid + 1, hi)
    assert left.count + right.count == full.count
    assert left.pseudoprimes + right.pseudoprimes == full.pseudoprimes


def test_scan_streams_in_ascending_order():
    seen = []
    scan_range("lucas", {"P": 4, "Q": 1}, 3, 5000, chunk_odds=64,
               on_pseudoprime=seen.append)
    assert tuple(seen) == LUCAS_4_1


def test_params_invalid_not_counted_as_pseudoprime():
    # D = 0 for (P=2, Q=1): every candidate is params-invalid
    report = scan_range("lucas", {"P": 2, "Q": 1}, 3, 2001)
    assert report.count == 0
    assert report.stats["params_invalid"] == 1000


def test_checkpoint_roundtrip(tmp_path):
    path = str(tmp_path / "scan.ckpt")
    write_checkpoint(path, 12345, "lucas", "P=4,Q=1")
    assert read_checkpoint(path, "lucas", "P=4,Q=1") == 12345
    with pytest.raises(ValueError):
        read_checkpoint(path, "lucas", "P=4,Q=2")
    with pytest.raises(ValueError):
        read_checkpoint(path, "double-lucas", "P=4,Q=1")
    assert read_checkpoint(str(tmp_path / "missing"), "lucas", "P=4,Q=1") is None


def test_checkpoint_rejects_malformed_file(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("cursor=notanint method=lucas params=P=4,Q=1 hash=00\n")
    with pytest.raises(ValueError):
        read_checkpoint(str(path), "lucas", "P=4,Q=1")


def test_scan_with_checkpoint_resumes(tmp_path):
    path = str(tmp_path / "scan.ckpt")
    full = scan_range("lucas", {"P": 4, "Q": 1}, 3, 5000)
    first = scan_range("lucas", {"P": 4, "Q": 1}, 3, 2500, checkpoint=path)
    assert read_checkpoint(path, "lucas", "P=4,Q=1") == 2501
    # same checkpoint, wider range: picks up at the cursor
    second = scan_range("lucas", {"P": 4, "Q": 1}, 3, 5000, checkpoint=path)
    assert second.lo == 2501
    assert first.pseudoprimes + second.pseudoprimes == full.pseudoprimes
    assert read_checkpoint(path, "lucas", "P=4,Q=1") == 5001


def _cell(report, **coords):
    """The grid cell at the given coordinates."""
    (cell,) = [c for c in report.cells
               if all(c[k] == v for k, v in coords.items())]
    return cell


def test_grid_scan_lucas_small():
    report = grid_scan("lucas", [-3, -2, 2], [-1, 0, 1], 2000)
    # Q = 0 column is degenerate, as is P=±2, Q=1 (discriminant zero)
    assert _cell(report, P=-3, Q=0)["skipped"]
    assert _cell(report, P=2, Q=1)["skipped"]
    cell = _cell(report, P=-3, Q=-1)
    assert not cell["skipped"]
    expected = scan_range("lucas", {"P": -3, "Q": -1}, 3, 2000).count
    assert cell["count"] == expected


def test_grid_scan_matrix_requires_r_axis():
    with pytest.raises(ValueError):
        grid_scan("matrix", [1], [2], 500)
    report = grid_scan("matrix", [1], [2, 0], 500, r_values=[-1, 0])
    assert _cell(report, R=0, P=1, Q=2)["skipped"]
    assert _cell(report, R=-1, P=1, Q=0)["skipped"]
    assert not _cell(report, R=-1, P=1, Q=2)["skipped"]


def test_grid_scan_rejects_unknown_method():
    with pytest.raises(ValueError):
        grid_scan("gen-pell", [1], [2], 500)
    with pytest.raises(ValueError):
        grid_scan("lucas", [1], [2], 500, variant="v-companion")
    with pytest.raises(ValueError):
        grid_scan("lucas", [], [1], 500)
    with pytest.raises(ValueError):
        grid_scan("lucas", [1], [2], 500, jobs=0)
    for method in ("lucas", "double-lucas"):
        with pytest.raises(ValueError):
            grid_scan(method, [1], [-1], 500, r_values=[5])
