import inspect
import multiprocessing
import multiprocessing.connection
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import STAT_KEYS, reference_scan
from pellprime import primality, recurrence, search, selectors
from pellprime.kernel import members
from pellprime.primality import Outcome
from pellprime.search import (
    build_test,
    grid_scan,
    is_prime,
    read_checkpoint,
    scan_range,
    write_checkpoint,
)
from pellprime.sieve import primes_up_to, sieve_limit


@pytest.fixture(autouse=True)
def four_cpus(monkeypatch):
    """The scan caps its pool at os.cpu_count() workers, and the pool sizes
    these tests expect need three CPUs or more, so each test sees four
    whatever the host has; a test may set its own count."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)


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


def test_built_tests_call_the_module_globals_a_tracer_swaps(monkeypatch):
    # bench/tracing.py times the layers by swapping these module globals, so
    # each test build_test returns must look them up when it runs.
    calls = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[module.__name__, name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for name in ("selfridge_classic", "selfridge_matrix",
                 "selfridge_gen_pell", "lucas_test", "double_lucas_test",
                 "matrix_test", "generalized_pell_test"):
        count(selectors, name)
    count(search, "lucas_test")
    S, P = "pellprime.selectors", "pellprime.search"
    cases = [
        ("lucas", {"selfridge": True},
         [(S, "selfridge_classic"), (S, "lucas_test")]),
        ("double-lucas", {"selfridge": True},
         [(S, "selfridge_classic"), (S, "double_lucas_test")]),
        ("matrix", {"selfridge": True},
         [(S, "selfridge_matrix"), (S, "matrix_test")]),
        ("gen-pell", {"selfridge": True},
         [(S, "selfridge_gen_pell"), (S, "generalized_pell_test")]),
        ("lucas", {"P": 4, "Q": 1}, [(P, "lucas_test")]),
    ]
    for method, params, called in cases:
        test, _ = build_test(method, params)
        calls.clear()
        assert test(10**9 + 7).outcome is Outcome.PROBABLE_PRIME
        assert calls == Counter(called), method


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


def test_scan_range_rejects_jobs_and_chunk_odds_that_are_not_ints():
    for kwargs in ({"jobs": 2.0}, {"jobs": "2"}, {"chunk_odds": 64.0},
                   {"chunk_odds": "64"}, {"jobs": None}):
        with pytest.raises(ValueError, match="must be ints"):
            scan_range("lucas", {"P": 4, "Q": 1}, 3, 100, **kwargs)


class _InProcessWorker:
    """Stands in for a worker's pipe: scans each stripe it was sent, in this
    process, when its results are received, and answers as search._serve
    does."""

    def __init__(self):
        self.stripes = []

    def send(self, stripe):
        self.stripes.append(stripe)

    def recv(self):
        args = self.stripes.pop(0)
        return {args[3]: list(search._scan_stripe(*args))}


@pytest.fixture
def in_process_pool(monkeypatch):
    """Swaps search._pool for one that starts no process, whose workers scan
    in this process, and the wait for a worker's answer for one that takes
    each worker that holds a stripe; returns the worker counts asked for."""
    opened = []

    def pool(workers):
        opened.append(workers)
        return [(None, _InProcessWorker()) for _ in range(workers)]
    monkeypatch.setattr(search, "_pool", pool)
    monkeypatch.setattr(multiprocessing.connection, "wait",
                        lambda conns: [c for c in conns if c.stripes])
    return opened


def test_pool_never_starts_more_workers_than_stripes(in_process_pool):
    # Below 386 the sieve limit is 19 and a chunk of 64 odd n spans 128
    # integers: 3 chunks from 3.  A stripe holds ceil(3 / jobs) of them, so
    # jobs=64 and jobs=3 scan 3 stripes and jobs=2 scans 2.
    params, lo, hi = {"selfridge": True}, 3, 386
    one = scan_range("lucas", params, lo, hi, chunk_odds=64)
    for jobs in (64, 3, 2):
        many = scan_range("lucas", params, lo, hi, jobs=jobs, chunk_odds=64)
        assert many.canonical_json() == one.canonical_json()
    assert in_process_pool == [3, 3, 2]


# Below 20000 the sieve limit is 141 and a chunk of 64 odd n spans 128
# integers: 157 chunks from 3.  jobs=64 cuts them into stripes of 3
# chunks, 53 stripes.
@pytest.mark.parametrize("cpus", [1, 2, 5, None])
@pytest.mark.parametrize("hi, stripes", [(386, 3), (20000, 53)])
def test_pool_never_starts_more_workers_than_cpus(monkeypatch,
                                                  in_process_pool, cpus, hi,
                                                  stripes):
    # jobs still cuts the stripes, so the result is that of one process.
    # Where one worker is all the scan may have, it starts none and scans
    # in this process.
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    params = {"selfridge": True}
    one = scan_range("lucas", params, 3, hi, chunk_odds=64)
    many = scan_range("lucas", params, 3, hi, jobs=64, chunk_odds=64)
    assert many.canonical_json() == one.canonical_json()
    workers = min(stripes, cpus or 1)
    assert in_process_pool == ([workers] if workers > 1 else [])


# 20 chunks of 512 odd n (the sieve limit is 141), cut into jobs stripes
# of ceil(20 / jobs) chunks.
POOLED_SCAN = ("lucas", {"selfridge": True}, 3, 20000)


@pytest.mark.parametrize("start_method", [None, "spawn"])
def test_a_pooled_scan_matches_one_process_and_hands_back_no_ranks(
        monkeypatch, start_method):
    # The workers keep the ranks they compute; the parent, which neither
    # sieves nor runs a per-n test here, ends with the empty rank cache it
    # started from (the one cache of the checker and the probe).  The pool is
    # closed before and after, so that the scan starts its own workers and
    # no later scan reuses them.
    search._close_pool()
    if start_method is not None:
        context = multiprocessing.get_context(start_method)
        monkeypatch.setattr(multiprocessing, "Process", context.Process)
        monkeypatch.setattr(multiprocessing, "Pipe", context.Pipe)
    monkeypatch.setattr(recurrence, "_pair_tables", lru_cache(maxsize=64)(
        recurrence._pair_tables.__wrapped__))
    try:
        pooled = scan_range(*POOLED_SCAN, jobs=2, chunk_odds=512)
        started = [type(worker) for worker, _ in search._farm]
        assert started == [multiprocessing.Process] * 2
    finally:
        search._close_pool()
    assert recurrence._pair_tables.cache_info().currsize == 0
    alone = scan_range(*POOLED_SCAN, jobs=1, chunk_odds=512)
    assert pooled.canonical_json() == alone.canonical_json()


def test_pool_is_kept_between_calls_and_replaced_when_its_size_changes():
    # POOLED_SCAN has jobs stripes, so each pooled call asks for jobs
    # workers.
    alone = scan_range(*POOLED_SCAN, jobs=1, chunk_odds=512).canonical_json()
    held = []
    for jobs in (2, 1, 2, 3):
        report = scan_range(*POOLED_SCAN, jobs=jobs, chunk_odds=512)
        assert report.canonical_json() == alone
        held.append(({w.pid for w, _ in search._farm},
                     {p.pid for p in multiprocessing.active_children()}))
    (two, workers), (one, _), (two_again, workers_again), (three, _) = held
    assert len(two) == 2 and one == two == two_again == workers
    assert workers_again == workers
    assert len(three) == 3 and not three & two


def test_grid_scan_opens_one_pool_for_all_its_cells(monkeypatch):
    # Up to 140000 the sieve limit is 374 and a stripe is one chunk of 2**16
    # odd n, so each cell scans two stripes, on the same two workers.
    search._close_pool()
    seen, pool = [], search._pool

    def recorded(workers):
        farm = pool(workers)
        seen.append([w.pid for w, _ in farm])
        return farm
    monkeypatch.setattr(search, "_pool", recorded)
    axes = ([1, 3], [-1, 2], 140_000)
    pooled = grid_scan("lucas", *axes, jobs=2)
    assert len(seen) == 4 and len(seen[0]) == 2
    assert all(pids == seen[0] for pids in seen)
    alone = grid_scan("lucas", *axes)
    assert pooled.cells == alone.cells
    assert not any(cell["skipped"] for cell in alone.cells)


# At jobs=2, 6 stripes of 256 chunks of 128 integers (2**14 odd n, the
# kernel's stripe), finds from 65 on: when the first find comes back, most
# stripes are still out.
DYING_SCAN = ("lucas", {"P": 4, "Q": 1}, 3, 6 * 2**15 + 2)


def _worker_pid() -> int:
    """The pid of a worker of this process's pool of 2, started if need be."""
    return search._pool(2)[0][0].pid


def _assert_gone(pids: list[int]) -> None:
    """Each of the processes pids is gone within 10 s; any left is killed,
    so that a failure leaves no process behind."""
    left, deadline = set(pids), time.monotonic() + 10
    while left and time.monotonic() < deadline:
        for pid in list(left):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                left.discard(pid)
        time.sleep(0.01)
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    assert not left, f"processes {sorted(left)} are still there"


def _failing_stream(failure: str, checkpoint_dir, worker: int):
    """An on_pseudoprime that fails DYING_SCAN at its first find, 65, while
    most of its stripes are still out."""
    def fail(n):
        if n != LUCAS_4_1[0]:
            return
        if failure == "worker-killed":
            os.kill(worker, signal.SIGKILL)
        elif failure == "checkpoint":
            shutil.rmtree(checkpoint_dir)  # the next write fails
        elif failure == "interrupt":
            raise KeyboardInterrupt
        else:
            raise ValueError("stream closed")
    return fail


@pytest.mark.parametrize("failure, raised", [
    ("worker-killed", RuntimeError), ("stream", ValueError),
    ("checkpoint", FileNotFoundError), ("interrupt", KeyboardInterrupt)])
def test_a_failed_pooled_scan_leaves_no_pool_behind(tmp_path, failure,
                                                    raised):
    checkpoint_dir = tmp_path / "ck"
    checkpoint_dir.mkdir()
    worker = _worker_pid()
    fail = _failing_stream(failure, checkpoint_dir, worker)
    with pytest.raises(raised) as caught:
        scan_range(*DYING_SCAN, jobs=2, chunk_odds=64,
                   checkpoint=str(checkpoint_dir / "scan.ckpt"),
                   on_pseudoprime=fail)
    if failure == "worker-killed":
        assert str(caught.value) == f"scan worker {worker} died (exit code -9)"
    assert search._farm == []
    pooled = scan_range(*DYING_SCAN, jobs=2, chunk_odds=64)
    alone = scan_range(*DYING_SCAN, jobs=1, chunk_odds=64)
    assert pooled.canonical_json() == alone.canonical_json()


def test_a_worker_that_died_while_idle_does_not_fail_the_next_scan():
    old = {w.pid for w, _ in search._pool(2)}
    pid = _worker_pid()
    os.kill(pid, signal.SIGKILL)
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # dead, not reaped
    pooled = scan_range(*DYING_SCAN, jobs=2, chunk_odds=64)
    alone = scan_range(*DYING_SCAN, jobs=1, chunk_odds=64)
    assert pooled.canonical_json() == alone.canonical_json()
    assert not old & {w.pid for w, _ in search._farm}


def test_no_pool_worker_outlives_its_interpreter():
    code = ("import multiprocessing\n"
            "from pellprime.search import scan_range\n"
            "scan_range('lucas', {'selfridge': True}, 3, 20000, jobs=2, "
            "chunk_odds=512)\n"
            "print(*(p.pid for p in multiprocessing.active_children()))\n")
    src = os.path.dirname(os.path.dirname(search.__file__))
    env = os.environ | {"PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True, check=True)
    pids = [int(pid) for pid in done.stdout.split()]
    assert len(pids) == 2
    _assert_gone(pids)


def _scan_in_child(conn):
    report = scan_range(*POOLED_SCAN, jobs=2, chunk_odds=512)
    conn.send((report.canonical_json(),
               [p.pid for p in multiprocessing.active_children()]))


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_a_multiprocessing_child_starts_its_own_pool_and_exits(start_method):
    # This process's pool is live.  A forked child starts without it, so it
    # starts its own, and ends its workers when it exits.
    scan_range(*POOLED_SCAN, jobs=2, chunk_odds=512)
    assert len(search._farm) == 2
    ours, theirs = multiprocessing.Pipe()
    child = multiprocessing.get_context(start_method).Process(
        target=_scan_in_child, args=(theirs,))
    child.start()
    try:
        assert ours.poll(120), "the child's scan did not finish"
        canonical, pids = ours.recv()
        child.join(60)
    finally:
        child.kill()  # a no-op once it has exited
        child.join()
    _assert_gone(pids)
    assert child.exitcode == 0 and len(pids) == 2
    alone = scan_range(*POOLED_SCAN, chunk_odds=512)
    assert canonical == alone.canonical_json()


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


@pytest.mark.parametrize("method", ["lucas", "gen-pell"])
def test_scan_is_deterministic_where_stripes_hold_many_chunks(method):
    # Near 10**8 the sieve limit is about 10**4 and a chunk spans 128
    # integers, so a stripe holds 79 chunks or more: this scan's 313 chunks
    # make two stripes, of 256 chunks (KERNEL_ODDS odd n) at jobs=1 and of
    # 157 at jobs=2.
    params, lo, hi = {"selfridge": True}, 10**8 + 1, 10**8 + 40_000
    chunk_odds = 64
    assert -(-sieve_limit(hi) // (2 * chunk_odds)) == 79
    a = scan_range(method, params, lo, hi, jobs=1, chunk_odds=chunk_odds)
    b = scan_range(method, params, lo, hi, jobs=2, chunk_odds=chunk_odds)
    assert a.stats["sieved"] > 0
    assert a.canonical_json() == b.canonical_json()
    # Chunks in the middle of one stripe, against the brute-force scan.
    chunks = list(search._scan_stripe(
        method, params, lo, lo + 40 * 2 * chunk_odds - 1, sieve_limit(hi),
        chunk_odds))
    assert len(chunks) == 40
    found, stats = [], dict.fromkeys(STAT_KEYS, 0)
    for _, chunk_found, chunk_stats in chunks[20:24]:
        found += chunk_found
        for k, v in chunk_stats.items():
            stats[k] += v
    assert (found, stats) == reference_scan(
        method, params, chunks[19][0] + 1, chunks[23][0], sieve_limit(hi))


def test_scan_resumes_inside_a_stripe(tmp_path):
    # The whole scan is one stripe of 157 chunks of 128 integers from lo,
    # and the cursor lands inside it, after the one find, 100017223.  The
    # first part is one stripe of 135 chunks and the second one of 22.  Both
    # parts sieve to 10**4, as the whole does, so every count joins up.
    method, params = "double-lucas", {"P": -3, "Q": 2}
    lo, hi, cursor = 10**8 + 1, 10**8 + 20_000, 10**8 + 1 + 135 * 128
    assert sieve_limit(cursor - 1) == sieve_limit(hi)
    assert 0 < (cursor - lo) % (79 * 128)
    path = str(tmp_path / "scan.ckpt")
    full = scan_range(method, params, lo, hi, chunk_odds=64)
    streamed = []
    first = scan_range(method, params, lo, cursor - 1, chunk_odds=64,
                       checkpoint=path, on_pseudoprime=streamed.append)
    assert read_checkpoint(path, method, "P=-3,Q=2") == cursor
    second = scan_range(method, params, lo, hi, chunk_odds=64, jobs=2,
                        checkpoint=path, on_pseudoprime=streamed.append)
    assert second.lo == cursor
    assert tuple(streamed) == full.pseudoprimes == (100017223,)
    assert first.pseudoprimes + second.pseudoprimes == full.pseudoprimes
    joined = {k: first.stats[k] + second.stats[k] for k in STAT_KEYS}
    assert joined == full.stats
    assert read_checkpoint(path, method, "P=-3,Q=2") == hi + 1


def test_pooled_scan_resumes_after_its_stream_fails(tmp_path):
    # 40 chunks of 128 integers, in 2 stripes of 20.  The stream fails at the
    # sixth find, 989, whose chunk [899, 1026] also holds the fifth, 901:
    # the checkpoint is written after a chunk's finds are streamed, so the
    # resumed scan starts at 899 and streams 901 again.
    method, params, lo, hi = "lucas", {"P": 4, "Q": 1}, 3, 5000
    path = str(tmp_path / "scan.ckpt")
    streamed = []

    def fail_at_sixth(n):
        streamed.append(n)
        if len(streamed) == 6:
            raise OSError("stream closed")
    with pytest.raises(OSError, match="stream closed"):
        scan_range(method, params, lo, hi, jobs=2, chunk_odds=64,
                   checkpoint=path, on_pseudoprime=fail_at_sixth)
    cursor = read_checkpoint(path, method, "P=4,Q=1")
    assert cursor == 899
    resumed = scan_range(method, params, lo, hi, jobs=2, chunk_odds=64,
                         checkpoint=path, on_pseudoprime=streamed.append)
    assert sorted(set(streamed)) == list(LUCAS_4_1)
    assert streamed == [*LUCAS_4_1[:6], *LUCAS_4_1[4:]]
    # The resumed report covers [cursor, hi] only.
    assert resumed.canonical_json() == scan_range(
        method, params, cursor, hi, chunk_odds=64).canonical_json()
    assert resumed.pseudoprimes == LUCAS_4_1[4:]


def many_chunk_stripes(rng):
    """(lo, hi, chunk_odds) of stripes of several chunks: chunks of one odd
    n around an odd square; of 64 from 3, over the bounds of the small
    discriminants; of 64 above 2**41, where the sieve proves no n prime;
    and of 2**11, with a short last chunk."""
    r = rng.randrange(3, 2**12, 2)
    lo = r * r - 2 * rng.randrange(48)
    yield lo, lo + 2 * 47, 1
    yield 3, 3 + 2 * (12 * 64 - 1), 64
    lo = rng.randrange(2**41, 2**42) | 1
    yield lo, lo + 2 * (6 * 64 - 1), 64
    lo = rng.randrange(3, 2**34) | 1
    yield lo, lo + 2 * (2 * 2**11 + rng.randrange(1, 2**11) - 1), 2**11


@pytest.mark.parametrize("method, params", [
    ("gen-pell", {"selfridge": True}), ("matrix", {"selfridge": True}),
    ("matrix", {"selfridge": True, "variant": "u-companion"}),
    ("lucas", {"P": -3, "Q": -2}), ("fermat", {"a": 2})])
def test_a_stripe_reports_each_chunk_as_the_brute_force_scan_does(method,
                                                                   params):
    # One kernel call settles the whole stripe; each chunk's finds and
    # counts are those of the brute-force scan of that chunk alone, sieved
    # to the stripe's limit.
    rng = random.Random(f"stripe/{method}/{sorted(params.items())}")
    for lo, hi, chunk_odds in many_chunk_stripes(rng):
        limit = sieve_limit(rng.randint(hi, 2 * hi))
        chunks = list(search._scan_stripe(method, params, lo, hi, limit,
                                          chunk_odds))
        assert len(chunks) == -(-((hi - lo) // 2 + 1) // chunk_odds) > 1
        a = lo
        for chunk_hi, found, stats in chunks:
            assert chunk_hi == min(a + 2 * chunk_odds - 1, hi)
            assert (found, stats) == reference_scan(
                method, params, a, chunk_hi, limit), (a, chunk_hi, limit)
            a = chunk_hi + 1


def test_the_kernel_runs_once_per_stripe(monkeypatch, in_process_pool):
    # The benchmark's windows, in chunks of 2**11 odd n: gen-pell+Selfridge
    # near 2**34, 2**14 odd n at jobs=1, is one stripe; matrix+Selfridge
    # near 2**23, 2**15 odd n at jobs=2, is two stripes of 2**14 odd n.
    calls, settle = [], search.settle

    def counted(bulk, segment, lo, size, *walked):
        calls.append(size)
        return settle(bulk, segment, lo, size, *walked)
    monkeypatch.setattr(search, "settle", counted)
    for method, lo, odds, jobs in [("gen-pell", 2**34 + 1, 2**14, 1),
                                   ("matrix", 2**23 + 1, 2**15, 2)]:
        calls.clear()
        report = scan_range(method, {"selfridge": True}, lo,
                            lo + 2 * (odds - 1), jobs=jobs, chunk_odds=2**11)
        assert calls == [search.KERNEL_ODDS] * jobs
        assert report.stats["tested"] == odds
    assert in_process_pool == [2]


@pytest.mark.parametrize("chunk_odds", [search.KERNEL_ODDS,
                                        search.KERNEL_ODDS + 1, 2**16])
@pytest.mark.parametrize("lo, hi", [(3, 10**7), (10**12 + 1, 10**12 + 10**8),
                                    (2**40 - 10**7, 2**40 + 10**7)])
def test_chunks_of_kernel_odds_or_more_keep_the_sieve_s_stripes(
        monkeypatch, in_process_pool, chunk_odds, lo, hi):
    # Such a chunk is a stripe's worth for the kernel, so for any jobs a
    # stripe is ceil(limit / span) chunks from lo | 1, span = 2*chunk_odds
    # integers, as where the sieve alone sized stripes.  The stripes are
    # recorded, not scanned.
    cut = []

    def recorded(method, params, a, b, limit, odds):
        assert odds == chunk_odds and limit == sieve_limit(hi)
        cut.append((a, b))
        return iter([(b, [], {})])
    monkeypatch.setattr(search, "_scan_stripe", recorded)
    width = -(-sieve_limit(hi) // (2 * chunk_odds)) * 2 * chunk_odds
    expected = [(a, min(a + width - 1, hi))
                for a in range(lo | 1, hi + 1, width)]
    for jobs in (1, 2, 3):
        cut.clear()
        scan_range("fermat", {"a": 2}, lo, hi, jobs=jobs,
                   chunk_odds=chunk_odds)
        assert cut == expected, jobs


@st.composite
def sized_masks(draw):
    """(size, mask) with mask < 1 << size: any mask, or a sparse one."""
    size = draw(st.integers(1, 2**16))
    bits = st.integers(0, size - 1)
    mask = draw(st.one_of(
        st.integers(0, (1 << size) - 1),
        st.sets(bits, max_size=64).map(lambda s: sum(1 << i for i in s))))
    return size, mask


@settings(max_examples=150, deadline=None)
@given(size_mask=sized_masks(),
       lo=st.integers(0, 2**62 - 2**17 - 1).map(lambda m: 2 * m + 1))
@example(size_mask=(2**16, 0), lo=3)
@example(size_mask=(2**16, 1 << 2**16 - 1), lo=2**63 - 2**18 - 1)
@example(size_mask=(2**16, (1 << 2**16) - 1), lo=2**63 - 2**18 - 1)
@example(size_mask=(2**16, 1), lo=10**10 + 1)
def test_members_are_the_set_bits_of_the_mask(size_mask, lo):
    size, mask = size_mask
    assert list(members(mask, lo)) == [lo + 2*i for i in range(size)
                                       if mask >> i & 1]


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
    with open(path, encoding="ascii") as fh:
        assert fh.read() == "cursor=12345 method=lucas params=P=4,Q=1\n"
    assert read_checkpoint(path, "lucas", "P=4,Q=1") == 12345
    with pytest.raises(ValueError):
        read_checkpoint(path, "lucas", "P=4,Q=2")
    with pytest.raises(ValueError):
        read_checkpoint(path, "double-lucas", "P=4,Q=1")
    assert read_checkpoint(str(tmp_path / "missing"), "lucas", "P=4,Q=1") is None
    # A file that still carries the hash= field of older versions resumes.
    with open(path, "w", encoding="ascii") as fh:
        fh.write("cursor=12345 method=lucas params=P=4,Q=1 "
                 "hash=75206f3d792a5855\n")
    assert read_checkpoint(path, "lucas", "P=4,Q=1") == 12345


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


def test_grid_skips_exactly_the_cells_whose_form_has_no_kernel_bulk():
    # grid_scan skips a cell by its own rule (Q, R or the discriminant 0),
    # and a fixed form gets no kernel Bulk by search._fixed's (D, Q' or the
    # scale 0).  Both rules stay, since MatrixParams rejects R = 0 before
    # _fixed could see it (R = 0 is grid_scan's own case, tested above);
    # this keeps them to the same cells.
    axis, r_values = list(range(-4, 5)), [-3, -2, -1, 1, 2, 3]
    cells = 0
    for method, rs in (("lucas", None), ("double-lucas", None),
                       ("matrix", r_values)):
        for cell in grid_scan(method, axis, axis, 50, r_values=rs).cells:
            params = {k: cell[k] for k in "RPQ" if k in cell}
            form, args, _ = search._resolve(method, params)
            assert cell["skipped"] == (form.make(*args)[1] is None), cell
            cells += 1
    assert cells == 2 * 81 + 6 * 81


def test_matrix_variant_defaults_are_the_entry_points_defaults():
    # The forms' defaults and the entry points' signatures both state a
    # matrix variant's default; they must agree.  matrix_test's signature
    # is read twice: its own, which a call uses, and the one help() shows,
    # which inspect takes from its unguarded body (__wrapped__).
    def default(fn, follow_wrapped=True):
        return inspect.signature(fn, follow_wrapped=follow_wrapped
                                 ).parameters["variant"].default

    selfridge_form, fixed_form = search.METHODS["matrix"]
    assert selfridge_form.defaults == {
        "variant": default(selectors.matrix_selfridge)} == {
        "variant": "v-companion"}
    assert fixed_form.defaults == {
        "variant": default(primality.matrix_test)} == {
        "variant": default(primality.matrix_test, False)} == {
        "variant": "u-companion"}


# [2], [1] is one degenerate cell (P*P - 4*Q = 0), so no cell is scanned.
@pytest.mark.parametrize("p_values, q_values, limit, jobs, match", [
    ([1], [1], 100, "2", "must be ints"),
    ([1], [1], 100, None, "must be ints"),
    ([2], [1], "100", 1, "must be ints"),
    ([2], [1], 100, 2.5, "must be ints"),
    ([2], [1], 2, 1, r"need 3 <= lo <= hi"),
    ([2], [1], 2**63 + 1, 1, "beyond 2\\*\\*63"),
], ids=["jobs-str", "jobs-none", "limit-str-skipped", "jobs-float-skipped",
        "limit-2-skipped", "limit-huge-skipped"])
def test_grid_scan_checks_limit_and_jobs_as_scan_range_does(
        p_values, q_values, limit, jobs, match):
    with pytest.raises(ValueError, match=match):
        grid_scan("lucas", p_values, q_values, limit, jobs=jobs)
