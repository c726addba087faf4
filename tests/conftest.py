import concurrent.futures

import pytest

from pellprime import search
from pellprime.sieve import primes_up_to


@pytest.fixture
def swap_pool_executor(monkeypatch):
    """Swaps ``concurrent.futures.ProcessPoolExecutor``, the name that
    ``search._pool`` imports when it starts a pool, for the test (call it
    with the stand-in).  This process's pool is closed before and after, so
    the test starts its own, and no later test reuses one of the
    stand-in's."""
    search._close_pool()
    yield lambda executor: monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", executor)
    search._close_pool()


@pytest.fixture(scope="session")
def primes_100k():
    """All primes in [3, 10**5)."""
    return [p for p in primes_up_to(10**5 - 1) if p > 2]


@pytest.fixture(scope="session")
def primes_10k():
    return [p for p in primes_up_to(10**4 - 1) if p > 2]


@pytest.fixture(scope="session")
def prime_set_100k(primes_100k):
    return set(primes_100k)
