import pytest

from pellprime.sieve import primes_up_to


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
