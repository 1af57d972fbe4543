import pytest

from primefrob import primes
from primefrob.primes import PrimeTable


@pytest.fixture(scope="session")
def table_small():
    return PrimeTable(2_000)


@pytest.fixture(scope="session")
def table_100k():
    return PrimeTable(100_000)


@pytest.fixture(scope="session")
def table_figure():
    # reaches 3 * 48623 for the staircase scans
    return PrimeTable(3 * 48623 + 10)


@pytest.fixture(scope="session")
def table_wilf():
    # reaches 2 * p_1500 = 25106 for the large-n bound checks
    return PrimeTable(28_000)


@pytest.fixture(scope="session")
def table_1m():
    return PrimeTable(1_000_000)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker counts that process pools were started with.  A recorder
    stands in for the pool and maps in this process, so no worker starts."""
    sizes = []

    class Recorder:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(primes, "_POOL_TABLE", None)
    monkeypatch.setattr(primes, "ProcessPoolExecutor", Recorder)
    return sizes
