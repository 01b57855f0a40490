"""Fixtures shared by the test modules."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from piterbarg import estimator


class _RecordingPool:
    """The kept pool's ``map``, recording each run's worker count: up to two
    shares run on a pool of two real threads, more in order on the calling
    thread."""

    def __init__(self, threaded):
        self.sizes, self.threaded = [], threaded

    def map(self, fn, shares, spaces):
        self.sizes.append(len(shares))
        return (self.threaded.map if len(shares) <= 2 else map)(fn, shares, spaces)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Any worker layout on any host, with at most two real threads.

    The engine sees 64 CPUs, so it lays out as many workers as it is asked
    for (up to one per block), and hands their shares to a stand-in for
    the process's kept pool.  The list of worker counts the runs hand over.
    """
    with ThreadPoolExecutor(max_workers=2) as threaded:
        pool = _RecordingPool(threaded)
        monkeypatch.setattr(estimator, "_cpu_count", lambda: 64)
        monkeypatch.setattr(estimator, "_pool", lambda: pool)
        yield pool.sizes


@pytest.fixture
def fresh_memory_limit():
    """The memory limit read afresh in the test, and again after it, so that
    a patched reader's figure stays inside the test."""
    estimator._memory_limit.cache_clear()
    yield
    estimator._memory_limit.cache_clear()
