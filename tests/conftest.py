"""Fixtures shared by the test modules."""

import concurrent.futures

import pytest


class _SerialPool:
    """``ThreadPoolExecutor``'s context and ``map``, run in order on the calling thread."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Any worker layout on any host, with at most two real threads.

    The engine sees 64 CPUs, so it lays out as many workers as it is asked
    for (up to one per block).  A pool of two workers starts its two
    threads; a larger one runs its shares one after another on the calling
    thread.  The list of pool sizes the engine asks for.
    """
    sizes, threaded = [], concurrent.futures.ThreadPoolExecutor

    def pool(max_workers):
        sizes.append(max_workers)
        return threaded(max_workers) if max_workers <= 2 else _SerialPool()

    monkeypatch.setattr("piterbarg.estimator._cpu_count", lambda: 64)
    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", pool)
    return sizes
