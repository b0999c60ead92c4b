"""Fixtures shared by the test modules."""

import pytest

from congrlab import fanout


@pytest.fixture
def inline_pool(monkeypatch):
    """Replace `fan_out`'s process pool by a stand-in that runs every task in
    this process and starts none; the list records the worker count each
    pool was asked for."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            if initializer is not None:
                initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(fanout, "ProcessPoolExecutor", InlinePool)
    return sizes
