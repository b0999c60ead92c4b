"""Fixtures shared by the test modules."""

import concurrent.futures
import pickle

import pytest


@pytest.fixture
def inline_pool(monkeypatch):
    """Replace `fan_out`'s process pool by a stand-in that runs every task in
    this process and starts none; the list records the worker count each
    pool was asked for.  Each task's function and item, and its result, go
    through pickle as a real pool sends them, so a task that cannot be
    pickled fails here too."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            def run(*args):
                task, args = pickle.loads(pickle.dumps((fn, args)))
                return pickle.loads(pickle.dumps(task(*args)))
            return map(run, *iterables)

    # `fan_out` imports the pool class when it starts one, so patch its module
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return sizes
