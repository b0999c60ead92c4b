"""Spread independent tasks over worker processes.

Both batch suites go through `fan_out`: `run_suite` with one task per
block of consecutive primes, `run_identity_suite` with one per identity.
The tasks are independent, so the results equal those of the plain loop.
"""

from __future__ import annotations

import os


def available_cpus() -> int:
    """The CPUs this process may run on: its affinity set, or the machine's
    count where the platform has no affinity call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fan_out(fn, items, jobs: int) -> list:
    """`[fn(item) for item in items]`, over `min(jobs, len(items))` processes.

    With one worker or one item no process starts and this process runs
    the plain loop.  `concurrent.futures` is imported only to start a pool,
    so a run without one does not pay that import (20-40 ms).  A pool starts
    all its workers at the first task, so it is never larger than the
    number of items.  The pool pickles `fn` and the item for each task, with
    all that `fn` carries, such as the tables a block of primes reads.
    """
    workers = min(jobs, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
