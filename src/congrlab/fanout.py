"""Spread independent shares of work over forked processes.

Both batch suites cut their work into runs of consecutive values with `cut`
and hand them to `fan_out`, one process per run: `run_suite` cuts its primes
into blocks, `run_identity_suite` its n values.  The shares are independent,
so the results equal those of the plain loop.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from itertools import accumulate


def available_cpus() -> int:
    """The CPUs this process may run on: its affinity set, or the machine's
    count where the platform has no affinity call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cut(values: list, count: int, cost) -> list[list]:
    """`count` non-empty runs of consecutive `values`, in order, cut where
    the running sum of `cost(value)` crosses each j/count of its total;
    `count` must be 1 to len(values)."""
    total = list(accumulate(map(cost, values)))
    cuts = [0]
    for j in range(1, count):
        at = bisect_left(total, total[-1] * j / count) + 1
        cuts.append(min(max(at, cuts[-1] + 1), len(values) - count + j))
    cuts.append(len(values))
    return [values[a:b] for a, b in zip(cuts, cuts[1:])]


def fan_out(fn, shares) -> list:
    """`[fn(share) for share in shares]`, one process per share.

    With one share, or on a platform without `os.fork`, no process starts
    and this process runs the plain loop.  Otherwise this process forks one
    child per share past the first and runs `shares[0]` itself; each child
    pickles back `(True, result)`, or `(False, exception)` if `fn` raised,
    then exits.  `fn` and the shares, with all that `fn` carries, such as
    the tables a block of primes reads, reach the children by fork; only
    results cross a pipe, and `pickle` is imported only here.  Fork only
    from a process with no other thread running.

    Outcomes are collected in share order, and the first that failed ends
    the fan-out: its exception is raised as the plain loop would raise it,
    that of the lowest share that raised, without waiting for later shares.
    A child that ends without sending its result raises RuntimeError.
    A child still running then is killed, and every child is reaped before
    this returns or raises.
    """
    if len(shares) <= 1 or not hasattr(os, "fork"):
        return [fn(share) for share in shares]
    import pickle
    import signal

    children = []  # (pid, the read end of its result pipe), in share order
    try:
        for share in shares[1:]:
            reader, writer = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(reader)
                _child(fn, share, writer)
            os.close(writer)
            children.append((pid, open(reader, "rb")))
        outcomes = [_outcome(fn, shares[0])]
        while outcomes[-1][0] and children:
            pid, result = children[0]
            with result:
                data = result.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            if code:
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise RuntimeError(f"a worker process {how} before sending its results")
            outcomes.append(pickle.loads(data))
    finally:
        for pid, result in children:
            result.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    ok, value = outcomes[-1]
    if not ok:
        raise value
    return [value for _, value in outcomes]


def _outcome(fn, share) -> tuple:
    """`(True, fn(share))`, or `(False, the exception it raised)`."""
    try:
        return True, fn(share)
    except Exception as exc:  # sent back, and raised by fan_out
        return False, exc


def _child(fn, share, out: int):
    """A forked child's share: run it, write the pickled outcome to `out`
    and exit, with status 0 only when all of it was written.  Never
    returns."""
    import pickle
    code = 1
    try:
        outcome = _outcome(fn, share)
        with open(out, "wb") as fh:
            pickle.dump(outcome, fh)
        code = 0
    except BaseException:  # reported through the exit status; this process ends here
        import traceback
        traceback.print_exc()
    finally:
        os._exit(code)
