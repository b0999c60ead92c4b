"""Spread independent tasks over forked processes.

Both batch suites go through `fan_out`: `run_suite` with one task per
block of consecutive primes, `run_identity_suite` with one per identity.
The tasks are independent, so the results equal those of the plain loop.
"""

from __future__ import annotations

import os

_INDEX = 4  # bytes of one item index on the claim pipe
# Item indices are written to the claim pipe this many bytes at a time:
# POSIX's least PIPE_BUF, so that each write lands whole and the pipe always
# holds whole indices.
_CHUNK = 512


def available_cpus() -> int:
    """The CPUs this process may run on: its affinity set, or the machine's
    count where the platform has no affinity call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fan_out(fn, items, jobs: int) -> list:
    """`[fn(item) for item in items]`, over `min(jobs, len(items))` processes.

    With one worker or one item, or on a platform without `os.fork`, no
    process starts and this process runs the plain loop.  Otherwise this
    process forks one child per further worker and runs a share itself:
    every process claims the next item index off one claim pipe as it frees
    up, and each child pickles back its results by index, or the first
    exception its share raised, then exits.  `fn` and `items`, with all that
    `fn` carries, such as the tables a block of primes reads, reach the
    children by fork; only results cross a pipe, and `pickle` is imported
    only here.  Fork only from a process with no other thread running.

    Every child is reaped before this returns or raises.  An exception
    raised by `fn` comes back as the plain loop would raise it: that of the
    lowest item index that raised, since every process claims indices in
    rising order and stops at its first exception.  A child that ends
    without sending its results raises RuntimeError.
    """
    workers = min(jobs, len(items))
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    import pickle
    import signal

    claims, queue = os.pipe()
    # This process alone fills the claim pipe, so neither end may block it:
    # when the pipe is full it runs a claimed item (`_feed`), and the read
    # end, shared by every process, is polled while empty (`_claims`).
    os.set_blocking(claims, False)
    os.set_blocking(queue, False)
    children = {}  # pid: the read end of its result pipe
    try:
        for _ in range(workers - 1):
            reader, writer = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(reader)
                _child(fn, items, claims, queue, writer)
            os.close(writer)
            children[pid] = open(reader, "rb")
        done = {}
        failures = [_feed(fn, items, claims, queue, done)]
        os.close(queue)
        queue = None
        if failures[0] is None:
            failures.append(_run(fn, items, _claims(claims), done))
        for pid, results in list(children.items()):
            with results:
                data = results.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if code:
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise RuntimeError(f"a worker process {how} before sending its results")
            got, failure = pickle.loads(data)
            done.update(got)
            failures.append(failure)
    finally:
        os.close(claims)
        if queue is not None:
            os.close(queue)
        for pid, results in children.items():
            results.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    failure = min(filter(None, failures), key=lambda f: f[0], default=None)
    if failure is not None:
        raise failure[1]
    return [done[i] for i in range(len(items))]


def _run(fn, items, indices, done: dict):
    """Run `fn` on the item at each of `indices` into `done`, index to
    result, up to the first that raises; that (index, exception), or None."""
    for i in indices:
        try:
            done[i] = fn(items[i])
        except Exception as exc:  # sent back, and raised by fan_out
            return i, exc
    return None


def _claims(claims: int):
    """The item indices this process claims off the claim pipe, until it is
    empty and closed; waits while it is empty and still being written."""
    import select
    while True:
        try:
            index = os.read(claims, _INDEX)
        except BlockingIOError:
            waiting = select.poll()
            waiting.register(claims, select.POLLIN)
            waiting.poll()
            continue
        if not index:
            return
        yield int.from_bytes(index, "little")


def _feed(fn, items, claims: int, queue: int, done: dict):
    """Write every item index to the claim pipe; whenever it is full, run an
    item claimed off it in this process rather than wait for the children,
    which may all have ended.  The first (index, exception) raised, after
    which nothing more is written, or None."""
    indices = b"".join(i.to_bytes(_INDEX, "little") for i in range(len(items)))
    sent = 0
    while sent < len(indices):
        try:
            sent += os.write(queue, indices[sent:sent + _CHUNK])
        except BlockingIOError:
            try:
                index = os.read(claims, _INDEX)
            except BlockingIOError:  # the children emptied it meanwhile
                continue
            failure = _run(fn, items, [int.from_bytes(index, "little")], done)
            if failure is not None:
                return failure
    return None


def _child(fn, items, claims: int, queue: int, out: int):
    """A forked child's share: run the items it claims, write the pickled
    (results by index, first failure or None) to `out` and exit, with status
    0 only when all of it was written.  Never returns."""
    import pickle
    code = 1
    try:
        os.close(queue)  # else the claim pipe never reads as closed
        done = {}
        failure = _run(fn, items, _claims(claims), done)
        with open(out, "wb") as fh:
            pickle.dump((done, failure), fh)
        code = 0
    except BaseException:  # reported through the exit status; this process ends here
        import traceback
        traceback.print_exc()
    finally:
        os._exit(code)
