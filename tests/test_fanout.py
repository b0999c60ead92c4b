"""The fork fan-out, one process per share: results in share order,
exceptions carried back from a child or raised in this process's own share,
without waiting for later shares, no child left behind, a child that dies,
and the plain loop where the platform cannot fork; and the cut of a run of
values into shares.  No test runs more than 3 processes."""

import os
import signal
import time

import pytest

from congrlab.cli import parse_and_run
from congrlab.fanout import cut, fan_out
from congrlab.identities import IDENTITY_CATALOG


@pytest.fixture(autouse=True)
def bounded():
    """A fan-out that hangs fails its test after 60 s instead of stalling
    the run; a forked child does not inherit the alarm."""
    def timed_out(signum, frame):
        raise TimeoutError("fan-out still running after 60 s")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("jobs", [2, 3])
def test_results_come_back_in_item_order(jobs):
    """Each share sleeps less than the one before, so later shares finish
    first; one process runs each share."""
    def slower_first(i):
        time.sleep(0.05 * (jobs - i))
        return i * i, os.getpid()

    results = fan_out(slower_first, list(range(jobs)))
    assert [square for square, _ in results] == [i * i for i in range(jobs)]
    assert len({pid for _, pid in results}) == jobs
    _no_child_left()


def test_an_exception_raised_in_a_child_comes_back():
    """This process's share sleeps while the child's raises."""
    parent = os.getpid()

    def raise_in_child(i):
        if os.getpid() != parent:
            raise LookupError("raised in a child")
        time.sleep(0.1)
        return i

    with pytest.raises(LookupError, match="^raised in a child$") as caught:
        fan_out(raise_in_child, [0, 1])
    assert caught.type is LookupError
    _no_child_left()


def test_an_exception_raised_in_this_process_comes_back():
    """The child's share sleeps while this process's raises."""
    parent = os.getpid()

    def raise_here(i):
        if os.getpid() == parent:
            raise ZeroDivisionError("raised in this process")
        time.sleep(0.05)
        return i

    with pytest.raises(ZeroDivisionError, match="^raised in this process$"):
        fan_out(raise_here, [0, 1])
    _no_child_left()


def test_the_lowest_item_that_raises_wins():
    """As in the plain loop, the lowest share's exception is raised, this
    process's own or a child's, even when a later share raised first."""
    for first in (0, 1, 1):
        def raise_from(i):
            time.sleep(0.05 * (2 - i))
            if i >= first:
                raise ValueError(f"share {i}")
            return i

        with pytest.raises(ValueError, match=f"^share {first}$"):
            fan_out(raise_from, [0, 1, 2])
    _no_child_left()


@pytest.mark.parametrize("shares", [[0, 1], [0, 1, 2]], ids=["here", "in-a-child"])
def test_a_raising_share_does_not_wait_for_later_shares(shares):
    """The next to last share raises at once, in this process or in a child,
    and the last sleeps 2 s: the exception comes back long before the
    sleeper would end, and the sleeper is killed and reaped."""
    low = len(shares) - 2

    def raise_then_sleep(i):
        if i == low:
            raise ValueError(f"share {i}")
        if i > low:
            time.sleep(2)
        return i

    start = time.monotonic()
    with pytest.raises(ValueError, match=f"^share {low}$"):
        fan_out(raise_then_sleep, shares)
    assert time.monotonic() - start < 1
    _no_child_left()


def test_a_killed_child_raises_rather_than_returning_part():
    parent = os.getpid()

    def die_in_child(i):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(0.1)
        return i

    with pytest.raises(RuntimeError, match="killed by signal 9"):
        fan_out(die_in_child, [0, 1])
    _no_child_left()


def test_cli_exits_2_when_a_worker_is_killed(monkeypatch, capsys):
    parent = os.getpid()
    for name in ("SIGMA", "APERY"):
        start, lhs, rhs = IDENTITY_CATALOG[name]

        def die_in_child(n, F, lhs=lhs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(0.05)
            return lhs(n, F)

        monkeypatch.setitem(IDENTITY_CATALOG, name, (start, die_in_child, rhs))
    code = parse_and_run(["identity", "--names", "SIGMA,APERY", "--n", "1:5", "--jobs", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("congrlab: internal error: RuntimeError: a worker process was "
                            "killed by signal 9 before sending its results\n")
    _no_child_left()


def test_cut_keeps_every_value_once_in_order_in_non_empty_runs():
    """`count` runs when there are enough values; n = 1..200 in two runs of
    about equal sums of n + 1 is cut at 141 | 142."""
    for values, count in [(list(range(1, 201)), 2), (list(range(0, 41)), 3),
                          (list(range(0, 3)), 3), ([7, 11, 13, 997, 1009], 4), ([5], 1)]:
        runs = cut(values, count, lambda v: v + 1)
        assert len(runs) == count
        assert all(runs)
        assert [v for run in runs for v in run] == values
    low, high = cut(list(range(1, 201)), 2, lambda n: n + 1)
    assert (low[-1], high[0]) == (141, 142)


def test_without_fork_the_plain_loop_runs(monkeypatch):
    monkeypatch.delattr(os, "fork")
    pids = []

    def record(i):
        pids.append(os.getpid())
        return -i

    assert fan_out(record, list(range(3))) == [0, -1, -2]
    assert pids == [os.getpid()] * 3
