"""The fork fan-out: results in item order, exceptions carried back from a
child or raised in this process's own share, no child left behind, a child
that dies, a claim queue longer than one pipe holds, and the plain loop
where the platform cannot fork.  No test runs more than 3 processes."""

import os
import signal
import time

import pytest

from congrlab.cli import parse_and_run
from congrlab.fanout import fan_out
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
    """Each item sleeps less than the one before, so later items finish
    first in whichever process claimed them."""
    def slower_first(i):
        time.sleep(0.01 * (8 - i))
        return i * i, os.getpid()

    results = fan_out(slower_first, list(range(8)), jobs)
    assert [square for square, _ in results] == [i * i for i in range(8)]
    assert len({pid for _, pid in results}) > 1
    _no_child_left()


def test_an_exception_raised_in_a_child_comes_back():
    """This process's items sleep, so the child claims one and raises."""
    parent = os.getpid()

    def raise_in_child(i):
        if os.getpid() != parent:
            raise LookupError("raised in a child")
        time.sleep(0.1)
        return i

    with pytest.raises(LookupError, match="^raised in a child$") as caught:
        fan_out(raise_in_child, list(range(3)), 2)
    assert caught.type is LookupError
    _no_child_left()


def test_an_exception_raised_in_this_process_comes_back():
    """The child's items sleep, so this process claims one and raises."""
    parent = os.getpid()

    def raise_here(i):
        if os.getpid() == parent:
            raise ZeroDivisionError("raised in this process")
        time.sleep(0.05)
        return i

    with pytest.raises(ZeroDivisionError, match="^raised in this process$"):
        fan_out(raise_here, list(range(4)), 2)
    _no_child_left()


def test_the_lowest_item_that_raises_wins():
    """As in the plain loop: every process stops at its first exception,
    and of those the lowest item's is raised."""
    def raise_from_one(i):
        if i >= 1:
            raise ValueError(f"item {i}")
        time.sleep(0.05)
        return i

    for _ in range(3):
        with pytest.raises(ValueError, match="^item 1$"):
            fan_out(raise_from_one, list(range(9)), 3)
    _no_child_left()


def test_a_killed_child_raises_rather_than_returning_part():
    parent = os.getpid()

    def die_in_child(i):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(0.1)
        return i

    with pytest.raises(RuntimeError, match="killed by signal 9"):
        fan_out(die_in_child, list(range(3)), 2)
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


def test_more_items_than_one_pipe_holds():
    """20,000 indices of 4 bytes are more than a 64 KiB pipe holds, so the
    queue is written while the children claim off it."""
    items = list(range(20_000))
    assert fan_out(abs, items, 2) == items
    _no_child_left()


def test_without_fork_the_plain_loop_runs(monkeypatch):
    monkeypatch.delattr(os, "fork")
    pids = []

    def record(i):
        pids.append(os.getpid())
        return -i

    assert fan_out(record, list(range(5)), 3) == [0, -1, -2, -3, -4]
    assert pids == [os.getpid()] * 5
