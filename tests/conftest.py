"""Fixtures shared by the test modules."""

import os

import pytest

from congrlab import congruences, identities


@pytest.fixture
def fan_out_sizes(monkeypatch):
    """The worker count of each fan-out of the two suites that starts a
    process, this process counted as one; a fan-out that runs the plain loop
    adds none.  `os.fork` is wrapped to count the children each `fan_out`
    call forks, and the children are real."""
    sizes, forks = [], []
    fork = os.fork

    def counting_fork():
        forks.append(None)
        return fork()

    def counted(fan_out):
        def run(fn, shares):
            forks.clear()
            try:
                return fan_out(fn, shares)
            finally:
                if forks:
                    sizes.append(len(forks) + 1)
        return run

    monkeypatch.setattr(os, "fork", counting_fork)
    # each suite calls the `fan_out` its module imported, so patch it there
    for module in (congruences, identities):
        monkeypatch.setattr(module, "fan_out", counted(module.fan_out))
    return sizes
