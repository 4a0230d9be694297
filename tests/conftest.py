"""Shared fixtures."""

import contextlib
import signal

import pytest


class DeadlineExceeded(Exception):
    """Raised inside a ``deadline`` block that outlives its time limit."""


@pytest.fixture()
def deadline():
    """``with deadline(seconds):`` fails the test once the block runs longer than ``seconds``.

    A real-time timer interrupts the block, so a call that never returns
    fails the test instead of stalling the suite.
    """

    @contextlib.contextmanager
    def within(seconds: float):
        def expire(signum, frame):
            raise DeadlineExceeded(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    return within
