import contextlib
import signal
import sys

import pytest


@pytest.fixture
def default_recursion_limit():
    """Run the test at CPython's default recursion limit, whatever pytest
    or an earlier test set it to."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(saved)


class TimeLimitExceeded(BaseException):
    """Not an `Exception`, so that Hypothesis reports it at once instead of
    shrinking through more examples that may run for ever."""


@pytest.fixture
def time_limit():
    """``time_limit(seconds)``: a context that raises `TimeLimitExceeded`
    once ``seconds`` of wall time have passed, so that a case that would run
    for ever fails instead."""

    @contextlib.contextmanager
    def limit(seconds):
        def expire(signum, frame):
            raise TimeLimitExceeded(f"not done after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit
