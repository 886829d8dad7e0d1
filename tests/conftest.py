"""Fixtures shared by every test module."""

import os
import signal

import pytest

WATCHDOG_S = 60


@pytest.fixture(autouse=True)
def no_child_left():
    """After each test this process has no child, running or exited and unreaped:
    a test, or the code it runs, must reap every process it starts."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    state = "still running" if pid == 0 else f"exited unreaped (pid {pid}, status {status})"
    pytest.fail(f"the test left a child process behind: {state}")


@pytest.fixture
def watchdog():
    """Fails the test with TimeoutError, instead of hanging the suite, when it
    runs longer than WATCHDOG_S seconds."""

    def expire(signum, frame):
        raise TimeoutError(f"test still running after {WATCHDOG_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(WATCHDOG_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
