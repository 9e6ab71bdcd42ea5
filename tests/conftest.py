import threading

import pytest


def _raised_within(call, seconds=60):
    """The exception call() raises on a thread of its own named "caller" (None
    if it returns); fails if the call is still running after seconds. The
    thread is a daemon, and so is every thread it starts, so a hang cannot
    keep the test process alive."""
    raised = [None]

    def run():
        try:
            call()
        except Exception as err:
            raised[0] = err

    thread = threading.Thread(target=run, name="caller", daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    assert not thread.is_alive()
    return raised[0]


@pytest.fixture
def raised_within():
    return _raised_within
