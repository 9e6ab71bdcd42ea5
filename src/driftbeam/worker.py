"""One extra thread for work whose result the caller needs only later, and
one helper that splits a kernel's work across this thread and one more.

Every caller joins its worker before it returns or raises, so no thread
outlives the call that started it, and no output byte depends on which thread
writes it or when, so the bytes of a run do not depend on how the threads are
scheduled.
"""

import threading


class Worker:
    """Runs fn(*args) on its own thread from construction on; join() waits for
    the call and returns its value, or re-raises its exception in the joining
    thread."""

    def __init__(self, fn, *args):
        self._outcome = None
        self._thread = threading.Thread(target=self._run, args=(fn, args))
        self._thread.start()

    def _run(self, fn, args):
        try:
            self._outcome = (fn(*args), None)
        except BaseException as err:  # re-raised by join()
            self._outcome = (None, err)

    def join(self):
        self._thread.join()
        value, error = self._outcome
        if error is not None:
            raise error
        return value


def on_two_threads(fn):
    """Run fn(1) on a Worker and fn(0) on this thread, and return when both
    are done. An exception of either is re-raised here, the helper's if both
    raise. fn(0) and fn(1) must write disjoint outputs, and fn(1) must
    allocate nothing large: the caller allocates its scratch, so the helper
    thread's own malloc arena does not grow the process's memory."""
    helper = Worker(fn, 1)
    try:
        fn(0)
    finally:
        helper.join()
