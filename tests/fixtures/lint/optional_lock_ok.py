"""Fixture: a shared class whose lock is optional, written the sanctioned way.

WPL001 must stay silent: ``__init__`` declares the lock optional, so the
body of ``if self._lock is None:`` is the single-threaded path and the
``else`` branch writes under ``with self._lock``.  The fixture never runs.
"""

import threading


class ExecutionStats:
    def __init__(self, thread_safe=False):
        self.operations = 0
        self._lock = threading.Lock() if thread_safe else None

    def record_operation(self, count=1):
        if self._lock is None:
            self.operations += count  # unshared instance: no finding
        else:
            with self._lock:
                self.operations += count  # guarded: no finding
