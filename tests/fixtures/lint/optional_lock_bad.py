"""Fixture: ``if self._lock is None:`` where it proves nothing.

Deliberately violates WPL001 (shared-state-guard) three ways: the ``else``
branch of an optional lock written without taking it, a write after the
``if``, and the same test in a class whose lock always exists.  The
fixture never runs.
"""

import threading


class ExecutionStats:
    def __init__(self, thread_safe=False):
        self.operations = 0
        self._lock = threading.Lock() if thread_safe else None

    def record_operation(self):
        if self._lock is None:
            self.operations += 1  # unshared instance: no finding
        else:
            self.operations += 1  # line 21: WPL001 — the lock exists, untaken
        self.operations += 0  # line 22: WPL001 — either kind of instance


class TopKSet:
    def __init__(self):
        self._lock = threading.Lock()
        self.threshold_value = 0.0

    def raise_threshold(self, score):
        if self._lock is None:
            self.threshold_value = score  # line 32: WPL001 — never None here
