"""Fixture: private helpers whose writes count as guarded only when every
call to them is.

WPL001 must accept the writes of ``_bump`` (called under ``with
self._lock`` and in the ``if self._lock is None:`` body), of ``_step``
(called only from ``_bump``) and of ``_each`` (called from a list
comprehension under the lock, which runs there and then), and flag those
of ``_leak`` (also called outside any guard), ``_escape`` (passed on as a
bound method), ``_spin`` (called only by itself), ``_lazy`` (called only
from a generator expression under the lock, whose body may run after the
lock is released) and ``_later`` (a generator: calling it under the lock
runs none of its body).  The fixture never runs.
"""

import threading


class Supervisor:
    def __init__(self, shared=True):
        self.count = 0
        self._lock = threading.Lock() if shared else None

    def bump(self):
        if self._lock is None:
            self._bump()
        else:
            with self._lock:
                self._bump()

    def _bump(self):
        self.count += 1  # guarded helper: no finding
        self._step()

    def _step(self):
        self.count += 2  # called only from a guarded helper: no finding

    def leak(self):
        with self._lock:
            self._leak()
        self._leak()

    def _leak(self):
        self.count -= 1  # WPL001 — also called outside the guard

    def escape(self, run):
        with self._lock:
            run(self._escape)

    def _escape(self):
        self.count = 0  # WPL001 — a reference, not a guarded call

    def _spin(self):
        self.count = -1  # WPL001 — only its own call vouches for it
        self._spin()

    def each(self, items):
        with self._lock:
            return [self._each(item) for item in items]

    def _each(self, item):
        self.count += item  # eager comprehension under the lock: no finding

    def lazy(self, items):
        with self._lock:
            return (self._lazy(item) for item in items)

    def _lazy(self, item):
        self.count -= item  # WPL001 — runs when the generator is consumed

    def later(self):
        with self._lock:
            return self._later()

    def _later(self):
        self.count = 1  # WPL001 — runs when the generator is iterated
        yield self.count
