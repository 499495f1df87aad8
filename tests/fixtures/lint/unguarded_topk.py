"""Fixture: shared-class methods writing state without holding the lock.

Deliberately violates WPL001 (shared-state-guard).  The class name matches
one of the classes that guard themselves with their own lock, which is
what puts it in scope for the rule — the fixture never runs.
"""

import threading


class ExecutionTrace:
    def __init__(self):
        # Writes inside __init__ are exempt: the object is unshared here.
        self._lock = threading.Lock()
        self._entries = {}
        self.threshold_value = 0.0

    def unguarded_insert(self, key, score):
        self._entries[key] = score  # line 20: WPL001
        self.threshold_value = score  # line 21: WPL001

    def guarded_insert(self, key, score):
        with self._lock:
            self._entries[key] = score  # guarded: no finding
            self.threshold_value = score  # guarded: no finding

    def unguarded_mutator(self, key):
        self._entries.pop(key, None)  # line 30: WPL001
