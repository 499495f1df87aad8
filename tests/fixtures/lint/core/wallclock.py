"""Fixture: wall-clock calls inside a ``core/`` module.

Deliberately violates WPL004 (no-wallclock-in-core).  The file lives under
a ``core/`` directory so the rule's path-role check fires.
"""

import time
from time import perf_counter  # line 8: WPL004 (from-time import)


def measure():
    started = time.perf_counter()  # line 12: WPL004
    time.sleep(0.01)  # line 13: WPL004
    return perf_counter() - started  # line 14: WPL004 (bare imported call)
