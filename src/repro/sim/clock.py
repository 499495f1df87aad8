"""The clock seam: one sanctioned place where the repo touches time.

Every timed path outside the engine core — fault-injection ``DELAY``
sleeps, supervisor retry backoff, service deadlines and drain windows,
breaker probe scheduling, cluster RPC/heartbeat/reconnect ladders, the
latency simulator — reads and waits on the clock through this module
(lint rule WPL010 bans direct ``time.sleep`` everywhere else).  That
seam is what makes deterministic simulation possible: install a
:class:`VirtualClock` and chaos runs *warp* past their sleeps instead of
burning wall seconds, while deadlines, backoff ladders and probe windows
keep their exact relative semantics.

Two implementations:

- :class:`RealClock` — the default.  ``now()`` is the same monotonic
  source as :func:`repro.core.stats.monotonic_seconds` (kept textually
  separate so this module imports nothing above the foundation layer);
  ``sleep`` really blocks.
- :class:`VirtualClock` — time-warp semantics.  ``now()`` is real
  monotonic time **plus a warp offset**; every ``sleep(d)`` adds ``d``
  to the offset and returns immediately.  Time therefore always advances at least as
  fast as real time — cross-process liveness deadlines, socket timeouts
  and hang detection keep working — but injected delays, retry backoff
  and probe intervals cost nothing.  The warp total is recorded so the
  harness can report how much wall clock a simulated run avoided.

Pacing and progress are told apart:

- :meth:`Clock.sleep` is **pacing** (supervisor backoff, an injected
  DELAY).  The virtual clock warps past it.
- :meth:`Clock.wait_for` is a **progress** wait (a condition predicate
  another thread will make true, e.g. the coordinator's query slot).
  Both clocks block for real here — under a virtual clock the waiter's
  deadline still ticks via the warp, but genuine cross-thread progress
  is never simulated away.

The installed clock is process-global (``get_clock``/``set_clock``,
or the ``use_clock`` context manager for tests); ``REPRO_SIM_CLOCK=virtual``
selects the virtual clock at startup.  Subprocess boundaries do not
inherit the *object* — cluster shard workers pin a :class:`RealClock`
explicitly, because process-level faults (HANG) must burn real time to
be observable from the coordinator side.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional


class Clock:
    """Base clock: real time.  Subclasses override the three primitives."""

    name = "real"

    def now(self) -> float:
        """Monotonic seconds (same source as ``monotonic_seconds``)."""
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        """Pacing sleep: block for ``seconds`` (no-op when <= 0)."""
        if seconds > 0:
            time.sleep(seconds)

    def wait_for(
        self,
        condition: threading.Condition,
        predicate: Callable[[], bool],
        timeout: Optional[float],
    ) -> bool:
        """Progress wait: block until ``predicate()`` under ``condition``.

        Acquires the condition itself; returns the final predicate value.
        Never simulated away — the predicate is made true by real work on
        another thread, so both clocks block here (the virtual clock's
        warp only affects how fast the *deadline* approaches).
        """
        with condition:
            return condition.wait_for(predicate, timeout)

    def stats(self) -> Dict[str, float]:
        """Warp accounting (all zeros for the real clock)."""
        return {"sleeps": 0, "warped_seconds": 0.0}

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class RealClock(Clock):
    """The production clock (explicit alias of the base behaviour)."""


class VirtualClock(Clock):
    """Time-warp clock: sleeps advance virtual time instead of blocking.

    ``now() = monotonic + offset``; :meth:`sleep` adds its duration to
    ``offset``.  Monotonicity is
    preserved (the offset only grows), and because real time keeps
    flowing underneath, waits on genuine cross-thread or cross-process
    progress behave exactly as they do under :class:`RealClock`.
    """

    name = "virtual"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._offset = 0.0
        self._sleeps = 0
        self._warped_seconds = 0.0

    def now(self) -> float:
        with self._lock:
            return time.monotonic() + self._offset

    def _warp(self, seconds: float) -> None:
        with self._lock:
            self._offset += seconds
            self._sleeps += 1
            self._warped_seconds += seconds

    def sleep(self, seconds: float) -> None:
        if seconds <= 0:
            return
        self._warp(seconds)
        # Yield the GIL the way a real sleep would, so thread interleaving
        # under Whirlpool-M keeps its chance to rotate at former sleep sites.
        time.sleep(0)

    def stats(self) -> Dict[str, float]:
        with self._lock:
            return {"sleeps": self._sleeps, "warped_seconds": self._warped_seconds}

    def __repr__(self) -> str:
        snap = self.stats()
        return (
            f"VirtualClock(warped={snap['warped_seconds']:.4f}s "
            f"over {int(snap['sleeps'])} sleeps)"
        )


#: Environment switch honoured at first use: ``REPRO_SIM_CLOCK=virtual``
#: installs a :class:`VirtualClock` for the whole process (the chaos
#: matrices run unchanged under it — that is the point).
_ENV_VAR = "REPRO_SIM_CLOCK"

_install_lock = threading.Lock()
_clock: Optional[Clock] = None


def _initial_clock() -> Clock:
    if os.environ.get(_ENV_VAR, "").strip().lower() == "virtual":
        return VirtualClock()
    return RealClock()


def get_clock() -> Clock:
    """The process-wide installed clock (lazily initialised from the env)."""
    clock = _clock
    if clock is None:
        with _install_lock:
            clock = _clock
            if clock is None:
                clock = _initial_clock()
                _set(clock)
    return clock


def _set(clock: Clock) -> None:
    global _clock
    _clock = clock


def set_clock(clock: Clock) -> Clock:
    """Install ``clock`` process-wide; returns the previously installed one."""
    with _install_lock:
        previous = _clock if _clock is not None else _initial_clock()
        _set(clock)
    return previous


@contextmanager
def use_clock(clock: Clock) -> Iterator[Clock]:
    """Context manager: install ``clock``, restore the previous on exit."""
    previous = set_clock(clock)
    try:
        yield clock
    finally:
        set_clock(previous)


# -- module-level conveniences (what instrumented call sites import) ----------


def now() -> float:
    """``get_clock().now()`` — monotonic seconds on the installed clock."""
    return get_clock().now()


def sleep(seconds: float) -> None:
    """``get_clock().sleep(seconds)`` — the sanctioned pacing sleep."""
    get_clock().sleep(seconds)


def wait_for(
    condition: threading.Condition,
    predicate: Callable[[], bool],
    timeout: Optional[float],
) -> bool:
    """``get_clock().wait_for(...)`` — the sanctioned progress wait."""
    return get_clock().wait_for(condition, predicate, timeout)
