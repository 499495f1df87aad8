"""Regression tests for the in-flight counter's notification-driven wait.

``wait_zero`` used to poll on a 20 ms interval; now every ``dec()`` that
reaches zero notifies the condition, so the waiter sleeps through the
whole wait and wakes at most a handful of times regardless of how long
the workers take.  These tests instrument ``Condition.wait`` to prove it.
The counter has no lock of its own: its condition is built on Whirlpool-M's
engine lock, which every caller holds — here, the test's stand-in.

A stuck counter is no longer survivable by cycling forever: when a full
backstop window passes with a positive count and *no* transitions,
``wait_zero`` raises :class:`~repro.errors.EngineDeadlockError` naming
the count and the still-alive threads.
"""

import threading
import time

import pytest

from repro.core.whirlpool_m import _WAIT_BACKSTOP_SECONDS, _InFlight
from repro.errors import EngineDeadlockError, EngineError


class CountingCondition(threading.Condition):
    """Condition that records every wait call and its timeout."""

    def __init__(self, lock):
        super().__init__(lock)
        self.wait_calls = []

    def wait(self, timeout=None):
        self.wait_calls.append(timeout)
        return super().wait(timeout)


def make_counted():
    """A counter on a stand-in engine lock, whose condition counts waits;
    call it with ``with condition:``, as an engine thread holds the lock."""
    lock = threading.Lock()
    counter = _InFlight(lock)
    condition = CountingCondition(lock)
    counter._cond = condition
    return counter, condition


def locked(condition, call, *args):
    with condition:
        return call(*args)


class TestWaitZero:
    def test_returns_immediately_at_zero(self):
        counter, condition = make_counted()
        locked(condition, counter.wait_zero)
        assert condition.wait_calls == []

    def test_wakes_on_notification_not_poll(self):
        # A 20 ms poll would call wait() ~25 times while the worker runs
        # for half a second; the notification-driven version sleeps once.
        counter, condition = make_counted()
        counter.inc()

        def worker():
            time.sleep(0.5)
            locked(condition, counter.dec)

        thread = threading.Thread(target=worker, name="inflight-test", daemon=True)
        started = time.perf_counter()
        with condition:
            thread.start()
            counter.wait_zero()
        elapsed = time.perf_counter() - started
        thread.join()

        assert elapsed >= 0.4
        assert len(condition.wait_calls) <= 3, condition.wait_calls

    def test_wait_uses_backstop_timeout(self):
        # The single sleep carries the deadlock backstop, not a poll tick.
        counter, condition = make_counted()
        counter.inc()

        thread = threading.Thread(
            target=lambda: (time.sleep(0.05), locked(condition, counter.dec)),
            name="inflight-test",
            daemon=True,
        )
        with condition:
            thread.start()
            counter.wait_zero()
        thread.join()

        assert condition.wait_calls
        assert all(timeout == _WAIT_BACKSTOP_SECONDS for timeout in condition.wait_calls)

    def test_backstop_expiry_raises_deadlock_error(self):
        # If workers die without decrementing, a full quiet backstop
        # window is a deadlock — diagnosed loudly, not cycled forever.
        counter, condition = make_counted()
        counter.inc(2)
        with condition, pytest.raises(EngineDeadlockError) as excinfo:
            counter.wait_zero(
                backstop_seconds=0.05,
                thread_names=["whirlpool-server-2-0", "whirlpool-router"],
            )
        error = excinfo.value
        assert error.in_flight == 2
        assert error.backstop_seconds == 0.05
        assert "whirlpool-router" in error.thread_names
        assert "whirlpool-router" in str(error)
        assert isinstance(error, EngineError)

    def test_backstop_tolerates_slow_progress(self):
        # Transitions during the window mean the system is slow, not
        # deadlocked: no exception, and the waiter drains normally.
        counter, condition = make_counted()
        counter.inc()

        def worker():
            for _ in range(4):
                time.sleep(0.03)
                with condition:
                    counter.inc()
                    counter.dec()
            locked(condition, counter.dec)

        thread = threading.Thread(target=worker, name="inflight-test", daemon=True)
        with condition:
            thread.start()
            assert counter.wait_zero(backstop_seconds=0.08) is True
        thread.join()

    def test_timeout_returns_false_without_deadlock_error(self):
        # The deadline-enforcement path: a short timeout expires before
        # the backstop window completes, reporting "not drained".
        counter, condition = make_counted()
        counter.inc()
        with condition:
            assert counter.wait_zero(backstop_seconds=5.0, timeout=0.05) is False
            counter.dec()
            assert counter.wait_zero(backstop_seconds=5.0, timeout=0.05) is True

    def test_multiple_increments_single_wait(self):
        counter, condition = make_counted()
        counter.inc(3)

        def worker():
            for _ in range(3):
                time.sleep(0.02)
                locked(condition, counter.dec)

        thread = threading.Thread(target=worker, name="inflight-test", daemon=True)
        with condition:
            thread.start()
            counter.wait_zero()
        thread.join()
        # Intermediate decrements (3→2→1) never notify, so the waiter is
        # not woken early: one sleep covers the whole drain.
        assert len(condition.wait_calls) <= 2, condition.wait_calls
