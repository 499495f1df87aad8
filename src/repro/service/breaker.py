"""Per-engine circuit breakers: failure isolation across requests.

One breaker guards each engine algorithm the service can run.  The state
machine is the classic three states:

- **CLOSED** — requests flow; outcomes feed a sliding window of
  :data:`WINDOW` outcomes.  When it holds at least :data:`MIN_CALLS` of
  them and the failure rate reaches :data:`FAILURE_THRESHOLD`, the
  breaker trips.
- **OPEN** — requests are refused (the service walks the fallback chain
  instead).  The open interval is *seeded probe scheduling*:
  :data:`OPEN_SECONDS`, doubled per consecutive trip (at most
  :data:`MAX_BACKOFF_DOUBLINGS` times), plus up to :data:`PROBE_JITTER`
  of seeded jitter so a fleet of services never probes a struggling
  engine in lockstep.
- **HALF_OPEN** — after the open interval one probe request is let
  through; success closes the breaker (window reset), failure re-opens
  it with the next, longer interval.

What counts as *failure* is the caller's judgement — the service counts
an engine raise, and a result whose supervision abandoned matches, as
failures; a merely budget-degraded result is the anytime contract
working, not an unhealthy engine.

The tuning values are module constants; tests that need others
monkeypatch them.
"""

from __future__ import annotations

import enum
import threading
from collections import deque
from random import Random
from typing import Callable, Deque, Dict, Optional

from repro.core.stats import monotonic_seconds

#: Failure rate over the window at which a closed breaker trips.
FAILURE_THRESHOLD = 0.5
#: Outcomes the sliding window holds.
WINDOW = 8
#: Outcomes the window must hold before its failure rate can trip it.
MIN_CALLS = 4
#: Open interval after a first trip, before jitter.
OPEN_SECONDS = 0.25
#: Consecutive trips double the open interval at most this many times.
MAX_BACKOFF_DOUBLINGS = 5
#: Seeded jitter: each open interval is stretched by up to this fraction.
PROBE_JITTER = 0.5


class BreakerState(enum.Enum):
    """Where the breaker's state machine currently sits."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Sliding-window failure-rate breaker with seeded probe scheduling.

    ``seed`` drives the probe jitter, ``clock`` is the time source (unit
    tests pass a fake one) and ``listener`` is the transition callback
    described below.
    """

    def __init__(
        self,
        name: str,
        seed: int = 0,
        clock: Callable[[], float] = monotonic_seconds,
        listener: Optional[Callable[[str, str, str], None]] = None,
    ) -> None:
        self.name = name
        self._clock = clock
        #: Optional ``(name, old_state, new_state)`` callback fired on every
        #: state transition, **while holding the breaker lock** — listeners
        #: must be cheap and must never call back into the breaker.  The
        #: observability layer's listener only touches metric stripe locks,
        #: so the only cross-lock order is breaker → stripe (acyclic).
        self._listener = listener
        # Reentrant: _trip() re-acquires under the recording methods.
        self._lock = threading.RLock()
        self._rng = Random(seed)
        self._outcomes: Deque[bool] = deque(maxlen=WINDOW)
        self._state = BreakerState.CLOSED
        self._opened_at = 0.0
        self._open_for = 0.0
        self._consecutive_trips = 0
        self._trips = 0
        self._probes = 0
        self._probe_in_flight = False

    def _transition(self, new_state: BreakerState) -> None:
        """Move the state machine, notifying the listener (``_lock`` is reentrant)."""
        with self._lock:
            old_state = self._state
            self._state = new_state
            if self._listener is not None and old_state is not new_state:
                self._listener(self.name, old_state.value, new_state.value)

    # -- the gate ----------------------------------------------------------------

    def allow(self) -> bool:
        """May a request use this engine right now?

        ``OPEN`` transitions to ``HALF_OPEN`` once the seeded open
        interval has elapsed, releasing exactly one probe; the probe's
        :meth:`record_success` / :meth:`record_failure` decides what
        happens next.
        """
        now = self._clock()
        with self._lock:
            if self._state is BreakerState.CLOSED:
                return True
            if self._state is BreakerState.OPEN:
                if now - self._opened_at < self._open_for:
                    return False
                self._transition(BreakerState.HALF_OPEN)
                self._probe_in_flight = True
                self._probes += 1
                return True
            # HALF_OPEN: one probe at a time.
            if self._probe_in_flight:
                return False
            self._probe_in_flight = True
            self._probes += 1
            return True

    # -- outcome feedback --------------------------------------------------------

    def record_success(self) -> None:
        """A run on this engine completed healthily."""
        with self._lock:
            if self._state is BreakerState.HALF_OPEN:
                self._transition(BreakerState.CLOSED)
                self._probe_in_flight = False
                self._consecutive_trips = 0
                self._outcomes.clear()
                return
            self._outcomes.append(True)

    def record_failure(self) -> None:
        """A run on this engine raised or abandoned work."""
        with self._lock:
            if self._state is BreakerState.HALF_OPEN:
                self._probe_in_flight = False
                self._trip()
                return
            if self._state is BreakerState.OPEN:
                return
            self._outcomes.append(False)
            total = len(self._outcomes)
            failures = sum(1 for ok in self._outcomes if not ok)
            if total >= MIN_CALLS and failures / total >= FAILURE_THRESHOLD:
                self._trip()

    def _trip(self) -> None:
        # Seeded probe scheduling: exponential per consecutive trip,
        # jittered so independent breakers (and service replicas seeded
        # differently) decorrelate their probes.
        with self._lock:
            self._transition(BreakerState.OPEN)
            self._consecutive_trips += 1
            self._trips += 1
            doublings = min(self._consecutive_trips - 1, MAX_BACKOFF_DOUBLINGS)
            base = OPEN_SECONDS * (2.0**doublings)
            self._open_for = base * (1.0 + PROBE_JITTER * self._rng.random())
            self._opened_at = self._clock()
            self._outcomes.clear()

    # -- introspection -----------------------------------------------------------

    def state(self) -> BreakerState:
        """Current state (``OPEN`` even if the probe interval has elapsed —
        the transition happens on the next :meth:`allow`)."""
        with self._lock:
            return self._state

    def snapshot(self) -> Dict[str, object]:
        """One consistent view for health reporting."""
        now = self._clock()
        with self._lock:
            total = len(self._outcomes)
            failures = sum(1 for ok in self._outcomes if not ok)
            remaining: Optional[float] = None
            if self._state is BreakerState.OPEN:
                remaining = max(self._open_for - (now - self._opened_at), 0.0)
            return {
                "state": self._state.value,
                "window": total,
                "failures": failures,
                "failure_rate": (failures / total) if total else 0.0,
                "trips": self._trips,
                "probes": self._probes,
                "open_remaining_seconds": remaining,
            }

    def __repr__(self) -> str:
        return f"CircuitBreaker({self.name}, {self.state().value})"
