"""Service observability: the outcome counters ``health()`` reports.

:class:`ServiceCounters` follows ``core/stats.py`` conventions —
counters increment through methods so the lock can wrap them, and
``as_dict()`` is the flat reporting surface.  Unlike
:class:`~repro.core.stats.ExecutionStats` (one instance per engine run)
one instance lives for the whole service, so it is always thread-safe.
"""

from __future__ import annotations

import threading
from typing import Dict

from repro.service.request import Outcome


class ServiceCounters:
    """Monotone request-disposition counters for one service lifetime."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._submitted = 0
        self._outcomes: Dict[str, int] = {outcome.value: 0 for outcome in Outcome}
        self._fallbacks = 0
        self._queue_wait_total = 0.0
        self._snapshots_saved = 0
        self._recovered = 0

    def record_submitted(self) -> None:
        """One request entered :meth:`~repro.service.service.WhirlpoolService.submit`."""
        with self._lock:
            self._submitted += 1

    def record_outcome(
        self, outcome: Outcome, fallback: bool = False, queue_wait: float = 0.0
    ) -> None:
        """One request reached its (single) terminal outcome."""
        with self._lock:
            self._outcomes[outcome.value] += 1
            if fallback:
                self._fallbacks += 1
            self._queue_wait_total += queue_wait

    def record_snapshot_saved(self) -> None:
        """One recovery snapshot was persisted for an in-flight request."""
        with self._lock:
            self._snapshots_saved += 1

    def record_recovered(self) -> None:
        """One persisted request was re-admitted by ``recover()``."""
        with self._lock:
            self._recovered += 1

    # -- reporting ---------------------------------------------------------------

    def submitted(self) -> int:
        """Requests accepted by ``submit`` so far."""
        with self._lock:
            return self._submitted

    def resolved(self) -> int:
        """Requests with a terminal outcome so far."""
        with self._lock:
            return sum(self._outcomes.values())

    def outstanding(self) -> int:
        """Requests submitted but not yet resolved."""
        with self._lock:
            return self._submitted - sum(self._outcomes.values())

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary for reporting / JSON dumps (one snapshot)."""
        with self._lock:
            out: Dict[str, float] = {"submitted": self._submitted}
            out.update(sorted(self._outcomes.items()))
            out["fallbacks"] = self._fallbacks
            out["queue_wait_total_seconds"] = self._queue_wait_total
            out["snapshots_saved"] = self._snapshots_saved
            out["recovered"] = self._recovered
            return out

    def __repr__(self) -> str:
        snapshot = self.as_dict()
        parts = ", ".join(f"{key}={value}" for key, value in snapshot.items())
        return f"ServiceCounters({parts})"
