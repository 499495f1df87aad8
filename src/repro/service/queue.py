"""The bounded admission queue — backpressure lives here.

Deliberately *not* a ``queue.Queue``: admission needs capacity-aware
eviction (shed-oldest / shed-lowest-priority), priority-then-FIFO
consumption, and a drain that hands back every queued entry for outcome
resolution — none of which the stdlib queue exposes.  Lint rule WPL007
enforces the complementary discipline: no unbounded stdlib queues may be
constructed anywhere in the service layer.

Capacities are small (tens, not millions), so consumption and eviction
use linear scans over the entry list instead of a heap — O(capacity) per
operation with no heap/list dual bookkeeping to keep consistent under
eviction from the middle.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Tuple

from repro.core.stats import monotonic_seconds
from repro.errors import ServiceError
from repro.service import policies
from repro.service.policies import OverloadPolicy
from repro.service.request import Ticket

#: :meth:`AdmissionQueue.offer` verdicts.
ADMITTED = "admitted"
REJECTED = "rejected"
SHED = "shed"


class AdmittedRequest:
    """One queued ticket plus its admission metadata.

    ``seq`` is the service-wide admission order (FIFO tiebreak and
    shed-oldest victim selection); ``admitted_at`` anchors deadline
    propagation — queue wait is charged against the request's budget;
    ``degrade`` marks entries admitted past the degrade watermark.
    """

    __slots__ = ("ticket", "priority", "seq", "admitted_at", "degrade")

    def __init__(
        self,
        ticket: Ticket,
        priority: int,
        seq: int,
        admitted_at: float,
        degrade: bool = False,
    ) -> None:
        self.ticket = ticket
        self.priority = priority
        self.seq = seq
        self.admitted_at = admitted_at
        self.degrade = degrade

    def __repr__(self) -> str:
        flag = ", degrade" if self.degrade else ""
        return f"AdmittedRequest(#{self.ticket.request_id}, prio={self.priority}{flag})"


class AdmissionQueue:
    """Bounded, priority-aware queue with pluggable overload policies."""

    def __init__(
        self, capacity: int, policy: OverloadPolicy = OverloadPolicy.REJECT
    ) -> None:
        if capacity < 1:
            raise ServiceError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.policy = policy
        self._cond = threading.Condition()
        self._entries: List[AdmittedRequest] = []
        self._closed = False

    # -- producer side ----------------------------------------------------------

    def offer(
        self, ticket: Ticket, priority: int, seq: int
    ) -> Tuple[str, Optional[AdmittedRequest]]:
        """Admit ``ticket`` under the overload policy.

        Returns ``(verdict, evicted)``:

        - ``(ADMITTED, None)`` — queued, nobody displaced;
        - ``(ADMITTED, entry)`` — queued after evicting ``entry`` (the
          caller owes the evicted ticket a ``SHED`` outcome);
        - ``(REJECTED, None)`` — queue full under ``reject``/``degrade``,
          or the queue is closed;
        - ``(SHED, None)`` — the incoming request itself was the
          shed-lowest-priority victim.
        """
        with self._cond:
            if self._closed:
                return REJECTED, None
            watermark = int(self.capacity * policies.DEGRADE_WATERMARK_FRACTION)
            degrade = (
                self.policy is OverloadPolicy.DEGRADE and len(self._entries) >= watermark
            )
            evicted: Optional[AdmittedRequest] = None
            if len(self._entries) >= self.capacity:
                if self.policy is OverloadPolicy.REJECT:
                    return REJECTED, None
                if self.policy is OverloadPolicy.DEGRADE:
                    # Degradation shortens service times; if the queue
                    # still filled, pressure exceeds what the anytime
                    # machinery can absorb — bounded means bounded.
                    return REJECTED, None
                if self.policy is OverloadPolicy.SHED_OLDEST:
                    evicted = min(self._entries, key=lambda e: e.seq)
                else:  # SHED_LOWEST_PRIORITY
                    victim = min(self._entries, key=lambda e: (e.priority, e.seq))
                    if priority <= victim.priority:
                        # The newcomer is (one of) the lowest: shedding it
                        # preserves "never shed a higher priority first".
                        return SHED, None
                    evicted = victim
                self._entries.remove(evicted)
            entry = AdmittedRequest(
                ticket,
                priority=priority,
                seq=seq,
                admitted_at=monotonic_seconds(),
                degrade=degrade,
            )
            self._entries.append(entry)
            self._cond.notify()
            return ADMITTED, evicted

    # -- consumer side ----------------------------------------------------------

    def take(self, timeout: Optional[float] = None) -> Optional[AdmittedRequest]:
        """Pop the best entry (priority desc, admission order asc).

        Blocks up to ``timeout``; returns ``None`` on timeout or once the
        queue is closed and empty.
        """
        with self._cond:
            if not self._entries and not self._closed:
                self._cond.wait(timeout)
            if not self._entries:
                return None
            entry = min(self._entries, key=lambda e: (-e.priority, e.seq))
            self._entries.remove(entry)
            return entry

    def drain(self) -> List[AdmittedRequest]:
        """Remove and return everything queued (drain-shutdown path)."""
        with self._cond:
            entries = list(self._entries)
            self._entries.clear()
            return entries

    def close(self) -> None:
        """Refuse further admissions and wake all blocked consumers."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    # -- introspection ----------------------------------------------------------

    def depth(self) -> int:
        """Entries currently queued."""
        with self._cond:
            return len(self._entries)

    def __len__(self) -> int:
        return self.depth()

    def __repr__(self) -> str:
        return (
            f"AdmissionQueue({self.depth()}/{self.capacity}, "
            f"policy={self.policy.value})"
        )
