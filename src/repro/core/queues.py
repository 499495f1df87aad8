"""Server priority queues — the four policies of Section 6.1.3.

- **FIFO** — arrival order; sensitive to processing order.
- **Current score** — highest current score first.
- **Maximum possible next score** — current score plus the maximum
  contribution *this* server could add.
- **Maximum possible final score** — the upper bound; the most adaptive
  policy and the paper's winner ("for all configurations tested, a queue
  based on the maximum possible final score performed better").

:class:`MatchQueue` is a priority queue over partial matches keyed by the
chosen policy.  It is built shared (the default: every method takes its
lock, and Whirlpool-M's server threads block on :meth:`MatchQueue.get`) or
declared unshared (``shared=False``: no lock, ``_lock is None``) by a run
that one thread drives — Whirlpool-S's router queue, LockStep's server
queues.  An unshared queue runs the same bodies without the lock round
trip; a blocking :meth:`MatchQueue.get` on it raises, since no other
thread could ever fill it.
"""

from __future__ import annotations

import enum
import heapq
import threading
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.core.match import PartialMatch
from repro.errors import EngineError, InjectedFaultError

if TYPE_CHECKING:
    from repro.core.trace import EngineObserver
    from repro.faults.inject import FaultInjector


class QueuePolicy(enum.Enum):
    """Server-queue prioritization policies (Section 6.1.3)."""

    FIFO = "fifo"
    CURRENT_SCORE = "current_score"
    MAX_NEXT_SCORE = "max_next_score"
    MAX_FINAL_SCORE = "max_final_score"


def _heap_key(
    policy: QueuePolicy,
    server_id: Optional[int],
    max_contributions: Optional[Dict[int, float]],
) -> Optional[Callable[[PartialMatch], float]]:
    """The min-heap key of ``policy``, picked once per queue (``None``:
    ``put`` computes ``-upper_bound`` in place)."""
    if policy is QueuePolicy.FIFO:
        return lambda match: float(match.arrival)
    if policy is QueuePolicy.CURRENT_SCORE:
        return lambda match: -match.score
    if policy is QueuePolicy.MAX_NEXT_SCORE:
        if server_id is None or max_contributions is None:
            raise ValueError("MAX_NEXT_SCORE requires server_id and max_contributions")
        node_id, table = server_id, max_contributions  # narrowed for the lambda
        return lambda match: -match.max_next_score(node_id, table)
    return None


class MatchQueue:
    """Priority queue of partial matches under one policy.

    Parameters
    ----------
    policy:
        Which :class:`QueuePolicy` orders the queue.
    server_id:
        Required for ``MAX_NEXT_SCORE`` — the query node whose maximum
        contribution is added to the current score.
    max_contributions:
        Per-server maximum contributions (needed by ``MAX_NEXT_SCORE``).
    injector:
        Optional :class:`~repro.faults.inject.FaultInjector`; when set,
        every put/get runs through its queue hooks (error / delay / drop
        actions).  ``None`` costs one attribute check per operation.
    site:
        Label identifying this queue to the injector and in reports
        (``"router"``, ``"server:<id>"``).
    on_drop:
        Callback invoked with a match the injector drops in transit —
        Whirlpool-M uses it to keep its in-flight counter exact.
    observer:
        Optional :class:`~repro.core.trace.EngineObserver` whose
        ``on_queue_depth`` hook receives the post-put depth — an
        :class:`~repro.core.trace.ExecutionTrace` keeps it in its
        ``queue_depths`` list, which the service folds into the
        queue-depth histograms after the run.  Like ``injector``,
        ``None`` costs one attribute check per put.
    shared:
        ``False`` declares the queue unshared — one thread puts and gets —
        so it takes no lock (module docstring).
    """

    def __init__(
        self,
        policy: QueuePolicy = QueuePolicy.MAX_FINAL_SCORE,
        server_id: Optional[int] = None,
        max_contributions: Optional[Dict[int, float]] = None,
        *,
        injector: Optional["FaultInjector"] = None,
        site: str = "",
        on_drop: Optional[Callable[[PartialMatch], None]] = None,
        observer: Optional["EngineObserver"] = None,
        shared: bool = True,
    ) -> None:
        self.policy = policy
        self._key = _heap_key(policy, server_id, max_contributions)
        self._heap: List = []
        #: ``None`` declares the queue unshared: one thread puts and gets.
        self._lock: Optional[threading.Lock] = threading.Lock() if shared else None
        self._not_empty: Optional[threading.Condition] = (
            threading.Condition(self._lock) if self._lock is not None else None
        )
        #: Getters blocked in :meth:`get` right now; a put notifies only
        #: when there is one to wake.
        self._waiters = 0
        self._closed = False
        self._injector = injector
        self._site = site
        self._on_drop = on_drop
        self._observer = observer

    # -- queue API -------------------------------------------------------------

    def put(self, match: PartialMatch) -> None:
        """Enqueue one match (key computed at insertion time).

        With an injector attached the put first passes through its hook:
        an ERROR rule raises before the match enters the heap, a DROP
        rule discards it (reporting through ``on_drop``), a DELAY rule
        stalls the producer.
        """
        injector = self._injector
        if injector is not None and not injector.on_put(self._site, match):
            if self._on_drop is not None:
                self._on_drop(match)
            return
        key = self._key
        entry = (-match.upper_bound if key is None else key(match), match.arrival, match)
        if self._lock is None:
            heapq.heappush(self._heap, entry)
            depth = len(self._heap)
        else:
            with self._lock:
                heapq.heappush(self._heap, entry)
                depth = len(self._heap)
                if self._waiters:
                    self._not_empty.notify()  # type: ignore[union-attr]
        observer = self._observer
        if observer is not None:
            observer.on_queue_depth(self._site, depth)

    def _filter_get(self, match: PartialMatch) -> Optional[PartialMatch]:
        """Run one popped match through the injector's get hook.

        Returns the match to hand out, or ``None`` when the injector
        dropped it.  An injected ERROR counts the popped match as dropped
        (it already left the heap) and propagates.
        """
        injector = self._injector
        if injector is None:
            return match
        try:
            keep = injector.on_get(self._site, match)
        except InjectedFaultError:
            if self._on_drop is not None:
                self._on_drop(match)
            raise
        if keep:
            return match
        if self._on_drop is not None:
            self._on_drop(match)
        return None

    def get(self, timeout: Optional[float] = None) -> Optional[PartialMatch]:
        """Dequeue the head match; ``None`` on timeout or after close.
        Blocks for another thread's put, so only a shared queue has it."""
        if self._not_empty is None:
            raise EngineError(
                f"blocking get on the unshared queue {self._site!r}: no other "
                "thread puts into it (use get_nowait)"
            )
        while True:
            with self._not_empty:
                while not self._heap:
                    if self._closed:
                        return None
                    self._waiters += 1
                    try:
                        signalled = self._not_empty.wait(timeout)
                    finally:
                        self._waiters -= 1
                    if not signalled:
                        return None
                match = heapq.heappop(self._heap)[2]
            delivered = self._filter_get(match)
            if delivered is not None:
                return delivered

    def get_nowait(self) -> Optional[PartialMatch]:
        """Dequeue without blocking; ``None`` when empty."""
        heap = self._heap
        while True:
            if self._lock is None:
                if not heap:
                    return None
                match = heapq.heappop(heap)[2]
            else:
                with self._lock:
                    if not heap:
                        return None
                    match = heapq.heappop(heap)[2]
            if self._injector is None:
                return match
            delivered = self._filter_get(match)
            if delivered is not None:
                return delivered

    def head(self) -> Optional[Tuple[float, int, PartialMatch]]:
        """``(key, arrival, match)`` of the match a get would pop next,
        left in place; ``None`` when empty."""
        heap = self._heap
        if self._lock is None:
            return heap[0] if heap else None
        with self._lock:
            return heap[0] if heap else None

    def close(self) -> None:
        """Wake all blocked getters; subsequent gets on empty return None."""
        if self._lock is None:
            self._closed = True
            return
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()  # type: ignore[union-attr]

    def reopen(self) -> None:
        """Undo :meth:`close`: gets on an empty queue block again."""
        if self._lock is None:
            self._closed = False
            return
        with self._lock:
            self._closed = False

    def __len__(self) -> int:
        if self._lock is None:
            return len(self._heap)
        with self._lock:
            return len(self._heap)

    def empty(self) -> bool:
        """True iff no match is queued."""
        return len(self) == 0

    def snapshot(self) -> List[PartialMatch]:
        """All queued matches in priority order, without removing them.

        The checkpoint codec's view of the queue: non-destructive, so an
        engine can snapshot mid-run and keep going.
        """
        if self._lock is None:
            entries = sorted(self._heap)
        else:
            with self._lock:
                entries = sorted(self._heap)
        return [entry[2] for entry in entries]

    def drain(self) -> List[PartialMatch]:
        """Remove and return all queued matches in priority order."""
        heap = self._heap
        if self._lock is None:
            return [heapq.heappop(heap)[2] for _ in range(len(heap))]
        with self._lock:
            return [heapq.heappop(heap)[2] for _ in range(len(heap))]

    def __repr__(self) -> str:
        return f"MatchQueue({self.policy.value}, size={len(self)})"
