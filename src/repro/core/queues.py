"""Server priority queues — the four policies of Section 6.1.3.

- **FIFO** — arrival order; sensitive to processing order.
- **Current score** — highest current score first.
- **Maximum possible next score** — current score plus the maximum
  contribution *this* server could add.
- **Maximum possible final score** — the upper bound; the most adaptive
  policy and the paper's winner ("for all configurations tested, a queue
  based on the maximum possible final score performed better").

:class:`MatchQueue` is a priority queue over partial matches keyed by the
chosen policy.  It has no lock and never blocks: a run that one thread
drives pops it directly, and Whirlpool-M's threads put and pop only while
they hold their run's engine lock, and wait for work on a condition of
that lock (:mod:`repro.core.whirlpool_m`).
"""

from __future__ import annotations

import enum
import heapq
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.core.match import PartialMatch
from repro.errors import InjectedFaultError

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
    ) -> None:
        self.policy = policy
        self._key = _heap_key(policy, server_id, max_contributions)
        self._heap: List = []
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
        heap = self._heap
        heapq.heappush(
            heap, (-match.upper_bound if key is None else key(match), match.arrival, match)
        )
        observer = self._observer
        if observer is not None:
            observer.on_queue_depth(self._site, len(heap))

    def get_nowait(self) -> Optional[PartialMatch]:
        """Dequeue the head match; ``None`` when empty.

        With an injector attached each popped match first passes through
        its get hook: a DROP rule discards it (reporting through
        ``on_drop``) and the next one is popped; an injected ERROR counts
        the popped match as dropped (it already left the heap) and
        propagates.
        """
        heap = self._heap
        injector = self._injector
        while heap:
            match = heapq.heappop(heap)[2]
            if injector is None:
                return match
            try:
                if injector.on_get(self._site, match):
                    return match
            except InjectedFaultError:
                if self._on_drop is not None:
                    self._on_drop(match)
                raise
            if self._on_drop is not None:
                self._on_drop(match)
        return None

    #: The same pop under the name ``perf/tracing.py`` also wraps.
    get = get_nowait

    def head(self) -> Optional[Tuple[float, int, PartialMatch]]:
        """``(key, arrival, match)`` of the match a get would pop next,
        left in place; ``None`` when empty."""
        heap = self._heap
        return heap[0] if heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def empty(self) -> bool:
        """True iff no match is queued."""
        return len(self) == 0

    def snapshot(self) -> List[PartialMatch]:
        """All queued matches in priority order, without removing them.

        The checkpoint codec's view of the queue: non-destructive, so an
        engine can snapshot mid-run and keep going.
        """
        return [entry[2] for entry in sorted(self._heap)]

    def drain(self) -> List[PartialMatch]:
        """Remove and return all queued matches in priority order."""
        heap = self._heap
        return [heapq.heappop(heap)[2] for _ in range(len(heap))]

    def __repr__(self) -> str:
        return f"MatchQueue({self.policy.value}, size={len(self)})"
