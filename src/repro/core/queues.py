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
that lock (:mod:`repro.core.whirlpool_m`).  It is a plain heap: the
fault hooks and queue-depth reports of a put or a pop are the engine's
(:meth:`~repro.core.base.EngineBase.put_or_abandon`,
:meth:`~repro.core.base.EngineBase.pop_or_lose`).
"""

from __future__ import annotations

import enum
import heapq
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.match import PartialMatch


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
    """

    def __init__(
        self,
        policy: QueuePolicy = QueuePolicy.MAX_FINAL_SCORE,
        server_id: Optional[int] = None,
        max_contributions: Optional[Dict[int, float]] = None,
    ) -> None:
        self.policy = policy
        self._key = _heap_key(policy, server_id, max_contributions)
        self._heap: List = []

    # -- queue API -------------------------------------------------------------

    def put(self, match: PartialMatch) -> None:
        """Enqueue one match (key computed at insertion time)."""
        key = self._key
        heapq.heappush(
            self._heap,
            (-match.upper_bound if key is None else key(match), match.arrival, match),
        )

    def get_nowait(self) -> Optional[PartialMatch]:
        """Dequeue the head match; ``None`` when empty."""
        heap = self._heap
        return heapq.heappop(heap)[2] if heap else None

    #: The same pop under the name ``perf/tracing.py`` also wraps.
    get = get_nowait

    def head(self) -> Optional[Tuple[float, int, PartialMatch]]:
        """``(key, arrival, match)`` of the match a get would pop next,
        left in place; ``None`` when empty."""
        heap = self._heap
        return heap[0] if heap else None

    def __len__(self) -> int:
        return len(self._heap)

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
