"""Execution tracing: watch partial matches flow through the whirlpool.

Adaptivity is the paper's whole point, and it is invisible in aggregate
counters: two runs with identical operation counts can route the same
tuple through opposite plans.  :class:`ExecutionTrace` is an engine
observer that records every seed / routing decision / extension outcome,
and can reconstruct per-match histories — "this tuple went price → title,
got pruned at threshold 0.62" — plus routing summaries showing how the
chosen next-server distribution shifts as the top-k threshold grows.

Usage::

    trace = ExecutionTrace()
    runner = WhirlpoolS(..., observer=trace)
    result = runner.run()
    print(trace.summary())
    print(trace.history(result.answers[0].match.match_id))

All engines accept the observer; events carry a monotone sequence number
(and the thread name under Whirlpool-M, where interleaving is real).
Queue depths after each put are kept beside the events, in
``queue_depths``.  The query service attaches one trace per run and
folds its engine metrics from it afterwards
(:func:`repro.obs.observer.record_run`).
"""

from __future__ import annotations

import itertools
import threading
from typing import Dict, List, Optional, Tuple

from repro.core.match import PartialMatch


class TraceEvent:
    """One observed engine event."""

    __slots__ = ("seq", "kind", "match_id", "server_id", "score", "bound", "threshold", "detail")

    def __init__(
        self,
        seq: int,
        kind: str,
        match_id: int,
        server_id: Optional[int],
        score: float,
        bound: float,
        threshold: float,
        detail: str = "",
    ) -> None:
        self.seq = seq
        self.kind = kind
        self.match_id = match_id
        self.server_id = server_id
        self.score = score
        self.bound = bound
        self.threshold = threshold
        self.detail = detail

    def __repr__(self) -> str:
        server = f" server={self.server_id}" if self.server_id is not None else ""
        return (
            f"TraceEvent({self.seq}: {self.kind} match={self.match_id}{server} "
            f"score={self.score:.3f} bound={self.bound:.3f} thr={self.threshold:.3f})"
        )


class EngineObserver:
    """No-op observer base; engines call these hooks when one is attached."""

    def on_seed(self, match: PartialMatch, threshold: float) -> None:
        """A root candidate entered the system."""

    def on_route(self, match: PartialMatch, server_id: int, threshold: float) -> None:
        """The router sent ``match`` to ``server_id``."""

    def on_extension(
        self,
        parent: PartialMatch,
        extension: PartialMatch,
        outcome: str,
        threshold: float,
    ) -> None:
        """A server spawned ``extension``; outcome ∈ completed/pruned/alive."""

    def on_prune(self, match: PartialMatch, threshold: float) -> None:
        """``match`` was discarded against the top-k threshold."""

    def on_queue_depth(self, site: str, depth: int) -> None:
        """A queue at ``site`` reached ``depth`` entries after a put."""


class ExecutionTrace(EngineObserver):
    """Observer that records everything (thread-safe)."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        #: ``(site, depth)`` after each queue put — not events, so they
        #: never show in ``events``, ``counts()`` or a failure's tail.
        self.queue_depths: List[Tuple[str, int]] = []
        self._parents: Dict[int, int] = {}
        self._seq = itertools.count()
        self._lock = threading.Lock()

    # -- hook implementations ------------------------------------------------

    def _record(
        self,
        kind: str,
        match: PartialMatch,
        server_id: Optional[int],
        threshold: float,
        detail: str = "",
    ) -> None:
        event = TraceEvent(
            next(self._seq),
            kind,
            match.match_id,
            server_id,
            match.score,
            match.upper_bound,
            threshold,
            detail,
        )
        with self._lock:
            self.events.append(event)

    def on_seed(self, match: PartialMatch, threshold: float) -> None:
        self._record("seed", match, None, threshold)

    def on_route(self, match: PartialMatch, server_id: int, threshold: float) -> None:
        self._record("route", match, server_id, threshold)

    def on_extension(
        self,
        parent: PartialMatch,
        extension: PartialMatch,
        outcome: str,
        threshold: float,
    ) -> None:
        with self._lock:
            self._parents[extension.match_id] = parent.match_id
        self._record("extension", extension, None, threshold, detail=outcome)

    def on_prune(self, match: PartialMatch, threshold: float) -> None:
        self._record("prune", match, None, threshold)

    def on_queue_depth(self, site: str, depth: int) -> None:
        with self._lock:
            self.queue_depths.append((site, depth))

    # -- analysis ----------------------------------------------------------------

    def lineage(self, match_id: int) -> List[int]:
        """Match ids from the seed down to ``match_id``."""
        chain = [match_id]
        while chain[-1] in self._parents:
            chain.append(self._parents[chain[-1]])
        chain.reverse()
        return chain

    def history(self, match_id: int) -> str:
        """Readable event history for one tuple and its ancestors."""
        wanted = set(self.lineage(match_id))
        lines = []
        for event in self.events:
            if event.match_id in wanted:
                server = f" @server {event.server_id}" if event.server_id is not None else ""
                detail = f" [{event.detail}]" if event.detail else ""
                lines.append(
                    f"  #{event.seq:<5} {event.kind:<9} match {event.match_id}"
                    f"{server} score={event.score:.3f} bound={event.bound:.3f}"
                    f" thr={event.threshold:.3f}{detail}"
                )
        return "\n".join(lines) if lines else f"  (no events for match {match_id})"

    def routing_distribution(self) -> Dict[int, int]:
        """server id → number of matches routed there."""
        distribution: Dict[int, int] = {}
        for event in self.events:
            if event.kind == "route" and event.server_id is not None:
                distribution[event.server_id] = distribution.get(event.server_id, 0) + 1
        return distribution

    def routes_by_threshold_band(
        self, bands: int = 4, ceiling: Optional[float] = None
    ) -> Dict[int, Dict[int, int]]:
        """Routing distribution per threshold band — adaptivity made visible.

        Returns {band index: {server id: count}}; band 0 covers the lowest
        thresholds.  A static plan yields identical distributions across
        bands; an adaptive router's distribution drifts.
        """
        routes = [event for event in self.events if event.kind == "route"]
        if not routes:
            return {}
        top = ceiling if ceiling is not None else max(e.threshold for e in routes)
        top = max(top, 1e-12)
        out: Dict[int, Dict[int, int]] = {}
        for event in routes:
            if event.server_id is None:
                continue
            band = min(int(event.threshold / top * bands), bands - 1)
            out.setdefault(band, {})
            out[band][event.server_id] = out[band].get(event.server_id, 0) + 1
        return out

    def counts(self) -> Dict[str, int]:
        """Event counts by kind."""
        out: Dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def summary(self) -> str:
        """Multi-line trace overview."""
        counts = self.counts()
        lines = [
            f"trace: {len(self.events)} events "
            f"({', '.join(f'{k}={v}' for k, v in sorted(counts.items()))})"
        ]
        lines.append("routing distribution:")
        for server_id, count in sorted(self.routing_distribution().items()):
            lines.append(f"  server {server_id}: {count} matches")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.events)
