"""End-to-end observability: metrics registry, request spans, slow-query log.

Three pieces, one switch:

- :class:`~repro.obs.metrics.MetricsRegistry` — lock-striped counters,
  gauges and histograms with Prometheus-text and JSON export;
- :class:`~repro.obs.spans.Span` — per-request timing trees threaded
  service → engine;
- :class:`~repro.obs.slowlog.SlowQueryLog` — bounded ring of over-budget
  requests with their full routing history.

:class:`Observability` bundles them into the single configuration object
:class:`~repro.service.service.WhirlpoolService` accepts.  Enabled, the
service attaches one :class:`~repro.core.trace.ExecutionTrace` per engine
run and :func:`~repro.obs.observer.record_run` folds the engine metrics
from it after the run.  Disabled (the default for embedding), no
observer is attached, so every hot-path hook is an ``is None`` guard —
the ``obs_overhead`` paper artifact under ``benchmarks/`` bounds the
cost.  See ``docs/observability.md``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from repro.obs.observer import record_run
from repro.obs.slowlog import SlowQueryEntry, SlowQueryLog, routing_history
from repro.obs.spans import NULL_SPAN, Span, SpanEvent

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "NULL_SPAN",
    "Observability",
    "SlowQueryEntry",
    "SlowQueryLog",
    "Span",
    "SpanEvent",
    "record_run",
    "routing_history",
]


class Observability:
    """Bundle of registry + slow-query log handed to the query service.

    Parameters
    ----------
    enabled:
        Master switch.  ``False`` (the embedding default) makes the
        registry hand out no-op instruments and drops span / slow-log
        collection entirely.
    registry:
        Bring-your-own :class:`MetricsRegistry` (e.g. shared across
        services); built to match ``enabled`` when omitted.
    slow_query_seconds:
        Latency budget; requests at or over it land in the slow-query
        log with their routing history.
    slow_query_capacity:
        Ring size of the slow-query log.
    """

    def __init__(
        self,
        enabled: bool = True,
        registry: Optional[MetricsRegistry] = None,
        slow_query_seconds: float = 0.25,
        slow_query_capacity: int = 32,
    ) -> None:
        self.enabled = enabled
        self.registry = registry if registry is not None else MetricsRegistry(enabled=enabled)
        self.slow_log: Optional[SlowQueryLog] = (
            SlowQueryLog(slow_query_seconds, slow_query_capacity) if enabled else None
        )

    @classmethod
    def disabled(cls) -> "Observability":
        """The no-op configuration (shared-instrument registry, no log)."""
        return cls(enabled=False)

    def span(self, name: str, attributes: Callable[[], Dict[str, Any]]) -> Span:
        """Open a span — or, when disabled, hand out :data:`NULL_SPAN`
        without calling ``attributes``.  Publishers test ``span is not
        NULL_SPAN``: nothing is exposed for a request that recorded
        nothing."""
        return Span(name, attributes()) if self.enabled else NULL_SPAN

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"Observability({state})"
