"""End-to-end observability: metrics registry, request spans, slow-query log.

Three pieces, one switch:

- :class:`~repro.obs.metrics.MetricsRegistry` — lock-striped counters,
  gauges and histograms with Prometheus-text and JSON export;
- :class:`~repro.obs.spans.Span` — per-request timing trees threaded
  service → engine;
- :class:`~repro.obs.slowlog.SlowQueryLog` — bounded ring of over-budget
  requests with their full routing history.

:class:`Observability` bundles them into the single configuration object
:class:`~repro.service.service.WhirlpoolService` accepts.  Disabled (the
default for embedding), every hot-path hook degrades to an ``is None``
guard or a shared no-op instrument — the overhead benchmark
(``benchmarks/bench_obs_overhead.py``) bounds the cost.  See
``docs/observability.md``.
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
from repro.obs.observer import MetricsEngineObserver, record_run
from repro.obs.slowlog import SlowQueryEntry, SlowQueryLog, routing_history
from repro.obs.spans import NULL_SPAN, Span, SpanEvent

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsEngineObserver",
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
    stripes:
        Stripe-lock count for a registry built here.
    """

    def __init__(
        self,
        enabled: bool = True,
        registry: Optional[MetricsRegistry] = None,
        slow_query_seconds: float = 0.25,
        slow_query_capacity: int = 32,
        stripes: int = 8,
    ) -> None:
        self.enabled = enabled
        self.registry = (
            registry
            if registry is not None
            else MetricsRegistry(enabled=enabled, stripes=stripes)
        )
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

    def engine_observer(
        self, algorithm: str, routing: str
    ) -> Optional[MetricsEngineObserver]:
        """A per-run metrics observer, or ``None`` when disabled."""
        if not self.enabled:
            return None
        return MetricsEngineObserver(self.registry, algorithm, routing)

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"Observability({state})"
