"""Folding finished engine runs into the metrics registry.

:func:`record_run` runs once per request, after the engine returns, so
it resolves labels on the fly.  It folds three things:

- the run's :class:`~repro.core.trace.ExecutionTrace` — the only observer
  the query service attaches — into event counts, one top-k threshold
  sample per routing decision and one queue-depth sample per put;
- the run's :class:`~repro.core.stats.ExecutionStats` counters and wall
  time;
- any :class:`~repro.faults.report.FailureReport`.

Nothing here runs on the engine's hot path: the trace is all an enabled
run pays for while it runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:
    from repro.core.base import TopKResult
    from repro.core.trace import ExecutionTrace

#: Top-k threshold histogram buckets — tf*idf scores normalise into low
#: single digits; the growth curve (Section 6.1.2's adaptivity driver) is
#: what the distribution makes visible.
THRESHOLD_BUCKETS: Tuple[float, ...] = (
    0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.8, 1.0, 1.5, 2.0, 4.0,
)

#: Queue-depth histogram buckets (entries, not seconds).
DEPTH_BUCKETS: Tuple[float, ...] = (1, 2, 5, 10, 25, 50, 100, 250, 1000)


#: ExecutionStats attributes bridged into the per-run counter family.
_STAT_KINDS: Tuple[str, ...] = (
    "server_operations",
    "join_comparisons",
    "partial_matches_created",
    "partial_matches_pruned",
    "completed_matches",
    "routing_decisions",
)

#: Event labels of ``whirlpool_engine_events_total``: a trace event's
#: kind, with an extension's outcome appended.  Every label gets a series
#: once a run is folded, zero counts included.
_EVENT_LABELS: Tuple[str, ...] = (
    "seed",
    "route",
    "prune",
    "extension_alive",
    "extension_completed",
    "extension_pruned",
)


def _fold_trace(
    registry: MetricsRegistry, algorithm: str, routing: str, trace: "ExecutionTrace"
) -> None:
    threshold = registry.histogram(
        "whirlpool_topk_threshold",
        "Top-k threshold observed at each routing decision.",
        labels=("algorithm", "routing"),
        buckets=THRESHOLD_BUCKETS,
    ).labels(algorithm, routing)
    counts: Dict[str, int] = dict.fromkeys(_EVENT_LABELS, 0)
    for event in trace.events:
        kind = event.kind
        if kind == "extension":
            kind = "extension_" + event.detail
        elif kind == "route":
            threshold.observe(event.threshold)
        counts[kind] += 1
    events = registry.counter(
        "whirlpool_engine_events_total",
        "Engine observer events by kind.",
        labels=("event", "algorithm", "routing"),
    )
    for label, count in counts.items():
        events.labels(label, algorithm, routing).inc(count)
    depths = registry.histogram(
        "whirlpool_queue_depth",
        "Router/server queue depth sampled after each put.",
        labels=("site",),
        buckets=DEPTH_BUCKETS,
    )
    for site, depth in trace.queue_depths:
        depths.labels(site).observe(depth)


def record_run(
    registry: MetricsRegistry,
    algorithm: str,
    routing: str,
    outcome: str,
    result: Optional["TopKResult"],
    trace: Optional["ExecutionTrace"],
) -> None:
    """Fold one engine run into the registry (cold path).

    ``trace`` is the run's trace, or ``None`` when none was attached (a
    backend-served run).  ``result`` is ``None`` when the run raised: its
    trace is still folded, and the per-result families are skipped.
    """
    if not registry.enabled:
        return
    if trace is not None:
        _fold_trace(registry, algorithm, routing, trace)
    if result is None:
        return
    operations = registry.counter(
        "whirlpool_engine_operations_total",
        "ExecutionStats counters accumulated across runs.",
        labels=("kind", "algorithm", "routing"),
    )
    stats = result.stats.as_dict()
    for kind in _STAT_KINDS:
        value = stats.get(kind, 0)
        if value:
            operations.labels(kind, algorithm, routing).inc(value)
    registry.histogram(
        "whirlpool_engine_wall_seconds",
        "Engine wall-clock time per run.",
        labels=("algorithm", "routing", "outcome"),
    ).labels(algorithm, routing, outcome).observe(stats.get("wall_time_seconds", 0.0))
    if result.degraded:
        registry.counter(
            "whirlpool_degraded_runs_total",
            "Runs that returned best-known answers under a budget or faults.",
            labels=("algorithm",),
        ).labels(algorithm).inc()
    if result.failure is not None:
        failures = registry.counter(
            "whirlpool_engine_failures_total",
            "Failure-report counters accumulated across runs.",
            labels=("kind", "algorithm"),
        )
        for kind, count in result.failure.metric_counts().items():
            if count:
                failures.labels(kind, algorithm).inc(count)
