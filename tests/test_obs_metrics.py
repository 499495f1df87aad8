"""Unit tests for the observability primitives (repro.obs).

Registry semantics (counters / gauges / histograms, label discipline,
disabled no-op instruments, Prometheus + JSON export), span trees, the
slow-query log ring and the ``record_run`` fold of a trace — all
independent of the query service, which
``tests/test_obs_service.py`` covers end to end.
"""

import json
import threading

import pytest

from repro.core.trace import ExecutionTrace, TraceEvent
from repro.errors import ReproError
from repro.obs import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    Observability,
    SlowQueryEntry,
    SlowQueryLog,
    Span,
    record_run,
    routing_history,
)
from repro.obs.metrics import _NULL_COUNTER, _NULL_GAUGE, _NULL_HISTOGRAM


class TestCounters:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        family = registry.counter("requests_total", "Requests.", ("outcome",))
        child = family.labels("served")
        child.inc()
        child.inc(2.5)
        assert child.value() == 3.5
        # A different label combination is a different child.
        assert family.labels("failed").value() == 0.0

    def test_negative_increment_rejected(self):
        registry = MetricsRegistry()
        child = registry.counter("c_total").labels()
        with pytest.raises(ReproError):
            child.inc(-1.0)

    def test_same_labels_share_one_child(self):
        registry = MetricsRegistry()
        family = registry.counter("c_total", labels=("a",))
        assert family.labels("x") is family.labels("x")
        family.labels("x").inc()
        assert family.labels("x").value() == 1.0


class TestGauges:
    def test_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth").labels()
        gauge.set(7.0)
        gauge.inc(3.0)
        gauge.dec()
        assert gauge.value() == 9.0


class TestHistograms:
    def test_cumulative_snapshot(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "latency_seconds", buckets=(0.1, 1.0, 10.0)
        ).labels()
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            histogram.observe(value)
        snap = histogram.snapshot()
        # Cumulative per-bucket counts, trailing +Inf bucket included.
        assert snap["buckets"] == [1, 3, 4, 5]
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(56.05)

    def test_unsorted_or_empty_buckets_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ReproError):
            registry.histogram("h", buckets=(1.0, 0.1))
        with pytest.raises(ReproError):
            registry.histogram("h2", buckets=())

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestRegistration:
    def test_label_arity_enforced(self):
        registry = MetricsRegistry()
        family = registry.counter("c_total", labels=("a", "b"))
        with pytest.raises(ReproError):
            family.labels("only-one")

    def test_re_registration_returns_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", labels=("a",))
        again = registry.counter("c_total", labels=("a",))
        assert first is again

    def test_conflicting_re_registration_rejected(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labels=("a",))
        with pytest.raises(ReproError):
            registry.gauge("c_total", labels=("a",))
        with pytest.raises(ReproError):
            registry.counter("c_total", labels=("a", "b"))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        for bad in ("", "9starts_with_digit", "has space", "has-dash"):
            with pytest.raises(ReproError):
                registry.counter(bad)


class TestDisabledRegistry:
    def test_children_are_shared_null_instruments(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("c_total").labels() is _NULL_COUNTER
        assert registry.gauge("g").labels() is _NULL_GAUGE
        assert registry.histogram("h").labels() is _NULL_HISTOGRAM
        # Two different families share the same no-op instance.
        assert registry.counter("other_total").labels() is _NULL_COUNTER

    def test_recording_is_a_noop(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("c_total").labels()
        counter.inc(100)
        assert counter.value() == 0.0
        histogram = registry.histogram("h").labels()
        histogram.observe(1.0)
        assert histogram.snapshot() == {"buckets": [], "sum": 0.0, "count": 0}

    def test_exports_render_empty_series(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("c_total", "help").labels().inc()
        text = registry.prometheus_text()
        assert "c_total{" not in text  # no children materialized
        assert registry.as_dict()["c_total"]["series"] == []


class TestExports:
    def _populated(self):
        registry = MetricsRegistry()
        requests = registry.counter(
            "requests_total", "Requests by outcome.", ("outcome",)
        )
        requests.labels("served").inc(3)
        requests.labels("failed").inc()
        latency = registry.histogram(
            "latency_seconds", "Latency.", buckets=(0.1, 1.0)
        )
        latency.labels().observe(0.05)
        latency.labels().observe(0.5)
        registry.gauge("depth", "Queue depth.").labels().set(4)
        return registry

    def test_prometheus_text(self):
        text = self._populated().prometheus_text()
        assert "# HELP requests_total Requests by outcome." in text
        assert "# TYPE requests_total counter" in text
        assert 'requests_total{outcome="served"} 3' in text
        assert 'requests_total{outcome="failed"} 1' in text
        assert 'latency_seconds_bucket{le="0.1"} 1' in text
        assert 'latency_seconds_bucket{le="1"} 2' in text
        assert 'latency_seconds_bucket{le="+Inf"} 2' in text
        assert "latency_seconds_sum 0.55" in text
        assert "latency_seconds_count 2" in text
        assert "depth 4" in text
        assert text.endswith("\n")

    def test_prometheus_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labels=("q",)).labels('say "hi"\n').inc()
        text = registry.prometheus_text()
        assert 'c_total{q="say \\"hi\\"\\n"} 1' in text

    def test_as_dict_is_json_serializable(self):
        payload = self._populated().as_dict()
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped["requests_total"]["kind"] == "counter"
        series = {
            entry["labels"]["outcome"]: entry["value"]
            for entry in round_tripped["requests_total"]["series"]
        }
        assert series == {"served": 3, "failed": 1}
        histogram = round_tripped["latency_seconds"]["series"][0]
        assert histogram["buckets"] == [1, 2, 2]
        assert histogram["bounds"] == [0.1, 1.0]

    def test_concurrent_increments_are_lossless(self):
        registry = MetricsRegistry()
        family = registry.counter("c_total", labels=("worker",))
        per_thread = 2000

        def hammer(name):
            child = family.labels(name)
            for _ in range(per_thread):
                child.inc()

        threads = [
            threading.Thread(target=hammer, args=(str(i % 3),), name=f"w{i}")
            for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = sum(family.labels(str(i)).value() for i in range(3))
        assert total == 6 * per_thread


class TestSpans:
    def test_attributes_events_and_children(self):
        span = Span("request", {"k": 5})
        span.annotate("outcome", "served")
        span.event("dequeued", wait=0.01)
        child = span.child("engine", {"algorithm": "whirlpool_s"})
        assert span.attributes() == {"k": 5, "outcome": "served"}
        assert [event.name for event in span.events()] == ["dequeued"]
        assert span.events()[0].attributes == {"wait": 0.01}
        assert span.children() == [child]
        assert span.find("engine") is child
        assert span.find("missing") is None

    def test_find_recurses(self):
        span = Span("request")
        inner = span.child("engine").child("inner")
        assert span.find("inner") is inner

    def test_finish_is_first_wins(self):
        span = Span("request")
        span.finish(span.start_seconds + 1.0)
        span.finish(span.start_seconds + 99.0)
        assert span.finished()
        assert span.duration_seconds() == pytest.approx(1.0)

    def test_open_span_duration_grows(self):
        span = Span("request")
        assert not span.finished()
        assert span.duration_seconds() >= 0.0
        assert span.as_dict()["duration_seconds"] is None

    def test_as_dict_tree(self):
        span = Span("request", {"k": 1})
        span.child("engine").finish()
        span.event("dequeued")
        span.finish()
        payload = json.loads(json.dumps(span.as_dict()))
        assert payload["name"] == "request"
        assert payload["attributes"] == {"k": 1}
        assert [child["name"] for child in payload["children"]] == ["engine"]
        assert payload["children"][0]["duration_seconds"] is not None
        assert payload["events"][0]["name"] == "dequeued"


def _route_event(seq, match_id, server_id, threshold):
    return TraceEvent(seq, "route", match_id, server_id, 0.4, 0.9, threshold)


def _entry(request_id=1, latency=0.5, history=()):
    return SlowQueryEntry(
        request_id=request_id,
        document="auction",
        xpath="//item[./name]",
        algorithm="whirlpool_s",
        routing="min_alive",
        outcome="served",
        latency_seconds=latency,
        queue_wait_seconds=0.01,
        routing_history=list(history),
    )


class TestSlowQueryLog:
    def test_routing_history_extracts_ordered_routes(self):
        trace = ExecutionTrace()
        trace.events.append(_route_event(0, 10, 2, 0.1))
        trace.events.append(TraceEvent(1, "prune", 10, None, 0.4, 0.9, 0.1))
        trace.events.append(_route_event(2, 11, 3, 0.2))
        history = routing_history(trace)
        assert [(step["seq"], step["server_id"]) for step in history] == [
            (0, 2),
            (2, 3),
        ]
        assert history[0]["threshold"] == 0.1

    def test_over_budget_is_inclusive(self):
        log = SlowQueryLog(budget_seconds=0.25)
        assert log.over_budget(0.25)
        assert log.over_budget(1.0)
        assert not log.over_budget(0.24)

    def test_ring_evicts_oldest(self):
        log = SlowQueryLog(budget_seconds=0.0, capacity=2)
        for request_id in range(1, 5):
            log.record(_entry(request_id=request_id))
        assert [entry.request_id for entry in log.entries()] == [3, 4]
        assert len(log) == 2
        assert log.recorded_total() == 4

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ReproError):
            SlowQueryLog(budget_seconds=-1.0)
        with pytest.raises(ReproError):
            SlowQueryLog(capacity=0)

    def test_describe_renders_routes(self):
        history = [
            {
                "seq": 7,
                "match_id": 42,
                "server_id": 3,
                "score": 0.4,
                "bound": 0.9,
                "threshold": 0.2,
            }
        ]
        text = _entry(history=history).describe()
        assert "request #1" in text
        assert "match 42 -> server 3" in text
        assert "(no routing decisions" not in text
        assert "(no routing decisions" in _entry().describe()

    def test_entries_are_json_serializable(self):
        log = SlowQueryLog(budget_seconds=0.0)
        log.record(_entry())
        payload = json.loads(json.dumps(log.as_dicts()))
        assert payload[0]["request_id"] == 1
        assert payload[0]["span"] is None


class TestRecordRun:
    def test_a_raised_run_folds_its_trace_only(self):
        trace = ExecutionTrace()
        trace.events.append(_route_event(0, 10, 2, 0.25))
        trace.events.append(TraceEvent(1, "extension", 11, None, 0.4, 0.9, 0.25, "pruned"))
        trace.on_queue_depth("router", 3)
        registry = MetricsRegistry()
        record_run(registry, "whirlpool_s", "min_alive", "failed", None, trace)
        snapshot = registry.as_dict()
        assert sorted(snapshot) == [
            "whirlpool_engine_events_total",
            "whirlpool_queue_depth",
            "whirlpool_topk_threshold",
        ]
        events = {
            entry["labels"]["event"]: entry["value"]
            for entry in snapshot["whirlpool_engine_events_total"]["series"]
        }
        assert events == {
            "seed": 0,
            "route": 1,
            "prune": 0,
            "extension_alive": 0,
            "extension_completed": 0,
            "extension_pruned": 1,
        }
        (threshold,) = snapshot["whirlpool_topk_threshold"]["series"]
        assert (threshold["count"], threshold["sum"]) == (1, 0.25)
        (depth,) = snapshot["whirlpool_queue_depth"]["series"]
        assert depth["labels"] == {"site": "router"}
        assert (depth["count"], depth["sum"]) == (1, 3)
        # A depth is kept beside the events, never as one.
        assert trace.queue_depths == [("router", 3)]
        assert trace.counts() == {"route": 1, "extension": 1}


class TestObservabilityBundle:
    def test_enabled_bundle(self):
        obs = Observability(slow_query_seconds=0.1, slow_query_capacity=4)
        assert obs.enabled
        assert obs.registry.enabled
        assert obs.slow_log is not None
        assert obs.slow_log.budget_seconds == 0.1

    def test_disabled_bundle(self):
        obs = Observability.disabled()
        assert not obs.enabled
        assert not obs.registry.enabled
        assert obs.slow_log is None

    def test_disabled_bundle_opens_the_null_span(self):
        from repro.obs import NULL_SPAN

        def attributes():
            raise AssertionError("a disabled span must not build its attributes")

        span = Observability.disabled().span("request", attributes)
        assert span is NULL_SPAN
        span.annotate("k", 3)
        span.event("dequeued", queue_wait_seconds=0.1)
        assert span.child("engine", {"k": 3}) is span
        span.finish()
        assert span.attributes() == {} and span.events() == [] and span.children() == []
        assert not span.finished()
        opened = Observability().span("request", lambda: {"k": 3})
        assert opened is not NULL_SPAN and opened.attributes() == {"k": 3}

    def test_bring_your_own_registry(self):
        registry = MetricsRegistry()
        obs = Observability(registry=registry)
        assert obs.registry is registry
