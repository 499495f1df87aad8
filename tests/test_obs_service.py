"""End-to-end observability through the query service.

An enabled :class:`~repro.obs.Observability` bundle must surface real
request traffic as Prometheus text, JSON health payloads, finished span
trees and slow-query entries whose routing history matches the engine's
own operation counts — and concurrent same-key traffic must share one
engine-cache entry with zero race-detector findings.
"""

import json
import re
import sys
import threading
from pathlib import Path

import pytest

from repro.analysis.racecheck import RaceCheck
from repro.faults import FaultAction, FaultPlan, FaultRule, FaultSite
from repro.obs import Observability
from repro.service import Outcome, QueryRequest, WhirlpoolService
from repro.service import breaker as breaker_module

QUERY = "//item[./description/parlist and ./mailbox/mail/text]"

#: The engine metric families folded from each run's trace, pinned in
#: ``ENGINE_FAMILIES_GOLDEN`` for the request list below.  (Retaken when
#: Whirlpool-S began to seed a root only when it would pop: its router
#: queue's depths no longer count seeds, and the roots its early stop
#: closes unseeded have no seed or prune event.)
ENGINE_FAMILIES = (
    "whirlpool_engine_events_total",
    "whirlpool_topk_threshold",
    "whirlpool_queue_depth",
)
ENGINE_FAMILIES_GOLDEN = Path(__file__).parent / "fixtures" / "obs" / "engine_families.json"

#: A crash at the ninth server operation: the run raises, so the request
#: takes the service's ``engine_error`` exit after recording events.
CRASH_PLAN = FaultPlan([FaultRule(FaultSite.SERVER_OP, FaultAction.CRASH, nth=9, times=1)])

#: Deterministic engines only: Whirlpool-M's event order varies per run.
ENGINE_FAMILY_REQUESTS = (
    {"algorithm": "whirlpool_s", "routing": "min_alive"},
    {"algorithm": "whirlpool_s", "routing": "max_score"},
    {"algorithm": "whirlpool_s", "routing": "min_score"},
    {"algorithm": "lockstep"},
    {"algorithm": "whirlpool_s", "routing": "min_score", "faults": CRASH_PLAN},
)

#: One Prometheus exposition line: name{labels} value  (comments aside).
_PROM_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z0-9_]+=\"(\\.|[^\"\\])*\""
    r"(,[a-zA-Z0-9_]+=\"(\\.|[^\"\\])*\")*\})? (\+Inf|-?[0-9.e+-]+)$"
)


def serve_one(service, **overrides):
    request = QueryRequest("auction", QUERY, k=5, **overrides)
    response = service.submit(request).result(timeout=30.0)
    assert response.outcome is Outcome.SERVED, response
    return response


class TestMetricsExport:
    def test_health_includes_metrics_and_slow_queries(self, xmark_db):
        obs = Observability(slow_query_seconds=0.0)
        with WhirlpoolService(
            {"auction": xmark_db}, workers=2, observability=obs
        ) as service:
            serve_one(service)
            health = service.health()
        assert health["metrics"] is not None
        assert "whirlpool_requests_total" in health["metrics"]
        assert health["slow_queries"] is not None and health["slow_queries"]
        # The whole snapshot must survive JSON round-tripping (the point
        # of the one-export model).
        payload = json.loads(json.dumps(health))
        assert payload["metrics"]["whirlpool_requests_total"]["kind"] == "counter"

    def test_disabled_observability_is_invisible(self, xmark_db):
        with WhirlpoolService({"auction": xmark_db}, workers=1) as service:
            response = serve_one(service)
            health = service.health()
        assert health["metrics"] is None
        assert health["slow_queries"] is None
        assert response.span is None
        assert service.metrics_text() == ""
        assert service.slow_queries() == []

    def test_prometheus_text_is_parseable(self, xmark_db):
        obs = Observability()
        with WhirlpoolService(
            {"auction": xmark_db}, workers=2, observability=obs
        ) as service:
            serve_one(service)
            serve_one(service, algorithm="lockstep", routing="min_score")
            text = service.metrics_text()
        assert text
        for line in text.splitlines():
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE "))
                continue
            assert _PROM_LINE.match(line), f"unparseable line: {line!r}"
        assert 'algorithm="whirlpool_s"' in text
        assert 'routing="min_score"' in text
        assert 'outcome="served"' in text
        assert "whirlpool_request_latency_seconds_bucket" in text
        assert "whirlpool_engine_events_total" in text
        assert "whirlpool_queue_depth_bucket" in text

    def test_request_and_engine_metrics_recorded(self, xmark_db):
        obs = Observability()
        with WhirlpoolService(
            {"auction": xmark_db}, workers=1, observability=obs
        ) as service:
            for _ in range(3):
                result = serve_one(service).result
        requests = obs.registry.counter(
            "whirlpool_requests_total",
            labels=("algorithm", "routing", "outcome"),
        )
        assert requests.labels("whirlpool_s", "min_alive", "served").value() == 3
        operations = obs.registry.counter(
            "whirlpool_engine_operations_total",
            labels=("kind", "algorithm", "routing"),
        )
        # Three identical deterministic runs: the counter folds each
        # run's ExecutionStats.
        assert (
            operations.labels("server_operations", "whirlpool_s", "min_alive").value()
            == 3 * result.stats.server_operations
        )


def engine_families(database):
    """Serve ``ENGINE_FAMILY_REQUESTS`` in order; the series of the
    trace-derived engine families, as ``as_dict`` renders them."""
    obs = Observability()
    with WhirlpoolService({"auction": database}, workers=1, observability=obs) as service:
        reasons = [
            service.submit(QueryRequest("auction", QUERY, k=5, **options))
            .result(timeout=30.0)
            .reason
            for options in ENGINE_FAMILY_REQUESTS
        ]
    assert reasons == ["", "", "", "", "engine_error"]
    snapshot = obs.registry.as_dict()
    return {name: snapshot[name]["series"] for name in ENGINE_FAMILIES}


class TestEngineFamilies:
    def test_engine_families_match_the_golden_series(self, xmark_db):
        """Event counts, threshold and queue-depth histograms (sums
        included, exactly) for a fixed request list — the crashed run's
        events counted too."""
        golden = json.loads(ENGINE_FAMILIES_GOLDEN.read_text())
        assert engine_families(xmark_db) == golden


class TestFailureReports:
    def test_failure_report_keeps_the_trace_tail(self, xmark_db):
        with WhirlpoolService(
            {"auction": xmark_db}, workers=1, observability=Observability()
        ) as service:
            ticket = service.submit(
                QueryRequest("auction", QUERY, k=5, faults=FaultPlan.chaos(4))
            )
            response = ticket.result(timeout=30.0)
        assert response.result is not None
        failure = response.result.failure
        assert failure is not None
        assert failure.trace_tail
        assert ticket.trace is not None
        tail = ticket.trace.events[-len(failure.trace_tail):]
        assert failure.trace_tail == [repr(event) for event in tail]


class TestRequestSpans:
    def test_span_tree_covers_queue_and_engine(self, xmark_db):
        obs = Observability()
        with WhirlpoolService(
            {"auction": xmark_db}, workers=1, observability=obs
        ) as service:
            response = serve_one(service)
        span = response.span
        assert span is not None and span.name == "request"
        assert span.finished()
        attributes = span.attributes()
        assert attributes["outcome"] == "served"
        assert attributes["algorithm"] == "whirlpool_s"
        assert [event.name for event in span.events()][0] == "dequeued"
        engine_span = span.find("engine")
        assert engine_span is not None and engine_span.finished()
        engine_attrs = engine_span.attributes()
        assert engine_attrs["algorithm"] == "whirlpool_s"
        assert engine_attrs["server_operations"] > 0
        assert engine_span.duration_seconds() <= span.duration_seconds()
        # The tree is JSON-exportable (slow-log / health payloads).
        json.dumps(span.as_dict())


class TestSlowQueryLog:
    def test_slow_entry_reproduces_routing_history(self, xmark_db):
        # A zero budget makes every request "slow", deterministically.
        obs = Observability(slow_query_seconds=0.0)
        with WhirlpoolService(
            {"auction": xmark_db}, workers=1, observability=obs
        ) as service:
            response = serve_one(service)
        entries = service.slow_queries()
        assert len(entries) == 1
        entry = entries[0]
        assert entry.request_id == response.request_id
        assert entry.algorithm == "whirlpool_s"
        assert entry.outcome == "served"
        # The captured history is the engine's complete routing record:
        # one step per routing decision the run actually made.
        assert response.result is not None
        assert len(entry.routing_history) == response.result.stats.routing_decisions
        assert entry.routing_history, "expected at least one routing decision"
        first = entry.routing_history[0]
        assert set(first) == {
            "seq", "match_id", "server_id", "score", "bound", "threshold",
        }
        sequence = [step["seq"] for step in entry.routing_history]
        assert sequence == sorted(sequence)
        assert "-> server" in entry.describe()
        assert entry.span is not None and entry.span.finished()

    def test_fast_requests_stay_out_of_the_log(self, xmark_db):
        obs = Observability(slow_query_seconds=60.0)
        with WhirlpoolService(
            {"auction": xmark_db}, workers=1, observability=obs
        ) as service:
            serve_one(service)
        assert service.slow_queries() == []
        assert "whirlpool_slow_queries_total 0" in service.metrics_text()


class TestBreakerMetrics:
    def test_transitions_feed_counter_and_state_gauge(self, xmark_db):
        obs = Observability()
        with WhirlpoolService(
            {"auction": xmark_db}, workers=1, observability=obs
        ) as service:
            breaker = service.breaker("whirlpool_s")
            for _ in range(breaker_module.MIN_CALLS):
                breaker.record_failure()
        transitions = obs.registry.counter(
            "whirlpool_breaker_transitions_total",
            labels=("algorithm", "from_state", "to_state"),
        )
        assert transitions.labels("whirlpool_s", "closed", "open").value() == 1
        state = obs.registry.gauge("whirlpool_breaker_state", labels=("algorithm",))
        assert state.labels("whirlpool_s").value() == 2.0  # open


class TestConcurrentSameKey:
    def test_shared_engine_cache_is_race_free(self, xmark_db):
        """Many concurrent identical requests: one cache entry, identical
        answers, zero detector findings (the PR's headline bugfix)."""
        with RaceCheck() as check:
            obs = Observability(slow_query_seconds=0.0)
            with WhirlpoolService(
                {"auction": xmark_db}, workers=4, queue_depth=16, observability=obs
            ) as service:
                tickets = []
                submitted = threading.Barrier(4, timeout=10)

                def submit_two():
                    submitted.wait()
                    for _ in range(2):
                        tickets.append(
                            service.submit(QueryRequest("auction", QUERY, k=5))
                        )

                threads = [
                    threading.Thread(target=submit_two, name=f"submitter-{i}")
                    for i in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                responses = [ticket.result(timeout=30.0) for ticket in tickets]
            # All eight requests share ONE engine-cache entry.
            assert len(service._engines) == 1
        assert check.findings() == [], check.report()

        answers = []
        for response in responses:
            assert response.outcome is Outcome.SERVED, response
            assert response.result is not None
            answers.append(
                [
                    (answer.root_node.dewey, answer.score)
                    for answer in response.result.answers
                ]
            )
        # Identical requests against one shared engine: identical answers.
        assert all(answer == answers[0] for answer in answers[1:])
        # Every request's metrics were recorded exactly once.
        requests = obs.registry.counter(
            "whirlpool_requests_total",
            labels=("algorithm", "routing", "outcome"),
        )
        assert requests.labels("whirlpool_s", "min_alive", "served").value() == 8
        assert obs.slow_log is not None
        assert obs.slow_log.recorded_total() == 8


class TestRoutingValidation:
    def test_unknown_routing_rejected_at_submit(self):
        from repro.errors import ServiceError

        with pytest.raises(ServiceError):
            QueryRequest("auction", QUERY, routing="static")


if __name__ == "__main__":
    # Regenerate the engine-family golden series: run from the root of a
    # checkout of the commit to take it from, with its src on PYTHONPATH.
    from repro.xmark import XMarkConfig, generate_database

    families = engine_families(generate_database(XMarkConfig(items=60, seed=11)))
    json.dump(families, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
