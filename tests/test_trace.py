"""Tests for execution tracing across all engines."""

import pytest

from repro.bench.makespan import simulate
from repro.core.engine import Engine
from repro.core.trace import EngineObserver, ExecutionTrace

PAPER_QUERY = "/book[./title = 'wodehouse' and ./info/publisher/name = 'psmith']"


@pytest.fixture
def engine(books_db):
    return Engine(books_db, PAPER_QUERY)


class TestEventCapture:
    def test_whirlpool_s_events(self, engine):
        trace = ExecutionTrace()
        result = engine.run(2, observer=trace)
        counts = trace.counts()
        assert counts["seed"] == 3
        assert counts["route"] == result.stats.routing_decisions
        assert counts["extension"] == (
            result.stats.partial_matches_created - counts["seed"]
        )
        assert len(trace) > 0

    def test_lockstep_events(self, engine):
        trace = ExecutionTrace()
        engine.run(2, algorithm="lockstep", observer=trace)
        counts = trace.counts()
        assert counts["seed"] == 3
        assert counts.get("route", 0) > 0

    def test_whirlpool_m_events(self, engine):
        trace = ExecutionTrace()
        engine.run(2, algorithm="whirlpool_m", observer=trace)
        assert trace.counts()["seed"] == 3

    def test_simulator_events(self, engine):
        trace = ExecutionTrace()
        simulate(engine.open(2, "whirlpool_m", observer=trace))
        assert trace.counts()["seed"] == 3
        assert trace.counts().get("route", 0) > 0

    def test_no_observer_no_overhead_error(self, engine):
        # Sanity: runs without observer remain unaffected.
        result = engine.run(2)
        assert len(result.answers) == 2


class TestAnalysis:
    def test_lineage_reaches_seed(self, engine):
        trace = ExecutionTrace()
        result = engine.run(1, observer=trace)
        winner = result.answers[0].match
        chain = trace.lineage(winner.match_id)
        assert chain[-1] == winner.match_id
        assert len(chain) >= 2  # seed + at least one extension
        seed_ids = {
            event.match_id for event in trace.events if event.kind == "seed"
        }
        assert chain[0] in seed_ids

    def test_history_renders(self, engine):
        trace = ExecutionTrace()
        result = engine.run(1, observer=trace)
        text = trace.history(result.answers[0].match.match_id)
        assert "seed" in text
        assert "extension" in text
        assert "score=" in text

    def test_history_unknown_match(self):
        trace = ExecutionTrace()
        assert "no events" in trace.history(999_999)

    def test_routing_distribution_covers_servers(self, engine):
        trace = ExecutionTrace()
        engine.run(2, observer=trace)
        distribution = trace.routing_distribution()
        assert set(distribution) <= set(engine.server_node_ids())
        assert sum(distribution.values()) == trace.counts()["route"]

    def test_routes_by_threshold_band(self, engine):
        trace = ExecutionTrace()
        engine.run(2, observer=trace)
        bands = trace.routes_by_threshold_band(bands=3)
        assert bands  # at least one band populated
        total = sum(count for band in bands.values() for count in band.values())
        assert total == trace.counts()["route"]

    def test_summary_text(self, engine):
        trace = ExecutionTrace()
        engine.run(2, observer=trace)
        summary = trace.summary()
        assert "events" in summary
        assert "routing distribution" in summary


class TestObserverBase:
    def test_noop_observer_accepted(self, engine):
        result = engine.run(2, observer=EngineObserver())
        assert len(result.answers) == 2

    def test_threshold_recorded_grows(self, engine):
        trace = ExecutionTrace()
        engine.run(1, observer=trace)
        thresholds = [e.threshold for e in trace.events]
        assert thresholds[-1] >= thresholds[0]
