"""Tests for the latency-injected index proxy."""

import time

import pytest

from repro.bench.latency import LatencyIndex
from repro.core.engine import Engine
from repro.core.whirlpool_s import WhirlpoolS
from repro.xmldb.dewey import DepthRange
from repro.xmldb.index import DatabaseIndex
from repro.xmldb.parser import parse_document


@pytest.fixture
def index(books_db):
    return DatabaseIndex(books_db)


class TestLatencyIndex:
    def test_validates_latency(self, index):
        with pytest.raises(ValueError):
            LatencyIndex(index, probe_latency=-1)

    def test_related_results_unchanged(self, index, books_db):
        slow = LatencyIndex(index, probe_latency=0.0)
        root = books_db.node_by_dewey((0, 0))
        fast_result = index.related("title", root.dewey, DepthRange.ad())
        slow_result = slow.related("title", root.dewey, DepthRange.ad())
        assert slow_result == fast_result

    def test_probe_count_and_delay(self, index):
        slow = LatencyIndex(index, probe_latency=0.01)
        start = time.perf_counter()
        slow.related("title", (0, 0), DepthRange.ad())
        slow.related("title", (0, 1), DepthRange.ad())
        elapsed = time.perf_counter() - start
        assert slow.probe_count == 2
        assert elapsed >= 0.02

    def test_delegations(self, index):
        slow = LatencyIndex(index)
        assert "book" in slow
        assert slow.count("book") == index.count("book")
        assert slow.tags() == index.tags()
        assert len(slow["title"]) == len(index["title"])

    def test_engine_runs_through_proxy(self, books_db, index):
        engine = Engine(books_db, "/book[.//title = 'wodehouse']")
        slow = LatencyIndex(engine.index, probe_latency=0.0)
        runner = WhirlpoolS(
            pattern=engine.pattern,
            index=slow,
            score_model=engine.score_model,
            k=3,
        )
        result = runner.run()
        reference = engine.run(3)
        assert [round(a.score, 9) for a in result.answers] == [
            round(a.score, 9) for a in reference.answers
        ]
        assert slow.probe_count > 0
