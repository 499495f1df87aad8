"""Tests for the paper's future-work extensions: batching router ("bulk
adaptivity") and multi-threaded servers in the simulator."""

import pytest

from repro.bench.makespan import CostModel, simulate
from repro.core.engine import Engine
from repro.core.router import BatchingRouter, MinAliveRouter
from repro.errors import EngineError


@pytest.fixture(scope="module")
def engine(xmark_db):
    return Engine(xmark_db, "//item[./description/parlist and ./mailbox/mail/text]")


class TestBatchingRouter:
    def test_validates_buckets(self):
        with pytest.raises(ValueError):
            BatchingRouter(MinAliveRouter(), score_buckets=0)

    def test_cache_saves_decisions(self, engine):
        result = engine.run(10, routing_batch=8)
        assert len(result.answers) == 10
        # The wrapper is constructed inside run(); re-run manually to
        # inspect the cache counters.
        from repro.core.whirlpool_s import WhirlpoolS

        router = BatchingRouter(MinAliveRouter(), score_buckets=8)
        runner = WhirlpoolS(
            pattern=engine.pattern,
            index=engine.index,
            score_model=engine.score_model,
            k=10,
            router=router,
        )
        runner.run()
        assert router.cache_hits > 0
        assert router.cache_misses > 0
        # Bulk routing answers most decisions from cache.
        assert router.cache_hits > router.cache_misses

    def test_batched_answers_match_unbatched(self, engine):
        plain = engine.run(10, routing="min_alive")
        batched = engine.run(10, routing="min_alive", routing_batch=6)
        assert [round(a.score, 9) for a in batched.answers] == [
            round(a.score, 9) for a in plain.answers
        ]

    def test_never_routes_to_visited_server(self, engine):
        """A cached decision may point at a server the current match has
        already visited; the wrapper must fall through to the inner router."""
        from repro.core.whirlpool_s import WhirlpoolS

        router = BatchingRouter(MinAliveRouter(), score_buckets=1)
        runner = WhirlpoolS(
            pattern=engine.pattern,
            index=engine.index,
            score_model=engine.score_model,
            k=5,
            router=router,
        )
        result = runner.run()  # would raise inside choose() on a bad route
        assert len(result.answers) == 5


class TestThreadsPerServer:
    def _simulate(self, engine, threads, processors=None):
        run = engine.open(10, "whirlpool_m")
        run.threads_per_server = threads
        return simulate(run, n_processors=processors, cost_model=CostModel(operation_cost=1.0))

    def test_validates_threads(self, engine):
        with pytest.raises(EngineError):
            self._simulate(engine, 0)

    def test_more_threads_cannot_slow_unbounded_processors(self, engine):
        one = self._simulate(engine, 1)
        four = self._simulate(engine, 4)
        assert four.makespan <= one.makespan * 1.10

    def test_extra_threads_help_hot_servers(self, engine):
        """With unbounded processors, the bottleneck is the busiest single
        server; multiple threads per server must shrink the makespan."""
        one = self._simulate(engine, 1)
        many = self._simulate(engine, 8)
        assert many.makespan < one.makespan

    def test_answers_unchanged(self, engine):
        reference = [
            round(a.score, 9) for a in engine.run(10, algorithm="whirlpool_s").answers
        ]
        for threads in (1, 3, 8):
            sim = self._simulate(engine, threads)
            assert [round(a.score, 9) for a in sim.result.answers] == reference

    def test_single_processor_unaffected_by_threads(self, engine):
        """Thread count is irrelevant when only one processor exists."""
        one = self._simulate(engine, 1, processors=1)
        many = self._simulate(engine, 8, processors=1)
        assert many.makespan == pytest.approx(one.makespan, rel=0.05)
